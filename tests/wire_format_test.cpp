// Properties of the wire format, where every protocol integer is a
// varint: randomized messages decode to what was encoded, the size
// bounds senders reserve with hold (the snapshot's size pass exactly),
// the minimum element sizes Reader::count divides by admit the smallest
// valid elements, and ids or ports wider than their fields are rejected.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "globe/membership/view.hpp"
#include "globe/msg/envelope.hpp"
#include "globe/replication/protocol.hpp"
#include "globe/util/rng.hpp"
#include "globe/web/document.hpp"

namespace globe {
namespace {

using coherence::VectorClock;
using coherence::WriteId;
using replication::NotifyMsg;
using replication::SnapshotDeltaRequest;
using replication::StateTransfer;
using util::BytesView;
using util::CodecError;
using util::Reader;
using util::Writer;
using web::PageStamp;
using web::WriteRecord;

constexpr int kRounds = 300;

/// Random fields whose integers cover every varint length: a bit width
/// drawn uniformly, then a value of that width.
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : rng_(seed) {}

  std::uint64_t bits(unsigned max_bits) {
    const auto width = static_cast<unsigned>(rng_.below(max_bits + 1));
    return width == 0 ? 0 : rng_.next() >> (64 - width);
  }
  std::uint64_t u64() { return bits(64); }
  std::uint32_t id() { return static_cast<std::uint32_t>(bits(32)); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool flip() { return rng_.chance(0.5); }
  std::size_t below(std::size_t n) { return rng_.below(n); }

  std::string str() {
    std::string s(rng_.below(20), '\0');
    for (char& c : s) c = static_cast<char>(rng_.below(256));
    return s;
  }
  util::Buffer bytes() { return util::to_buffer(str()); }

  WriteId wid() { return {id(), u64()}; }
  net::Address address() {
    return {id(), static_cast<PortId>(bits(16))};
  }
  VectorClock clock() {
    VectorClock vc;
    for (std::size_t i = below(6); i > 0; --i) vc.set(id(), u64());
    return vc;
  }
  WriteRecord record() {
    WriteRecord r;
    r.wid = wid();
    r.op = flip() ? web::WriteOp::kPut : web::WriteOp::kDelete;
    r.page = str();
    r.content = str();
    r.mime = str();
    r.deps = clock();
    r.global_seq = u64();
    r.lamport = u64();
    r.issued_at_us = i64();
    r.ordered = flip();
    return r;
  }
  std::vector<WriteRecord> records() {
    std::vector<WriteRecord> out(below(4));
    for (WriteRecord& r : out) r = record();
    return out;
  }
  PageStamp stamp() { return {str(), wid(), u64(), u64()}; }
  std::vector<std::string> pages() {
    std::vector<std::string> out(below(4));
    for (std::string& p : out) p = str();
    return out;
  }
  msg::Invocation invocation() {
    return {static_cast<msg::Method>(1 + below(5)), bytes()};
  }
  replication::ClientRequest request() {
    replication::ClientRequest q;
    q.inv = invocation();
    if (q.inv.writes()) {
      q.wid = wid();
      q.deps = clock();
      q.ordered = flip();
      q.issued_at_us = i64();
    } else {
      q.min_clock = clock();
      q.min_global_seq = u64();
    }
    return q;
  }
  SnapshotDeltaRequest delta_request() {
    SnapshotDeltaRequest m;
    m.mode = flip() ? SnapshotDeltaRequest::Mode::kSummary
                    : SnapshotDeltaRequest::Mode::kFloor;
    m.floor_source = id();
    m.floor_version = u64();
    for (std::size_t i = below(4); i > 0; --i) m.have.push_back(stamp());
    return m;
  }
  StateTransfer transfer() {
    StateTransfer t;
    t.full = flip();
    t.snapshot = std::make_shared<const util::Buffer>(bytes());
    t.delta = bytes();
    t.clock = clock();
    t.gseq = u64();
    t.source = id();
    t.version = u64();
    return t;
  }

 private:
  util::Rng rng_;
};

// Field tuples: what each message carries on the wire.
auto fields(const WriteRecord& r) {
  return std::tie(r.wid, r.op, r.page, r.content, r.mime, r.deps,
                  r.global_seq, r.lamport, r.issued_at_us, r.ordered);
}
auto fields(const PageStamp& s) {
  return std::tie(s.page, s.writer, s.lamport, s.global_seq);
}
auto fields(const msg::Invocation& i) { return std::tie(i.method, i.args); }
auto fields(const replication::ClientRequest& q) {
  return std::tuple_cat(fields(q.inv),
                        std::tie(q.wid, q.deps, q.ordered, q.issued_at_us,
                                 q.min_clock, q.min_global_seq));
}
auto fields(const SnapshotDeltaRequest& m) {
  return std::tie(m.mode, m.floor_source, m.floor_version);
}
std::string text(BytesView b) { return util::to_string(b); }

bool same(const std::vector<WriteRecord>& a,
          const std::vector<WriteRecord>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (fields(a[i]) != fields(b[i])) return false;
  }
  return true;
}
bool same(const SnapshotDeltaRequest& a, const SnapshotDeltaRequest& b) {
  if (fields(a) != fields(b) || a.have.size() != b.have.size()) return false;
  for (std::size_t i = 0; i < a.have.size(); ++i) {
    if (fields(a.have[i]) != fields(b.have[i])) return false;
  }
  return true;
}
bool same(const StateTransfer& a, const StateTransfer::View& b) {
  return a.full == b.full && text(util::view_of(a.snapshot)) ==
                                 text(b.snapshot) &&
         text(BytesView(a.delta)) == text(b.delta) && a.clock == b.clock &&
         a.gseq == b.gseq && a.source == b.source && a.version == b.version;
}

template <typename M>
util::Buffer wire(const M& m) {
  return util::encoded(m);
}

TEST(WireFormat, RecordsStampsAndIdsRoundTrip) {
  Gen g(1);
  for (int i = 0; i < kRounds; ++i) {
    const WriteRecord rec = g.record();
    const util::Buffer w = wire(rec);
    EXPECT_LE(w.size(), rec.encoded_size_bound());
    Reader r{BytesView(w)};
    EXPECT_TRUE(fields(WriteRecord::decode(r)) == fields(rec)) << i;
    EXPECT_TRUE(r.at_end());

    const PageStamp stamp = g.stamp();
    const util::Buffer ws = wire(stamp);
    Reader rs{BytesView(ws)};
    EXPECT_TRUE(fields(PageStamp::decode(rs)) == fields(stamp)) << i;
    EXPECT_TRUE(rs.at_end());

    const WriteId wid = g.wid();
    const util::Buffer ww = wire(wid);
    EXPECT_EQ(ww.size(), wid.encoded_size());
    EXPECT_GE(ww.size(), WriteId::kMinEncodedBytes);
    EXPECT_LE(ww.size(), WriteId::kMaxEncodedBytes);

    const VectorClock vc = g.clock();
    const util::Buffer wc = wire(vc);
    EXPECT_LE(wc.size(), vc.encoded_size_bound());
    Reader rc{BytesView(wc)};
    EXPECT_EQ(VectorClock::decode(rc), vc) << vc.str();
    EXPECT_TRUE(rc.at_end());
  }
  // The extremes of each field.
  const WriteId widest{std::numeric_limits<ClientId>::max(),
                       std::numeric_limits<std::uint64_t>::max()};
  EXPECT_EQ(wire(widest).size(), WriteId::kMaxEncodedBytes);
  EXPECT_EQ(wire(WriteId{}).size(), WriteId::kMinEncodedBytes);
}

TEST(WireFormat, EnvelopeHeaderRoundTrips) {
  Gen g(2);
  const msg::MsgType types[] = {msg::MsgType::kInvokeRequest,
                                msg::MsgType::kUpdate,
                                msg::MsgType::kStabilityHorizon};
  for (int i = 0; i < kRounds; ++i) {
    msg::Envelope env;
    env.type = types[g.below(3)];
    env.object = g.u64();
    env.request_id = g.u64();
    if (g.flip()) env.trace = {g.u64() | 1, g.u64()};
    env.body = g.bytes();
    const util::Buffer w = env.encode();
    EXPECT_LE(w.size(), msg::Envelope::kMaxHeaderBytes + env.body.size());
    const msg::Envelope back = msg::Envelope::decode(BytesView(w));
    EXPECT_EQ(back.type, env.type);
    EXPECT_EQ(back.object, env.object);
    EXPECT_EQ(back.request_id, env.request_id);
    EXPECT_EQ(back.trace.trace_id, env.trace.trace_id);
    EXPECT_EQ(back.trace.span_id, env.trace.span_id);
    EXPECT_EQ(back.body, env.body);
  }
}

TEST(WireFormat, ClientTrafficRoundTrips) {
  Gen g(3);
  for (int i = 0; i < kRounds; ++i) {
    const replication::ClientRequest req = g.request();
    EXPECT_TRUE(fields(replication::ClientRequest::decode(
                    BytesView(wire(req)))) == fields(req))
        << i;

    replication::WriteForward fwd;
    fwd.request = g.request();
    fwd.origin = g.address();
    fwd.origin_request_id = g.u64();
    const auto f = replication::WriteForward::decode(BytesView(wire(fwd)));
    EXPECT_TRUE(fields(f.request) == fields(fwd.request)) << i;
    EXPECT_EQ(f.origin, fwd.origin);
    EXPECT_EQ(f.origin_request_id, fwd.origin_request_id);

    replication::InvokeReply rep;
    rep.ok = g.flip();
    rep.error = g.str();
    rep.value = g.bytes();
    rep.document = std::make_shared<const util::Buffer>(g.bytes());
    rep.global_seq = g.u64();
    rep.store_clock = g.clock();
    rep.store = g.id();
    const util::Buffer w = wire(rep);
    EXPECT_LE(w.size(), rep.encoded_size_bound());
    const auto v = replication::InvokeReply::decode_view(BytesView(w));
    EXPECT_EQ(v.ok, rep.ok);
    EXPECT_EQ(v.error, rep.error);
    EXPECT_EQ(text(v.value), text(BytesView(rep.value)));
    EXPECT_EQ(text(v.document), text(util::view_of(rep.document)));
    EXPECT_EQ(v.global_seq, rep.global_seq);
    EXPECT_EQ(v.store_clock, rep.store_clock);
    EXPECT_EQ(v.store, rep.store);
  }
}

TEST(WireFormat, ReplicationTrafficRoundTrips) {
  Gen g(4);
  for (int i = 0; i < kRounds; ++i) {
    replication::UpdateMsg up{g.records(), g.clock(), g.u64()};
    const auto u = replication::UpdateMsg::decode(BytesView(wire(up)));
    EXPECT_TRUE(same(u.records, up.records)) << i;
    EXPECT_EQ(u.sender_clock, up.sender_clock);
    EXPECT_EQ(u.sender_gseq, up.sender_gseq);

    const SnapshotDeltaRequest dr = g.delta_request();
    EXPECT_TRUE(same(SnapshotDeltaRequest::decode(BytesView(wire(dr))), dr));

    const StateTransfer st = g.transfer();
    EXPECT_TRUE(same(st, StateTransfer::decode_view(BytesView(wire(st)))));

    replication::InvalidateMsg inv{g.pages(), g.clock(), g.u64()};
    const auto iv = replication::InvalidateMsg::decode(BytesView(wire(inv)));
    EXPECT_EQ(iv.pages, inv.pages);
    EXPECT_EQ(iv.known_clock, inv.known_clock);
    EXPECT_EQ(iv.known_gseq, inv.known_gseq);

    NotifyMsg n;
    n.tick = g.u64();
    n.full = g.flip();
    n.want_full = g.flip();
    for (std::size_t k = g.below(4); k > 0; --k) {
      n.entries.push_back({g.u64(), g.clock(), g.u64()});
    }
    const NotifyMsg nb = NotifyMsg::decode(BytesView(wire(n)));
    EXPECT_EQ(std::tie(nb.tick, nb.full, nb.want_full),
              std::tie(n.tick, n.full, n.want_full));
    ASSERT_EQ(nb.entries.size(), n.entries.size());
    for (std::size_t k = 0; k < n.entries.size(); ++k) {
      EXPECT_EQ(nb.entries[k].object, n.entries[k].object);
      EXPECT_EQ(nb.entries[k].clock, n.entries[k].clock);
      EXPECT_EQ(nb.entries[k].gseq, n.entries[k].gseq);
    }

    replication::FetchRequest fq;
    fq.have_clock = g.clock();
    fq.have_gseq = g.u64();
    fq.want_full = g.flip();
    fq.pages = g.pages();
    fq.validate_only = g.flip();
    fq.have_lamport = g.u64();
    const auto fqb = replication::FetchRequest::decode(BytesView(wire(fq)));
    EXPECT_EQ(std::tie(fqb.have_clock, fqb.have_gseq, fqb.want_full,
                       fqb.pages, fqb.validate_only, fqb.have_lamport),
              std::tie(fq.have_clock, fq.have_gseq, fq.want_full, fq.pages,
                       fq.validate_only, fq.have_lamport));

    replication::FetchReply fr;
    fr.records = g.records();
    fr.clock = g.clock();
    fr.gseq = g.u64();
    fr.not_modified = g.flip();
    fr.need_snapshot = g.flip();
    if (g.flip()) fr.state = g.transfer();
    const util::Buffer fw = wire(fr);  // the view borrows it
    const auto frb = replication::FetchReply::decode_view(BytesView(fw));
    EXPECT_TRUE(same(frb.records, fr.records)) << i;
    EXPECT_EQ(std::tie(frb.clock, frb.gseq, frb.not_modified,
                       frb.need_snapshot),
              std::tie(fr.clock, fr.gseq, fr.not_modified, fr.need_snapshot));
    ASSERT_EQ(frb.state.has_value(), fr.state.has_value());
    if (fr.state) {
      EXPECT_TRUE(same(*fr.state, *frb.state));
    }

    replication::SubscribeMsg sub;
    sub.subscriber = g.address();
    sub.want_delta = g.flip();
    if (sub.want_delta) sub.delta_req = g.delta_request();
    const auto sb = replication::SubscribeMsg::decode(BytesView(wire(sub)));
    EXPECT_EQ(std::tie(sb.subscriber, sb.want_delta),
              std::tie(sub.subscriber, sub.want_delta));
    EXPECT_TRUE(same(sb.delta_req, sub.delta_req));

    replication::AntiEntropyRequest aq{g.clock(), g.u64()};
    const auto aqb =
        replication::AntiEntropyRequest::decode(BytesView(wire(aq)));
    EXPECT_EQ(aqb.have_clock, aq.have_clock);
    EXPECT_EQ(aqb.have_gseq, aq.have_gseq);

    replication::AntiEntropyReply ar{g.records(), g.clock(), g.u64()};
    const auto arb = replication::AntiEntropyReply::decode(BytesView(wire(ar)));
    EXPECT_TRUE(same(arb.records, ar.records)) << i;
    EXPECT_EQ(arb.responder_clock, ar.responder_clock);
    EXPECT_EQ(arb.responder_gseq, ar.responder_gseq);
  }
}

TEST(WireFormat, SnapshotRoundTripsAndItsSizePassIsExact) {
  Gen g(5);
  for (int i = 0; i < 50; ++i) {
    web::WebDocument doc;
    for (std::size_t k = g.below(12); k > 0; --k) {
      WriteRecord rec = g.record();
      rec.page = "p" + std::to_string(g.below(8));
      doc.apply(rec);
    }
    for (const bool masked : {false, true}) {
      const util::Buffer snap = doc.encode_snapshot(masked);
      // encode_snapshot reserves the size its pass computed: a buffer
      // that grew, or was reserved too large, shows here.
      EXPECT_EQ(snap.capacity(), snap.size()) << i;
      web::WebDocument back;
      back.restore(BytesView(snap));
      EXPECT_EQ(back.encode_snapshot(masked), snap);
      if (masked) continue;
      ASSERT_EQ(back.page_names(), doc.page_names());
      for (const std::string& name : doc.page_names()) {
        EXPECT_EQ(*back.get(name), *doc.get(name)) << name;
      }
    }
  }
}

// The smallest valid element of every container a decoder counts must
// be exactly the minimum Reader::count divides by: a larger minimum
// rejects valid input, a smaller one weakens the forged-count check.
TEST(WireFormat, MinimalElementsPassTheCountCheck) {
  constexpr std::size_t kN = 50;

  VectorClock clock;  // ids 0, 1, 2, ...: one-byte deltas and seqs
  for (ClientId c = 0; c < kN; ++c) clock.set(c, 1);
  const util::Buffer clock_wire = wire(clock);
  EXPECT_EQ(clock_wire.size(), 1 + kN * VectorClock::kMinEntryBytes);
  Reader rc{BytesView(clock_wire)};
  EXPECT_EQ(VectorClock::decode(rc), clock);

  WriteRecord least;
  least.mime.clear();
  EXPECT_EQ(wire(least).size(), WriteRecord::kMinEncodedBytes);
  replication::AntiEntropyReply records;
  records.records.assign(kN, least);
  EXPECT_EQ(replication::AntiEntropyReply::decode(BytesView(wire(records)))
                .records.size(),
            kN);

  EXPECT_EQ(wire(PageStamp{}).size(), PageStamp::kMinEncodedBytes);
  SnapshotDeltaRequest stamps;
  stamps.have.assign(kN, PageStamp{});
  EXPECT_EQ(SnapshotDeltaRequest::decode(BytesView(wire(stamps))).have.size(),
            kN);

  naming::ContactPoint contact;
  contact.address = {0, 0};
  contact.store_id = 0;
  EXPECT_EQ(wire(contact).size(), naming::ContactPoint::kMinEncodedBytes);
  membership::View view;
  view.members.assign(kN, contact);
  const util::Buffer view_wire = wire(view);
  Reader rv{BytesView(view_wire)};
  EXPECT_EQ(membership::View::decode(rv).members.size(), kN);

  Writer address;
  net::encode_address(address, {0, 0});
  EXPECT_EQ(address.size(), net::kMinAddressBytes);
  membership::ViewDelta delta;
  delta.left.assign(kN, net::Address{0, 0});
  EXPECT_EQ(membership::ViewDelta::decode(BytesView(wire(delta))).left.size(),
            kN);

  NotifyMsg notify;
  notify.entries.assign(kN, NotifyMsg::Entry{});
  EXPECT_EQ(wire(notify).size(), 3 + kN * NotifyMsg::kMinEntryBytes);
  EXPECT_EQ(NotifyMsg::decode(BytesView(wire(notify))).entries.size(), kN);
}

TEST(WireFormat, RejectsIdsAndPortsWiderThanTheirFields) {
  // A WiD whose client id needs 33 bits.
  Writer wid;
  wid.varint(std::uint64_t{1} << 32);
  wid.varint(1);
  Reader rw{BytesView(wid.view())};
  EXPECT_THROW((void)WriteId::decode(rw), CodecError);

  // A subscriber address whose port needs 17 bits.
  Writer sub;
  sub.varint(3);                     // node
  sub.varint(std::uint64_t{1} << 16);  // port
  sub.boolean(false);                // no delta request
  EXPECT_THROW(
      (void)replication::SubscribeMsg::decode(BytesView(sub.view())),
      CodecError);

  // A store id past 32 bits in an invoke reply.
  replication::InvokeReply rep;
  util::Buffer w = wire(rep);
  w.resize(w.size() - util::varint_size(rep.store));
  Writer tail(std::move(w));
  tail.varint(std::uint64_t{1} << 32);
  EXPECT_THROW(
      (void)replication::InvokeReply::decode_view(BytesView(tail.view())),
      CodecError);
}

}  // namespace
}  // namespace globe
