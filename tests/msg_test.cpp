// Unit tests for envelopes, invocations, and replication protocol bodies.
#include <gtest/gtest.h>

#include "globe/msg/envelope.hpp"
#include "globe/msg/invocation.hpp"
#include "globe/replication/protocol.hpp"

namespace globe {
namespace {

TEST(Envelope, RoundTrip) {
  msg::Envelope env;
  env.type = msg::MsgType::kUpdate;
  env.object = 0xDEADBEEFCAFEULL;
  env.request_id = 77;
  env.body = util::to_buffer("payload");
  const auto wire = env.encode();
  const auto back = msg::Envelope::decode(util::BytesView(wire));
  EXPECT_EQ(back.type, env.type);
  EXPECT_EQ(back.object, env.object);
  EXPECT_EQ(back.request_id, env.request_id);
  EXPECT_EQ(util::to_string(util::BytesView(back.body)), "payload");
}

TEST(Envelope, ReplyClassification) {
  EXPECT_TRUE(msg::is_reply(msg::MsgType::kInvokeReply));
  EXPECT_TRUE(msg::is_reply(msg::MsgType::kFetchReply));
  EXPECT_TRUE(msg::is_reply(msg::MsgType::kSubscribeAck));
  EXPECT_FALSE(msg::is_reply(msg::MsgType::kInvokeRequest));
  EXPECT_FALSE(msg::is_reply(msg::MsgType::kUpdate));
  EXPECT_FALSE(msg::is_reply(msg::MsgType::kNotify));
}

TEST(Envelope, TypeNames) {
  EXPECT_STREQ(msg::to_string(msg::MsgType::kUpdate), "Update");
  EXPECT_STREQ(msg::to_string(msg::MsgType::kInvalidate), "Invalidate");
}

TEST(Invocation, GetPageRoundTrip) {
  const auto inv = msg::Invocation::get_page("index.html");
  EXPECT_FALSE(inv.writes());
  const auto back =
      msg::Invocation::decode(util::BytesView(util::encoded(inv)));
  EXPECT_EQ(back.method, msg::Method::kGetPage);
  util::Reader r{util::BytesView(back.args)};
  EXPECT_EQ(r.str(), "index.html");
}

TEST(Invocation, PutPageRoundTrip) {
  const auto inv = msg::Invocation::put_page("p", "content", "image/png");
  EXPECT_TRUE(inv.writes());
  const auto back =
      msg::Invocation::decode(util::BytesView(util::encoded(inv)));
  util::Reader r{util::BytesView(back.args)};
  EXPECT_EQ(r.str(), "p");
  EXPECT_EQ(r.str(), "content");
  EXPECT_EQ(r.str(), "image/png");
}

TEST(Invocation, WriteClassification) {
  EXPECT_TRUE(msg::is_write(msg::Method::kPutPage));
  EXPECT_TRUE(msg::is_write(msg::Method::kDeletePage));
  EXPECT_FALSE(msg::is_write(msg::Method::kGetPage));
  EXPECT_FALSE(msg::is_write(msg::Method::kListPages));
  EXPECT_FALSE(msg::is_write(msg::Method::kGetDocument));
}

// A request carries only its kind's fields: a write its WiD, deps,
// ordered flag and issue time, a read its two floors. Each kind
// round-trips its own fields, drops the other kind's, and a request of
// either kind cut anywhere throws.
TEST(Protocol, ClientRequestRoundTripsEachKind) {
  replication::ClientRequest write;
  write.inv = msg::Invocation::put_page("p", "v");
  write.wid = {9, 2};
  write.deps.set(1, 5);
  write.ordered = true;
  write.issued_at_us = 777;
  write.min_clock.set(9, 1);  // a read's field: not carried
  write.min_global_seq = 11;
  const util::Buffer write_wire = util::encoded(write);
  const auto wback =
      replication::ClientRequest::decode(util::BytesView(write_wire));
  EXPECT_EQ(wback.inv.method, msg::Method::kPutPage);
  EXPECT_EQ(wback.inv.args, write.inv.args);
  EXPECT_EQ(wback.wid, (coherence::WriteId{9, 2}));
  EXPECT_EQ(wback.deps, write.deps);
  EXPECT_TRUE(wback.ordered);
  EXPECT_EQ(wback.issued_at_us, 777);
  EXPECT_TRUE(wback.min_clock.empty());
  EXPECT_EQ(wback.min_global_seq, 0u);

  replication::ClientRequest read;
  read.inv = msg::Invocation::get_page("p");
  read.min_clock.set(9, 1);
  read.min_clock.set(4, 30);
  read.min_global_seq = 11;
  read.wid = {9, 3};  // a write's fields: not carried
  read.deps.set(1, 5);
  read.ordered = true;
  read.issued_at_us = 777;
  const util::Buffer read_wire = util::encoded(read);
  const auto rback =
      replication::ClientRequest::decode(util::BytesView(read_wire));
  EXPECT_EQ(rback.inv.method, msg::Method::kGetPage);
  EXPECT_EQ(rback.min_clock, read.min_clock);
  EXPECT_EQ(rback.min_global_seq, 11u);
  EXPECT_EQ(rback.wid, coherence::WriteId{});
  EXPECT_TRUE(rback.deps.empty());
  EXPECT_FALSE(rback.ordered);
  EXPECT_EQ(rback.issued_at_us, 0);

  for (const util::Buffer* wire : {&write_wire, &read_wire}) {
    for (std::size_t cut = 0; cut < wire->size(); ++cut) {
      EXPECT_THROW(replication::ClientRequest::decode(
                       util::BytesView(wire->data(), cut)),
                   util::CodecError)
          << cut;
    }
  }
}

TEST(Protocol, InvokeReplyRoundTrip) {
  replication::InvokeReply rep;
  rep.ok = true;
  rep.value = util::to_buffer("result");
  rep.document =
      std::make_shared<const util::Buffer>(util::to_buffer("doc"));
  rep.global_seq = 12;
  rep.store_clock.set(3, 4);
  rep.store = 2;
  const util::Buffer wire = util::encoded(rep);  // the view borrows it
  const auto back =
      replication::InvokeReply::decode_view(util::BytesView(wire));
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(util::to_string(back.value), "result");
  EXPECT_EQ(util::to_string(back.document), "doc");
  EXPECT_EQ(back.global_seq, 12u);
  EXPECT_EQ(back.store, 2u);
}

TEST(Protocol, UpdateMsgRoundTrip) {
  replication::UpdateMsg m;
  web::WriteRecord rec;
  rec.wid = {1, 1};
  rec.page = "p";
  rec.content = "v";
  m.records.push_back(rec);
  m.sender_clock.set(1, 1);
  m.sender_gseq = 3;
  const auto back =
      replication::UpdateMsg::decode(util::BytesView(util::encoded(m)));
  ASSERT_EQ(back.records.size(), 1u);
  EXPECT_EQ(back.records[0].page, "p");
  EXPECT_EQ(back.sender_gseq, 3u);
}

TEST(Protocol, FetchRoundTrip) {
  replication::FetchRequest f;
  f.have_clock.set(2, 7);
  f.have_gseq = 5;
  f.want_full = true;
  f.pages = {"a", "b"};
  f.validate_only = true;
  f.have_lamport = 99;
  const auto back =
      replication::FetchRequest::decode(util::BytesView(util::encoded(f)));
  EXPECT_EQ(back.have_clock.get(2), 7u);
  EXPECT_EQ(back.have_gseq, 5u);
  EXPECT_TRUE(back.want_full);
  EXPECT_EQ(back.pages, (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(back.validate_only);
  EXPECT_EQ(back.have_lamport, 99u);

  replication::FetchReply r;
  r.not_modified = true;
  r.gseq = 8;
  const util::Buffer rwire = util::encoded(r);
  const auto rback =
      replication::FetchReply::decode_view(util::BytesView(rwire));
  EXPECT_TRUE(rback.not_modified);
  EXPECT_EQ(rback.gseq, 8u);
  EXPECT_FALSE(rback.state.has_value());

  // A want_full answer embeds the full state.
  replication::FetchReply full;
  full.state.emplace();
  full.state->snapshot =
      std::make_shared<const util::Buffer>(util::to_buffer("whole-doc"));
  full.state->gseq = 5;
  full.state->source = 3;
  const util::Buffer fwire = util::encoded(full);
  const auto fback =
      replication::FetchReply::decode_view(util::BytesView(fwire));
  ASSERT_TRUE(fback.state.has_value());
  EXPECT_TRUE(fback.state->full);
  EXPECT_EQ(util::to_string(fback.state->snapshot), "whole-doc");
  EXPECT_EQ(fback.state->gseq, 5u);
  EXPECT_EQ(fback.state->source, 3u);
}

TEST(Protocol, WriteForwardRoundTrip) {
  replication::WriteForward f;
  f.request.inv = msg::Invocation::put_page("p", "v");
  f.request.wid = {5, 1};
  f.origin = {3, 14};
  f.origin_request_id = 99;
  const auto back =
      replication::WriteForward::decode(util::BytesView(util::encoded(f)));
  EXPECT_EQ(back.origin, (net::Address{3, 14}));
  EXPECT_EQ(back.origin_request_id, 99u);
  EXPECT_EQ(back.request.wid, (coherence::WriteId{5, 1}));
}

TEST(Protocol, SubscribeRoundTrip) {
  replication::SubscribeMsg s;
  s.subscriber = {7, 2};
  const util::Buffer wire = util::encoded(s);
  const auto sback = replication::SubscribeMsg::decode(util::BytesView(wire));
  EXPECT_EQ(sback.subscriber, (net::Address{7, 2}));
  EXPECT_FALSE(sback.want_delta);
  // The subscriber's address and the want_delta flag, nothing else.
  util::Writer address;
  net::encode_address(address, s.subscriber);
  EXPECT_EQ(wire.size(), address.size() + 1);
}

TEST(Protocol, SnapshotDeltaRequestRoundTrip) {
  replication::SnapshotDeltaRequest req;
  req.mode = replication::SnapshotDeltaRequest::Mode::kSummary;
  req.have.push_back(web::PageStamp{"a.html", {3, 7}, 11, 5});
  req.have.push_back(web::PageStamp{"b.html", {4, 1}, 2, 0});
  const auto back =
      replication::SnapshotDeltaRequest::decode(
          util::BytesView(util::encoded(req)));
  EXPECT_EQ(back.mode, replication::SnapshotDeltaRequest::Mode::kSummary);
  ASSERT_EQ(back.have.size(), 2u);
  EXPECT_EQ(back.have[0].page, "a.html");
  EXPECT_EQ(back.have[0].writer, (coherence::WriteId{3, 7}));
  EXPECT_EQ(back.have[0].lamport, 11u);
  EXPECT_EQ(back.have[1].global_seq, 0u);

  replication::SnapshotDeltaRequest floor;
  floor.mode = replication::SnapshotDeltaRequest::Mode::kFloor;
  floor.floor_source = 42;
  floor.floor_version = 1234;
  const auto fback = replication::SnapshotDeltaRequest::decode(
      util::BytesView(util::encoded(floor)));
  EXPECT_EQ(fback.mode, replication::SnapshotDeltaRequest::Mode::kFloor);
  EXPECT_EQ(fback.floor_source, 42u);
  EXPECT_EQ(fback.floor_version, 1234u);

  // A re-subscribe embeds the delta request in the subscribe body.
  replication::SubscribeMsg sub;
  sub.subscriber = {9, 3};
  sub.want_delta = true;
  sub.delta_req = floor;
  const auto sback =
      replication::SubscribeMsg::decode(util::BytesView(util::encoded(sub)));
  EXPECT_TRUE(sback.want_delta);
  EXPECT_EQ(sback.delta_req.floor_source, 42u);
}

TEST(Protocol, StateTransferRoundTrip) {
  replication::StateTransfer full;
  full.full = true;
  full.snapshot =
      std::make_shared<const util::Buffer>(util::to_buffer("whole-doc"));
  full.clock.set(1, 9);
  full.gseq = 3;
  full.source = 6;
  full.version = 77;
  const util::Buffer fwire = util::encoded(full);
  const auto fview =
      replication::StateTransfer::decode_view(util::BytesView(fwire));
  EXPECT_TRUE(fview.full);
  EXPECT_EQ(util::to_string(fview.snapshot), "whole-doc");
  EXPECT_EQ(fview.source, 6u);
  EXPECT_EQ(fview.version, 77u);

  replication::StateTransfer delta;
  delta.full = false;
  delta.delta = util::to_buffer("page-delta");
  delta.gseq = 4;
  delta.source = 2;
  delta.version = 15;
  const util::Buffer dwire = util::encoded(delta);
  const auto dview =
      replication::StateTransfer::decode_view(util::BytesView(dwire));
  EXPECT_FALSE(dview.full);
  EXPECT_EQ(util::to_string(dview.delta), "page-delta");
  EXPECT_EQ(dview.version, 15u);
}

TEST(Protocol, InvalidateAndNotifyRoundTrip) {
  replication::InvalidateMsg inv;
  inv.pages = {"x", "y"};
  inv.known_clock.set(1, 3);
  inv.known_gseq = 9;
  const auto iback =
      replication::InvalidateMsg::decode(util::BytesView(util::encoded(inv)));
  EXPECT_EQ(iback.pages, (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(iback.known_gseq, 9u);

  replication::NotifyMsg n;
  n.tick = 300;  // a multi-byte varint
  n.full = true;
  n.entries.resize(2);
  n.entries[0].object = 7;
  n.entries[0].clock.set(2, 2);
  n.entries[0].gseq = 4;
  n.entries[1].object = 1u << 20;
  n.entries[1].clock.set(1, 9);
  n.entries[1].clock.set(5, 1);
  const auto nback =
      replication::NotifyMsg::decode(util::BytesView(util::encoded(n)));
  EXPECT_EQ(nback.tick, 300u);
  EXPECT_TRUE(nback.full);
  EXPECT_FALSE(nback.want_full);
  ASSERT_EQ(nback.entries.size(), 2u);
  EXPECT_EQ(nback.entries[0].object, 7u);
  EXPECT_EQ(nback.entries[0].clock.get(2), 2u);
  EXPECT_EQ(nback.entries[0].gseq, 4u);
  EXPECT_EQ(nback.entries[1].object, 1u << 20);
  EXPECT_EQ(nback.entries[1].clock, n.entries[1].clock);
  EXPECT_EQ(nback.entries[1].gseq, 0u);

  // The full-list request: an unsequenced body with no entries.
  replication::NotifyMsg ask;
  ask.want_full = true;
  const auto aback =
      replication::NotifyMsg::decode(util::BytesView(util::encoded(ask)));
  EXPECT_EQ(aback.tick, 0u);
  EXPECT_FALSE(aback.full);
  EXPECT_TRUE(aback.want_full);
  EXPECT_TRUE(aback.entries.empty());
}

TEST(Protocol, NotifyDecodeRejectsHostileBytes) {
  replication::NotifyMsg n;
  n.tick = 5;
  n.entries.resize(3);
  for (std::size_t i = 0; i < n.entries.size(); ++i) {
    n.entries[i].object = i + 1;
    n.entries[i].clock.set(1, i + 1);
  }
  const util::Buffer wire = util::encoded(n);
  // Every proper prefix is truncated somewhere: header, count or entry.
  for (std::size_t len = 0; len < wire.size(); ++len) {
    util::Buffer cut(wire.begin(), wire.begin() + static_cast<long>(len));
    EXPECT_THROW(replication::NotifyMsg::decode(util::BytesView(cut)),
                 util::CodecError)
        << "prefix of " << len << " bytes";
  }
  // A forged entry count far beyond the body throws before anything is
  // sized by it (an allocation of 2^62 entries would abort instead).
  util::Writer forged;
  replication::NotifyMsg::encode_head(forged, 5, 0, std::size_t{1} << 62);
  replication::NotifyMsg::encode_entry(forged, 1, coherence::VectorClock{}, 0);
  EXPECT_THROW(
      replication::NotifyMsg::decode(util::BytesView(forged.take())),
      util::CodecError);
  // Unknown flag bits are rejected, not ignored.
  util::Buffer flags = util::encoded(n);
  flags[1] = std::byte{0x80};  // tick 5 is one varint byte
  EXPECT_THROW(replication::NotifyMsg::decode(util::BytesView(flags)),
               util::CodecError);
}

TEST(Protocol, AntiEntropyRoundTrip) {
  replication::AntiEntropyRequest req;
  req.have_clock.set(1, 1);
  const auto rb =
      replication::AntiEntropyRequest::decode(
          util::BytesView(util::encoded(req)));
  EXPECT_EQ(rb.have_clock.get(1), 1u);

  replication::AntiEntropyReply rep;
  web::WriteRecord rec;
  rec.wid = {2, 2};
  rec.page = "p";
  rep.records.push_back(rec);
  rep.responder_clock.set(2, 2);
  const auto pb =
      replication::AntiEntropyReply::decode(
          util::BytesView(util::encoded(rep)));
  ASSERT_EQ(pb.records.size(), 1u);
  EXPECT_EQ(pb.responder_clock.get(2), 2u);
}

TEST(Protocol, DecodeRejectsTruncated) {
  replication::ClientRequest req;
  req.inv = msg::Invocation::get_page("p");
  auto wire = util::encoded(req);
  wire.resize(wire.size() / 2);
  EXPECT_THROW(replication::ClientRequest::decode(util::BytesView(wire)),
               util::CodecError);
}

// A count read from the wire is checked against the bytes left before
// anything is sized: 2^60 elements cannot fit in a few bytes, and the
// decode must throw CodecError (which receive loops catch), never
// std::length_error from a reserve.
constexpr std::uint64_t kForgedCount = std::uint64_t{1} << 60;

TEST(Protocol, UpdateRejectsAForgedRecordCount) {
  util::Writer w;
  w.varint(kForgedCount);
  coherence::VectorClock{}.encode(w);
  w.varint(0);
  EXPECT_THROW((void)replication::UpdateMsg::decode(util::BytesView(w.view())),
               util::CodecError);
}

TEST(Protocol, SnapshotDeltaRequestRejectsAForgedStampCount) {
  util::Writer w;
  w.u8(0);      // summary mode
  w.varint(0);  // floor source
  w.varint(0);  // floor version
  w.varint(kForgedCount);
  EXPECT_THROW((void)replication::SnapshotDeltaRequest::decode(
                   util::BytesView(w.view())),
               util::CodecError);
}

TEST(Protocol, InvalidateRejectsAForgedPageCount) {
  util::Writer w;
  w.varint(kForgedCount);
  coherence::VectorClock{}.encode(w);
  w.varint(0);
  EXPECT_THROW(
      (void)replication::InvalidateMsg::decode(util::BytesView(w.view())),
      util::CodecError);
}

TEST(Protocol, FetchRequestRejectsAForgedPageCount) {
  util::Writer w;
  coherence::VectorClock{}.encode(w);
  w.varint(0);
  w.boolean(false);
  w.varint(kForgedCount);
  w.boolean(false);
  w.varint(0);
  EXPECT_THROW(
      (void)replication::FetchRequest::decode(util::BytesView(w.view())),
      util::CodecError);
}

}  // namespace
}  // namespace globe
