// Replication protocol message bodies.
//
// These are the payloads carried inside envelopes between client local
// objects and store local objects, and between stores. One message
// vocabulary serves every coherence model; which messages actually flow,
// when, and with how much data is decided by the ReplicationPolicy
// (Table 1) interpreted by the store engine.
//
// Encode/decode discipline: every struct encodes via `encode(Writer&)`
// so senders can serialize straight into the wire buffer
// (CommunicationObject::send_with). Messages that carry large opaque
// blobs (snapshots, read values) additionally offer a `View` decode
// whose blob fields borrow the receive buffer — valid for the duration
// of the delivery callback, copied only if a handler must retain them.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "globe/coherence/vector_clock.hpp"
#include "globe/coherence/write_id.hpp"
#include "globe/msg/invocation.hpp"
#include "globe/net/address.hpp"
#include "globe/util/buffer.hpp"
#include "globe/web/document.hpp"
#include "globe/web/record_batch.hpp"
#include "globe/web/write_record.hpp"

namespace globe::replication {

using coherence::VectorClock;
using coherence::WriteId;
using util::Buffer;
using util::BytesView;
using util::Reader;
using util::SharedBuffer;
using util::Writer;

/// Envelope object key of store-scope traffic (kNotify): the message
/// concerns the sending store's object table, not one hosted object.
inline constexpr ObjectId kStoreScope = 0;

/// kInvokeRequest body: a client operation plus its session context.
/// Each kind carries only its own fields: a write the identity and
/// ordering its record takes, a read the floors its store must reach.
struct ClientRequest {
  msg::Invocation inv;
  // Writes only.
  WriteId wid;                     // assigned by the client
  VectorClock deps;                // write dependencies (causal / WFR)
  bool ordered = false;            // require per-writer ordered application
  std::int64_t issued_at_us = 0;
  // Reads only.
  VectorClock min_clock;             // RYW / MR requirement
  std::uint64_t min_global_seq = 0;  // sequential-model read floor

  /// Self-delimiting: the invocation is written inline, and a forward
  /// embeds the whole request the same way. The invocation's method
  /// says which kind's fields follow.
  void encode(Writer& w) const {
    inv.encode(w);
    if (inv.writes()) {
      wid.encode(w);
      deps.encode(w);
      w.boolean(ordered);
      w.varint_i64(issued_at_us);
    } else {
      min_clock.encode(w);
      w.varint(min_global_seq);
    }
  }

  static ClientRequest decode(Reader& r) {
    ClientRequest req;
    req.inv = msg::Invocation::decode(r);
    if (req.inv.writes()) {
      req.wid = WriteId::decode(r);
      req.deps = VectorClock::decode(r);
      req.ordered = r.boolean();
      req.issued_at_us = r.varint_i64();
    } else {
      req.min_clock = VectorClock::decode(r);
      req.min_global_seq = r.varint();
    }
    return req;
  }

  static ClientRequest decode(BytesView wire) {
    Reader r(wire);
    ClientRequest req = decode(r);
    r.expect_end();
    return req;
  }
};

/// kInvokeReply body.
struct InvokeReply {
  bool ok = false;
  std::string error;
  Buffer value;             // read result (method-specific encoding)
  // Full document when access transfer = full: the store's cached
  // snapshot, shared (not copied) into every reply. A page read then
  // carries its page only here, with no value.
  SharedBuffer document;
  std::uint64_t global_seq = 0;  // write: assigned seq; read: store's seq
  VectorClock store_clock;  // serving/accepting store's applied clock
  StoreId store = kInvalidStore;

  void encode(Writer& w) const {
    w.boolean(ok);
    w.str(error);
    w.bytes(BytesView(value));
    w.bytes(util::view_of(document));
    w.varint(global_seq);
    store_clock.encode(w);
    w.varint(store);
  }

  /// Upper bound on encode()'s output: a reply carrying the whole
  /// document is written into a wire buffer sized once.
  [[nodiscard]] std::size_t encoded_size_bound() const {
    // The ok flag, three length prefixes, the gseq, the clock and the
    // store id.
    return 1 + error.size() + value.size() + util::view_of(document).size() +
           4 * util::kMaxVarintBytes + store_clock.encoded_size_bound() +
           util::kMaxVarint32Bytes;
  }

  /// Borrowed decode: `value` and `document` view the receive buffer.
  struct View {
    bool ok = false;
    std::string error;
    BytesView value;
    BytesView document;
    std::uint64_t global_seq = 0;
    VectorClock store_clock;
    StoreId store = kInvalidStore;
  };

  static View decode_view(BytesView wire) {
    Reader r(wire);
    View rep;
    rep.ok = r.boolean();
    rep.error = r.str();
    rep.value = r.bytes();
    rep.document = r.bytes();
    rep.global_seq = r.varint();
    rep.store_clock = VectorClock::decode(r);
    rep.store = r.varint32();
    r.expect_end();
    return rep;
  }
};

/// kWriteForward body: a write relayed towards the accepting store. The
/// accepting store replies kInvokeReply directly to the origin.
struct WriteForward {
  ClientRequest request;
  net::Address origin;              // client comm endpoint
  std::uint64_t origin_request_id = 0;

  void encode(Writer& w) const {
    request.encode(w);
    net::encode_address(w, origin);
    w.varint(origin_request_id);
  }

  static WriteForward decode(BytesView wire) {
    Reader r(wire);
    WriteForward f;
    f.request = ClientRequest::decode(r);
    f.origin = net::decode_address(r);
    f.origin_request_id = r.varint();
    r.expect_end();
    return f;
  }
};

/// kUpdate body: push propagation of write records.
struct UpdateMsg {
  std::vector<web::WriteRecord> records;
  VectorClock sender_clock;
  std::uint64_t sender_gseq = 0;

  /// Single source of truth for the wire layout; senders that already
  /// hold the fields encode straight to the wire without building an
  /// UpdateMsg.
  static void encode_fields(Writer& w,
                            const std::vector<web::WriteRecord>& records,
                            const VectorClock& sender_clock,
                            std::uint64_t sender_gseq) {
    web::encode_records(w, records);
    sender_clock.encode(w);
    w.varint(sender_gseq);
  }

  /// Same wire layout, but the records field is spliced from pre-encoded
  /// shared batches — the zero-copy fan-out path. Byte-identical to
  /// encode_fields over the batches' records.
  static void encode_batches(Writer& w,
                             std::span<const web::RecordBatchPtr> batches,
                             const VectorClock& sender_clock,
                             std::uint64_t sender_gseq) {
    web::encode_batches(w, batches);
    sender_clock.encode(w);
    w.varint(sender_gseq);
  }

  void encode(Writer& w) const {
    encode_fields(w, records, sender_clock, sender_gseq);
  }

  static UpdateMsg decode(BytesView wire) {
    Reader r(wire);
    UpdateMsg m;
    m.records = web::decode_records(r);
    m.sender_clock = VectorClock::decode(r);
    m.sender_gseq = r.varint();
    r.expect_end();
    return m;
  }
};

/// kSnapshotDeltaRequest body: "bring me to your exact state, shipping
/// only what I am missing". Two modes:
///
///   * kSummary — the receiver's full page-stamp summary; the responder
///     diffs it against its pages and ships only the difference. Always
///     exact, regardless of how the receiver diverged.
///   * kFloor — the receiver mirrors the responder's document lineage at
///     `floor_version` (it restored a transfer from `floor_source` and
///     has not mutated since): the responder ships only pages and
///     tombstones stamped after the floor. Cheapest request; the
///     responder falls back to a full snapshot when the floor predates
///     its tombstone horizon or the lineage does not match — mirroring
///     WriteLog::note_snapshot semantics.
struct SnapshotDeltaRequest {
  enum class Mode : std::uint8_t { kSummary = 0, kFloor = 1 };

  Mode mode = Mode::kSummary;
  StoreId floor_source = kInvalidStore;  // kFloor: lineage owner
  std::uint64_t floor_version = 0;       // kFloor: last transfer's version
  std::vector<web::PageStamp> have;      // kSummary: live-page stamps

  void encode(Writer& w) const {
    w.u8(static_cast<std::uint8_t>(mode));
    w.varint(floor_source);
    w.varint(floor_version);
    w.varint(have.size());
    for (const auto& s : have) s.encode(w);
  }

  static SnapshotDeltaRequest decode(Reader& r) {
    SnapshotDeltaRequest m;
    m.mode = static_cast<Mode>(r.u8());
    m.floor_source = r.varint32();
    m.floor_version = r.varint();
    const std::uint64_t n = r.count(web::PageStamp::kMinEncodedBytes);
    m.have.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      m.have.push_back(web::PageStamp::decode(r));
    }
    return m;
  }

  static SnapshotDeltaRequest decode(BytesView wire) {
    Reader r(wire);
    SnapshotDeltaRequest m = decode(r);
    r.expect_end();
    return m;
  }
};

/// The one shape document state travels in: the kSnapshot push (the
/// policy's full coherence transfer), the kSubscribeAck and
/// kSnapshotDeltaReply bodies, and the state of a want_full FetchReply.
/// Either page-granular (`delta`, produced by WebDocument::encode_delta*)
/// or the sender's cached full snapshot, shared across every concurrent
/// receiver. Carries the sender's store id and document version so the
/// receiver can use the cheap floor mode next time.
struct StateTransfer {
  bool full = true;
  SharedBuffer snapshot;  // when full: the sender's cached snapshot
  Buffer delta;           // when !full: encoded page delta
  VectorClock clock;
  std::uint64_t gseq = 0;
  StoreId source = kInvalidStore;
  std::uint64_t version = 0;  // sender's document version

  void encode(Writer& w) const {
    w.boolean(full);
    w.bytes(util::view_of(snapshot));
    w.bytes(BytesView(delta));
    clock.encode(w);
    w.varint(gseq);
    w.varint(source);
    w.varint(version);
  }

  /// Borrowed decode: `snapshot` and `delta` view the receive buffer —
  /// both are consumed immediately by the restore/apply_delta path.
  struct View {
    bool full = true;
    BytesView snapshot;
    BytesView delta;
    VectorClock clock;
    std::uint64_t gseq = 0;
    StoreId source = kInvalidStore;
    std::uint64_t version = 0;

    /// Brings `doc` to the sender's document: a full transfer restores
    /// it, a page delta overwrites the shipped pages and drops the rest.
    void adopt_into(web::WebDocument& doc) const {
      if (full) {
        doc.restore(snapshot);
      } else {
        doc.apply_delta(delta);
      }
    }
  };

  static View decode_view(Reader& r) {
    View m;
    m.full = r.boolean();
    m.snapshot = r.bytes();
    m.delta = r.bytes();
    m.clock = VectorClock::decode(r);
    m.gseq = r.varint();
    m.source = r.varint32();
    m.version = r.varint();
    return m;
  }

  static View decode_view(BytesView wire) {
    Reader r(wire);
    View m = decode_view(r);
    r.expect_end();
    return m;
  }
};

/// kInvalidate body: page invalidations.
struct InvalidateMsg {
  std::vector<std::string> pages;
  VectorClock known_clock;
  std::uint64_t known_gseq = 0;

  void encode(Writer& w) const {
    w.varint(pages.size());
    for (const auto& p : pages) w.str(p);
    known_clock.encode(w);
    w.varint(known_gseq);
  }

  static InvalidateMsg decode(BytesView wire) {
    Reader r(wire);
    InvalidateMsg m;
    const std::uint64_t n = r.count(1);  // a page name's length varint
    m.pages.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) m.pages.push_back(r.str());
    m.known_clock = VectorClock::decode(r);
    m.known_gseq = r.varint();
    r.expect_end();
    return m;
  }
};

/// kNotify body: "these objects changed", with no data. It travels in a
/// store-scope envelope (kStoreScope); each entry names its object.
///
///   * Clock beacon (tick != 0): once per heartbeat tick from a store to
///     each subscriber peer, listing the objects whose applied frontier
///     moved since the previous tick. Sent even when the list is empty,
///     so a receiver that sees a tick number missing knows it lost one.
///   * Full list (`full`): every object the receiver subscribes to at
///     the sender, stamped with the sender's current tick; the answer to
///     `want_full`, which a receiver without an anchor on the sender's
///     tick sequence sends.
///   * Unsequenced (tick 0): forwarded news and Table 1's notification
///     coherence transfer, listing just the objects concerned.
struct NotifyMsg {
  struct Entry {
    ObjectId object = 0;
    VectorClock clock;
    std::uint64_t gseq = 0;
  };
  std::uint64_t tick = 0;  // 0 = unsequenced
  bool full = false;
  bool want_full = false;
  std::vector<Entry> entries;

  static constexpr std::uint8_t kFull = 1;
  static constexpr std::uint8_t kWantFull = 2;
  // object, clock size and gseq: one varint byte each at least.
  static constexpr std::size_t kMinEntryBytes = 3;

  /// Single source of truth for the wire layout: the header, then
  /// `count` entries written with encode_entry. Senders that hold the
  /// clocks encode straight to the wire without building entries.
  static void encode_head(Writer& w, std::uint64_t tick, std::uint8_t flags,
                          std::size_t count) {
    w.varint(tick);
    w.u8(flags);
    w.varint(count);
  }
  static void encode_entry(Writer& w, ObjectId object,
                           const VectorClock& clock, std::uint64_t gseq) {
    w.varint(object);
    clock.encode(w);
    w.varint(gseq);
  }

  void encode(Writer& w) const {
    encode_head(w, tick,
                static_cast<std::uint8_t>((full ? kFull : 0) |
                                          (want_full ? kWantFull : 0)),
                entries.size());
    for (const Entry& e : entries) encode_entry(w, e.object, e.clock, e.gseq);
  }

  static NotifyMsg decode(BytesView wire) {
    Reader r(wire);
    NotifyMsg m;
    m.tick = r.varint();
    const std::uint8_t flags = r.u8();
    if ((flags & ~(kFull | kWantFull)) != 0) {
      throw util::CodecError("invalid notify flags");
    }
    m.full = (flags & kFull) != 0;
    m.want_full = (flags & kWantFull) != 0;
    const std::uint64_t n = r.count(kMinEntryBytes);
    m.entries.resize(static_cast<std::size_t>(n));
    for (Entry& e : m.entries) {
      e.object = r.varint();
      e.clock = VectorClock::decode(r);
      e.gseq = r.varint();
    }
    r.expect_end();
    return m;
  }
};

/// kFetchRequest body: pull / demand-update / cache validation.
struct FetchRequest {
  VectorClock have_clock;
  std::uint64_t have_gseq = 0;
  bool want_full = false;            // full state (coherence transfer full)
  std::vector<std::string> pages;    // restrict to these pages (empty = all)
  bool validate_only = false;        // baseline: If-Modified-Since check
  std::uint64_t have_lamport = 0;    // version held, for validate_only

  void encode(Writer& w) const {
    have_clock.encode(w);
    w.varint(have_gseq);
    w.boolean(want_full);
    w.varint(pages.size());
    for (const auto& p : pages) w.str(p);
    w.boolean(validate_only);
    w.varint(have_lamport);
  }

  static FetchRequest decode(BytesView wire) {
    Reader r(wire);
    FetchRequest m;
    m.have_clock = VectorClock::decode(r);
    m.have_gseq = r.varint();
    m.want_full = r.boolean();
    const std::uint64_t n = r.count(1);  // a page name's length varint
    m.pages.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) m.pages.push_back(r.str());
    m.validate_only = r.boolean();
    m.have_lamport = r.varint();
    r.expect_end();
    return m;
  }
};

/// kFetchReply body: the records the requester is missing, or one of
/// the record-less answers below.
struct FetchReply {
  std::vector<web::WriteRecord> records;
  VectorClock clock;
  std::uint64_t gseq = 0;
  bool not_modified = false;  // validate_only result
  /// Cutover deferred: the requester is behind the compaction horizon
  /// and follows up with a kSnapshotDeltaRequest carrying its page
  /// summary, receiving only the pages it is missing.
  bool need_snapshot = false;
  /// want_full: the responder's whole state. Encoded last, so the View
  /// borrows the snapshot straight from the receive buffer.
  std::optional<StateTransfer> state;

  void encode(Writer& w) const {
    web::encode_records(w, records);
    clock.encode(w);
    w.varint(gseq);
    w.boolean(not_modified);
    w.boolean(need_snapshot);
    w.boolean(state.has_value());
    if (state.has_value()) state->encode(w);
  }

  /// Borrowed decode: the state's snapshot views the receive buffer;
  /// records are materialized (they outlive the buffer in the orderer).
  struct View {
    std::vector<web::WriteRecord> records;
    VectorClock clock;
    std::uint64_t gseq = 0;
    bool not_modified = false;
    bool need_snapshot = false;
    std::optional<StateTransfer::View> state;
  };

  static View decode_view(BytesView wire) {
    Reader r(wire);
    View m;
    m.records = web::decode_records(r);
    m.clock = VectorClock::decode(r);
    m.gseq = r.varint();
    m.not_modified = r.boolean();
    m.need_snapshot = r.boolean();
    if (r.boolean()) m.state = StateTransfer::decode_view(r);
    r.expect_end();
    return m;
  }
};

/// kSubscribe body: a store joins the propagation graph under a parent.
/// The ack is a StateTransfer. A re-subscriber that already holds state
/// (view re-parenting, post-eviction re-admission, crash recovery) sets
/// `want_delta` and embeds its SnapshotDeltaRequest so the bootstrap
/// ships only the pages it is missing.
struct SubscribeMsg {
  net::Address subscriber;
  bool want_delta = false;
  SnapshotDeltaRequest delta_req;  // meaningful when want_delta

  void encode(Writer& w) const {
    net::encode_address(w, subscriber);
    w.boolean(want_delta);
    if (want_delta) delta_req.encode(w);
  }

  static SubscribeMsg decode(BytesView wire) {
    Reader r(wire);
    SubscribeMsg m;
    m.subscriber = net::decode_address(r);
    m.want_delta = r.boolean();
    if (m.want_delta) m.delta_req = SnapshotDeltaRequest::decode(r);
    r.expect_end();
    return m;
  }
};

/// kAntiEntropyRequest body: "here is my clock; send what I am missing".
/// Carries the requester's total-order floor too, so the responder can
/// skip totally-ordered records the requester already holds.
struct AntiEntropyRequest {
  VectorClock have_clock;
  std::uint64_t have_gseq = 0;

  void encode(Writer& w) const {
    have_clock.encode(w);
    w.varint(have_gseq);
  }

  static AntiEntropyRequest decode(BytesView wire) {
    Reader r(wire);
    AntiEntropyRequest m;
    m.have_clock = VectorClock::decode(r);
    m.have_gseq = r.varint();
    r.expect_end();
    return m;
  }
};

/// kAntiEntropyReply body: missing records plus the responder's clock so
/// the requester can push back what the responder is missing. When the
/// requester is behind the responder's compacted log horizon, the
/// records are the responder's current *state as records* (one per
/// page). Restore-semantics snapshots are unusable here: with
/// divergence on both sides neither clock dominates and a snapshot
/// would never apply, whereas state-records merge commutatively through
/// the normal orderer / last-writer-wins path.
struct AntiEntropyReply {
  std::vector<web::WriteRecord> records;
  VectorClock responder_clock;
  std::uint64_t responder_gseq = 0;

  void encode(Writer& w) const {
    web::encode_records(w, records);
    responder_clock.encode(w);
    w.varint(responder_gseq);
  }

  static AntiEntropyReply decode(BytesView wire) {
    Reader r(wire);
    AntiEntropyReply m;
    m.records = web::decode_records(r);
    m.responder_clock = VectorClock::decode(r);
    m.responder_gseq = r.varint();
    r.expect_end();
    return m;
  }
};

}  // namespace globe::replication
