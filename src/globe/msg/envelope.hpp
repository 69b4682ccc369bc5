// Wire envelope shared by all protocol traffic.
//
// Every message on the network is an Envelope: a fixed header naming the
// message type, the distributed object it concerns, and a request id for
// request/reply correlation, followed by an opaque body encoded by the
// layer that owns the message type. Replication and communication objects
// never look inside bodies they do not own — the paper's requirement that
// they operate only on encoded invocation messages.
//
// Wire layout: type (u8), object (varint), request_id (varint), then the
// body as the remainder of the datagram. The body carries no length
// prefix — the envelope is always the whole payload — which is what lets
// the receive path decode an EnvelopeView without copying a single body
// byte.
//
// Trace context (observability): bit 0x80 of the type byte — unused by
// every MsgType, all of which are <= 0x40 — flags an optional trace
// context appended after request_id as two fixed-width u64s (trace id,
// parent span id): both are uniformly random, so a varint would only
// lengthen them. When tracing is off the bit is never set and the wire
// stream is byte-identical to a build without tracing; bench_scale gates
// this with a wire digest. The context rides inside the datagram, so multicast
// frame batching, retransmission, and the TCP bulk lane carry it
// untouched.
#pragma once

#include <cstdint>
#include <string>

#include "globe/obs/context.hpp"
#include "globe/util/buffer.hpp"
#include "globe/util/ids.hpp"

namespace globe::msg {

using util::Buffer;
using util::BytesView;
using util::Reader;
using util::Writer;

enum class MsgType : std::uint8_t {
  // Client <-> store (control object traffic).
  kInvokeRequest = 1,
  kInvokeReply = 2,
  // Inter-store replication protocol.
  kWriteForward = 3,   // record forwarded towards the primary
  kUpdate = 5,         // push propagation of write records
  kSnapshot = 6,       // full-state transfer
  kInvalidate = 7,     // page invalidations
  kNotify = 8,         // notification-only coherence transfer
  kFetchRequest = 9,   // pull / demand-update
  kFetchReply = 10,
  kSubscribe = 11,     // store joins the propagation graph
  kSubscribeAck = 12,
  kAntiEntropyRequest = 13,  // eventual-coherence gossip
  kAntiEntropyReply = 14,
  kPolicyUpdate = 15,        // runtime strategy replacement
  // Naming and location services.
  kNameRequest = 20,
  kNameReply = 21,
  kLocateRequest = 22,
  kLocateReply = 23,
  // Dynamic replica membership (per-object, epoch-numbered views).
  kMembershipJoin = 24,       // store joins the object's replica view
  kMembershipJoinAck = 25,    // reply: the current view
  kMembershipLeave = 26,      // graceful departure
  kMembershipHeartbeat = 27,  // liveness beacon (also re-admits after heal)
  kMembershipWatch = 28,      // client asks for view-change pushes
  // Page-granular delta snapshots (state transfer for receivers that
  // already hold most of the document).
  kSnapshotDeltaRequest = 30,  // receiver's page-stamp summary or floor
  kSnapshotDeltaReply = 31,    // differing pages + drops (or full fallback)
  // Membership view diffs (epoch + joined/left instead of full views).
  kViewDelta = 32,          // incremental view-change broadcast
  kViewFetchRequest = 33,   // full-view fetch after an epoch gap
  kViewFetchReply = 34,     // reply: the current view
  // Placement service (object -> shard -> contact resolution).
  kPlacementFetch = 35,        // full layout + shard contact tables
  kPlacementFetchReply = 36,
  // 37 and 38 were a per-object resolve request that nothing sent.
  kPlacementWatch = 39,        // subscribe to placement invalidations
  kPlacementInvalidate = 40,   // push: placement version changed
  // Cluster-wide GC floor (min applied clock over the live view),
  // aggregated by the membership service from heartbeat piggybacks and
  // broadcast to members to key write-log compaction, tombstone GC, and
  // streaming-checker event retirement.
  kStabilityHorizon = 41,
  // A store that took a per-object push from a peer that is neither the
  // object's upstream nor one of its subscribers asks that peer to drop
  // it. Empty body; the envelope names the object.
  kUnsubscribe = 42,
};

[[nodiscard]] const char* to_string(MsgType t);

/// True for message types that answer a correlated request; the
/// communication object routes these to the pending-reply handler.
[[nodiscard]] constexpr bool is_reply(MsgType t) {
  switch (t) {
    case MsgType::kInvokeReply:
    case MsgType::kFetchReply:
    case MsgType::kSubscribeAck:
    case MsgType::kAntiEntropyReply:
    case MsgType::kNameReply:
    case MsgType::kLocateReply:
    case MsgType::kMembershipJoinAck:
    case MsgType::kSnapshotDeltaReply:
    case MsgType::kViewFetchReply:
    case MsgType::kPlacementFetchReply:
      return true;
    default:
      return false;
  }
}

struct Envelope;

/// Borrowed decode of a received datagram: the body is a view into the
/// receive buffer, valid for the duration of the delivery callback. The
/// hot path (every message a store handles) copies no body bytes; a
/// handler that must retain the body copies it explicitly (to_owned()).
struct EnvelopeView {
  MsgType type{};
  ObjectId object = 0;
  std::uint64_t request_id = 0;  // 0 when not a correlated request/reply
  obs::TraceContext trace;       // invalid unless the sender was traced
  BytesView body;

  /// Set in the type byte when a trace context follows the request id.
  static constexpr std::uint8_t kTraceFlag = 0x80;

  static EnvelopeView decode(BytesView wire) {
    Reader r(wire);
    EnvelopeView e;
    const std::uint8_t raw = r.u8();
    e.type = static_cast<MsgType>(raw & ~kTraceFlag);
    e.object = r.varint();
    e.request_id = r.varint();
    if ((raw & kTraceFlag) != 0) {
      e.trace.trace_id = r.u64();
      e.trace.span_id = r.u64();
    }
    e.body = r.rest();
    return e;
  }

  [[nodiscard]] Envelope to_owned() const;
};

struct Envelope {
  MsgType type{};
  ObjectId object = 0;
  std::uint64_t request_id = 0;  // 0 when not a correlated request/reply
  obs::TraceContext trace;       // invalid unless the sender was traced
  Buffer body;

  /// Largest header: type byte, object, request id and a trace context.
  static constexpr std::size_t kMaxHeaderBytes =
      1 + 2 * util::kMaxVarintBytes + 16;

  /// Writes the header; the body follows as raw bytes, so a sender
  /// can serialize header and body into one buffer with no intermediate
  /// copy (CommunicationObject::send_with).
  static void encode_header(Writer& w, MsgType type, ObjectId object,
                            std::uint64_t request_id) {
    w.u8(static_cast<std::uint8_t>(type));
    w.varint(object);
    w.varint(request_id);
  }

  /// Header with a trace context: sets the flag bit and appends the two
  /// context words. An invalid context encodes exactly like the
  /// three-field overload — same bytes, no flag.
  static void encode_header(Writer& w, MsgType type, ObjectId object,
                            std::uint64_t request_id,
                            const obs::TraceContext& trace) {
    if (!trace.valid()) {
      encode_header(w, type, object, request_id);
      return;
    }
    w.u8(static_cast<std::uint8_t>(type) | EnvelopeView::kTraceFlag);
    w.varint(object);
    w.varint(request_id);
    w.u64(trace.trace_id);
    w.u64(trace.span_id);
  }

  [[nodiscard]] Buffer encode() const {
    Writer w;
    w.reserve(1 + util::varint_size(object) + util::varint_size(request_id) +
              (trace.valid() ? 16 : 0) + body.size());
    encode_header(w, type, object, request_id, trace);
    w.raw(BytesView(body));
    return w.take();
  }

  static Envelope decode(BytesView wire) {
    return EnvelopeView::decode(wire).to_owned();
  }
};

inline Envelope EnvelopeView::to_owned() const {
  return Envelope{type, object, request_id, trace,
                  Buffer(body.begin(), body.end())};
}

}  // namespace globe::msg
