// Communication object.
//
// "This is generally a system-provided local object. It is responsible
//  for handling communication between parts of the distributed object
//  that reside in different address spaces. Depending on what is needed
//  from the other components, a communication object may offer primitives
//  for point-to-point communication, multicast facilities, or both."
//  (Section 2)
//
// The communication object offers:
//   * send_with      — one-way point-to-point,
//   * request_with   — point-to-point with reply correlation,
//   * reply_with     — answer a correlated request,
//   * multicast_with — one-way to a set of addresses.
// It never inspects message bodies; it sees only envelopes.
//
// Copy discipline: every sender takes an encoder functor and
// serializes header plus body into a single wire buffer — no intermediate
// body buffer, no header/body stitch copy. On receive, the handler gets
// an EnvelopeView whose body borrows the transport's receive buffer;
// nothing is copied until a decoder materializes owned fields.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "globe/metrics/stats.hpp"
#include "globe/msg/envelope.hpp"
#include "globe/net/transport.hpp"
#include "globe/obs/trace.hpp"
#include "globe/sim/simulator.hpp"
#include "globe/util/assert.hpp"
#include "globe/util/ids.hpp"

namespace globe::core {

using msg::Envelope;
using msg::EnvelopeView;
using msg::MsgType;
using net::Address;
using util::Buffer;

/// Creates a transport bound to a fresh endpoint whose incoming messages
/// go to `handler`. Provided by the runtime (simulated or loopback).
using TransportFactory =
    std::function<std::unique_ptr<net::Transport>(net::MessageHandler handler)>;

class CommunicationObject {
 public:
  /// Handler for incoming non-reply messages. The view's body borrows
  /// the receive buffer: valid only for the duration of the call.
  using DeliveryHandler =
      std::function<void(const Address& from, const EnvelopeView& env)>;
  /// Handler for replies; `ok` is false when the request timed out.
  using ReplyHandler =
      std::function<void(bool ok, const Address& from,
                         const EnvelopeView& env)>;

  /// `sim` may be null (loopback runtime); request timeouts then require
  /// the caller not to pass a timeout. `metrics`, when set, counts every
  /// datagram sent, by type. The object has no endpoint until open().
  explicit CommunicationObject(sim::Simulator* sim,
                               metrics::MetricsSink* metrics = nullptr);

  CommunicationObject(const CommunicationObject&) = delete;
  CommunicationObject& operator=(const CommunicationObject&) = delete;

  /// Binds a fresh endpoint from `factory` whose non-reply messages go
  /// to `handler` (empty for an endpoint that only makes requests).
  /// The handler is in place before the endpoint exists, so nothing the
  /// transport delivers is dropped; a datagram delivered while the
  /// factory runs is handed over once the endpoint can send. An owner
  /// calls this first in its constructor body, once every member the
  /// handler touches exists. Call it once.
  void open(const TransportFactory& factory, DeliveryHandler handler);

  [[nodiscard]] Address local_address() const {
    return transport_->local_address();
  }

  /// One-way message (request_id = 0) whose body is serialized straight
  /// into the wire buffer: `encode_body(Writer&)` runs after the envelope
  /// header.
  template <typename F>
  void send_with(const Address& to, MsgType type, ObjectId object,
                 F&& encode_body) {
    transmit(to, type, make_wire(type, object, 0,
                                 std::forward<F>(encode_body)));
  }

  /// One-way periodic beacon (heartbeat, clock advertisement): delivered
  /// like send_with but as background traffic — it never keeps a
  /// run-to-quiescence simulation alive (see Transport::send_background).
  template <typename F>
  void send_with_background(const Address& to, MsgType type, ObjectId object,
                            F&& encode_body) {
    Buffer wire = make_wire(type, object, 0, std::forward<F>(encode_body));
    count(type, wire.size());
    transport_->send_background(to, std::move(wire));
  }

  /// Correlated request with direct-to-wire body encoding. Returns the
  /// request id. If `timeout` is positive and no reply arrives in time,
  /// the handler is invoked with ok=false (and the request retried
  /// `retries` times first).
  template <typename F>
  std::uint64_t request_with(const Address& to, MsgType type, ObjectId object,
                             F&& encode_body, ReplyHandler handler,
                             sim::SimDuration timeout = sim::SimDuration(0),
                             int retries = 0) {
    const std::uint64_t id = next_request_id_++;
    return start_request(to, type, id,
                         make_wire(type, object, id,
                                   std::forward<F>(encode_body)),
                         std::move(handler), timeout, retries);
  }

  /// Replies to a correlated request with direct-to-wire body encoding.
  /// A sender that knows a bound on the body size passes it as
  /// `body_bytes`, so a large body (a whole document) is written into a
  /// buffer sized once.
  template <typename F>
  void reply_with(const Address& to, MsgType type, ObjectId object,
                  std::uint64_t request_id, F&& encode_body,
                  std::size_t body_bytes = 0) {
    GLOBE_ASSERT_MSG(request_id != 0, "reply requires a request id");
    transmit(to, type, make_wire(type, object, request_id,
                                 std::forward<F>(encode_body), body_bytes));
  }

  /// Shared-datagram multicast: the body is encoded ONCE into one wire
  /// buffer, which every destination receives by reference (the
  /// transport's send_shared). The per-subscriber cost of a fan-out is a
  /// queue entry, not an encode + copy. Traffic accounting still counts
  /// one message per destination.
  template <typename F>
  void multicast_with(const std::vector<Address>& to, MsgType type,
                      ObjectId object, F&& encode_body,
                      bool background = false) {
    if (to.empty()) return;
    const auto wire = std::make_shared<const Buffer>(
        make_wire(type, object, 0, std::forward<F>(encode_body)));
    count(type, wire->size(), to.size());
    if (background) {
      // Beacon lane stays per-destination: it bypasses flow control.
      for (const Address& addr : to) {
        transport_->send_shared_background(addr, wire);
      }
    } else {
      // One transport operation for the whole fan-out, so a windowed
      // transport can admit it into every peer channel atomically and
      // share frame encodes across peers.
      transport_->multicast_shared(to, wire);
    }
  }

  /// Number of requests still awaiting a reply.
  [[nodiscard]] std::size_t pending_requests() const {
    return pending_.size();
  }

 private:
  struct PendingRequest {
    Address to;
    MsgType type{};
    Buffer wire;  // full encoded datagram, kept for retransmission
    ReplyHandler handler;
    sim::SimDuration timeout{};
    int retries_left = 0;
    sim::EventId timer = 0;
  };

  // Tracing rides the encode funnel: when the calling thread carries a
  // trace context (obs::ContextScope), the envelope gets the context
  // appended (flag bit 0x80) with a fresh wire.send span as the carried
  // parent, so the receiver's wire.deliver span chains to this exact
  // datagram. Retransmissions reuse the stored wire — no re-encode, no
  // duplicate wire.send span. With tracing disabled this is one relaxed
  // atomic load and the three-field header: byte-identical wire.
  template <typename F>
  [[nodiscard]] Buffer make_wire(MsgType type, ObjectId object,
                                 std::uint64_t request_id, F&& encode_body,
                                 std::size_t body_bytes = 0) {
    util::Writer w;
    w.reserve(Envelope::kMaxHeaderBytes + body_bytes);
    if (obs::tracing_enabled()) {
      Envelope::encode_header(w, type, object, request_id,
                              note_wire_send(type, object));
    } else {
      Envelope::encode_header(w, type, object, request_id);
    }
    encode_body(w);
    return w.take();
  }

  /// Counts `n` sends of one `bytes`-long datagram, when metrics are on.
  void count(MsgType type, std::size_t bytes, std::size_t n = 1) {
    if (metrics_ == nullptr) return;
    for (std::size_t i = 0; i < n; ++i) {
      metrics_->on_message(static_cast<std::uint8_t>(type), bytes);
    }
  }

  /// Emits the wire.send span for an outgoing traced datagram and
  /// returns the context to carry (invalid if the thread has none).
  [[nodiscard]] obs::TraceContext note_wire_send(MsgType type,
                                                 ObjectId object);

  std::uint64_t start_request(const Address& to, MsgType type,
                              std::uint64_t request_id, Buffer wire,
                              ReplyHandler handler, sim::SimDuration timeout,
                              int retries);
  void on_message(const Address& from, util::BytesView payload);
  void transmit(const Address& to, MsgType type, Buffer wire);
  void arm_timer(std::uint64_t request_id);
  void on_timeout(std::uint64_t request_id);

  sim::Simulator* sim_;
  metrics::MetricsSink* metrics_;
  DeliveryHandler deliver_;
  std::unique_ptr<net::Transport> transport_;
  // Set while open() runs the factory. A datagram the transport delivers
  // then (from inside the bind, or on a socket host's receive thread)
  // waits in early_ until transport_ is set, so its handler can reply.
  std::atomic<bool> binding_{false};
  std::mutex early_mu_;
  std::vector<std::pair<Address, Buffer>> early_;
  std::uint64_t next_request_id_ = 1;
  std::unordered_map<std::uint64_t, PendingRequest> pending_;
};

}  // namespace globe::core
