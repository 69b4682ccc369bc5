// Windowed, credit-based multicast (à la Derecho's RDMC/SST windows).
//
// Sits between CommunicationObject::multicast_with and the transport:
// the shared-datagram fan-out lane (Transport::send_shared /
// multicast_shared) is carried over per-peer sliding windows with
// credit/ack flow control, cumulative acks plus selective retransmit,
// and datagram batching — small payloads queued behind a full window
// coalesce into MTU-budget frames, so a backed-up fan-out pipelines
// instead of posting one router/socket operation per datagram. Send
// queues are bounded per peer; a slow subscriber turns into pause /
// resume events the replication layer polls (net/flow.hpp) instead of
// unbounded queue growth. Deciding that a paused peer is hopeless is the
// replication layer's job (its pause deadline), not this layer's.
//
// Plain sends, request/reply traffic, and the background-beacon lane
// pass through unwindowed: reliability for those is already the
// coherence protocol's business (Section 4.2 of the paper), and beacons
// must never queue behind bulk data.
//
// One WindowedMulticast is shared by every endpoint of a runtime (like
// a LoopbackRouter); WindowedTransport decorates each endpoint's inner
// transport. All state is internally synchronized; callbacks into
// handlers and sends on inner transports run outside the lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "globe/net/flow.hpp"
#include "globe/net/framing.hpp"
#include "globe/net/transport.hpp"

namespace globe::net {

struct WindowOptions {
  /// Max unacked data frames in flight per peer channel. The receiver's
  /// reorder stash holds at most twice this many frames.
  std::size_t window_size = 32;
  /// Bounded per-peer pending queue (payloads waiting for window
  /// slots). The pause event fires at half this depth, resume at a
  /// quarter; payloads beyond the full depth are dropped and counted.
  std::size_t max_queue = 256;
};

struct WindowStats {
  std::uint64_t data_frames_sent = 0;
  std::uint64_t datagrams_sent = 0;       // payloads accepted for framing
  std::uint64_t datagrams_coalesced = 0;  // payloads that shared a frame
  std::uint64_t frame_encodes = 0;        // frames actually serialized
  std::uint64_t frames_shared = 0;        // frame sends reusing an encode
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t credit_stalls = 0;     // flush blocked by a full window
  std::uint64_t dropped_payloads = 0;  // bounded-queue overflow drops
  std::uint64_t reordered_frames = 0;
  std::uint64_t duplicate_frames = 0;
  std::uint64_t stash_drops = 0;  // reorder stash overflow
  std::uint64_t malformed_frames = 0;
  std::uint64_t pauses = 0;
  std::uint64_t resumes = 0;
  std::size_t queue_high_watermark = 0;   // peak pending payloads, any peer
  std::size_t window_high_watermark = 0;  // peak in-flight frames, any peer
};

class WindowedTransport;

class WindowedMulticast final : public FlowControl {
 public:
  explicit WindowedMulticast(WindowOptions options = {});
  ~WindowedMulticast() override;

  WindowedMulticast(const WindowedMulticast&) = delete;
  WindowedMulticast& operator=(const WindowedMulticast&) = delete;

  // ---- FlowControl ----
  [[nodiscard]] std::vector<Event> poll_events(const Address& local) override;
  [[nodiscard]] bool peer_paused(const Address& local,
                                 const Address& peer) const override;
  void reset_peer(const Address& local, const Address& peer) override;

  [[nodiscard]] WindowStats stats() const;
  [[nodiscard]] const WindowOptions& options() const { return options_; }

  /// Pending payloads queued for one peer (tests / bench occupancy gate).
  [[nodiscard]] std::size_t peer_queue_depth(const Address& local,
                                             const Address& peer) const;

  /// Opportunistic loss recovery for runtimes without timers: resends
  /// the oldest unacked frame of every stalled channel of `local` (rate:
  /// one frame per channel per call) and flushes pending queues. Drivers
  /// over lossy transports (UDP) call this periodically.
  void tick(const Address& local);

 private:
  friend class WindowedTransport;

  /// A send to execute after the state lock is released.
  struct Action {
    Transport* via = nullptr;
    Address to;
    util::SharedBuffer wire;
  };

  struct TxChannel {
    Address peer;
    std::uint64_t next_seq = 0;
    std::uint64_t ack_base = 0;
    std::uint32_t credit = 0;  // receiver's window grant
    bool send_reset = true;    // first frame (re)starts the stream
    bool paused = false;
    std::deque<util::SharedBuffer> pending;
    std::map<std::uint64_t, util::SharedBuffer> inflight;  // seq -> frame
  };

  struct RxChannel {
    std::uint64_t expected = 0;
    std::uint64_t since_ack = 0;
    std::map<std::uint64_t, Buffer> stash;  // out-of-order frames, owned
  };

  struct Endpoint {
    WindowedTransport* transport = nullptr;
    std::map<Address, TxChannel> tx;  // keyed by peer
    std::map<Address, RxChannel> rx;  // keyed by peer
    std::vector<Event> events;
  };

  // Registration (WindowedTransport lifecycle).
  void attach_endpoint(const Address& local, WindowedTransport* t);
  void detach_endpoint(const Address& local);

  // Sender side.
  void enqueue(const Address& local, const Address& peer,
               util::SharedBuffer payload);
  void enqueue_multicast(const Address& local,
                         const std::vector<Address>& peers,
                         util::SharedBuffer payload);
  /// Fills window slots from the pending queue. Channels passed in one
  /// call share frame encodes when their stream positions and queued
  /// payloads are identical (the steady multicast fan-out case).
  void flush_channels(Endpoint& ep, const std::vector<Address>& peers,
                      std::vector<Action>& actions);

  /// A stash frame drained into order: the owning buffer plus the
  /// (offset, length) of each coalesced payload inside it. Deliveries
  /// happen after the state lock is released, so views into the live
  /// receive buffer cannot be carried — drained frames own their bytes.
  struct DrainedFrame {
    Buffer frame;
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
  };

  // Receiver side; returns true when the payload was a flow frame.
  bool on_receive(const Address& local, const Address& from,
                  BytesView payload, const MessageHandler& deliver);
  void handle_data(Endpoint& ep, const Address& from, BytesView wire,
                   std::vector<BytesView>& deliver_now,
                   std::vector<DrainedFrame>& drained,
                   std::vector<Action>& actions);
  void handle_ack(Endpoint& ep, const Address& from, const AckFrame& ack,
                  std::vector<Action>& actions);
  void send_ack(Endpoint& ep, const Address& from, RxChannel& rx,
                std::vector<Action>& actions);

  TxChannel& tx_channel(Endpoint& ep, const Address& peer);
  /// Feeds one channel's accounting to the credit-conservation monitor
  /// (checked builds only; no definition otherwise).
  void report_channel(const Endpoint& ep, const TxChannel& tx);
  void raise(Endpoint& ep, const Address& peer, PeerEvent what);
  static void run_actions(std::vector<Action>& actions);

  WindowOptions options_;
  mutable std::mutex mu_;
  std::map<Address, Endpoint> endpoints_;
  WindowStats stats_;
};

/// Transport decorator: the shared-datagram lane is windowed, plain and
/// background sends pass through. Created via windowed_factory.
class WindowedTransport final : public Transport {
 public:
  WindowedTransport(WindowedMulticast& host, Address local)
      : host_(host), local_(local) {
    host_.attach_endpoint(local_, this);
  }

  ~WindowedTransport() override {
    host_.detach_endpoint(local_);
    inner_.reset();  // unbind before the handler dies
  }

  WindowedTransport(const WindowedTransport&) = delete;
  WindowedTransport& operator=(const WindowedTransport&) = delete;

  /// Wires the inner transport and the upward delivery handler; called
  /// once by windowed_factory right after construction.
  void attach(std::unique_ptr<Transport> inner, MessageHandler handler) {
    inner_ = std::move(inner);
    handler_ = std::move(handler);
  }

  void send(const Address& to, Buffer payload) override {
    inner_->send(to, std::move(payload));
  }

  void send_shared(const Address& to, util::SharedBuffer payload) override {
    host_.enqueue(local_, to, std::move(payload));
  }

  void multicast_shared(const std::vector<Address>& to,
                        util::SharedBuffer payload) override {
    host_.enqueue_multicast(local_, to, std::move(payload));
  }

  // Beacon lane: heartbeats and clock advertisements never queue behind
  // bulk data and never consume window credit.
  void send_background(const Address& to, Buffer payload) override {
    inner_->send_background(to, std::move(payload));
  }
  void send_shared_background(const Address& to,
                              util::SharedBuffer payload) override {
    inner_->send_shared_background(to, std::move(payload));
  }

  [[nodiscard]] Address local_address() const override { return local_; }

  /// Receive tap installed by windowed_factory: flow frames are consumed
  /// by the host, everything else reaches the registered handler.
  void on_receive(const Address& from, BytesView payload) {
    if (!host_.on_receive(local_, from, payload, handler_)) {
      handler_(from, payload);
    }
  }

  [[nodiscard]] Transport& inner() { return *inner_; }

 private:
  WindowedMulticast& host_;
  Address local_;
  std::unique_ptr<Transport> inner_;
  MessageHandler handler_;
};

/// Same shape as core::TransportFactory (declared structurally to keep
/// net/ independent of core/).
using TransportFactoryFn =
    std::function<std::unique_ptr<Transport>(MessageHandler)>;

/// Wraps a factory so every endpoint it creates runs the shared-datagram
/// lane through `host`. The endpoint's address must be known to the
/// decorator before the inner transport exists, so the inner factory is
/// probed through the tap handler: the inner transport is created first
/// with a forwarding handler, then the decorator adopts it.
[[nodiscard]] inline TransportFactoryFn windowed_factory(
    WindowedMulticast& host, TransportFactoryFn inner_factory) {
  return [&host, inner_factory =
                     std::move(inner_factory)](MessageHandler handler)
             -> std::unique_ptr<Transport> {
    // Two-phase: the tap needs the WindowedTransport, the
    // WindowedTransport needs the endpoint address, and the address
    // comes from the inner transport. An atomic shared slot breaks the
    // cycle. It is published only once the decorator is fully attached,
    // so a datagram racing the handoff (a threaded transport delivers as
    // soon as it binds) is dropped like any pre-bind send instead of
    // reaching an empty handler.
    auto slot = std::make_shared<std::atomic<WindowedTransport*>>(nullptr);
    auto inner = inner_factory([slot](const Address& from,
                                      BytesView payload) {
      WindowedTransport* t = slot->load(std::memory_order_acquire);
      if (t != nullptr) t->on_receive(from, payload);
    });
    auto wt = std::make_unique<WindowedTransport>(host,
                                                  inner->local_address());
    wt->attach(std::move(inner), std::move(handler));
    slot->store(wt.get(), std::memory_order_release);
    return wt;
  };
}

}  // namespace globe::net
