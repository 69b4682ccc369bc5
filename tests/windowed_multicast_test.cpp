// Windowed credit-based multicast: in-order delivery, datagram
// coalescing, cross-peer frame sharing, loss recovery, backpressure
// events, and byte-identical replication vs the unwindowed seed path.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "globe/net/framing.hpp"
#include "globe/net/loopback.hpp"
#include "globe/net/windowed_multicast.hpp"
#include "globe/replication/testbed.hpp"

namespace globe::net {
namespace {

using util::to_buffer;
using util::to_string;

util::SharedBuffer shared(std::string_view s) {
  return std::make_shared<const Buffer>(to_buffer(s));
}

/// Inner transport that can drop windowed DATA frames (simulated loss):
/// acks and plain traffic always pass, so the sender window genuinely
/// stalls instead of the whole link going dark.
class LossyTransport final : public Transport {
 public:
  LossyTransport(std::unique_ptr<Transport> inner,
                 std::shared_ptr<std::atomic<bool>> drop_data)
      : inner_(std::move(inner)), drop_data_(std::move(drop_data)) {}

  void send_shared(const Address& to, util::SharedBuffer payload) override {
    if (drop_data_->load() && !payload->empty() &&
        static_cast<std::uint8_t>((*payload)[0]) == kDataFrameKind) {
      return;
    }
    inner_->send_shared(to, std::move(payload));
  }

  [[nodiscard]] Address local_address() const override {
    return inner_->local_address();
  }

 private:
  std::unique_ptr<Transport> inner_;
  std::shared_ptr<std::atomic<bool>> drop_data_;
};

/// One windowed endpoint on a loopback router: transport + received log.
struct Endpoint {
  std::unique_ptr<Transport> transport;
  std::vector<std::string> received;
  std::mutex mu;

  std::vector<std::string> snapshot() {
    std::lock_guard lock(mu);
    return received;
  }
};

std::unique_ptr<Endpoint> make_endpoint(
    WindowedMulticast& host, LoopbackRouter& router, Address addr,
    std::shared_ptr<std::atomic<bool>> drop_data = nullptr) {
  auto ep = std::make_unique<Endpoint>();
  Endpoint* raw = ep.get();
  TransportFactoryFn inner = [&router, addr, drop_data](MessageHandler h)
      -> std::unique_ptr<Transport> {
    auto t = std::make_unique<LoopbackTransport>(router, addr, std::move(h));
    if (drop_data == nullptr) return t;
    return std::make_unique<LossyTransport>(std::move(t), drop_data);
  };
  ep->transport = windowed_factory(host, std::move(inner))(
      [raw](const Address&, BytesView payload) {
        std::lock_guard lock(raw->mu);
        raw->received.push_back(to_string(payload));
      });
  return ep;
}

TEST(WindowedMulticast, DeliversInOrderAcrossWindowRefills) {
  WindowOptions opts;
  opts.window_size = 8;
  WindowedMulticast host(opts);
  LoopbackRouter router;

  // Gate the receiver: the first delivery blocks the dispatcher (and
  // with it every ack) until all 100 sends are posted, so the sender's
  // window provably fills and the tail queues — the refill after the
  // gate opens MUST coalesce instead of racing the ack round-trip.
  std::atomic<bool> release{false};
  std::mutex gate_mu;
  std::condition_variable gate_cv;
  std::vector<std::string> received;
  std::mutex rx_mu;
  TransportFactoryFn rx_inner = [&](MessageHandler h)
      -> std::unique_ptr<Transport> {
    return std::make_unique<LoopbackTransport>(router, Address{1, 1},
                                               std::move(h));
  };
  auto rx = windowed_factory(host, std::move(rx_inner))(
      [&](const Address&, BytesView payload) {
        {
          std::unique_lock lock(gate_mu);
          gate_cv.wait(lock, [&] { return release.load(); });
        }
        std::lock_guard lock(rx_mu);
        received.push_back(to_string(payload));
      });
  auto tx = make_endpoint(host, router, {0, 1});

  for (int i = 0; i < 100; ++i) {
    tx->transport->send_shared({1, 1}, shared("m" + std::to_string(i)));
  }
  release = true;
  gate_cv.notify_all();
  router.drain();

  std::vector<std::string> got;
  {
    std::lock_guard lock(rx_mu);
    got = received;
  }
  ASSERT_EQ(got.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], "m" + std::to_string(i));
  }
  const WindowStats s = host.stats();
  EXPECT_GT(s.acks_received, 0u);
  EXPECT_EQ(s.dropped_payloads, 0u);
  EXPECT_LE(s.window_high_watermark, opts.window_size);
  // The window (8) refilled under a 100-message burst: queued payloads
  // must have coalesced into fewer, larger frames.
  EXPECT_LT(s.data_frames_sent, 100u);
  EXPECT_GT(s.datagrams_coalesced, 0u);
}

TEST(WindowedMulticast, FanoutSharesFrameEncodesAcrossPeers) {
  WindowedMulticast host{WindowOptions{}};
  LoopbackRouter router;
  std::vector<std::unique_ptr<Endpoint>> receivers;
  std::vector<Address> dests;
  for (NodeId n = 1; n <= 8; ++n) {
    receivers.push_back(make_endpoint(host, router, {n, 1}));
    dests.push_back({n, 1});
  }
  auto tx = make_endpoint(host, router, {0, 1});

  for (int i = 0; i < 50; ++i) {
    tx->transport->multicast_shared(dests, shared("u" + std::to_string(i)));
  }
  router.drain();

  for (auto& rx : receivers) {
    const auto got = rx->snapshot();
    ASSERT_EQ(got.size(), 50u);
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(got[static_cast<std::size_t>(i)], "u" + std::to_string(i));
    }
  }
  const WindowStats s = host.stats();
  // 8 peers advanced in lockstep: most frames were encoded once and
  // sent by reference to everyone else.
  EXPECT_GT(s.frames_shared, 0u);
  EXPECT_LT(s.frame_encodes, s.data_frames_sent);
}

TEST(WindowedMulticast, RecoversFromLossViaTickRetransmit) {
  WindowOptions opts;
  opts.window_size = 4;
  opts.max_queue = 64;
  WindowedMulticast host(opts);
  LoopbackRouter router;
  auto drop = std::make_shared<std::atomic<bool>>(true);
  auto rx = make_endpoint(host, router, {1, 1});
  auto tx = make_endpoint(host, router, {0, 1}, drop);

  for (int i = 0; i < 20; ++i) {
    tx->transport->send_shared({1, 1}, shared("L" + std::to_string(i)));
  }
  router.drain();
  EXPECT_TRUE(rx->snapshot().empty());  // every data frame was dropped

  drop->store(false);
  for (int round = 0; round < 100 && rx->snapshot().size() < 20u; ++round) {
    host.tick({0, 1});  // resend oldest unacked, flush the queue
    router.drain();
  }
  const auto got = rx->snapshot();
  ASSERT_EQ(got.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], "L" + std::to_string(i));
  }
  EXPECT_GT(host.stats().retransmits, 0u);
}

TEST(WindowedMulticast, RaisesPauseAndResumeEvents) {
  WindowOptions opts;
  opts.window_size = 2;
  opts.max_queue = 8;  // pause at 4 pending, resume at <= 2
  WindowedMulticast host(opts);
  LoopbackRouter router;
  auto drop = std::make_shared<std::atomic<bool>>(true);
  auto rx = make_endpoint(host, router, {1, 1});
  auto tx = make_endpoint(host, router, {0, 1}, drop);

  for (int i = 0; i < 7; ++i) {
    tx->transport->send_shared({1, 1}, shared("p" + std::to_string(i)));
  }
  router.drain();

  EXPECT_TRUE(host.peer_paused({0, 1}, {1, 1}));
  auto events = host.poll_events({0, 1});
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].what, FlowControl::PeerEvent::kPaused);
  EXPECT_EQ(events[0].peer, (Address{1, 1}));
  EXPECT_TRUE(host.poll_events({0, 1}).empty());  // delivered exactly once

  drop->store(false);
  for (int round = 0; round < 100 && rx->snapshot().size() < 7u; ++round) {
    host.tick({0, 1});
    router.drain();
  }
  EXPECT_EQ(rx->snapshot().size(), 7u);
  EXPECT_FALSE(host.peer_paused({0, 1}, {1, 1}));
  events = host.poll_events({0, 1});
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].what, FlowControl::PeerEvent::kResumed);
}

TEST(WindowedMulticast, BoundsQueueAndRestartsAfterReset) {
  WindowOptions opts;
  opts.window_size = 2;
  opts.max_queue = 4;
  WindowedMulticast host(opts);
  LoopbackRouter router;
  auto drop = std::make_shared<std::atomic<bool>>(true);
  auto rx = make_endpoint(host, router, {1, 1});
  auto tx = make_endpoint(host, router, {0, 1}, drop);

  // Flood a dead peer: the queue caps at max_queue, the overflow is
  // dropped and counted, and the channel pauses. It never gives up on
  // the peer by itself: that is the replication layer's pause deadline.
  for (int i = 0; i < 32; ++i) {
    tx->transport->send_shared({1, 1}, shared("x" + std::to_string(i)));
  }
  router.drain();
  EXPECT_LE(host.peer_queue_depth({0, 1}, {1, 1}), opts.max_queue);
  EXPECT_GT(host.stats().dropped_payloads, 0u);
  EXPECT_TRUE(host.peer_paused({0, 1}, {1, 1}));
  EXPECT_TRUE(rx->snapshot().empty());

  // Once the replication layer drops and later re-admits the peer, the
  // stream restarts via the reset flag and delivery works again.
  host.reset_peer({0, 1}, {1, 1});
  EXPECT_FALSE(host.peer_paused({0, 1}, {1, 1}));
  drop->store(false);
  tx->transport->send_shared({1, 1}, shared("hello-again"));
  router.drain();
  const auto got = rx->snapshot();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], "hello-again");
}

TEST(WindowedMulticast, MalformedFlowFramesAreCountedNotDelivered) {
  WindowedMulticast host{WindowOptions{}};
  LoopbackRouter router;
  auto rx = make_endpoint(host, router, {1, 1});
  auto tx = make_endpoint(host, router, {0, 1});

  // Raw garbage in the flow-frame byte range, posted straight to the
  // router (bypassing the windowed sender).
  LoopbackTransport raw(router, {2, 1}, [](const Address&, BytesView) {});
  Buffer junk;
  junk.push_back(static_cast<std::byte>(kDataFrameKind));
  junk.push_back(std::byte{0xFF});
  raw.send({1, 1}, std::move(junk));
  Buffer reserved;
  reserved.push_back(std::byte{0xF7});  // reserved flow-frame kind
  raw.send({1, 1}, std::move(reserved));
  router.drain();

  EXPECT_TRUE(rx->snapshot().empty());
  EXPECT_EQ(host.stats().malformed_frames, 2u);
}

// ---------------------------------------------------------------------
// Replication equivalence on the simulated runtime
// ---------------------------------------------------------------------

std::vector<util::Buffer> run_replication(bool windowed) {
  replication::TestbedOptions opts;
  opts.windowed_multicast = windowed;
  opts.window.window_size = 4;  // force refills even in this small run
  replication::Testbed bed(opts);
  core::ReplicationPolicy policy;  // defaults: push, immediate, partial
  auto& primary = bed.add_primary(1, policy);
  bed.add_store(1, naming::StoreClass::kPermanent, policy);
  bed.add_store(1, naming::StoreClass::kObjectInitiated, policy);
  bed.settle();

  auto& client = bed.add_client(1, coherence::ClientModel::kNone,
                                primary.address());
  bed.settle();
  for (int i = 0; i < 40; ++i) {
    client.write("/page" + std::to_string(i % 5), "v" + std::to_string(i),
                 [](replication::WriteResult) {});
    if (i % 7 == 0) bed.settle();
  }
  bed.settle();
  EXPECT_TRUE(bed.converged(1));
  if (windowed) {
    const WindowStats s = bed.window()->stats();
    EXPECT_GT(s.data_frames_sent, 0u);  // the fan-out really was windowed
    EXPECT_EQ(s.dropped_payloads, 0u);
  }
  std::vector<util::Buffer> digests;
  for (const auto& s : bed.stores()) {
    // Mask wall-clock stamps: the windowed transport coalesces datagrams,
    // so the two runs advance simulated time differently, shifting the
    // client-assigned issue timestamps at the source. Everything logical
    // (records, order, deps, gseq, lamport, content) must match exactly.
    digests.push_back(replication::store_state_digest(*s, true));
  }
  return digests;
}

TEST(WindowedMulticast, SingleSubscriberUpdateGoesThroughTheWindow) {
  // An update for exactly one subscriber takes the same windowed lane as
  // a wider fan-out, so the flow control that paused-peer parking relies
  // on covers every coherence message.
  replication::TestbedOptions opts;
  opts.windowed_multicast = true;
  replication::Testbed bed(opts);
  core::ReplicationPolicy policy;  // defaults: push, immediate, partial
  auto& primary = bed.add_primary(1, policy);
  auto& mirror =
      bed.add_store(1, naming::StoreClass::kObjectInitiated, policy);
  bed.settle();
  ASSERT_EQ(primary.subscriber_count(), 1u);

  const std::uint64_t frames_before = bed.window()->stats().data_frames_sent;
  primary.seed("/page", "v1");
  bed.settle();
  EXPECT_GT(bed.window()->stats().data_frames_sent, frames_before);
  ASSERT_NE(mirror.document().get("/page"), nullptr);
  EXPECT_EQ(mirror.document().get("/page")->content, "v1");
}

TEST(WindowedMulticast, ReplicationStateIsByteIdenticalToSeedPath) {
  const auto baseline = run_replication(false);
  const auto windowed = run_replication(true);
  ASSERT_EQ(baseline.size(), windowed.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    if (baseline[i] == windowed[i]) continue;
    std::size_t off = 0;
    const std::size_t n = std::min(baseline[i].size(), windowed[i].size());
    while (off < n && baseline[i][off] == windowed[i][off]) ++off;
    ADD_FAILURE() << "store " << i << " digests differ at byte " << off
                  << " (sizes " << baseline[i].size() << " vs "
                  << windowed[i].size() << ")";
  }
  EXPECT_EQ(baseline, windowed);
}

}  // namespace
}  // namespace globe::net
