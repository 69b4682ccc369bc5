// Every invariant monitor must fire on seeded corruption — and only
// then. Each test drives a monitor's hook sequence with one planted
// violation, captures the trip with ScopedTripCapture, and checks the
// report carries enough context to debug from (monitor name, key, and
// the ring-buffer history). The last test corrupts a real component:
// a forged cumulative ack injected under a WindowedMulticast channel
// must trip the credit-conservation monitor end to end.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "globe/check/monitor.hpp"
#include "globe/net/framing.hpp"
#include "globe/net/loopback.hpp"
#include "globe/net/windowed_multicast.hpp"
#include "globe/util/buffer.hpp"

namespace globe::check {
namespace {

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

class MonitorTest : public ::testing::Test {
 protected:
  ~MonitorTest() override { release(&owner_); }

  // Distinct per-fixture owner key; released on teardown so the next
  // test's (possibly same-address) owner starts clean.
  const void* owner() const { return &owner_; }

 private:
  int owner_ = 0;
};

TEST_F(MonitorTest, GseqRegressionTrips) {
  ScopedTripCapture trips;
  on_gseq_apply(owner(), 1, 7, /*sequential=*/false, 5);
  on_gseq_apply(owner(), 1, 7, false, 6);
  ASSERT_FALSE(trips.tripped());
  on_gseq_apply(owner(), 1, 7, false, 4);  // corruption: moved backwards
  ASSERT_EQ(trips.reports().size(), 1u);
  const TripReport& r = trips.reports().front();
  EXPECT_EQ(r.monitor, "gseq");
  EXPECT_EQ(r.key, "store=1 object=7");
  EXPECT_TRUE(contains(r.message, "regressed"));
  EXPECT_TRUE(contains(r.history, "apply"));
  EXPECT_TRUE(contains(r.str(), "invariant violation"));
  // Re-anchored on the violating value: one corruption, one trip.
  on_gseq_apply(owner(), 1, 7, false, 5);
  EXPECT_EQ(trips.reports().size(), 1u);
}

TEST_F(MonitorTest, SequentialGseqMustStayContiguous) {
  ScopedTripCapture trips;
  on_gseq_apply(owner(), 2, 9, /*sequential=*/true, 1);
  on_gseq_apply(owner(), 2, 9, true, 2);
  ASSERT_FALSE(trips.tripped());
  on_gseq_apply(owner(), 2, 9, true, 4);  // corruption: skipped gseq 3
  ASSERT_EQ(trips.reports().size(), 1u);
  EXPECT_EQ(trips.reports().front().monitor, "gseq");
  EXPECT_TRUE(contains(trips.reports().front().message, "skipped"));
}

TEST_F(MonitorTest, StateAdoptionMayJumpForwardOnly) {
  ScopedTripCapture trips;
  on_gseq_apply(owner(), 3, 1, /*sequential=*/true, 1);
  on_state_adoption(owner(), 3, 1, 10);  // forward jump: legal
  on_gseq_apply(owner(), 3, 1, true, 11);
  ASSERT_FALSE(trips.tripped());
  on_state_adoption(owner(), 3, 1, 6);  // corruption: adoption rollback
  ASSERT_EQ(trips.reports().size(), 1u);
  EXPECT_EQ(trips.reports().front().monitor, "gseq");
  EXPECT_TRUE(contains(trips.reports().front().message, "adoption"));
  EXPECT_TRUE(contains(trips.reports().front().history, "adopt"));
}

TEST_F(MonitorTest, NonSequentialFetchFloorTrips) {
  ScopedTripCapture trips;
  on_fetch_floor(owner(), 4, 2, /*sequential=*/true, 7);   // fine
  on_fetch_floor(owner(), 4, 2, /*sequential=*/false, 0);  // fine
  ASSERT_FALSE(trips.tripped());
  on_fetch_floor(owner(), 4, 2, /*sequential=*/false, 3);  // corruption
  ASSERT_EQ(trips.reports().size(), 1u);
  EXPECT_EQ(trips.reports().front().monitor, "gseq-floor");
  EXPECT_TRUE(contains(trips.reports().front().message, "max-semantics"));
}

TEST_F(MonitorTest, WriterSequenceRegressionTrips) {
  ScopedTripCapture trips;
  on_writer_apply(owner(), 5, 3, /*writer=*/42, 1);
  on_writer_apply(owner(), 5, 3, 42, 2);
  on_writer_apply(owner(), 5, 3, /*writer=*/43, 1);  // other writer: fine
  ASSERT_FALSE(trips.tripped());
  on_writer_apply(owner(), 5, 3, 42, 2);  // corruption: duplicate apply
  ASSERT_EQ(trips.reports().size(), 1u);
  EXPECT_EQ(trips.reports().front().monitor, "mw-filter");
  EXPECT_TRUE(contains(trips.reports().front().message, "writer 42"));
}

TEST_F(MonitorTest, StateAdoptionReanchorsWriterFloors) {
  ScopedTripCapture trips;
  on_writer_apply(owner(), 5, 3, 42, 9);
  on_state_adoption(owner(), 5, 3, 20);
  // The adopted document replaced the per-writer floors wholesale: a
  // lower post-adoption seq is a re-seed, not a regression.
  on_writer_apply(owner(), 5, 3, 42, 2);
  EXPECT_FALSE(trips.tripped());
}

TEST_F(MonitorTest, ViewPublishMustAdvance) {
  ScopedTripCapture trips;
  on_view_publish(owner(), /*scope=*/100, /*shard=*/1, 3);
  on_view_publish(owner(), 100, /*shard=*/2, 3);  // other subgroup: fine
  ASSERT_FALSE(trips.tripped());
  on_view_publish(owner(), 100, 1, 3);  // corruption: epoch reissued
  ASSERT_EQ(trips.reports().size(), 1u);
  EXPECT_EQ(trips.reports().front().monitor, "view-epoch");
  EXPECT_TRUE(contains(trips.reports().front().key, "publisher"));
}

TEST_F(MonitorTest, ViewAdoptRollbackTrips) {
  ScopedTripCapture trips;
  on_view_adopt(owner(), "store", 6, 5);
  on_view_adopt(owner(), "store", 6, 5);  // idempotent re-apply: fine
  ASSERT_FALSE(trips.tripped());
  on_view_adopt(owner(), "store", 6, 4);  // corruption: rollback
  ASSERT_EQ(trips.reports().size(), 1u);
  EXPECT_EQ(trips.reports().front().monitor, "view-epoch");
  EXPECT_EQ(trips.reports().front().key, "store=6");
}

TEST_F(MonitorTest, PlacementRollbackTrips) {
  ScopedTripCapture trips;
  on_placement_state(owner(), /*version=*/3, /*layout_epoch=*/2);
  on_placement_state(owner(), 4, 2);
  ASSERT_FALSE(trips.tripped());
  on_placement_state(owner(), 4, 1);  // corruption: layout epoch rollback
  ASSERT_EQ(trips.reports().size(), 1u);
  EXPECT_EQ(trips.reports().front().monitor, "placement");
}

TEST_F(MonitorTest, WindowCreditConservationTrips) {
  ScopedTripCapture trips;
  int channel = 0;
  WindowChannelState st;
  st.window_size = 8;
  st.max_queue = 16;
  st.next_seq = 10;
  st.ack_base = 7;
  st.inflight = 3;
  on_window_channel(owner(), &channel, 1, 2, st);
  ASSERT_FALSE(trips.tripped());
  st.inflight = 2;  // corruption: a frame vanished unacked
  on_window_channel(owner(), &channel, 1, 2, st);
  ASSERT_EQ(trips.reports().size(), 1u);
  EXPECT_EQ(trips.reports().front().monitor, "window");
  EXPECT_TRUE(contains(trips.reports().front().message, "conservation"));
}

TEST_F(MonitorTest, WindowOverrunAndForgedGrantTrip) {
  ScopedTripCapture trips;
  int ch1 = 0;
  int ch2 = 0;
  WindowChannelState st;
  st.window_size = 4;
  st.max_queue = 8;
  st.next_seq = 6;
  st.ack_base = 1;
  st.inflight = 5;  // corruption: in-flight exceeds the window
  on_window_channel(owner(), &ch1, 1, 2, st);
  ASSERT_EQ(trips.reports().size(), 1u);
  EXPECT_TRUE(contains(trips.reports().front().message, "exceed window"));

  WindowChannelState grant;
  grant.window_size = 4;
  grant.max_queue = 8;
  grant.credit = 100;  // corruption: receiver granted more than the window
  on_window_channel(owner(), &ch2, 1, 3, grant);
  ASSERT_EQ(trips.reports().size(), 2u);
  EXPECT_TRUE(contains(trips.reports().back().message, "forged grant"));
}

TEST_F(MonitorTest, ParkedBatchesBeyondDeadlineTrip) {
  ScopedTripCapture trips;
  on_parked_batches(owner(), 7, /*peer_key=*/9, /*depth=*/4, /*bound=*/4);
  on_parked_batches(owner(), 7, 9, /*depth=*/50, /*bound=*/0);  // unbounded
  ASSERT_FALSE(trips.tripped());
  on_parked_batches(owner(), 7, 9, /*depth=*/5, /*bound=*/4);  // corruption
  ASSERT_EQ(trips.reports().size(), 1u);
  EXPECT_EQ(trips.reports().front().monitor, "parked");
}

TEST_F(MonitorTest, FloorDeltaBelowTombstoneHorizonTrips) {
  ScopedTripCapture trips;
  on_delta_serve(owner(), 8, 4, /*floor=*/5, /*horizon=*/3, /*version=*/9,
                 /*refused=*/false);
  on_delta_serve(owner(), 8, 4, /*floor=*/1, /*horizon=*/3, 9,
                 /*refused=*/true);  // refusal is the correct reaction
  ASSERT_FALSE(trips.tripped());
  on_delta_serve(owner(), 8, 4, /*floor=*/2, /*horizon=*/3, 9,
                 /*refused=*/false);  // corruption: served anyway
  ASSERT_EQ(trips.reports().size(), 1u);
  EXPECT_EQ(trips.reports().front().monitor, "horizon");
  EXPECT_TRUE(contains(trips.reports().front().message, "tombstone"));
}

TEST_F(MonitorTest, SessionFloorRegressionTrips) {
  ScopedTripCapture trips;
  on_session_floors(owner(), /*client=*/11, /*object=*/1, /*write_seq=*/3,
                    /*read_total=*/7, /*gseq_floor=*/2);
  on_session_floors(owner(), 11, 1, 4, 7, 2);
  ASSERT_FALSE(trips.tripped());
  on_session_floors(owner(), 11, 1, 4, 6, 2);  // corruption: read floor
  ASSERT_EQ(trips.reports().size(), 1u);
  EXPECT_EQ(trips.reports().front().monitor, "session");
  EXPECT_TRUE(contains(trips.reports().front().key, "client=11"));
}

TEST_F(MonitorTest, DisabledHooksAreInert) {
  ScopedTripCapture trips;
  set_enabled(false);
  // Components report through this macro; disabling must silence it.
  GLOBE_CHECK_HOOK(on_gseq_apply(owner(), 1, 1, false, 5));
  GLOBE_CHECK_HOOK(on_gseq_apply(owner(), 1, 1, false, 1));
  set_enabled(true);
  EXPECT_FALSE(trips.tripped());
  EXPECT_TRUE(enabled());
}

TEST_F(MonitorTest, ReleaseDropsOwnerHistory) {
  ScopedTripCapture trips;
  on_gseq_apply(owner(), 1, 1, false, 9);
  release(owner());
  // A fresh component at the same address starts clean: no regression
  // against the released owner's floors.
  on_gseq_apply(owner(), 1, 1, false, 2);
  EXPECT_FALSE(trips.tripped());
}

TEST_F(MonitorTest, RingBufferKeepsRecentTransitions) {
  ScopedTripCapture trips;
  for (std::uint64_t g = 1; g <= 30; ++g) {
    on_gseq_apply(owner(), 1, 2, false, g);
  }
  on_gseq_apply(owner(), 1, 2, false, 3);  // corruption
  ASSERT_EQ(trips.reports().size(), 1u);
  const std::string& h = trips.reports().front().history;
  // The dump holds the most recent window, ending with the violation.
  EXPECT_TRUE(contains(h, "apply 30"));
  EXPECT_TRUE(contains(h, "apply 3"));
  EXPECT_FALSE(contains(h, "apply 10 "));  // aged out of the ring
}

// ------------------------------------------------------------------
// End to end: a man-in-the-middle forging cumulative acks under a real
// WindowedMulticast channel must trip the window monitor.
// ------------------------------------------------------------------

namespace e2e {

using net::Address;
using net::LoopbackRouter;
using net::LoopbackTransport;
using net::MessageHandler;
using net::Transport;
using net::TransportFactoryFn;

/// Wraps the receiver's inner transport and rewrites outgoing acks:
/// the cumulative position is pushed past anything the sender issued.
class AckForgingTransport final : public Transport {
 public:
  explicit AckForgingTransport(std::unique_ptr<Transport> inner)
      : inner_(std::move(inner)) {}

  void send_shared(const Address& to, util::SharedBuffer payload) override {
    if (!payload->empty() &&
        static_cast<std::uint8_t>((*payload)[0]) == net::kAckFrameKind) {
      net::AckFrame ack = net::AckFrame::decode(util::BytesView(*payload));
      ack.cumulative += 1000;  // the forgery
      util::Writer w;
      ack.encode(w);
      inner_->send_shared(to, std::make_shared<const util::Buffer>(w.take()));
      return;
    }
    inner_->send_shared(to, std::move(payload));
  }

  [[nodiscard]] Address local_address() const override {
    return inner_->local_address();
  }

 private:
  std::unique_ptr<Transport> inner_;
};

}  // namespace e2e

TEST(MonitorEndToEnd, ForgedCumulativeAckTripsWindowMonitor) {
#ifndef GLOBE_CHECKED
  GTEST_SKIP() << "the window monitor hook is compiled out of unchecked "
                  "builds";
#endif
  ScopedTripCapture trips;
  net::WindowOptions opts;
  opts.window_size = 4;
  net::WindowedMulticast host(opts);
  net::LoopbackRouter router;

  std::string rx_got;
  e2e::TransportFactoryFn rx_inner =
      [&](net::MessageHandler h) -> std::unique_ptr<net::Transport> {
    return std::make_unique<e2e::AckForgingTransport>(
        std::make_unique<net::LoopbackTransport>(router, e2e::Address{1, 1},
                                                 std::move(h)));
  };
  auto rx = net::windowed_factory(host, std::move(rx_inner))(
      [&](const e2e::Address&, util::BytesView payload) {
        rx_got = util::to_string(payload);
      });

  e2e::TransportFactoryFn tx_inner =
      [&](net::MessageHandler h) -> std::unique_ptr<net::Transport> {
    return std::make_unique<net::LoopbackTransport>(router, e2e::Address{0, 1},
                                                    std::move(h));
  };
  auto tx = net::windowed_factory(host, std::move(tx_inner))(
      [](const e2e::Address&, util::BytesView) {});

  tx->send_shared(e2e::Address{1, 1},
                  std::make_shared<const util::Buffer>(util::to_buffer("hi")));
  router.drain();

  ASSERT_TRUE(trips.tripped());
  EXPECT_EQ(trips.reports().front().monitor, "window");
  EXPECT_TRUE(contains(trips.reports().front().message, "forged"));
  EXPECT_EQ(rx_got, "hi");  // the data itself still flowed
}

}  // namespace
}  // namespace globe::check
