// Tests for runtime strategy replacement and self-adaptive policies
// (the paper's Section 5 future work, built on Section 3.2.2's
// dynamically replaceable strategies).
#include <gtest/gtest.h>

#include <optional>

#include "globe/coherence/checkers.hpp"
#include "globe/replication/adaptive.hpp"
#include "globe/replication/testbed.hpp"

namespace globe::replication {
namespace {

using coherence::ClientModel;
using core::ReplicationPolicy;

constexpr ObjectId kObj = 1;

ReplicationPolicy immediate_pram() {
  ReplicationPolicy p;
  p.instant = core::TransferInstant::kImmediate;
  return p;
}

TEST(PolicyCodec, RoundTrip) {
  auto p = ReplicationPolicy::conference_example();
  p.lazy_period = sim::SimDuration::millis(1234);
  util::Writer w;
  p.encode(w);
  util::Reader r{util::BytesView(w.view())};
  EXPECT_EQ(ReplicationPolicy::decode(r), p);
}

TEST(UpdatePolicy, RejectsModelChangeAndInvalidPolicies) {
  Testbed bed;
  auto& primary = bed.add_primary(kObj, immediate_pram());

  auto changed_model = immediate_pram();
  changed_model.model = coherence::ObjectModel::kCausal;
  EXPECT_FALSE(primary.update_policy(changed_model));

  auto invalid = immediate_pram();
  invalid.propagation = core::Propagation::kInvalidate;
  invalid.coherence_transfer = core::CoherenceTransfer::kNotification;
  EXPECT_FALSE(primary.update_policy(invalid));

  EXPECT_TRUE(primary.update_policy(immediate_pram()));  // no-op ok
}

TEST(UpdatePolicy, SwitchToLazyChangesPropagationBehaviour) {
  Testbed bed;
  auto& primary = bed.add_primary(kObj, immediate_pram());
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                              immediate_pram());
  bed.settle();

  auto& writer = bed.add_client(kObj, ClientModel::kNone);
  writer.write("p", "v1", [](WriteResult) {});
  bed.run_for(sim::SimDuration::millis(100));
  EXPECT_EQ(cache.document().get("p")->content, "v1");  // immediate

  auto lazy = immediate_pram();
  lazy.instant = core::TransferInstant::kLazy;
  lazy.lazy_period = sim::SimDuration::seconds(1);
  ASSERT_TRUE(primary.update_policy(lazy));

  writer.write("p", "v2", [](WriteResult) {});
  bed.run_for(sim::SimDuration::millis(300));
  EXPECT_EQ(cache.document().get("p")->content, "v1");  // held back
  bed.run_for(sim::SimDuration::seconds(2));
  EXPECT_EQ(cache.document().get("p")->content, "v2");  // periodic flush
}

TEST(UpdatePolicy, ChangePropagatesDownstream) {
  Testbed bed;
  auto& primary = bed.add_primary(kObj, immediate_pram());
  auto& mirror = bed.add_store(kObj, naming::StoreClass::kObjectInitiated,
                               immediate_pram());
  bed.settle();
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                              immediate_pram(), mirror.address());
  bed.settle();

  auto lazy = immediate_pram();
  lazy.instant = core::TransferInstant::kLazy;
  ASSERT_TRUE(primary.update_policy(lazy));
  bed.settle();
  EXPECT_EQ(mirror.object_config().policy.instant,
            core::TransferInstant::kLazy);
  EXPECT_EQ(cache.object_config().policy.instant,
            core::TransferInstant::kLazy);
}

TEST(UpdatePolicy, SwitchFlushesPendingLazyUpdates) {
  auto lazy = immediate_pram();
  lazy.instant = core::TransferInstant::kLazy;
  lazy.lazy_period = sim::SimDuration::seconds(30);

  Testbed bed;
  auto& primary = bed.add_primary(kObj, lazy);
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                              lazy);
  bed.settle();

  auto& writer = bed.add_client(kObj, ClientModel::kNone);
  writer.write("p", "queued", [](WriteResult) {});
  bed.run_for(sim::SimDuration::millis(200));
  EXPECT_FALSE(cache.document().has("p"));  // parked in the lazy queue

  ASSERT_TRUE(primary.update_policy(immediate_pram()));
  bed.run_for(sim::SimDuration::millis(200));
  EXPECT_EQ(cache.document().get("p")->content, "queued");  // flushed
}

TEST(UpdatePolicy, CoherenceHoldsAcrossSwitch) {
  Testbed bed;
  auto& primary = bed.add_primary(kObj, immediate_pram());
  bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                immediate_pram());
  bed.settle();

  auto& writer = bed.add_client(kObj, ClientModel::kNone);
  for (int i = 1; i <= 5; ++i) {
    writer.write("p", "a" + std::to_string(i), [](WriteResult) {});
  }
  bed.run_for(sim::SimDuration::millis(100));

  auto lazy = immediate_pram();
  lazy.instant = core::TransferInstant::kLazy;
  lazy.lazy_period = sim::SimDuration::millis(300);
  ASSERT_TRUE(primary.update_policy(lazy));
  for (int i = 1; i <= 5; ++i) {
    writer.write("p", "b" + std::to_string(i), [](WriteResult) {});
  }
  bed.run_for(sim::SimDuration::seconds(1));
  ASSERT_TRUE(primary.update_policy(immediate_pram()));
  for (int i = 1; i <= 5; ++i) {
    writer.write("p", "c" + std::to_string(i), [](WriteResult) {});
  }
  bed.settle();

  EXPECT_TRUE(bed.converged(kObj));
  const auto res = coherence::check_pram(bed.history());
  EXPECT_TRUE(res.ok) << res.summary();
}

TEST(Adaptive, SwitchesToLazyUnderWriteBurstAndBack) {
  Testbed bed;
  auto& primary = bed.add_primary(kObj, immediate_pram());
  bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                immediate_pram());
  bed.settle();

  AdaptiveOptions opts;
  opts.interval = sim::SimDuration::seconds(1);
  opts.lazy_above_writes_per_s = 5.0;
  opts.immediate_below_writes_per_s = 1.0;
  AdaptiveController controller(bed.sim(), primary, opts);
  std::vector<core::TransferInstant> decisions;
  controller.on_switch = [&](core::TransferInstant t) {
    decisions.push_back(t);
  };
  controller.start();

  auto& writer = bed.add_client(kObj, ClientModel::kNone);

  // Phase 1: hot — 20 writes/s for 3 seconds.
  for (int i = 0; i < 60; ++i) {
    writer.write("p", "hot" + std::to_string(i), [](WriteResult) {});
    bed.run_for(sim::SimDuration::millis(50));
  }
  ASSERT_FALSE(decisions.empty());
  EXPECT_EQ(decisions.front(), core::TransferInstant::kLazy);

  // Phase 2: cold — no writes for a few sampling intervals.
  bed.run_for(sim::SimDuration::seconds(4));
  ASSERT_GE(decisions.size(), 2u);
  EXPECT_EQ(decisions.back(), core::TransferInstant::kImmediate);
  EXPECT_GE(controller.switches(), 2u);

  controller.stop();
  bed.settle();
  EXPECT_TRUE(bed.converged(kObj));
  EXPECT_TRUE(coherence::check_pram(bed.history()).ok);
}

TEST(Adaptive, QuietObjectNeverSwitches) {
  Testbed bed;
  auto& primary = bed.add_primary(kObj, immediate_pram());
  bed.settle();
  AdaptiveController controller(bed.sim(), primary);
  controller.start();
  bed.run_for(sim::SimDuration::seconds(10));
  controller.stop();
  EXPECT_EQ(controller.switches(), 0u);
  EXPECT_EQ(controller.current_instant(), core::TransferInstant::kImmediate);
}

TEST(Adaptive, CounterRegressionDoesNotForceSpuriousLazySwitch) {
  // A write counter that regresses between samples (store re-created or
  // snapshot-restored mid-run) used to wrap the unsigned delta into a
  // huge rate and force a switch to lazy. The controller must instead
  // treat a regression as zero writes and re-baseline.
  Testbed bed;
  auto& primary = bed.add_primary(kObj, immediate_pram());
  bed.settle();

  // Scripted counter: a healthy sample, then a restore that resets the
  // counter to a smaller value, then quiet samples from the new base.
  std::uint64_t counter = 0;
  AdaptiveOptions opts;
  opts.interval = sim::SimDuration::seconds(1);
  opts.writes_probe = [&counter] { return counter; };
  AdaptiveController controller(bed.sim(), primary, opts);
  controller.start();

  counter = 2;  // below the lazy threshold (4 writes/s)
  bed.run_for(sim::SimDuration::millis(1100));  // sample 1
  EXPECT_EQ(controller.current_instant(), core::TransferInstant::kImmediate);

  counter = 0;  // the regression: restore dropped the counter
  bed.run_for(sim::SimDuration::seconds(1));  // sample 2: would wrap
  EXPECT_EQ(controller.switches(), 0u);
  EXPECT_EQ(controller.current_instant(), core::TransferInstant::kImmediate);

  // Re-baselined at 0: modest progress from there must read as a
  // modest rate, not as (new - stale_base).
  counter = 2;
  bed.run_for(sim::SimDuration::seconds(1));  // sample 3
  EXPECT_EQ(controller.switches(), 0u);
  EXPECT_EQ(controller.current_instant(), core::TransferInstant::kImmediate);

  // A genuine burst after the regression still switches.
  counter += 50;
  bed.run_for(sim::SimDuration::seconds(1));  // sample 4
  EXPECT_EQ(controller.current_instant(), core::TransferInstant::kLazy);
  controller.stop();
}

}  // namespace
}  // namespace globe::replication
