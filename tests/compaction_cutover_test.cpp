// Log compaction + snapshot cutover, end to end.
//
// Compaction folds old records into the log's base clock; a peer behind
// that horizon can no longer be served a delta. Both directions must
// recover via a full snapshot:
//   * requester behind — fetch / anti-entropy *reply* cuts over;
//   * responder behind — the anti-entropy *push-back* cuts over (the
//     responder may never send a request of its own, so without this a
//     lossy link plus compaction pressure diverges forever).
#include <gtest/gtest.h>

#include <string>

#include "globe/coherence/checkers.hpp"
#include "globe/replication/testbed.hpp"

namespace globe::replication {
namespace {

core::ReplicationPolicy pull_policy(coherence::ObjectModel model) {
  core::ReplicationPolicy policy;
  policy.model = model;
  if (model == coherence::ObjectModel::kCausal ||
      model == coherence::ObjectModel::kEventual) {
    policy.write_set = core::WriteSet::kMultiple;
  }
  policy.initiative = core::TransferInitiative::kPull;
  policy.coherence_transfer = core::CoherenceTransfer::kPartial;
  policy.lazy_period = sim::SimDuration::millis(10);
  return policy;
}

TestbedOptions compacting_options() {
  TestbedOptions opts;
  opts.record_history = false;
  opts.log_compact_threshold = 32;  // aggressive: horizon moves fast
  opts.wan.base_latency = sim::SimDuration::millis(1);
  return opts;
}

TEST(CompactionCutover, LateJoinerCatchesUpViaFetchSnapshot) {
  Testbed bed(compacting_options());
  auto& primary =
      bed.add_primary(1, pull_policy(coherence::ObjectModel::kPram));
  for (int i = 0; i < 300; ++i) {
    primary.seed("p" + std::to_string(i % 7) + ".html",
                 "v" + std::to_string(i));
  }
  bed.settle();
  ASSERT_LT(primary.write_log().size(), 300u);  // compaction happened
  ASSERT_FALSE(primary.write_log().base_clock().empty());

  // Joins with an empty clock, far behind the horizon: only a snapshot
  // cutover can serve it.
  bed.add_store(1, naming::StoreClass::kClientInitiated,
                pull_policy(coherence::ObjectModel::kPram));
  bed.settle();
  bed.run_for(sim::SimDuration::millis(100));
  bed.settle();
  EXPECT_TRUE(bed.converged(1));
}

TEST(CompactionCutover, EngineCompactsOnCountAndCountsCutovers) {
  TestbedOptions opts;
  opts.seed = 9;
  opts.wan.base_latency = sim::SimDuration::millis(1);
  opts.log_compact_threshold = 16;
  Testbed bed(opts);

  const auto policy = pull_policy(coherence::ObjectModel::kPram);
  auto& primary = bed.add_primary(1, policy);
  auto& replica =
      bed.add_store(1, naming::StoreClass::kClientInitiated, policy);
  bed.settle();

  // Cut the replica off, then push the primary's log far past the
  // threshold so the replica's horizon is compacted away.
  bed.net().partition(primary.address().node, replica.address().node);
  const std::string payload(2048, 'c');
  for (int i = 0; i < 200; ++i) {
    primary.seed("page" + std::to_string(i % 32) + ".html",
                 payload + std::to_string(i));
    bed.run_for(sim::SimDuration::millis(5));
  }
  EXPECT_LE(primary.write_log().size(), opts.log_compact_threshold);
  EXPECT_GT(bed.metrics().log_compactions(), 0u);
  ASSERT_EQ(bed.metrics().snapshot_cutovers(), 0u);

  // Heal: the next pull cannot be served as a delta — the fetch cuts
  // over to a snapshot, and the metrics report counts it.
  bed.net().heal_all();
  bed.run_for(sim::SimDuration::millis(100));
  bed.settle();

  EXPECT_GT(bed.metrics().snapshot_cutovers(), 0u);
  EXPECT_TRUE(bed.converged(1));
}

TEST(CompactionCutover, AntiEntropyReplyCutsOverForBehindRequester) {
  Testbed bed(compacting_options());
  const auto policy = pull_policy(coherence::ObjectModel::kEventual);
  auto& primary = bed.add_primary(1, policy);
  for (int i = 0; i < 300; ++i) {
    primary.seed("q" + std::to_string(i % 5) + ".html",
                 "w" + std::to_string(i));
  }
  bed.settle();
  ASSERT_FALSE(primary.write_log().base_clock().empty());

  bed.add_store(1, naming::StoreClass::kObjectInitiated, policy);
  bed.settle();
  bed.run_for(sim::SimDuration::millis(100));
  bed.settle();
  EXPECT_TRUE(bed.converged(1));
}

TEST(CompactionCutover, AntiEntropyPushBackCutsOverForBehindResponder) {
  // Writes land at the CHILD store; the parent learns of them only via
  // the child's anti-entropy push-back. A very lossy gossip link drops
  // nearly all push-back Updates while the child keeps compacting —
  // once the parent is behind the child's horizon, only the push-back
  // snapshot cutover can ever repair it (the parent never sends an
  // anti-entropy request of its own).
  Testbed bed(compacting_options());
  const auto policy = pull_policy(coherence::ObjectModel::kEventual);
  auto& primary = bed.add_primary(1, policy);
  auto& child =
      bed.add_store(1, naming::StoreClass::kObjectInitiated, policy);
  bed.settle();
  sim::LinkSpec lossy;
  lossy.base_latency = sim::SimDuration::millis(1);
  lossy.reliable_ordered = false;
  lossy.drop_rate = 0.95;
  bed.net().set_link(primary.address().node, child.address().node, lossy);

  // The writer sits next to the child on a reliable metro link.
  ClientBinding& writer = bed.add_client(1, coherence::ClientModel::kNone,
                                         child.address(), child.address());
  int acked = 0;
  for (int i = 0; i < 200; ++i) {
    writer.write("r" + std::to_string(i % 7) + ".html",
                 "x" + std::to_string(i),
                 [&](WriteResult r) { acked += r.ok ? 1 : 0; });
    bed.run_for(sim::SimDuration::millis(5));
  }
  EXPECT_GT(acked, 0);
  // The child's log compacted and the parent fell behind the horizon:
  // from here, no delta can repair it.
  ASSERT_FALSE(child.write_log().base_clock().empty());
  ASSERT_FALSE(child.write_log().can_serve(primary.applied_clock(), 0));

  // Heal the gossip link; the next rounds must repair via the push-back
  // snapshot cutover.
  sim::LinkSpec healed = lossy;
  healed.drop_rate = 0.0;
  healed.reliable_ordered = true;
  bed.net().set_link(primary.address().node, child.address().node, healed);
  bed.run_for(sim::SimDuration::seconds(2));
  bed.settle();
  EXPECT_TRUE(bed.converged(1));
  EXPECT_EQ(primary.document(), child.document());
}

TEST(CompactionCutover, MutualHorizonStalemateStillConverges) {
  // Both replicas write through a partition until each has compacted
  // the other's-unseen records away. On heal neither clock dominates,
  // so a restore-snapshot would apply in neither direction — the
  // state-as-records exchange must converge them anyway.
  Testbed bed(compacting_options());
  const auto policy = pull_policy(coherence::ObjectModel::kEventual);
  auto& primary = bed.add_primary(1, policy);
  auto& child =
      bed.add_store(1, naming::StoreClass::kObjectInitiated, policy);
  bed.settle();

  bed.net().partition(primary.address().node, child.address().node);

  ClientBinding& writer = bed.add_client(1, coherence::ClientModel::kNone,
                                         child.address(), child.address());
  for (int i = 0; i < 100; ++i) {
    // Overlapping and disjoint pages on both sides of the partition.
    primary.seed("shared" + std::to_string(i % 3) + ".html",
                 "primary" + std::to_string(i));
    primary.seed("p-only" + std::to_string(i % 4) + ".html", "p");
    writer.write("shared" + std::to_string(i % 3) + ".html",
                 "child" + std::to_string(i), [](WriteResult) {});
    writer.write("c-only" + std::to_string(i % 4) + ".html", "c",
                 [](WriteResult) {});
    bed.run_for(sim::SimDuration::millis(5));
  }
  // Both sides compacted records the other never saw: mutual horizon.
  ASSERT_FALSE(primary.write_log().can_serve(child.applied_clock(), 0));
  ASSERT_FALSE(child.write_log().can_serve(primary.applied_clock(), 0));

  bed.net().heal_all();
  bed.run_for(sim::SimDuration::seconds(2));
  bed.settle();
  EXPECT_TRUE(bed.converged(1));
  EXPECT_EQ(primary.document(), child.document());
}

TEST(CompactionCutover, StateRecordsKeepEachWritersOrder) {
  // A monotonic-writes client writes b.html, then a.html, while the
  // peer is cut off; the primary compacts both writes away. After the
  // heal the peer's anti-entropy pull gets the state as records, one per
  // page. Shipped in page-name order they would apply the client's
  // second write before its first.
  TestbedOptions opts = compacting_options();
  opts.record_history = true;
  opts.log_compact_threshold = 4;
  Testbed bed(opts);
  const auto policy = pull_policy(coherence::ObjectModel::kEventual);
  auto& primary = bed.add_primary(1, policy);
  auto& peer = bed.add_store(1, naming::StoreClass::kObjectInitiated, policy);
  bed.settle();
  bed.net().partition(primary.address().node, peer.address().node);

  ClientBinding& writer =
      bed.add_client(1, coherence::ClientModel::kMonotonicWrites,
                     primary.address(), primary.address());
  int acked = 0;
  const auto count_ack = [&](WriteResult r) { acked += r.ok ? 1 : 0; };
  writer.write("b.html", "first", count_ack);
  bed.run_for(sim::SimDuration::millis(50));
  writer.write("a.html", "second", count_ack);
  bed.run_for(sim::SimDuration::millis(50));
  ASSERT_EQ(acked, 2);
  for (int i = 0; i < 4; ++i) {
    primary.seed("z" + std::to_string(i) + ".html", "filler");
  }
  ASSERT_FALSE(primary.write_log().can_serve(peer.applied_clock(), 0));

  bed.net().heal_all();
  bed.run_for(sim::SimDuration::seconds(1));
  bed.settle();
  ASSERT_TRUE(bed.converged(1));
  EXPECT_GT(bed.metrics().snapshot_cutovers(), 0u);
  for (const auto& result : coherence::check_sessions(
           bed.history(),
           {{writer.id(), coherence::ClientModel::kMonotonicWrites}})) {
    EXPECT_TRUE(result.ok) << result.summary();
  }
}

}  // namespace
}  // namespace globe::replication
