// Stability-horizon GC: write-log prefix compaction below the cluster
// floor, tombstone collection with preserved delta-refusal semantics,
// horizon aggregation of heartbeat piggybacks once per failure-detector
// sweep, and the failure-detector exclusion that keeps a
// crashed-but-unevicted store from freezing GC cluster-wide.
#include <gtest/gtest.h>

#include "globe/coherence/checkers.hpp"
#include "globe/membership/service.hpp"
#include "globe/replication/testbed.hpp"
#include "globe/replication/write_log.hpp"
#include "globe/web/document.hpp"

namespace globe::replication {
namespace {

using coherence::VectorClock;
using coherence::WriteId;

constexpr ObjectId kObj = 1;
constexpr coherence::ClientModel kAllSessions =
    coherence::ClientModel::kMonotonicWrites |
    coherence::ClientModel::kReadYourWrites |
    coherence::ClientModel::kMonotonicReads |
    coherence::ClientModel::kWritesFollowReads;

/// Appends as a replica does: under the record's page id in `names`,
/// held only while the log takes its own hold.
void append(WriteLog& log, web::PageTable& names, web::WriteRecord rec) {
  const web::PageId id = names.acquire(rec.page);
  log.append(std::move(rec), id);
  names.release(id);
}

web::WriteRecord rec(ClientId c, std::uint64_t seq, std::string page,
                     std::uint64_t gseq = 0) {
  web::WriteRecord r;
  r.wid = WriteId{c, seq};
  r.page = std::move(page);
  r.content = "v" + std::to_string(seq);
  r.global_seq = gseq;
  return r;
}

web::WriteRecord del(ClientId c, std::uint64_t seq, std::string page) {
  web::WriteRecord r;
  r.wid = WriteId{c, seq};
  r.op = web::WriteOp::kDelete;
  r.page = std::move(page);
  return r;
}

// ---- WriteLog::compact_below -----------------------------------------

TEST(WriteLogHorizon, CompactsOnlyTheCoveredPrefix) {
  web::PageTable names;
  WriteLog log(names);
  append(log, names, rec(1, 1, "a"));
  append(log, names, rec(2, 1, "b"));
  append(log, names, rec(1, 2, "c"));
  append(log, names, rec(2, 2, "d"));

  VectorClock h;
  h.advance(1, 2);
  h.advance(2, 1);  // covers the first three records, not w(2,2)
  EXPECT_EQ(log.compact_below(h, 0), 3u);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.retained().front().wid, (WriteId{2, 2}));
  EXPECT_EQ(log.base_clock().get(1), 2u);
  EXPECT_EQ(log.base_clock().get(2), 1u);

  // Idempotent at the same horizon.
  EXPECT_EQ(log.compact_below(h, 0), 0u);
  EXPECT_EQ(log.size(), 1u);
}

TEST(WriteLogHorizon, UncoveredRecordShieldsTheSuffix) {
  web::PageTable names;
  WriteLog log(names);
  append(log, names, rec(1, 1, "a"));
  append(log, names, rec(2, 1, "b"));
  append(log, names, rec(1, 2, "c"));

  // Covers w(1,*) but not w(2,1): the fold must stop at position 1 even
  // though the record behind it is covered (compaction is a prefix
  // operation — the indexes key off a contiguous first position).
  VectorClock h;
  h.advance(1, 2);
  EXPECT_EQ(log.compact_below(h, 0), 1u);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.retained().front().wid, (WriteId{2, 1}));
}

TEST(WriteLogHorizon, GlobalSeqFloorGatesSequencedRecords) {
  web::PageTable names;
  WriteLog log(names);
  append(log, names, rec(1, 1, "a", 1));
  append(log, names, rec(1, 2, "b", 2));

  VectorClock h;
  h.advance(1, 2);  // clock covers both, gseq floor only the first
  EXPECT_EQ(log.compact_below(h, 1), 1u);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.compact_below(h, 2), 1u);
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.base_gseq(), 2u);
}

TEST(WriteLogHorizon, RequesterBehindTheHorizonGetsSnapshotCutover) {
  web::PageTable names;
  WriteLog log(names);
  for (std::uint64_t s = 1; s <= 8; ++s) {
    append(log, names, rec(1, s, "p" + std::to_string(s)));
  }
  VectorClock h;
  h.advance(1, 5);
  EXPECT_EQ(log.compact_below(h, 0), 5u);

  VectorClock behind;
  behind.advance(1, 2);
  EXPECT_FALSE(log.can_serve(behind, 0));  // full-snapshot cutover

  VectorClock at;
  at.advance(1, 5);
  EXPECT_TRUE(log.can_serve(at, 0));
  EXPECT_EQ(log.records_since(at, 0).size(), 3u);
}

// ---- WebDocument::collect_tombstones ---------------------------------

TEST(TombstoneHorizon, CoveredTombstonesAreCollectedAndRaiseTheFloor) {
  web::WebDocument doc;
  doc.apply(rec(1, 1, "a"));
  doc.apply(rec(1, 2, "b"));
  doc.apply(del(2, 1, "a"));
  ASSERT_EQ(doc.tombstones().size(), 1u);
  const std::uint64_t at_delete = doc.version();
  EXPECT_TRUE(doc.can_delta_since(at_delete - 1));

  VectorClock h;
  h.advance(2, 1);  // every live replica applied the delete
  EXPECT_EQ(doc.collect_tombstones(h), 1u);
  EXPECT_TRUE(doc.tombstones().empty());

  // Refusal semantics preserved: a floor from before the collected
  // deletion can no longer prove which drops the receiver missed, so
  // the floor fast path refuses and the sender falls back to a full
  // transfer — exactly as after restore().
  EXPECT_EQ(doc.tombstone_horizon(), at_delete);
  EXPECT_FALSE(doc.can_delta_since(at_delete - 1));
  EXPECT_TRUE(doc.can_delta_since(at_delete));
}

TEST(TombstoneHorizon, UncoveredTombstonesStay) {
  web::WebDocument doc;
  doc.apply(rec(1, 1, "a"));
  doc.apply(del(2, 5, "a"));

  VectorClock h;
  h.advance(2, 4);  // below the winning delete
  EXPECT_EQ(doc.collect_tombstones(h), 0u);
  EXPECT_EQ(doc.tombstones().size(), 1u);
  EXPECT_EQ(doc.tombstone_horizon(), 0u);
  EXPECT_TRUE(doc.can_delta_since(1));
}

// ---- cluster aggregation over heartbeats -----------------------------

TestbedOptions horizon_options() {
  TestbedOptions opts;
  opts.enable_membership = true;
  opts.membership_heartbeat = sim::SimDuration::millis(50);
  opts.failure_timeout = sim::SimDuration::millis(200);
  opts.wan.base_latency = sim::SimDuration::millis(5);
  opts.client_timeout = sim::SimDuration::millis(300);
  opts.client_retries = 1;
  return opts;
}

core::ReplicationPolicy causal_multi_master() {
  core::ReplicationPolicy p;
  p.model = coherence::ObjectModel::kCausal;
  p.write_set = core::WriteSet::kMultiple;
  p.initiative = core::TransferInitiative::kPush;
  return p;
}

TEST(StabilityHorizon, HeartbeatsAggregateTheClusterFloorAndDriveGc) {
  Testbed bed(horizon_options());
  auto& sc = bed.enable_streaming(coherence::ObjectModel::kCausal);
  const auto policy = causal_multi_master();
  auto& primary = bed.add_primary(kObj, policy);
  primary.seed("p0", "seed");
  auto& a = bed.add_store(kObj, naming::StoreClass::kClientInitiated, policy);
  auto& b = bed.add_store(kObj, naming::StoreClass::kClientInitiated, policy);
  (void)b;
  bed.settle();
  bed.run_for(sim::SimDuration::millis(200));

  auto& c1 = bed.add_client(kObj, kAllSessions, a.address());
  for (int i = 0; i < 6; ++i) {
    c1.write("p" + std::to_string(i % 3), "v" + std::to_string(i),
             [](WriteResult) {});
    bed.run_for(sim::SimDuration::millis(20));
  }
  c1.remove("p0", [](WriteResult) {});
  bed.settle();
  bed.run_for(sim::SimDuration::millis(400));  // heartbeat piggybacks

  // The floor converged to everything the one writing client produced
  // (writes + the delete): every live store applied and announced it.
  const membership::HorizonMsg h = bed.membership().stability_horizon(kObj);
  EXPECT_EQ(h.clock.get(c1.id()), c1.writes_issued());
  EXPECT_GT(bed.membership().stats().horizon_advances, 0u);

  // The floor drove all three collectors, surfaced in the metrics sink.
  EXPECT_GT(bed.metrics().horizon_advances(), 0u);
  EXPECT_GT(bed.metrics().events_retired(), 0u);
  EXPECT_GT(bed.metrics().tombstones_collected(), 0u);

  // The streaming checker retired events and stayed equivalent to the
  // post-hoc verdicts on the fully retained history.
  EXPECT_GT(sc.events_retired(), 0u);
  EXPECT_LT(sc.retained_events(), bed.history().size());
  EXPECT_TRUE(sc.exact());
  const coherence::CheckResult model = coherence::check_object_model(
      bed.history(), coherence::ObjectModel::kCausal);
  EXPECT_EQ(sc.model_result(), model);
  EXPECT_TRUE(model.ok) << model.violations.front();
  EXPECT_EQ(sc.session_results(),
            coherence::check_sessions(bed.history(), sc.sessions()));
}

// Heartbeats only record each member's applied state; the failure-detector
// sweep folds them into the floor and sends it. Seven members that join
// 7 ms apart heartbeat out of phase, so under a steady write stream the
// slowest member changes with most heartbeats: aggregating per heartbeat
// moved the floor about five times per period. The sweep moves it at
// most once per scope per period, and the floor still catches up.
TEST(StabilityHorizon, OneAggregationPerSweep) {
  const TestbedOptions opts = horizon_options();
  Testbed bed(opts);
  const auto policy = causal_multi_master();
  auto& primary = bed.add_primary(kObj, policy);
  primary.seed("p0", "seed");
  std::vector<StoreEngine*> caches;
  for (int i = 0; i < 6; ++i) {
    bed.run_for(sim::SimDuration::millis(7));
    caches.push_back(&bed.add_store(
        kObj, naming::StoreClass::kClientInitiated, policy));
  }
  bed.settle();

  auto& client = bed.add_client(kObj, kAllSessions, caches[0]->address());
  std::vector<WriteId> acked;
  const auto period = sim::SimDuration::millis(5);
  const auto write_for = sim::SimDuration::seconds(2);
  int i = 0;
  for (sim::SimDuration t{}; t < write_for; t = t + period) {
    client.write("p" + std::to_string(i++ % 4), "v",
                 [&](WriteResult r) {
                   if (r.ok) acked.push_back(r.wid);
                 });
    bed.run_for(period);
  }
  const std::uint64_t sweeps_while_writing =
      static_cast<std::uint64_t>(write_for.count_micros() /
                                 opts.membership_heartbeat.count_micros());
  bed.settle();
  bed.run_for(sim::SimDuration::millis(400));  // heartbeats, then a sweep

  const std::uint64_t elapsed_periods = static_cast<std::uint64_t>(
      bed.sim().now().count_micros() /
      opts.membership_heartbeat.count_micros());
  const std::uint64_t advances = bed.membership().stats().horizon_advances;
  EXPECT_LE(advances, elapsed_periods + 1);
  // Not vacuous: the floor kept moving while the client wrote.
  EXPECT_GE(advances, sweeps_while_writing / 2);

  EXPECT_EQ(acked.size(), client.writes_issued());
  const membership::HorizonMsg h = bed.membership().stability_horizon(kObj);
  for (const WriteId& w : acked) {
    EXPECT_TRUE(h.clock.covers(w)) << w.client << ":" << w.seq;
  }
  EXPECT_FALSE(primary.write_log().base_clock().empty());
}

// Satellite: a crashed store the failure detector has flagged must stop
// holding the floor back even when it is exempt from eviction (the
// permanent primary) — otherwise one dead replica freezes GC
// cluster-wide for the rest of the run.
TEST(StabilityHorizon, CrashedUnevictedPrimaryDoesNotFreezeTheHorizon) {
  Testbed bed(horizon_options());
  auto& sc = bed.enable_streaming(coherence::ObjectModel::kCausal);
  const auto policy = causal_multi_master();
  auto& primary = bed.add_primary(kObj, policy);
  primary.seed("p0", "seed");
  auto& a = bed.add_store(kObj, naming::StoreClass::kClientInitiated, policy);
  // Chain b under a so propagation between the survivors does not need
  // the primary hub once it crashes.
  auto& b = bed.add_store(kObj, naming::StoreClass::kClientInitiated, policy,
                          a.address());
  (void)b;
  bed.settle();
  bed.run_for(sim::SimDuration::millis(200));

  auto& c1 = bed.add_client(kObj, kAllSessions, a.address());
  for (int i = 0; i < 5; ++i) {
    c1.write("pre" + std::to_string(i), "v", [](WriteResult) {});
    bed.run_for(sim::SimDuration::millis(20));
  }
  bed.run_for(sim::SimDuration::millis(400));
  const membership::HorizonMsg before =
      bed.membership().stability_horizon(kObj);
  EXPECT_EQ(before.clock.get(c1.id()), 5u);
  const std::uint64_t retired_before = sc.events_retired();

  bed.crash_store(0);  // the primary, exempt from eviction: stays seated
  bed.run_for(sim::SimDuration::millis(400));  // > failure_timeout
  ASSERT_TRUE(
      bed.membership().current_view(kObj).contains(primary.address()));
  EXPECT_EQ(bed.membership().stats().evictions, 0u);

  int acked = 0;
  for (int i = 0; i < 10; ++i) {
    c1.write("post" + std::to_string(i), "v",
             [&](WriteResult r) { acked += r.ok ? 1 : 0; });
    bed.run_for(sim::SimDuration::millis(20));
  }
  bed.run_for(sim::SimDuration::millis(600));
  EXPECT_EQ(acked, 10);

  // The crashed-but-seated primary never applied the post-crash writes,
  // yet the floor moved past them: silent members are excluded from the
  // aggregation once they blow the failure timeout.
  const membership::HorizonMsg after =
      bed.membership().stability_horizon(kObj);
  EXPECT_EQ(after.clock.get(c1.id()), 15u);
  EXPECT_GT(after.clock.get(c1.id()), before.clock.get(c1.id()));

  // GC kept running for the survivors: the streaming checker kept
  // retiring events behind the advancing floor.
  EXPECT_GT(sc.events_retired(), retired_before);
}

// A sharded store hosts exactly the objects placement gives it, so its
// heartbeat floor is the floor of real replicas. A phantom object with an
// empty clock would pin the cluster-wide floor at nothing, and horizon GC
// would never run on sharded stores.
TEST(StabilityHorizon, ShardedStoresAdvanceTheHorizonAndCompact) {
  TestbedOptions opts = horizon_options();
  opts.shards = 2;
  opts.record_history = false;
  Testbed bed(opts);
  const core::ReplicationPolicy policy;
  for (ShardId s = 0; s < 2; ++s) {
    bed.add_shard_store(s, naming::StoreClass::kPermanent, policy,
                        /*primary=*/true);
    bed.add_shard_store(s, naming::StoreClass::kObjectInitiated, policy);
  }
  std::vector<ObjectId> ids;
  for (ObjectId id = 1; id <= 8; ++id) ids.push_back(id);
  bed.place_objects(ids);
  for (const ObjectId id : ids) bed.primary(id).seed(id, "p", "seed");
  bed.settle();

  auto& client = bed.add_placed_client(coherence::ClientModel::kNone);
  int acked = 0;
  for (int round = 0; round < 40; ++round) {
    for (const ObjectId id : ids) {
      client.write(id, "p", "v" + std::to_string(round),
                   [&](WriteResult r) { acked += r.ok ? 1 : 0; });
    }
    bed.run_for(sim::SimDuration::millis(50));
  }
  bed.run_for(sim::SimDuration::seconds(2));
  EXPECT_EQ(acked, 40 * 8);

  for (const auto& store : bed.stores()) {
    std::vector<ObjectId> placed;
    for (const ObjectId id : ids) {
      if (bed.placement().layout().shard_of(id) == store->shard()) {
        placed.push_back(id);
      }
    }
    EXPECT_EQ(store->object_ids(), placed) << "store " << store->id();
  }
  EXPECT_GT(bed.membership().stats().horizon_advances, 0u);
  EXPECT_FALSE(bed.primary(1).write_log(1).base_clock().empty());
}

}  // namespace
}  // namespace globe::replication
