// Tests for snapshot-aware checking: replicas that join late (or
// receive full-state transfers) are judged from their snapshot baseline
// rather than from an empty history.
#include <gtest/gtest.h>

#include "globe/coherence/checkers.hpp"

namespace globe::coherence {
namespace {

void snapshot_at(History& h, StoreId store, const VectorClock& clock,
                 std::uint64_t gseq = 0) {
  ApplyEvent e;
  e.store = store;
  e.global_seq = gseq;
  e.from_snapshot = true;
  h.record_apply(e, clock);
}

void apply(History& h, StoreId store, WriteId wid, std::uint64_t gseq = 0,
           const VectorClock& deps = {}) {
  ApplyEvent e;
  e.store = store;
  e.wid = wid;
  e.page = 1;  // arbitrary PageId; these checks never resolve the name
  e.global_seq = gseq;
  h.record_apply(e, deps);
}

TEST(SnapshotAware, PramAcceptsLateJoinerStartingMidStream) {
  History h;
  VectorClock snap;
  snap.set(1, 5);
  snapshot_at(h, 2, snap);
  apply(h, 2, {1, 6});
  apply(h, 2, {1, 7});
  EXPECT_TRUE(check_pram(h).ok);
}

TEST(SnapshotAware, PramStillDetectsGapAfterSnapshot) {
  History h;
  VectorClock snap;
  snap.set(1, 5);
  snapshot_at(h, 2, snap);
  apply(h, 2, {1, 8});  // skipped 6 and 7
  EXPECT_FALSE(check_pram(h).ok);
}

TEST(SnapshotAware, PramStillDetectsRegressionAfterSnapshot) {
  History h;
  VectorClock snap;
  snap.set(1, 5);
  snapshot_at(h, 2, snap);
  apply(h, 2, {1, 3});  // already covered by the snapshot
  EXPECT_FALSE(check_pram(h).ok);
}

TEST(SnapshotAware, CausalTreatsSnapshotAsDependencyBaseline) {
  History h;
  VectorClock snap;
  snap.set(1, 1);
  VectorClock dep;
  dep.set(1, 1);
  h.record_write(WriteEvent{{}, 1, 2, WriteId{2, 1}, 1, 0});
  snapshot_at(h, 3, snap);
  apply(h, 3, {2, 1}, 0, dep);  // dep satisfied via snapshot
  EXPECT_TRUE(check_causal(h).ok);
}

TEST(SnapshotAware, CausalStillDetectsMissingDependency) {
  History h;
  VectorClock snap;
  snap.set(1, 1);
  VectorClock dep;
  dep.set(9, 9);  // not covered by the snapshot
  h.record_write(WriteEvent{{}, 1, 2, WriteId{2, 1}, 1, 0});
  snapshot_at(h, 3, snap);
  apply(h, 3, {2, 1}, 0, dep);
  EXPECT_FALSE(check_causal(h).ok);
}

TEST(SnapshotAware, SequentialAcceptsSnapshotBaseline) {
  History h;
  snapshot_at(h, 2, {}, /*gseq=*/10);
  apply(h, 2, {1, 1}, 11);
  apply(h, 2, {1, 2}, 12);
  EXPECT_TRUE(check_sequential(h).ok);
}

TEST(SnapshotAware, SequentialDetectsGapAfterSnapshot) {
  History h;
  snapshot_at(h, 2, {}, 10);
  apply(h, 2, {1, 1}, 13);  // skipped 11, 12
  EXPECT_FALSE(check_sequential(h).ok);
}

TEST(SnapshotAware, MonotonicWritesUsesSnapshotFloor) {
  History h;
  VectorClock snap;
  snap.set(5, 4);
  snapshot_at(h, 2, snap);
  apply(h, 2, {5, 5});
  EXPECT_TRUE(check_monotonic_writes(h, 5).ok);

  History bad;
  snapshot_at(bad, 2, snap);
  apply(bad, 2, {5, 2});  // regression below the snapshot
  EXPECT_FALSE(check_monotonic_writes(bad, 5).ok);
}

TEST(SnapshotAware, EventualFinalWriteResetByFullTransfer) {
  History h;
  // Store 2 applied an old write, then a full-state transfer replaced
  // everything; the earlier apply must not count as its final content.
  apply(h, 2, {1, 1});
  snapshot_at(h, 2, {});
  apply(h, 3, {1, 2});
  apply(h, 2, {1, 2});
  EXPECT_TRUE(check_eventual_delivery(h).ok);
}

}  // namespace
}  // namespace globe::coherence
