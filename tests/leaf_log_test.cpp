// What a leaf cache keeps in its write log, end to end. A store's log
// answers the replicas that read it: its subscribers (fetch and
// anti-entropy) and its upstream (the push-back half of anti-entropy). A
// leaf has no subscriber, so without membership, where its upstream never
// changes, a record the upstream has shown it holds has no reader left
// there, and the leaf folds it. The tree is the causal push tree the
// fanout benchmark deploys, cut down to a primary, two mirrors and six
// leaf caches, with writers at the leaves and at the primary.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "globe/replication/testbed.hpp"

namespace globe::replication {
namespace {

constexpr ObjectId kObj = 1;
constexpr int kMirrors = 2;
constexpr int kLeaves = 6;

core::ReplicationPolicy causal_push() {
  core::ReplicationPolicy p;
  p.model = coherence::ObjectModel::kCausal;
  p.write_set = core::WriteSet::kMultiple;
  p.initiative = core::TransferInitiative::kPush;
  return p;
}

struct Tree {
  Testbed bed;
  StoreEngine* primary = nullptr;
  std::vector<StoreEngine*> mirrors;
  std::vector<StoreEngine*> leaves;
  ClientBinding* at_primary = nullptr;
  std::vector<ClientBinding*> at_leaves;  // one writer per leaf

  Tree() {
    primary = &bed.add_primary(kObj, causal_push());
    for (int i = 0; i < kMirrors; ++i) {
      mirrors.push_back(&bed.add_store(
          kObj, naming::StoreClass::kObjectInitiated, causal_push()));
    }
    bed.settle();
    for (int i = 0; i < kLeaves; ++i) {
      leaves.push_back(&bed.add_store(
          kObj, naming::StoreClass::kClientInitiated, causal_push(),
          mirrors[static_cast<std::size_t>(i % kMirrors)]->address()));
    }
    bed.settle();
    at_primary = &bed.add_client(kObj, coherence::ClientModel::kNone,
                                 primary->address(), primary->address());
    for (StoreEngine* leaf : leaves) {
      at_leaves.push_back(&bed.add_client(kObj, coherence::ClientModel::kNone,
                                          leaf->address(), leaf->address()));
    }
  }

  /// `rounds` writes from every writer, each round spaced so it spreads
  /// before the next, then settle.
  void write(int rounds) {
    for (int r = 0; r < rounds; ++r) {
      const std::string page = "page" + std::to_string(r % 5) + ".html";
      at_primary->write(page, "p" + std::to_string(r), [](WriteResult) {});
      for (ClientBinding* c : at_leaves) {
        c->write(page, "l" + std::to_string(r), [](WriteResult) {});
      }
      bed.run_for(sim::SimDuration::millis(30));
    }
    bed.settle();
  }
};

TEST(LeafLog, LeavesKeepOnlyTheAcceptsTheirUpstreamHasNotShown) {
  Tree t;
  t.write(20);
  ASSERT_TRUE(t.bed.converged(kObj));
  // Whatever a leaf still holds starts at an accept of its own.
  for (std::size_t i = 0; i < t.leaves.size(); ++i) {
    const WriteLog& log = t.leaves[i]->write_log();
    EXPECT_LT(log.size(), log.appended_total()) << "leaf " << i;
    if (!log.empty()) {
      EXPECT_EQ(log.retained().front().wid.client, t.at_leaves[i]->id())
          << "leaf " << i;
    }
  }

  // One leaf writes last: nothing comes back down to it, so it keeps
  // that accept; every other leaf hears a frontier that covers it.
  t.at_leaves.front()->write("page1.html", "up", [](WriteResult) {});
  t.bed.settle();
  ASSERT_EQ(t.leaves.front()->write_log().size(), 1u);
  EXPECT_EQ(t.leaves.front()->write_log().retained().front().wid.client,
            t.at_leaves.front()->id());
  for (std::size_t i = 1; i < t.leaves.size(); ++i) {
    EXPECT_EQ(t.leaves[i]->write_log().size(), 0u) << "leaf " << i;
  }

  // A write from the primary reaches every leaf with a frontier that
  // covers everything: each leaf then retains nothing.
  t.at_primary->write("page0.html", "last", [](WriteResult) {});
  t.bed.settle();
  EXPECT_TRUE(t.bed.converged(kObj));
  for (std::size_t i = 0; i < t.leaves.size(); ++i) {
    EXPECT_EQ(t.leaves[i]->write_log().size(), 0u) << "leaf " << i;
  }
  // The mirrors have subscribers: they keep every record they applied.
  for (const StoreEngine* m : t.mirrors) {
    EXPECT_GT(m->write_log().size(), 0u);
    EXPECT_EQ(m->write_log().size(), m->write_log().appended_total());
  }
  EXPECT_EQ(t.primary->write_log().size(),
            t.primary->write_log().appended_total());
  EXPECT_EQ(t.bed.metrics().snapshot_cutovers(), 0u);
}

// A cache that subscribes to a leaf after the leaf folded its log
// bootstraps from the leaf's state, and the leaf, now a mirror of sorts,
// stops folding: everything it applies from then on stays for its
// subscriber.
TEST(LeafLog, ACacheBelowAFoldedLeafBootstrapsAndConverges) {
  Tree t;
  t.write(10);
  t.at_primary->write("page0.html", "folded", [](WriteResult) {});
  t.bed.settle();
  StoreEngine& leaf = *t.leaves.front();
  ASSERT_EQ(leaf.write_log().size(), 0u);

  StoreEngine& below = t.bed.add_store(
      kObj, naming::StoreClass::kClientInitiated, causal_push(),
      leaf.address());
  t.bed.settle();
  EXPECT_EQ(below.document(), leaf.document());
  ClientBinding& at_below = t.bed.add_client(
      kObj, coherence::ClientModel::kNone, below.address(), below.address());

  const std::uint64_t leaf_before = leaf.write_log().appended_total();
  t.write(10);
  at_below.write("page9.html", "below", [](WriteResult) {});
  t.bed.settle();
  t.at_primary->write("page0.html", "last", [](WriteResult) {});
  t.bed.settle();
  EXPECT_TRUE(t.bed.converged(kObj));
  EXPECT_EQ(leaf.write_log().size(),
            leaf.write_log().appended_total() - leaf_before);
  EXPECT_EQ(below.write_log().size(), 0u);
  EXPECT_EQ(t.bed.metrics().snapshot_cutovers(), 0u);
}

// Under membership a leaf re-parents when its upstream leaves the view,
// and its push-back then goes to a store the old upstream may never have
// passed the leaf's writes to. Here the mirror holds two writes to one
// page but cannot reach the primary, and then leaves for good. The leaf
// must still deliver both writes to the primary: state records would
// carry only the page's last write, and the primary's clock would never
// cover the one it overwrote.
TEST(LeafLog, AReparentedLeafDeliversWritesItsOldUpstreamNeverPassedOn) {
  TestbedOptions opts;
  opts.enable_membership = true;
  opts.membership_heartbeat = sim::SimDuration::millis(50);
  opts.failure_timeout = sim::SimDuration::millis(200);
  opts.wan.base_latency = sim::SimDuration::millis(5);
  Testbed bed(opts);
  StoreEngine& primary = bed.add_primary(kObj, causal_push());
  StoreEngine& mirror = bed.add_store(
      kObj, naming::StoreClass::kObjectInitiated, causal_push());
  bed.settle();
  StoreEngine& leaf = bed.add_store(
      kObj, naming::StoreClass::kClientInitiated, causal_push(),
      mirror.address());
  bed.settle();
  bed.run_for(sim::SimDuration::millis(100));
  ClientBinding& first = bed.add_client(kObj, coherence::ClientModel::kNone,
                                        leaf.address(), leaf.address());
  ClientBinding& second = bed.add_client(
      kObj, coherence::ClientModel::kNone, leaf.address(), leaf.address());
  ClientBinding& at_mirror = bed.add_client(
      kObj, coherence::ClientModel::kNone, mirror.address(), mirror.address());

  bed.net().partition(mirror.address().node, primary.address().node);
  first.write("page.html", "first", [](WriteResult) {});
  bed.run_for(sim::SimDuration::millis(50));
  second.write("page.html", "second", [](WriteResult) {});
  bed.run_for(sim::SimDuration::millis(50));
  // The mirror's update carries a frontier that covers both writes.
  at_mirror.write("other.html", "mirror", [](WriteResult) {});
  bed.run_for(sim::SimDuration::millis(50));
  ASSERT_EQ(leaf.document(), mirror.document());
  ASSERT_EQ(primary.applied_clock().get(first.id()), 0u);

  bed.crash_store(1);  // the mirror, for good
  bed.run_for(sim::SimDuration::millis(800));
  ASSERT_EQ(leaf.upstream(), primary.address());
  bed.settle();

  EXPECT_EQ(primary.document(), leaf.document());
  EXPECT_EQ(primary.applied_clock().get(first.id()), 1u);
  EXPECT_EQ(primary.applied_clock().get(second.id()), 1u);
  EXPECT_FALSE(primary.outdated());
}

}  // namespace
}  // namespace globe::replication
