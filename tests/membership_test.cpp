// Dynamic replica membership: epoch-numbered views, heartbeat failure
// detection, join/leave/evict, upstream re-parenting, client rebinding,
// and the naming-service consistency that goes with it (evicted or
// departed stores must disappear from resolution — the stale-contact
// regression).
#include <gtest/gtest.h>

#include "globe/membership/service.hpp"
#include "globe/replication/testbed.hpp"

namespace globe::replication {
namespace {

constexpr ObjectId kObj = 1;

TestbedOptions membership_options(std::uint64_t seed = 1) {
  TestbedOptions opts;
  opts.seed = seed;
  opts.enable_membership = true;
  opts.membership_heartbeat = sim::SimDuration::millis(50);
  opts.failure_timeout = sim::SimDuration::millis(200);
  opts.wan.base_latency = sim::SimDuration::millis(5);
  opts.client_timeout = sim::SimDuration::millis(300);
  opts.client_retries = 1;
  return opts;
}

core::ReplicationPolicy pram_demand() {
  core::ReplicationPolicy p;  // PRAM push immediate partial
  p.object_outdate_reaction = core::OutdateReaction::kDemand;
  return p;
}

[[nodiscard]] bool naming_has(Testbed& bed, const net::Address& addr) {
  for (const auto& c : bed.naming().locate(kObj)) {
    if (c.address == addr) return true;
  }
  return false;
}

TEST(MembershipTest, JoinsBuildEpochNumberedView) {
  Testbed bed(membership_options());
  auto policy = pram_demand();
  auto& primary = bed.add_primary(kObj, policy);
  auto& mirror = bed.add_store(kObj, naming::StoreClass::kObjectInitiated,
                               policy);
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                              policy);
  bed.settle();
  bed.run_for(sim::SimDuration::millis(200));

  const membership::View v = bed.membership().current_view(kObj);
  EXPECT_EQ(v.object, kObj);
  EXPECT_GE(v.epoch, 3u);  // one bump per join
  EXPECT_EQ(v.members.size(), 3u);
  EXPECT_TRUE(v.contains(primary.address()));
  EXPECT_TRUE(v.contains(mirror.address()));
  EXPECT_TRUE(v.contains(cache.address()));
  ASSERT_NE(v.primary(), nullptr);
  EXPECT_EQ(v.primary()->address, primary.address());
  // Members learned the epoch through join acks / view changes.
  bed.run_for(sim::SimDuration::millis(100));
  EXPECT_EQ(primary.view_epoch(), v.epoch);
  EXPECT_EQ(cache.view_epoch(), v.epoch);
  // Joins registered contacts with the location service.
  EXPECT_TRUE(naming_has(bed, primary.address()));
  EXPECT_TRUE(naming_has(bed, cache.address()));
}

// Regression (stale contacts): a store that unbinds/leaves must
// disappear from naming resolution, not linger as a dead contact.
TEST(MembershipTest, GracefulLeaveRemovesViewAndNamingEntries) {
  Testbed bed(membership_options());
  auto policy = pram_demand();
  bed.add_primary(kObj, policy);
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                              policy);
  bed.publish(kObj, "object");
  bed.settle();
  bed.run_for(sim::SimDuration::millis(100));
  const net::Address gone = cache.address();
  ASSERT_TRUE(naming_has(bed, gone));
  const std::uint64_t epoch_before = bed.membership().epoch(kObj);

  bed.leave_store(1);
  bed.run_for(sim::SimDuration::millis(100));

  EXPECT_TRUE(cache.departed());
  EXPECT_FALSE(bed.membership().current_view(kObj).contains(gone));
  EXPECT_GT(bed.membership().epoch(kObj), epoch_before);
  EXPECT_FALSE(naming_has(bed, gone));
  EXPECT_EQ(bed.membership().stats().leaves, 1u);
}

TEST(MembershipTest, HeartbeatTimeoutEvictsCrashedStore) {
  Testbed bed(membership_options());
  auto policy = pram_demand();
  auto& primary = bed.add_primary(kObj, policy);
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                              policy);
  bed.publish(kObj, "object");
  bed.settle();
  bed.run_for(sim::SimDuration::millis(100));
  ASSERT_EQ(primary.subscriber_count(), 1u);

  bed.crash_store(1);
  bed.run_for(sim::SimDuration::millis(600));  // > failure_timeout

  EXPECT_FALSE(bed.membership().current_view(kObj).contains(cache.address()));
  EXPECT_GE(bed.membership().stats().evictions, 1u);
  // Naming no longer resolves to the dead store.
  EXPECT_FALSE(naming_has(bed, cache.address()));
  // The primary saw the view change and dropped the evicted subscriber:
  // fan-out stops flowing to it.
  EXPECT_EQ(primary.subscriber_count(), 0u);
}

TEST(MembershipTest, RecoveredStoreRejoinsAndCatchesUp) {
  Testbed bed(membership_options());
  auto policy = pram_demand();
  auto& primary = bed.add_primary(kObj, policy);
  primary.seed("a.html", "v1");
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                              policy);
  bed.settle();
  bed.run_for(sim::SimDuration::millis(100));

  bed.crash_store(1);
  bed.run_for(sim::SimDuration::millis(600));  // evicted meanwhile
  primary.seed("a.html", "v2");               // progress while down
  primary.seed("b.html", "v1");
  bed.run_for(sim::SimDuration::millis(100));
  EXPECT_FALSE(cache.document() == primary.document());

  bed.recover_store(1);
  bed.run_for(sim::SimDuration::millis(600));
  bed.settle();

  EXPECT_TRUE(cache.alive());
  EXPECT_GE(cache.resubscribes(), 1u);
  EXPECT_TRUE(bed.membership().current_view(kObj).contains(cache.address()));
  EXPECT_TRUE(cache.document() == primary.document());
  EXPECT_TRUE(naming_has(bed, cache.address()));
}

TEST(MembershipTest, UpstreamCrashReparentsDownstreamStore) {
  Testbed bed(membership_options());
  auto policy = pram_demand();
  auto& primary = bed.add_primary(kObj, policy);
  primary.seed("a.html", "v1");
  auto& mirror = bed.add_store(kObj, naming::StoreClass::kObjectInitiated,
                               policy);
  bed.settle();
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                              policy, mirror.address());
  bed.settle();
  bed.run_for(sim::SimDuration::millis(100));
  ASSERT_EQ(cache.upstream(), mirror.address());

  bed.crash_store(1);  // the mirror
  bed.run_for(sim::SimDuration::millis(800));

  // The cache re-resolved its propagation parent onto the primary and
  // keeps receiving updates.
  EXPECT_EQ(cache.upstream(), primary.address());
  primary.seed("a.html", "v2");
  bed.run_for(sim::SimDuration::millis(200));
  bed.settle();
  EXPECT_TRUE(cache.document() == primary.document());
}

TEST(MembershipTest, ClientRebindsWhenItsStoreIsEvicted) {
  Testbed bed(membership_options());
  auto policy = pram_demand();
  auto& primary = bed.add_primary(kObj, policy);
  primary.seed("a.html", "v1");
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                              policy);
  bed.settle();
  auto& client = bed.add_client(kObj, coherence::ClientModel::kMonotonicReads,
                                cache.address());
  bed.run_for(sim::SimDuration::millis(100));
  ASSERT_EQ(client.read_store(), cache.address());

  bed.crash_store(1);
  bed.run_for(sim::SimDuration::millis(800));

  EXPECT_GE(client.rebinds(), 1u);
  EXPECT_NE(client.read_store(), cache.address());

  bool read_ok = false;
  std::string content;
  client.read("a.html", [&](ReadResult r) {
    read_ok = r.ok;
    content = r.content;
  });
  bed.settle();
  EXPECT_TRUE(read_ok);
  EXPECT_EQ(content, "v1");
}

TEST(MembershipTest, FlashCrowdJoinersBootstrapFromSnapshots) {
  Testbed bed(membership_options());
  auto policy = pram_demand();
  auto& primary = bed.add_primary(kObj, policy);
  primary.seed("a.html", "v1");
  primary.seed("b.html", "v1");
  bed.settle();

  bed.join_stores(4);
  bed.run_for(sim::SimDuration::millis(300));
  bed.settle();

  ASSERT_EQ(bed.stores().size(), 5u);
  EXPECT_TRUE(bed.converged(kObj));
  EXPECT_EQ(bed.membership().current_view(kObj).members.size(), 5u);
  for (const auto& s : bed.stores()) EXPECT_TRUE(s->ready());
}

// Racing joins: the primary, three mirrors and six caches join at once,
// so a store can adopt a view that lacks the primary and re-parent under
// it. A store that re-parents only upward keeps every record on a path
// to the primary, and every seed converges. Then the mirrors crash:
// every cache must now be fed by an upstream that lists it as a
// subscriber. A cache that re-parented while its bootstrap subscribe was
// in flight used to bootstrap from the old upstream and never subscribe
// to the new one; it converged only while the old one still pushed.
TEST(MembershipTest, RacingJoinsConvergeOnEverySeed) {
  core::ReplicationPolicy policy;
  policy.model = coherence::ObjectModel::kCausal;
  policy.write_set = core::WriteSet::kMultiple;
  policy.object_outdate_reaction = core::OutdateReaction::kDemand;
  int converged = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    TestbedOptions opts;
    opts.seed = seed;
    opts.record_history = false;
    opts.enable_membership = true;
    opts.failure_timeout = sim::SimDuration::millis(400);
    opts.wan.base_latency = sim::SimDuration::millis(5);
    opts.wan.jitter = sim::SimDuration::millis(2);
    Testbed bed(opts);
    bed.add_primary(kObj, policy);
    std::vector<ClientBinding*> writers;
    std::vector<std::size_t> mirrors;
    for (int m = 0; m < 3; ++m) {
      mirrors.push_back(bed.stores().size());
      const net::Address mirror =
          bed.add_store(kObj, naming::StoreClass::kObjectInitiated, policy)
              .address();
      for (int c = 0; c < 2; ++c) {
        const net::Address cache =
            bed.add_store(kObj, naming::StoreClass::kClientInitiated, policy,
                          mirror)
                .address();
        writers.push_back(&bed.add_client(kObj, coherence::ClientModel::kNone,
                                          cache, cache));
      }
    }
    const auto write_rounds = [&](int first, int last) {
      for (int round = first; round < last; ++round) {
        for (std::size_t w = 0; w < writers.size(); ++w) {
          writers[w]->write("page" + std::to_string(w) + ".html",
                            "r" + std::to_string(round), [](WriteResult) {});
        }
        bed.run_for(sim::SimDuration::millis(20));
      }
    };
    write_rounds(0, 20);
    bed.settle();
    bed.run_for(sim::SimDuration::seconds(2));
    bed.settle();
    if (!bed.converged(kObj)) {
      ADD_FAILURE() << "seed " << seed << " did not converge";
      continue;
    }
    for (const std::size_t m : mirrors) bed.crash_store(m);
    bed.run_for(sim::SimDuration::seconds(2));
    write_rounds(20, 25);
    bed.settle();
    if (bed.converged(kObj)) {
      ++converged;
    } else {
      ADD_FAILURE() << "seed " << seed
                    << " did not converge after the mirrors crashed";
    }
  }
  EXPECT_EQ(converged, 20);
}

}  // namespace
}  // namespace globe::replication
