// Many-object sharded deployments end to end: placement-driven object
// distribution across per-shard store groups, placed clients resolving
// stores through the cached layout, per-shard fault isolation (hot-shard
// churn leaves cold shards' views and objects untouched), and the
// (object, client) contact-spread distribution.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "globe/fault/scenario.hpp"
#include "globe/naming/contact.hpp"
#include "globe/replication/testbed.hpp"

namespace globe::replication {
namespace {

core::ReplicationPolicy pram_push() {
  core::ReplicationPolicy policy;  // PRAM, push, immediate, partial
  policy.object_outdate_reaction = core::OutdateReaction::kDemand;
  return policy;
}

std::vector<ObjectId> objects_1_to(std::uint64_t n) {
  std::vector<ObjectId> ids;
  for (ObjectId id = 1; id <= n; ++id) ids.push_back(id);
  return ids;
}

TEST(ShardingTest, PlacedObjectsConvergePerShard) {
  TestbedOptions opts;
  opts.shards = 2;
  Testbed bed(opts);
  const auto policy = pram_push();
  for (ShardId s = 0; s < 2; ++s) {
    bed.add_shard_store(s, naming::StoreClass::kPermanent, policy,
                        /*primary=*/true);
    bed.add_shard_store(s, naming::StoreClass::kObjectInitiated, policy);
  }
  const auto ids = objects_1_to(12);
  bed.place_objects(ids);

  std::map<ShardId, int> per_shard;
  for (const ObjectId id : ids) {
    const ShardId home = bed.placement().layout().shard_of(id);
    ++per_shard[home];
    bed.primary(id).seed(id, "page.html", "obj-" + std::to_string(id));
    // Every store of the home shard hosts the object; no store of the
    // other shard does.
    for (const auto& store : bed.stores()) {
      EXPECT_EQ(store->has_object(id), store->shard() == home) << id;
    }
    EXPECT_EQ(bed.primary(id).shard(), home);
  }
  // Rendezvous placement uses both shards for a dozen objects.
  EXPECT_EQ(per_shard.size(), 2u);

  bed.settle();
  for (const ObjectId id : ids) {
    EXPECT_TRUE(bed.converged(id)) << id;
  }
}

TEST(ShardingTest, PlacedClientOperatesAcrossShards) {
  TestbedOptions opts;
  opts.shards = 2;
  Testbed bed(opts);
  const auto policy = pram_push();
  for (ShardId s = 0; s < 2; ++s) {
    bed.add_shard_store(s, naming::StoreClass::kPermanent, policy,
                        /*primary=*/true);
    bed.add_shard_store(s, naming::StoreClass::kObjectInitiated, policy);
  }
  const auto ids = objects_1_to(6);
  bed.place_objects(ids);
  // Pick one object per shard.
  ObjectId cold = 0, hot = 0;
  for (const ObjectId id : ids) {
    (bed.placement().layout().shard_of(id) == 0 ? cold : hot) = id;
  }
  ASSERT_NE(cold, 0u);
  ASSERT_NE(hot, 0u);

  auto& client = bed.add_placed_client(
      coherence::ClientModel::kReadYourWrites |
      coherence::ClientModel::kMonotonicReads);
  int write_acks = 0;
  client.write(cold, "page.html", "cold-v1", [&](WriteResult r) {
    EXPECT_TRUE(r.ok) << r.error;
    ++write_acks;
  });
  client.write(hot, "page.html", "hot-v1", [&](WriteResult r) {
    EXPECT_TRUE(r.ok) << r.error;
    ++write_acks;
  });
  bed.settle();
  EXPECT_EQ(write_acks, 2);

  std::map<ObjectId, std::string> reads;
  client.read(cold, "page.html", [&](ReadResult r) {
    ASSERT_TRUE(r.ok) << r.error;
    reads[cold] = r.content;
  });
  client.read(hot, "page.html", [&](ReadResult r) {
    ASSERT_TRUE(r.ok) << r.error;
    reads[hot] = r.content;
  });
  bed.settle();
  EXPECT_EQ(reads[cold], "cold-v1");
  EXPECT_EQ(reads[hot], "hot-v1");
  EXPECT_TRUE(bed.converged(cold));
  EXPECT_TRUE(bed.converged(hot));
}

TEST(ShardingTest, HotShardChurnLeavesColdShardUntouched) {
  TestbedOptions opts;
  opts.seed = 17;
  opts.shards = 2;
  opts.enable_membership = true;
  opts.membership_heartbeat = sim::SimDuration::millis(50);
  opts.failure_timeout = sim::SimDuration::millis(200);
  opts.wan.base_latency = sim::SimDuration::millis(2);
  Testbed bed(opts);
  const auto policy = pram_push();
  for (ShardId s = 0; s < 2; ++s) {
    bed.add_shard_store(s, naming::StoreClass::kPermanent, policy,
                        /*primary=*/true);
    bed.add_shard_store(s, naming::StoreClass::kObjectInitiated, policy);
    bed.add_shard_store(s, naming::StoreClass::kObjectInitiated, policy);
  }
  const auto ids = objects_1_to(8);
  bed.place_objects(ids);
  for (const ObjectId id : ids) {
    bed.primary(id).seed(id, "page.html", "v0-" + std::to_string(id));
  }
  bed.settle();

  const std::uint64_t cold_epoch = bed.shard_primary(0).view_epoch();
  ASSERT_GT(cold_epoch, 0u);

  // Churn shard 1 only: its secondaries crash and recover repeatedly.
  fault::ScenarioScript script;
  std::string error;
  ASSERT_TRUE(fault::ScenarioScript::parse(
                  "at 100ms churn period=300ms until=1200ms down=250ms "
                  "fraction=0.5 shard=1\n",
                  &script, &error))
      << error;
  TestbedFaultHost host(bed);
  fault::ScenarioEngine engine(script, host, opts.seed);
  engine.arm(bed.sim());

  // Keep writing to every object across the churn window.
  int version = 0;
  for (int step = 0; step < 20; ++step) {
    ++version;
    for (const ObjectId id : ids) {
      bed.primary(id).seed(id, "page.html",
                           "v" + std::to_string(version) + "-" +
                               std::to_string(id));
    }
    bed.run_for(sim::SimDuration::millis(100));
  }
  bed.run_for(sim::SimDuration::millis(800));
  bed.settle();

  EXPECT_GE(engine.stats().crashes, 1u);
  // Only shard 1 stores were touched.
  for (const auto& store : bed.stores()) {
    if (store->shard() == 0) {
      EXPECT_TRUE(store->alive());
    }
  }
  // The cold shard's view never moved: hot-shard churn is invisible to
  // the other subgroup (per-shard view epochs).
  EXPECT_EQ(bed.shard_primary(0).view_epoch(), cold_epoch);
  EXPECT_GT(bed.shard_primary(1).view_epoch(), cold_epoch);
  // And every object — hot and cold — converged after the dust settled.
  for (const ObjectId id : ids) {
    EXPECT_TRUE(bed.converged(id)) << id;
  }
}

// Placement must not change what the stores end up holding: one
// single-object write stream through the single-object builders and
// through a one-shard placed deployment leaves every store with the same
// state digest. Wall-clock stamps are masked, since the placement node
// shifts event timing.
TEST(ShardingTest, PlacedStateMatchesThePlainDeployment) {
  const auto drive = [](Testbed& bed) {
    for (int i = 0; i < 20; ++i) {
      bed.primary(1).seed(1, "page.html", "w" + std::to_string(i));
      bed.run_for(sim::SimDuration::millis(10));
    }
    bed.settle();
  };
  TestbedOptions opts;
  opts.seed = 37;
  opts.record_history = false;
  Testbed plain(opts);
  plain.add_primary(1, pram_push());
  plain.add_store(1, naming::StoreClass::kObjectInitiated, pram_push());
  drive(plain);
  opts.shards = 1;
  Testbed placed(opts);
  placed.add_shard_store(0, naming::StoreClass::kPermanent, pram_push(),
                         /*primary=*/true);
  placed.add_shard_store(0, naming::StoreClass::kObjectInitiated,
                         pram_push());
  placed.place_objects({1});
  drive(placed);

  ASSERT_EQ(plain.stores().size(), placed.stores().size());
  for (std::size_t i = 0; i < plain.stores().size(); ++i) {
    EXPECT_TRUE(store_state_digest(*plain.stores()[i], 1, true) ==
                store_state_digest(*placed.stores()[i], 1, true))
        << "store " << i;
  }
}

// Satellite: the (object, client) contact spread. Clients binding to the
// same object fan out across the contacts of its preferred layer, and
// one client binding to many objects does not pile onto one store.
TEST(ContactSpreadTest, SpreadsClientsAndObjectsAcrossContacts) {
  std::vector<naming::ContactPoint> contacts;
  for (StoreId id = 1; id <= 4; ++id) {
    naming::ContactPoint c;
    c.address = net::Address{static_cast<NodeId>(id), 1};
    c.store_class = naming::StoreClass::kObjectInitiated;
    c.store_id = id;
    contacts.push_back(c);
  }

  constexpr int kClients = 400;
  std::map<StoreId, int> by_client;
  for (int client = 1; client <= kClients; ++client) {
    const auto* pick = naming::choose_read_contact(
        contacts, naming::StoreClass::kObjectInitiated,
        naming::contact_spread(/*object=*/42, client));
    ASSERT_NE(pick, nullptr);
    ++by_client[pick->store_id];
  }
  ASSERT_EQ(by_client.size(), 4u);
  for (const auto& [store, count] : by_client) {
    // Fair share is 100; a lopsided hash would collapse to < 40.
    EXPECT_GT(count, 40) << store;
    EXPECT_LT(count, 160) << store;
  }

  constexpr int kObjects = 400;
  std::map<StoreId, int> by_object;
  for (ObjectId object = 1; object <= kObjects; ++object) {
    const auto* pick = naming::choose_read_contact(
        contacts, naming::StoreClass::kObjectInitiated,
        naming::contact_spread(object, /*client=*/7));
    ASSERT_NE(pick, nullptr);
    ++by_object[pick->store_id];
  }
  ASSERT_EQ(by_object.size(), 4u);
  for (const auto& [store, count] : by_object) {
    EXPECT_GT(count, 40) << store;
    EXPECT_LT(count, 160) << store;
  }
}

}  // namespace
}  // namespace globe::replication
