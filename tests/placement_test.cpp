// Placement layer tests: layout determinism, minimal movement on
// rebalance, pinned-object overrides, the placement state's wire form,
// and the networked server/cache invalidation protocol.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "globe/net/sim_transport.hpp"
#include "globe/placement/layout.hpp"
#include "globe/placement/service.hpp"
#include "globe/sim/network.hpp"
#include "globe/util/rng.hpp"

namespace globe::placement {
namespace {

std::vector<ObjectId> random_objects(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  std::set<ObjectId> out;
  while (out.size() < n) {
    const ObjectId id = rng();
    if (id != 0) out.insert(id);
  }
  return {out.begin(), out.end()};
}

TEST(PlacementLayout, SameEpochSameMappingEverywhere) {
  Layout a;
  a.epoch = 7;
  a.shard_count = 8;
  Layout b = a;  // a second node holding the same layout

  // Round-trip through the wire format as a third "node".
  util::Writer w;
  a.encode(w);
  const util::Buffer wire = w.take();
  util::Reader r{util::BytesView(wire)};
  const Layout c = Layout::decode(r);
  EXPECT_EQ(a, c);

  for (ObjectId object : random_objects(11, 20000)) {
    const ShardId s = a.shard_of(object);
    EXPECT_EQ(s, b.shard_of(object));
    EXPECT_EQ(s, c.shard_of(object));
    EXPECT_LT(s, a.shard_count);
  }
}

TEST(PlacementLayout, BalancedAcrossShards) {
  Layout l;
  l.epoch = 1;
  l.shard_count = 8;
  std::map<ShardId, std::size_t> counts;
  const auto objects = random_objects(23, 40000);
  for (ObjectId object : objects) counts[l.shard_of(object)]++;
  ASSERT_EQ(counts.size(), 8u);
  const double expected = static_cast<double>(objects.size()) / 8.0;
  for (const auto& [shard, count] : counts) {
    EXPECT_GT(count, expected * 0.9) << "shard " << shard;
    EXPECT_LT(count, expected * 1.1) << "shard " << shard;
  }
}

// Property test: growing N -> N+1 shards must remap roughly 1/(N+1) of
// the object space, and every remapped object must land on the new
// shard (rendezvous hashing never shuffles objects between old shards).
TEST(PlacementLayout, RebalanceMovesMinimalObjectSet) {
  for (std::uint32_t n : {2u, 4u, 8u}) {
    for (std::uint64_t seed : {101u, 202u, 303u}) {
      Layout before;
      before.epoch = 1;
      before.shard_count = n;
      Layout after = before;
      after.epoch = 2;
      after.shard_count = n + 1;

      const auto objects = random_objects(seed, 20000);
      std::size_t moved = 0;
      for (ObjectId object : objects) {
        const ShardId old_shard = before.shard_of(object);
        const ShardId new_shard = after.shard_of(object);
        if (old_shard != new_shard) {
          ++moved;
          EXPECT_EQ(new_shard, n) << "moved object landed on an old shard";
        }
      }
      const double fraction =
          static_cast<double>(moved) / static_cast<double>(objects.size());
      const double ideal = 1.0 / static_cast<double>(n + 1);
      EXPECT_GT(fraction, ideal * 0.8) << "n=" << n << " seed=" << seed;
      EXPECT_LT(fraction, ideal * 1.2) << "n=" << n << " seed=" << seed;
    }
  }
}

TEST(PlacementLayout, OverridesPinObjects) {
  Layout l;
  l.epoch = 3;
  l.shard_count = 4;
  const ObjectId pinned = 0xDEADBEEFULL;
  l.overrides[pinned] = 3;
  EXPECT_EQ(l.shard_of(pinned), 3u);
  l.overrides[pinned] = 1;
  EXPECT_EQ(l.shard_of(pinned), 1u);

  // Overrides survive the wire format.
  util::Writer w;
  l.encode(w);
  const util::Buffer wire = w.take();
  util::Reader r{util::BytesView(wire)};
  EXPECT_EQ(Layout::decode(r).shard_of(pinned), 1u);
}

TEST(PlacementState, RoundTripsAndRejectsMalformedBodies) {
  PlacementState state;
  state.version = 7;
  state.layout.epoch = 2;
  state.layout.shard_count = 3;
  ContactPoint c;
  c.address = {4, 1};
  state.contacts[1] = {c};
  state.contacts[2] = {};  // a shard with no contacts: two bytes
  util::Writer w;
  state.encode(w);
  const util::Buffer wire = w.take();
  const PlacementState back = PlacementState::decode(util::BytesView(wire));
  EXPECT_EQ(back.version, 7u);
  EXPECT_EQ(back.contacts, state.contacts);
  for (const ObjectId id : {1ULL, 2ULL, 99ULL}) {
    EXPECT_EQ(back.resolve(id).shard, state.resolve(id).shard);
    EXPECT_EQ(back.resolve(id).contacts, state.resolve(id).contacts);
  }

  util::Buffer trailing = wire;
  trailing.push_back(std::byte{0});
  EXPECT_THROW((void)PlacementState::decode(util::BytesView(trailing)),
               util::CodecError);
  util::Buffer truncated = wire;
  truncated.pop_back();
  EXPECT_THROW((void)PlacementState::decode(util::BytesView(truncated)),
               util::CodecError);
}

class PlacementServiceTest : public ::testing::Test {
 protected:
  PlacementServiceTest() : net(sim, 1) {
    server_node = net.add_node("placement");
    client_node = net.add_node("client");
    server.emplace(factory(server_node), &sim);
    cache.emplace(factory(client_node), &sim, server->address());
  }

  core::TransportFactory factory(NodeId node) {
    return [this, node](net::MessageHandler handler)
               -> std::unique_ptr<net::Transport> {
      const PortId port = next_port[node]++;
      return std::make_unique<net::SimTransport>(
          net, net::Address{node, port}, std::move(handler));
    };
  }

  static ContactPoint contact(NodeId node, PortId port, bool primary) {
    ContactPoint c;
    c.address = {node, port};
    c.store_class = naming::StoreClass::kObjectInitiated;
    c.store_id = port;
    c.is_primary = primary;
    return c;
  }

  sim::Simulator sim;
  sim::Network net;
  std::map<NodeId, PortId> next_port{{0, 1}, {1, 1}};
  NodeId server_node, client_node;
  std::optional<PlacementServer> server;
  std::optional<PlacementCache> cache;
};

TEST_F(PlacementServiceTest, FetchResolveAndInvalidate) {
  Layout l;
  l.epoch = 1;
  l.shard_count = 2;
  server->set_layout(l);
  server->register_contact(0, contact(5, 1, true));
  server->register_contact(1, contact(6, 1, true));
  server->register_contact(1, contact(6, 2, false));

  cache->start();
  sim.run();
  ASSERT_TRUE(cache->fresh());
  EXPECT_EQ(cache->layout().epoch, 1u);

  // Cache resolution matches the server's for every object.
  for (ObjectId object : random_objects(7, 500)) {
    const auto local = cache->resolve(object);
    ASSERT_TRUE(local.has_value());
    const Resolution remote = server->resolve(object);
    EXPECT_EQ(local->shard, remote.shard);
    EXPECT_EQ(local->contacts.size(), remote.contacts.size());
  }
  const auto res = cache->resolve(1);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(res->contacts.size(), res->shard == 1 ? 2u : 1u);

  // A layout change pushes an invalidation to the watcher...
  Layout l2 = l;
  l2.epoch = 2;
  l2.shard_count = 3;
  server->set_layout(l2);
  sim.run();
  EXPECT_FALSE(cache->fresh());
  EXPECT_EQ(cache->invalidations(), 1u);

  // ...and ensure() re-fetches the new state.
  bool ensured = false;
  cache->ensure([&](bool ok) { ensured = ok; });
  sim.run();
  EXPECT_TRUE(ensured);
  EXPECT_TRUE(cache->fresh());
  EXPECT_EQ(cache->layout().epoch, 2u);
  EXPECT_EQ(cache->refreshes(), 2u);
}

TEST_F(PlacementServiceTest, ContactChurnInvalidates) {
  Layout l;
  l.epoch = 1;
  l.shard_count = 1;
  server->set_layout(l);
  server->register_contact(0, contact(5, 1, true));
  cache->start();
  sim.run();
  ASSERT_TRUE(cache->fresh());

  server->unregister_contact(0, {5, 1});
  sim.run();
  EXPECT_FALSE(cache->fresh());

  bool ensured = false;
  cache->ensure([&](bool ok) { ensured = ok; });
  sim.run();
  ASSERT_TRUE(ensured);
  const auto res = cache->resolve(42);
  ASSERT_TRUE(res.has_value());
  EXPECT_TRUE(res->contacts.empty());

  // Re-registering an identical contact set still bumps the version
  // (the contact was gone in between), but registering the exact same
  // contact twice in a row does not.
  server->register_contact(0, contact(5, 1, true));
  const auto v = server->version();
  server->register_contact(0, contact(5, 1, true));
  EXPECT_EQ(server->version(), v);
}

}  // namespace
}  // namespace globe::placement
