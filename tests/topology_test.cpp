// A store's propagation graph over views alone: no Testbed, no
// Simulator. A view change (the previous and the adopted view) reports
// the peers that left and whether the store missed epochs; an object
// re-parents only upward when its upstream leaves; a fresh subscribe
// clears a stale pause verdict; a paused peer is dropped past either
// flow-control deadline; a push is linked only from the upstream or a
// subscriber, and a per-object drop keeps the peer's other objects; and
// push targets and the upstream-fold gate follow the object's links.
// Which views are adopted at all is view_follower_test's.
#include <gtest/gtest.h>

#include <vector>

#include "globe/replication/topology.hpp"

namespace globe::replication {
namespace {

constexpr ObjectId kScope = 7;

naming::ContactPoint member(NodeId node, naming::StoreClass cls,
                            bool primary = false) {
  naming::ContactPoint c;
  c.address = net::Address{node, 1};
  c.store_id = node;
  c.store_class = cls;
  c.is_primary = primary;
  return c;
}

const naming::ContactPoint kPrimary =
    member(1, naming::StoreClass::kPermanent, /*primary=*/true);
const naming::ContactPoint kMirror2 =
    member(2, naming::StoreClass::kObjectInitiated);
const naming::ContactPoint kMirror4 =
    member(4, naming::StoreClass::kObjectInitiated);
const naming::ContactPoint kCache6 =
    member(6, naming::StoreClass::kClientInitiated);

membership::View view(std::uint64_t epoch,
                      std::vector<naming::ContactPoint> members) {
  membership::View v;
  v.object = kScope;
  v.epoch = epoch;
  v.members = std::move(members);
  return v;
}

TEST(Topology, ViewReportsDepartedPeersAndEpochJumps) {
  Topology t(/*primary=*/false, /*membership=*/true);
  Topology::Links cache{kMirror2.address, {}};
  const membership::View v1 = view(1, {kPrimary, kMirror2, kCache6});
  EXPECT_TRUE(t.apply_view(view(0, {}), v1).empty());
  EXPECT_FALSE(t.reparent(cache, v1, kCache6.address));  // nothing to do

  const membership::View v3 = view(3, {kPrimary, kMirror2, kCache6});
  EXPECT_TRUE(t.apply_view(v1, v3).empty());
  // Epoch 2 never arrived: the upstream may have dropped this store.
  EXPECT_TRUE(t.reparent(cache, v3, kCache6.address));
  EXPECT_EQ(cache.upstream, kMirror2.address);

  const membership::View v4 = view(4, {kPrimary, kCache6});
  EXPECT_EQ(t.apply_view(v3, v4),
            std::vector<net::Address>{kMirror2.address});

  // A full view may list the members in another order.
  EXPECT_EQ(t.apply_view(v4, view(5, {kCache6, kMirror4})),
            std::vector<net::Address>{kPrimary.address});
}

TEST(Topology, ReparentsOnlyUpward) {
  Topology t(/*primary=*/false, /*membership=*/true);
  Topology::Links cache{kMirror4.address, {}};
  Topology::Links mirror{kPrimary.address, {}};
  const membership::View v1 = view(1, {kMirror2, kMirror4, kCache6});
  t.apply_view(view(0, {}), v1);
  // The cache's upstream is in the view; the mirror's (the primary) is
  // not, and no member is above mirror 2, so it keeps its upstream.
  EXPECT_FALSE(t.reparent(cache, v1, kCache6.address));
  EXPECT_FALSE(t.reparent(mirror, v1, kMirror2.address));
  EXPECT_EQ(mirror.upstream, kPrimary.address);

  const membership::View v2 = view(2, {kMirror2, kCache6});
  t.apply_view(v1, v2);
  EXPECT_TRUE(t.reparent(cache, v2, kCache6.address));
  EXPECT_EQ(cache.upstream, kMirror2.address);

  // The primary never re-parents, even after missed epochs.
  Topology primary(/*primary=*/true, /*membership=*/true);
  Topology::Links none;
  const membership::View v3 = view(3, {kMirror2});
  primary.apply_view(view(1, {kMirror2}), v3);
  EXPECT_FALSE(primary.reparent(none, v3, kPrimary.address));
}

TEST(Topology, PeerBookkeepingAndFlowDeadlines) {
  Topology t(/*primary=*/false, /*membership=*/false);
  const net::Address peer = kCache6.address;
  const std::uint64_t key = addr_key(peer);
  Topology::Links a{kPrimary.address, {}};
  Topology::Links b{kPrimary.address, {}};
  EXPECT_TRUE(t.subscribe(a, 1, peer, /*beacons=*/true));
  EXPECT_FALSE(t.subscribe(a, 1, peer, /*beacons=*/true));  // already in
  EXPECT_TRUE(t.subscribe(b, 2, peer, /*beacons=*/false));
  EXPECT_EQ(t.lane(peer), std::vector<ObjectId>{1});

  t.pause(key);
  for (std::size_t round = 0; round < kFlowPausedRoundsLimit; ++round) {
    EXPECT_TRUE(t.park(key, 0));
  }
  EXPECT_FALSE(t.park(key, 0));  // past the rounds deadline

  // A fresh subscription clears the verdict; a deep queue is hopeless.
  Topology::Links c{kPrimary.address, {}};
  EXPECT_TRUE(t.subscribe(c, 3, peer, /*beacons=*/false));
  EXPECT_FALSE(t.paused(key));
  t.pause(key);
  EXPECT_FALSE(t.park(key, kFlowPausedBatchesLimit));

  // Removal: out of each object's subscribers, then lane and verdict.
  for (Topology::Links* l : {&a, &b, &c}) t.unsubscribe(*l, peer);
  t.forget_peer(peer);
  EXPECT_TRUE(a.subscribers.empty());
  EXPECT_TRUE(t.lane(peer).empty());
  EXPECT_FALSE(t.paused(key));
}

TEST(Topology, LinkedPeersAndPerObjectDrops) {
  Topology t(/*primary=*/false, /*membership=*/true);
  const net::Address peer = kCache6.address;
  const std::uint64_t key = addr_key(peer);
  Topology::Links a{kPrimary.address, {}};
  Topology::Links b{kPrimary.address, {}};
  t.subscribe(a, 1, peer, /*beacons=*/true);
  t.subscribe(b, 2, peer, /*beacons=*/true);
  t.subscribe(b, 2, kMirror4.address, /*beacons=*/true);

  // The upstream and a subscriber hold an edge; a stale pusher does not.
  EXPECT_TRUE(Topology::linked(a, kPrimary.address));
  EXPECT_TRUE(Topology::linked(a, peer));
  EXPECT_FALSE(Topology::linked(a, kMirror2.address));
  EXPECT_FALSE(Topology::linked(a, kMirror4.address));

  // A drop from a peer that is no subscriber changes nothing: not even
  // one from the object's own upstream.
  t.pause(key);
  EXPECT_FALSE(t.drop(a, 1, kPrimary.address));
  EXPECT_FALSE(t.drop(a, 1, kMirror4.address));
  EXPECT_EQ(a.subscribers, std::vector<net::Address>{peer});

  // A per-object drop leaves the peer's other objects on its lane, and
  // its pause verdict with them.
  EXPECT_TRUE(t.drop(a, 1, peer));
  EXPECT_TRUE(a.subscribers.empty());
  EXPECT_FALSE(Topology::linked(a, peer));
  EXPECT_EQ(t.lane(peer), std::vector<ObjectId>{2});
  EXPECT_TRUE(t.paused(key));
  EXPECT_FALSE(t.drop(a, 1, peer));  // already gone

  // Left with no object, the peer loses its lane and its pause verdict;
  // the object's other subscribers keep theirs.
  EXPECT_TRUE(t.drop(b, 2, peer));
  EXPECT_EQ(b.subscribers, std::vector<net::Address>{kMirror4.address});
  EXPECT_TRUE(t.lane(peer).empty());
  EXPECT_FALSE(t.paused(key));
  EXPECT_EQ(t.lane(kMirror4.address), std::vector<ObjectId>{2});
  EXPECT_EQ(t.take_beacons().size(), 1u);  // one lane left
}

TEST(Topology, PushTargetsAndTheFoldGate) {
  core::ReplicationPolicy pram;  // single master, push
  core::ReplicationPolicy causal;
  causal.model = coherence::ObjectModel::kCausal;
  causal.write_set = core::WriteSet::kMultiple;
  core::ReplicationPolicy pull = pram;
  pull.initiative = core::TransferInitiative::kPull;

  Topology t(/*primary=*/false, /*membership=*/false);
  const net::Address up = kMirror2.address;
  Topology::Links l{up, {}};
  t.subscribe(l, 1, kMirror4.address, false);
  t.subscribe(l, 1, kCache6.address, false);
  EXPECT_EQ(t.push_targets(l, causal),
            (std::vector<net::Address>{kMirror4.address, kCache6.address,
                                       up}));
  EXPECT_EQ(t.push_targets(l, pram),
            (std::vector<net::Address>{kMirror4.address, kCache6.address}));
  auto news = Topology::downstream(l, kMirror4.address);
  EXPECT_EQ(std::vector<net::Address>(news.begin(), news.end()),
            std::vector<net::Address>{kCache6.address});
  EXPECT_TRUE(t.pushes_beyond(l, pram, addr_key(kMirror4.address)));
  EXPECT_FALSE(t.pushes_beyond(l, pull, 0));

  // A leaf's one push target is its multi-master upstream: a record from
  // there travels no further.
  Topology::Links leaf{up, {}};
  EXPECT_FALSE(t.pushes_beyond(leaf, causal, addr_key(up)));
  EXPECT_TRUE(t.pushes_beyond(leaf, causal, 0));

  // Only a subscriber-free object folds, on its upstream's frontier, and
  // only while no view can re-parent it.
  EXPECT_FALSE(t.may_fold(l, up));
  EXPECT_TRUE(t.may_fold(leaf, up));
  EXPECT_FALSE(t.may_fold(leaf, kMirror4.address));
  Topology viewed(/*primary=*/false, /*membership=*/true);
  EXPECT_FALSE(viewed.may_fold(leaf, up));
}

}  // namespace
}  // namespace globe::replication
