// Membership view diffs: view changes broadcast as ViewDelta
// (epoch + joined/left) instead of full member lists, with a full-view
// fetch whenever a receiver's epoch has a gap.
#include <gtest/gtest.h>

#include <string>

#include "globe/membership/view.hpp"
#include "globe/replication/testbed.hpp"

namespace globe::membership {
namespace {

naming::ContactPoint contact(NodeId node, StoreId id,
                             bool primary = false) {
  naming::ContactPoint c;
  c.address = net::Address{node, 1};
  c.store_id = id;
  c.is_primary = primary;
  return c;
}

TEST(ViewDelta, AppliesJoinsAndLeavesOntoABase) {
  View base;
  base.object = 7;
  base.epoch = 4;
  base.members = {contact(1, 1, true), contact(2, 2), contact(3, 3)};

  ViewDelta d;
  d.object = 7;
  d.epoch = 5;
  d.joined = {contact(4, 4)};
  d.left = {net::Address{2, 1}};

  View next = base;
  d.apply_to(next);
  EXPECT_EQ(next.epoch, 5u);
  EXPECT_EQ(next.members.size(), 3u);
  EXPECT_TRUE(next.contains(net::Address{1, 1}));
  EXPECT_FALSE(next.contains(net::Address{2, 1}));
  EXPECT_TRUE(next.contains(net::Address{4, 1}));

  // Round-trips the wire.
  util::Writer w;
  d.encode(w);
  const util::Buffer wire = w.take();
  const ViewDelta back = ViewDelta::decode(util::BytesView(wire));
  EXPECT_EQ(back.epoch, d.epoch);
  EXPECT_EQ(back.joined.size(), 1u);
  EXPECT_EQ(back.left.size(), 1u);
  EXPECT_EQ(back.left.front(), (net::Address{2, 1}));
}

naming::ContactPoint store(NodeId node, StoreId id, naming::StoreClass cls,
                           bool primary = false) {
  naming::ContactPoint c = contact(node, id, primary);
  c.store_class = cls;
  return c;
}

// The re-parent rule over views alone. With the primary absent, a store
// picks the most permanent member strictly above it (a lower store
// class, or the same class and a lower id), and keeps its upstream when
// there is none, so the parent relation can never form a cycle.
TEST(ChooseUpstream, ReparentsOnlyUpward) {
  using naming::StoreClass;
  const naming::ContactPoint primary =
      store(1, 1, StoreClass::kPermanent, /*primary=*/true);
  const naming::ContactPoint m2 = store(2, 2, StoreClass::kObjectInitiated);
  const naming::ContactPoint m4 = store(4, 4, StoreClass::kObjectInitiated);
  const naming::ContactPoint c3 = store(3, 3, StoreClass::kClientInitiated);
  const naming::ContactPoint c6 = store(6, 6, StoreClass::kClientInitiated);

  View with_primary;
  with_primary.members = {c6, m4, primary, m2};
  for (const auto& m : {m2, m4, c6}) {
    const naming::ContactPoint* up = choose_upstream(with_primary, m.address);
    ASSERT_NE(up, nullptr);
    EXPECT_EQ(up->address, primary.address);
  }

  View no_primary;
  no_primary.members = {c6, m4, c3, m2};
  const auto parent = [&](const naming::ContactPoint& self) {
    return choose_upstream(no_primary, self.address);
  };
  ASSERT_NE(parent(c6), nullptr);
  EXPECT_EQ(parent(c6)->address, m2.address);
  ASSERT_NE(parent(m4), nullptr);
  EXPECT_EQ(parent(m4)->address, m2.address);
  EXPECT_EQ(parent(m2), nullptr);  // nothing above it: keeps its upstream

  // A mirror never picks a cache, and two mirrors never pick each other.
  View mirror_and_cache;
  mirror_and_cache.members = {c6, m4};
  EXPECT_EQ(choose_upstream(mirror_and_cache, m4.address), nullptr);
  ASSERT_NE(choose_upstream(mirror_and_cache, c6.address), nullptr);
  EXPECT_EQ(choose_upstream(mirror_and_cache, c6.address)->address,
            m4.address);

  // A store the view does not list keeps its upstream.
  EXPECT_EQ(choose_upstream(no_primary, net::Address{9, 1}), nullptr);
}

// Forged member counts: checked against the bytes left, so the decode
// throws CodecError instead of reserving 2^60 entries.
constexpr std::uint64_t kForgedCount = std::uint64_t{1} << 60;

void write_view_head(util::Writer& w) {
  w.varint(1);  // scope
  w.varint(0);  // shard
  w.varint(3);  // epoch
}

TEST(ViewDelta, ViewRejectsAForgedMemberCount) {
  util::Writer w;
  write_view_head(w);
  w.varint(kForgedCount);
  util::Reader r{util::BytesView(w.view())};
  EXPECT_THROW((void)View::decode(r), util::CodecError);
}

TEST(ViewDelta, DeltaRejectsAForgedJoinCount) {
  util::Writer w;
  write_view_head(w);
  w.varint(kForgedCount);
  EXPECT_THROW((void)ViewDelta::decode(util::BytesView(w.view())),
               util::CodecError);
}

TEST(ViewDelta, DeltaRejectsAForgedLeaveCount) {
  util::Writer w;
  write_view_head(w);
  w.varint(0);  // no joins
  w.varint(kForgedCount);
  EXPECT_THROW((void)ViewDelta::decode(util::BytesView(w.view())),
               util::CodecError);
}

// Every sender encodes the stability-horizon fields, so an announce
// that stops after the shard is truncated, not an older shape.
TEST(ViewDelta, AnnounceWithoutHorizonFieldsIsRejected) {
  MemberAnnounce m;
  m.contact = contact(4, 4);
  m.shard = 2;
  util::Writer full;
  m.encode(full);
  EXPECT_EQ(MemberAnnounce::decode(util::BytesView(full.view())).shard, 2u);

  util::Writer truncated;
  m.contact.encode(truncated);
  truncated.varint(m.shard);
  EXPECT_THROW((void)MemberAnnounce::decode(util::BytesView(truncated.view())),
               util::CodecError);
}

}  // namespace
}  // namespace globe::membership

namespace globe::replication {
namespace {

constexpr ObjectId kObj = 1;

TestbedOptions membership_options() {
  TestbedOptions opts;
  opts.record_history = false;
  opts.enable_membership = true;
  opts.membership_heartbeat = sim::SimDuration::millis(20);
  opts.failure_timeout = sim::SimDuration::millis(80);
  opts.wan.base_latency = sim::SimDuration::millis(1);
  return opts;
}

TEST(ViewDelta, SteadyChurnIsBroadcastAsDiffs) {
  Testbed bed(membership_options());
  core::ReplicationPolicy policy;
  bed.add_primary(kObj, policy);
  bed.settle();
  for (int s = 0; s < 4; ++s) {
    bed.add_store(kObj, naming::StoreClass::kObjectInitiated, policy);
    bed.settle();
  }
  // Every view change went out as a delta, and every store still tracks
  // the service's epoch.
  EXPECT_GT(bed.membership().stats().delta_broadcasts, 0u);
  EXPECT_EQ(bed.membership().stats().delta_broadcasts,
            bed.membership().stats().view_changes);
  const std::uint64_t epoch = bed.membership().epoch(kObj);
  for (const auto& s : bed.stores()) {
    EXPECT_EQ(s->view_epoch(), epoch) << "store " << s->id();
  }

  // A graceful leave is a diff too, applied by the survivors.
  const std::uint64_t deltas = bed.membership().stats().delta_broadcasts;
  bed.leave_store(4);
  bed.settle();
  EXPECT_GT(bed.membership().stats().delta_broadcasts, deltas);
  EXPECT_EQ(bed.stores().front()->view_epoch(), bed.membership().epoch(kObj));
  EXPECT_EQ(bed.membership().stats().view_fetches, 0u)
      << "contiguous deltas should never need a full-view fetch";
}

TEST(ViewDelta, EpochGapTriggersFullViewFetch) {
  Testbed bed(membership_options());
  core::ReplicationPolicy policy;
  policy.object_outdate_reaction = core::OutdateReaction::kDemand;
  bed.add_primary(kObj, policy);
  bed.settle();
  StoreEngine& isolated =
      bed.add_store(kObj, naming::StoreClass::kObjectInitiated, policy);
  StoreEngine& witness =
      bed.add_store(kObj, naming::StoreClass::kObjectInitiated, policy);
  bed.settle();

  // Cut one store off: it misses heartbeats, gets evicted (one epoch),
  // and misses that view change entirely.
  bed.net().set_node_down(isolated.address().node, true);
  bed.run_for(sim::SimDuration::millis(300));
  EXPECT_LT(isolated.view_epoch(), bed.membership().epoch(kObj));

  // Reconnect: its next heartbeat re-admits it; the resulting delta has
  // an epoch gap from its perspective, so it re-anchors via a full-view
  // fetch and catches up.
  bed.net().set_node_down(isolated.address().node, false);
  bed.run_for(sim::SimDuration::millis(400));
  bed.settle();
  EXPECT_GT(bed.membership().stats().rejoins, 0u);
  EXPECT_GT(bed.membership().stats().view_fetches, 0u);
  EXPECT_EQ(isolated.view_epoch(), bed.membership().epoch(kObj));
  EXPECT_EQ(witness.view_epoch(), bed.membership().epoch(kObj));
  EXPECT_TRUE(bed.converged(kObj));
}

TEST(ViewDelta, EarlyWatcherAdoptsTheFirstEpochFromTheDiff) {
  // A group's first broadcast is a diff against the empty epoch-0 view,
  // so a watcher that registered before any store joined adopts epoch 1
  // from it, with no full-view fetch.
  Testbed bed(membership_options());
  const net::Address placeholder{bed.add_node("placeholder"), 1};
  ClientBinding& watcher =
      bed.add_client(kObj, coherence::ClientModel::kNone, placeholder);
  bed.settle();
  ASSERT_EQ(bed.membership().watcher_count(kObj), 1u);

  core::ReplicationPolicy policy;
  StoreEngine& primary = bed.add_primary(kObj, policy);
  bed.settle();
  ASSERT_EQ(bed.membership().epoch(kObj), 1u);
  EXPECT_EQ(bed.membership().stats().delta_broadcasts, 1u);
  EXPECT_EQ(watcher.view_epoch(), 1u);
  EXPECT_EQ(bed.membership().stats().view_fetches, 0u);
  // The adopted view moved the watcher off its placeholder store.
  EXPECT_EQ(watcher.read_store(), primary.address());
}

TEST(ViewDelta, WatchingClientsFollowDiffBroadcasts) {
  Testbed bed(membership_options());
  core::ReplicationPolicy policy;
  bed.add_primary(kObj, policy);
  bed.settle();
  StoreEngine& cache =
      bed.add_store(kObj, naming::StoreClass::kClientInitiated, policy);
  bed.settle();
  ClientBinding& client =
      bed.add_client(kObj, coherence::ClientModel::kNone, cache.address());
  bed.settle();

  // The client registered after the first broadcast, so its first push
  // is a delta it has no base for: it must have re-anchored via a fetch
  // and then track diffs.
  bed.add_store(kObj, naming::StoreClass::kObjectInitiated, policy);
  bed.settle();
  EXPECT_EQ(client.view_epoch(), bed.membership().epoch(kObj));

  // Its cache leaving the view (a diff broadcast) still rebinds it.
  cache.leave();
  bed.settle();
  bed.run_for(sim::SimDuration::millis(200));
  bed.settle();
  EXPECT_EQ(client.view_epoch(), bed.membership().epoch(kObj));
  EXPECT_GT(client.rebinds(), 0u);
  EXPECT_NE(client.read_store(), cache.address());
}

}  // namespace
}  // namespace globe::replication
