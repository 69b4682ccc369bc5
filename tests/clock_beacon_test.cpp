// The clock beacon lane: one Notify per (store, subscriber peer) per
// heartbeat tick, listing only the objects whose applied frontier moved,
// with a tick number whose gaps make the receiver fetch the full list.
//
// Section 4.2's end-to-end argument rests on it: under the demand
// outdate reaction, a replica that lost the last pushes of a burst
// learns it is behind only from a later beacon. These tests pin the
// lane's cost (it follows writes, not hosted objects) and its recovery
// paths (loss, partition heal, crash/recover) on multi-object stores.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "globe/core/comm.hpp"
#include "globe/replication/testbed.hpp"
#include "globe/workload/zipf.hpp"

namespace globe::replication {
namespace {

core::ReplicationPolicy push_demand() {
  core::ReplicationPolicy p;  // PRAM, push, immediate, partial
  p.object_outdate_reaction = core::OutdateReaction::kDemand;
  return p;
}

std::vector<ObjectId> object_range(ObjectId n) {
  std::vector<ObjectId> ids(n);
  std::iota(ids.begin(), ids.end(), ObjectId{1});
  return ids;
}

/// One shard: a primary and one secondary hosting `objects`, each seeded
/// with one page and settled. Stores 0 and 1 of the testbed.
struct Pair {
  explicit Pair(ObjectId objects, std::uint64_t seed = 1,
                const core::ReplicationPolicy& policy = push_demand())
      : bed([&] {
          TestbedOptions opts;
          opts.seed = seed;
          opts.shards = 1;
          opts.record_history = false;
          return opts;
        }()),
        primary(bed.add_shard_store(0, naming::StoreClass::kPermanent,
                                    policy, /*primary=*/true)),
        secondary(bed.add_shard_store(
            0, naming::StoreClass::kObjectInitiated, policy)),
        ids(object_range(objects)) {
    bed.place_objects(ids);
    for (const ObjectId id : ids) primary.seed(id, "p", "v0");
    bed.settle();
  }

  void write(ObjectId id, const std::string& content) {
    primary.seed(id, "p", content);
  }

  [[nodiscard]] std::uint64_t notifies() {
    const auto& by_type = bed.metrics().traffic_by_type();
    const auto it = by_type.find(static_cast<std::uint8_t>(msg::MsgType::kNotify));
    return it == by_type.end() ? 0 : it->second.messages;
  }

  /// Runs until `past` after the primary's next heartbeat tick (its
  /// timer started with the testbed, at time 0). The default is past the
  /// beacon's delivery.
  void run_past_next_tick(
      sim::SimDuration past = sim::SimDuration::millis(50)) {
    const std::int64_t period = 500'000;
    const std::int64_t now = bed.sim().now().count_micros();
    bed.run_for(sim::SimDuration::micros(period - now % period) + past);
  }

  [[nodiscard]] std::string content(ObjectId id) const {
    return secondary.document(id).get("p")->content;
  }

  [[nodiscard]] bool all_converged() const {
    for (const ObjectId id : ids) {
      if (!(secondary.document(id) == primary.document(id))) return false;
    }
    return true;
  }

  Testbed bed;
  StoreEngine& primary;
  StoreEngine& secondary;
  std::vector<ObjectId> ids;
};

/// A bare endpoint that subscribes to objects at a store, sends it
/// crafted messages, and records every Notify it receives; it never asks
/// for the full list.
class BeaconProbe {
 public:
  explicit BeaconProbe(Testbed& bed)
      : comm_(&bed.sim()) {
    comm_.open(bed.factory(bed.add_node("probe")),
               [this](const Address&, const msg::EnvelopeView& env) {
                 if (env.type == msg::MsgType::kNotify) {
                   notifies.push_back(NotifyMsg::decode(env.body));
                 }
               });
  }

  void subscribe(const StoreEngine& store, ObjectId object) {
    SubscribeMsg sub;
    sub.subscriber = comm_.local_address();
    sub.store_id = 999;
    comm_.request_with(
        store.address(), msg::MsgType::kSubscribe, object,
        [&](util::Writer& w) { sub.encode(w); },
        [](bool, const Address&, const msg::EnvelopeView&) {});
  }

  void send(const StoreEngine& store, const NotifyMsg& m) {
    comm_.send_with(store.address(), msg::MsgType::kNotify, kStoreScope,
                    [&](util::Writer& w) { m.encode(w); });
  }

  void send_policy(const StoreEngine& store, ObjectId object,
                   const core::ReplicationPolicy& policy) {
    comm_.send_with(store.address(), msg::MsgType::kPolicyUpdate, object,
                    [&](util::Writer& w) { policy.encode(w); });
  }

  [[nodiscard]] std::size_t full_list_asks() const {
    return static_cast<std::size_t>(
        std::count_if(notifies.begin(), notifies.end(),
                      [](const NotifyMsg& n) { return n.want_full; }));
  }

  std::vector<NotifyMsg> notifies;

 private:
  core::CommunicationObject comm_;
};

TEST(ClockBeacon, IdleStoreSendsOneNotifyPerPeerPerTick) {
  Pair pair(500);
  // The first beacon and the full-list exchange it triggers anchor the
  // secondary on the primary's tick sequence.
  pair.bed.run_for(sim::SimDuration::seconds(1));
  pair.bed.metrics().reset();
  pair.bed.run_for(sim::SimDuration::seconds(5));
  // 5 s of 500 ms ticks, one subscriber peer: 10 beacons, not one per
  // hosted object per tick.
  EXPECT_EQ(pair.notifies(), 10u);
  EXPECT_EQ(pair.secondary.full_list_requests(), 1u);
}

TEST(ClockBeacon, ManyObjectWorkloadStaysUnderTwelveMessagesPerOp) {
  // 200 placed objects, 4 placed clients, Zipf objects with a write every
  // third op, over 1, 2 and 4 shards: background traffic follows the
  // writes, not the hosted objects. One op every 40 ms spans about ten
  // beacon ticks, so a beacon per hosted object per tick would add about
  // 15 messages per op.
  for (const ShardId shards : {1u, 2u, 4u}) {
    TestbedOptions opts;
    opts.seed = 29;
    opts.shards = shards;
    opts.record_history = false;
    Testbed bed(opts);
    for (ShardId s = 0; s < shards; ++s) {
      bed.add_shard_store(s, naming::StoreClass::kPermanent, push_demand(),
                          /*primary=*/true);
      bed.add_shard_store(s, naming::StoreClass::kObjectInitiated,
                          push_demand());
    }
    const std::vector<ObjectId> ids = object_range(200);
    bed.place_objects(ids);
    for (const ObjectId id : ids) {
      bed.primary(id).seed(id, "page.html", "base-" + std::to_string(id));
    }
    bed.settle();
    std::vector<ClientBinding*> clients;
    for (int c = 0; c < 4; ++c) {
      clients.push_back(
          &bed.add_placed_client(coherence::ClientModel::kReadYourWrites));
    }
    bed.metrics().reset();

    constexpr int kOps = 120;
    workload::ZipfGenerator zipf(ids.size(), 0.9);
    util::Rng rng(opts.seed * 77 + shards);
    int failures = 0;
    for (int op = 0; op < kOps; ++op) {
      const ObjectId id = ids[zipf.sample(rng)];
      ClientBinding& client = *clients[op % clients.size()];
      if (op % 3 == 0) {
        client.write(id, "page.html", "v" + std::to_string(op),
                     [&](WriteResult r) { failures += !r.ok; });
      } else {
        client.read(id, "page.html",
                    [&](ReadResult r) { failures += !r.ok; });
      }
      bed.run_for(sim::SimDuration::millis(40));
    }
    bed.settle();
    EXPECT_EQ(failures, 0) << shards << " shard(s)";
    const double per_op =
        static_cast<double>(bed.metrics().total_traffic().messages) / kOps;
    EXPECT_LT(per_op, 12.0) << shards << " shard(s)";
    for (const ObjectId id : ids) EXPECT_TRUE(bed.converged(id)) << id;
  }
}

TEST(ClockBeacon, BeaconListsExactlyTheObjectsThatMoved) {
  Pair pair(500);
  BeaconProbe probe(pair.bed);
  for (const ObjectId id : pair.ids) probe.subscribe(pair.primary, id);
  pair.bed.settle();
  pair.bed.run_for(sim::SimDuration::seconds(1));

  // Idle: every tick is a sequenced, empty beacon.
  probe.notifies.clear();
  pair.bed.run_for(sim::SimDuration::seconds(1));
  ASSERT_EQ(probe.notifies.size(), 2u);
  EXPECT_EQ(probe.notifies[1].tick, probe.notifies[0].tick + 1);
  for (const NotifyMsg& n : probe.notifies) {
    EXPECT_NE(n.tick, 0u);
    EXPECT_FALSE(n.full);
    EXPECT_TRUE(n.entries.empty());
  }

  std::vector<ObjectId> written;
  for (ObjectId id = 3; id <= 500; id += 10) {
    pair.write(id, "v1");
    written.push_back(id);
  }
  ASSERT_EQ(written.size(), 50u);
  probe.notifies.clear();
  pair.bed.run_for(sim::SimDuration::millis(600));
  ASSERT_GE(probe.notifies.size(), 1u);
  const NotifyMsg& next = probe.notifies.front();
  std::vector<ObjectId> listed;
  for (const NotifyMsg::Entry& e : next.entries) {
    listed.push_back(e.object);
    EXPECT_EQ(e.clock, pair.primary.applied_clock(e.object));
    EXPECT_EQ(e.gseq, pair.primary.applied_gseq(e.object));
  }
  EXPECT_EQ(listed, written);

  pair.bed.run_for(sim::SimDuration::millis(500));
  EXPECT_TRUE(probe.notifies.back().entries.empty());
  EXPECT_TRUE(pair.all_converged());
}

TEST(ClockBeacon, LossyLinkConvergesEveryObject) {
  // LossyPropagation's link, across many objects: unordered, 35% drops.
  // Pushes, beacons, full-list requests and replies, and demand fetches
  // all cross it.
  Pair pair(40, /*seed=*/44);
  pair.bed.run_for(sim::SimDuration::seconds(1));
  sim::LinkSpec lossy;
  lossy.reliable_ordered = false;
  lossy.drop_rate = 0.35;
  lossy.jitter = sim::SimDuration::millis(10);
  const NodeId p = pair.primary.address().node;
  const NodeId s = pair.secondary.address().node;
  pair.bed.net().set_link(p, s, lossy);

  util::Rng rng(44);
  for (int i = 1; i <= 200; ++i) {
    pair.write(pair.ids[rng.below(pair.ids.size())], "v" + std::to_string(i));
    pair.bed.run_for(sim::SimDuration::millis(20));
  }
  // The case only a sequenced beacon recovers: the last push of these
  // objects AND the next beacon are lost. Nothing about them will ever
  // move again, so no later beacon lists them.
  pair.bed.net().partition(p, s);
  for (ObjectId id = 1; id <= 5; ++id) pair.write(id, "last");
  pair.bed.run_for(sim::SimDuration::millis(600));
  pair.bed.net().heal(p, s);
  const std::uint64_t asked = pair.secondary.full_list_requests();

  pair.bed.run_for(sim::SimDuration::seconds(10));
  pair.bed.settle();
  EXPECT_GT(pair.secondary.full_list_requests(), asked);
  for (const ObjectId id : pair.ids) {
    EXPECT_EQ(pair.secondary.document(id), pair.primary.document(id))
        << "object " << id;
  }
  EXPECT_EQ(pair.secondary.document(3).get("p")->content, "last");
}

TEST(ClockBeacon, FullListReanchorsAfterHealAndCrash) {
  Pair pair(100);
  pair.bed.run_for(sim::SimDuration::seconds(1));
  ASSERT_EQ(pair.secondary.full_list_requests(), 1u);
  const NodeId p = pair.primary.address().node;
  const NodeId s = pair.secondary.address().node;

  // Partition heal: the pushes and two beacons are lost; the first beacon
  // after the heal shows the gap, and the full list names the objects.
  pair.bed.net().partition(p, s);
  for (ObjectId id = 1; id <= 20; ++id) pair.write(id, "cut");
  pair.bed.run_for(sim::SimDuration::millis(1200));
  pair.bed.net().heal(p, s);
  pair.bed.run_for(sim::SimDuration::seconds(2));
  pair.bed.settle();
  EXPECT_EQ(pair.secondary.full_list_requests(), 2u);
  EXPECT_TRUE(pair.all_converged());

  // Secondary crash/recover: its anchors die with it and it re-anchors.
  pair.bed.crash_store(1);
  for (ObjectId id = 21; id <= 40; ++id) pair.write(id, "down");
  pair.bed.run_for(sim::SimDuration::millis(700));
  pair.bed.recover_store(1);
  pair.bed.run_for(sim::SimDuration::seconds(2));
  pair.bed.settle();
  EXPECT_EQ(pair.secondary.full_list_requests(), 3u);
  EXPECT_TRUE(pair.all_converged());

  // Primary crash: a burst's pushes are lost, and the primary goes down
  // before its next tick. The moved-object marks survive the crash (as
  // the documents do), so the first beacon after recovery still lists
  // the burst. Its tick is the one the secondary expects: no full list.
  pair.run_past_next_tick();
  pair.bed.net().partition(p, s);
  for (ObjectId id = 41; id <= 60; ++id) pair.write(id, "crash");
  pair.bed.crash_store(0);
  pair.bed.net().heal(p, s);
  pair.bed.run_for(sim::SimDuration::seconds(1));
  pair.bed.recover_store(0);
  pair.bed.run_for(sim::SimDuration::seconds(2));
  pair.bed.settle();
  EXPECT_EQ(pair.secondary.full_list_requests(), 3u);
  EXPECT_TRUE(pair.all_converged());
}

TEST(ClockBeacon, LateBeaconKeepsTheAnchor) {
  // On an unordered link the full-list reply can overtake the beacon
  // stamped before it. That beacon is late, not a gap: it must cost no
  // full list. A crafted upstream drives the secondary's receiver.
  Pair pair(3);
  pair.bed.run_for(sim::SimDuration::seconds(1));
  BeaconProbe upstream(pair.bed);
  const auto deliver = [&](std::uint64_t tick, bool full) {
    NotifyMsg m;
    m.tick = tick;
    m.full = full;
    upstream.send(pair.secondary, m);
    pair.bed.run_for(sim::SimDuration::millis(50));
  };
  const std::uint64_t base = pair.secondary.full_list_requests();

  deliver(5, false);  // no anchor yet
  EXPECT_EQ(pair.secondary.full_list_requests(), base + 1);
  deliver(7, true);  // the full list, stamped at tick 7: expect 8 next
  deliver(7, false);  // the beacon it overtook
  deliver(6, false);  // an older one still
  deliver(8, false);  // in sequence
  EXPECT_EQ(pair.secondary.full_list_requests(), base + 1);
  EXPECT_EQ(upstream.full_list_asks(), 1u);

  deliver(10, false);  // tick 9 went missing
  EXPECT_EQ(pair.secondary.full_list_requests(), base + 2);
  EXPECT_EQ(upstream.full_list_asks(), 2u);
}

TEST(ClockBeacon, NotifiedDemandConvergesBeforeTheNextTick) {
  // Table 1's notification transfer under the demand reaction: the
  // unsequenced Notify itself starts the fetch, so a write does not wait
  // for the next beacon.
  core::ReplicationPolicy policy = push_demand();
  policy.coherence_transfer = core::CoherenceTransfer::kNotification;
  Pair pair(3, /*seed=*/1, policy);
  pair.bed.run_for(sim::SimDuration::seconds(1));
  pair.run_past_next_tick();  // the next beacon is 450 ms away
  pair.write(2, "v1");
  pair.bed.run_for(sim::SimDuration::millis(100));
  EXPECT_EQ(pair.content(2), "v1");
}

TEST(ClockBeacon, EmptyBeaconRedemandsAnObjectThatStoppedMoving) {
  // The secondary hears of a write only from the beacon listing it, and
  // the primary crashes before the demand fetch reaches it. The fetch's
  // own retries run out during the outage and the object never moves
  // again, so the first beacon after recovery is empty and in sequence:
  // only its re-demand of the still-outdated object fetches it.
  Pair pair(3);
  pair.bed.run_for(sim::SimDuration::seconds(1));
  pair.run_past_next_tick();
  const NodeId p = pair.primary.address().node;
  const NodeId s = pair.secondary.address().node;
  pair.bed.net().partition(p, s);
  pair.write(2, "lost");  // the push is dropped
  pair.bed.net().heal(p, s);
  // The beacon listing object 2 is on the wire; the demand it triggers
  // finds the primary down.
  pair.run_past_next_tick(sim::SimDuration::millis(1));
  pair.bed.crash_store(0);
  // Long enough for every retry of every re-issued fetch to fail.
  pair.bed.run_for(sim::SimDuration::seconds(200));
  ASSERT_EQ(pair.content(2), "v0");
  const std::uint64_t asked = pair.secondary.full_list_requests();

  pair.bed.recover_store(0);
  pair.bed.run_for(sim::SimDuration::millis(600));
  pair.bed.settle();
  EXPECT_EQ(pair.content(2), "lost");
  EXPECT_EQ(pair.secondary.full_list_requests(), asked);  // no gap
}

TEST(ClockBeacon, PolicySwitchOntoTheBeaconListsTheObject) {
  // Object 3 leaves the beacon (wait reaction), loses a push there, then
  // switches back to the demand reaction. The secondary stays anchored
  // on the lane the whole time, so only the next beacon listing object 3
  // can tell it that it is behind.
  Pair pair(3);
  pair.bed.run_for(sim::SimDuration::seconds(1));
  BeaconProbe admin(pair.bed);
  admin.send_policy(pair.primary, 3, core::ReplicationPolicy{});
  pair.bed.run_for(sim::SimDuration::millis(100));
  const NodeId p = pair.primary.address().node;
  const NodeId s = pair.secondary.address().node;
  pair.bed.net().partition(p, s);
  pair.write(3, "lost");  // the push is dropped; no beacon is
  pair.bed.net().heal(p, s);
  pair.bed.run_for(sim::SimDuration::seconds(1));
  ASSERT_EQ(pair.content(3), "v0");

  const std::uint64_t asked = pair.secondary.full_list_requests();
  admin.send_policy(pair.primary, 3, push_demand());
  // A policy change restarts the heartbeat timer: one period from now.
  pair.bed.run_for(sim::SimDuration::millis(600));
  pair.bed.settle();
  EXPECT_EQ(pair.content(3), "lost");
  EXPECT_EQ(pair.secondary.full_list_requests(), asked);
}

TEST(ClockBeacon, NotificationTransferStaysUnsequenced) {
  // Table 1's notification coherence transfer goes out at once, as an
  // unsequenced Notify naming just the written object.
  TestbedOptions opts;
  opts.shards = 1;
  opts.record_history = false;
  Testbed bed(opts);
  core::ReplicationPolicy policy;
  policy.coherence_transfer = core::CoherenceTransfer::kNotification;
  auto& primary = bed.add_shard_store(0, naming::StoreClass::kPermanent,
                                      policy, /*primary=*/true);
  bed.place_objects(object_range(3));
  BeaconProbe probe(bed);
  for (ObjectId id = 1; id <= 3; ++id) probe.subscribe(primary, id);
  bed.settle();
  primary.seed(2, "p", "v1");
  bed.settle();
  ASSERT_EQ(probe.notifies.size(), 1u);
  EXPECT_EQ(probe.notifies[0].tick, 0u);
  ASSERT_EQ(probe.notifies[0].entries.size(), 1u);
  EXPECT_EQ(probe.notifies[0].entries[0].object, 2u);
  EXPECT_EQ(probe.notifies[0].entries[0].clock, primary.applied_clock(2));
}

TEST(TimerSet, AddedObjectWithShorterLazyPeriodShortensTheTick) {
  // A running store flushes its lazy queues every 400 ms; an object added
  // later asks for 40 ms. Its updates must not wait for the slow tick.
  TestbedOptions opts;
  opts.shards = 1;
  opts.record_history = false;
  Testbed bed(opts);
  core::ReplicationPolicy slow;
  slow.instant = core::TransferInstant::kLazy;
  slow.lazy_period = sim::SimDuration::millis(400);
  core::ReplicationPolicy fast = slow;
  fast.lazy_period = sim::SimDuration::millis(40);
  auto& primary = bed.add_shard_store(0, naming::StoreClass::kPermanent, slow,
                                      /*primary=*/true);
  auto& secondary =
      bed.add_shard_store(0, naming::StoreClass::kObjectInitiated, slow);
  // A slow object hosted from the start is what runs the 400 ms tick.
  bed.place_objects({1});
  bed.settle();
  bed.run_for(sim::SimDuration::millis(130));  // running, mid-period

  constexpr ObjectId kFast = 7;
  ObjectConfig oc;
  oc.object = kFast;
  oc.policy = fast;
  primary.add_object(oc);
  oc.upstream = primary.address();
  secondary.add_object(oc);
  bed.settle();

  // Writes at ten phases of the old 400 ms period: each reaches the
  // secondary within one 40 ms flush plus the 20 ms link.
  sim::SimDuration worst{};
  for (int i = 0; i < 10; ++i) {
    const std::string content = "v" + std::to_string(i);
    primary.seed(kFast, "p", content);
    const sim::SimTime written = bed.sim().now();
    while (!secondary.document(kFast).has("p") ||
           secondary.document(kFast).get("p")->content != content) {
      bed.run_for(sim::SimDuration::millis(1));
      ASSERT_LT(bed.sim().now() - written, sim::SimDuration::seconds(1));
    }
    worst = std::max(worst, bed.sim().now() - written);
    bed.run_for(sim::SimDuration::millis(37));
  }
  EXPECT_LE(worst, sim::SimDuration::millis(61));
}

}  // namespace
}  // namespace globe::replication
