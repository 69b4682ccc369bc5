// Per-shard membership subgroups: one scope, one member list, one
// heartbeat stream — but independently-epoched per-shard views, so
// churn in one shard never bumps or broadcasts another shard's view.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <vector>

#include "globe/membership/service.hpp"
#include "globe/net/sim_transport.hpp"
#include "globe/sim/network.hpp"

namespace globe::membership {
namespace {

constexpr ObjectId kScope = 0xC1;  // cluster-wide membership scope

// A fake store endpoint: joins a shard, heartbeats, and records every
// view push it receives.
class FakeMember {
 public:
  FakeMember(const core::TransportFactory& factory, sim::Simulator& sim,
             Address service, ShardId shard, StoreId id, bool primary)
      : comm_(&sim), service_(service), shard_(shard) {
    comm_.open(factory, [this](const Address&, const msg::EnvelopeView& env) {
      if (env.type == msg::MsgType::kViewDelta) {
        deltas_.push_back(ViewDelta::decode(env.body));
      }
    });
    contact_.address = comm_.local_address();
    contact_.store_class = primary ? naming::StoreClass::kPermanent
                                   : naming::StoreClass::kObjectInitiated;
    contact_.store_id = id;
    contact_.is_primary = primary;
  }

  void join() {
    MemberAnnounce m;
    m.contact = contact_;
    m.shard = shard_;
    comm_.request_with(
        service_, msg::MsgType::kMembershipJoin, kScope,
        [&](util::Writer& w) { m.encode(w); },
        [this](bool ok, const Address&, const msg::EnvelopeView& env) {
          if (!ok) return;
          util::Reader r{env.body};
          join_view_ = View::decode(r);
        });
  }

  void heartbeat() {
    MemberAnnounce m;
    m.contact = contact_;
    m.shard = shard_;
    comm_.send_with_background(service_, msg::MsgType::kMembershipHeartbeat,
                               kScope,
                               [&](util::Writer& w) { m.encode(w); });
  }

  [[nodiscard]] Address address() const { return contact_.address; }
  std::optional<View> join_view_;
  std::vector<ViewDelta> deltas_;

 private:
  core::CommunicationObject comm_;
  Address service_;
  naming::ContactPoint contact_;
  ShardId shard_;
};

class ShardMembershipTest : public ::testing::Test {
 protected:
  ShardMembershipTest() : net(sim, 1) {
    service_node = net.add_node("membership");
    MembershipOptions opts;
    opts.heartbeat_period = sim::SimDuration::millis(50);
    opts.failure_timeout = sim::SimDuration::millis(200);
    opts.metrics = &metrics;
    service.emplace(factory(service_node), sim, opts);
  }

  core::TransportFactory factory(NodeId node) {
    return [this, node](net::MessageHandler handler)
               -> std::unique_ptr<net::Transport> {
      const PortId port = next_port[node]++;
      return std::make_unique<net::SimTransport>(
          net, net::Address{node, port}, std::move(handler));
    };
  }

  FakeMember& add_member(ShardId shard, bool primary = false) {
    const NodeId node = net.add_node("store");
    next_port[node] = 1;
    members.push_back(std::make_unique<FakeMember>(
        factory(node), sim, service->address(), shard,
        static_cast<StoreId>(members.size()), primary));
    return *members.back();
  }

  void run_heartbeats(sim::SimDuration total,
                      const std::vector<FakeMember*>& beating) {
    const auto step = sim::SimDuration::millis(50);
    for (sim::SimDuration t{}; t < total; t = t + step) {
      for (FakeMember* m : beating) m->heartbeat();
      sim.run_until(sim.now() + step);
    }
  }

  sim::Simulator sim;
  sim::Network net;
  std::map<NodeId, PortId> next_port{{0, 1}};
  NodeId service_node;
  metrics::MetricsSink metrics;
  std::optional<MembershipService> service;
  std::vector<std::unique_ptr<FakeMember>> members;
};

TEST_F(ShardMembershipTest, ViewsProjectPerShard) {
  auto& a0 = add_member(0, /*primary=*/true);
  auto& a1 = add_member(0);
  auto& b0 = add_member(1, /*primary=*/true);
  a0.join();
  a1.join();
  b0.join();
  sim.run();

  const View v0 = service->shard_view(kScope, 0);
  const View v1 = service->shard_view(kScope, 1);
  EXPECT_EQ(v0.shard, 0u);
  EXPECT_EQ(v0.epoch, 2u);  // two shard-0 joins
  EXPECT_EQ(v0.members.size(), 2u);
  EXPECT_TRUE(v0.contains(a0.address()));
  EXPECT_TRUE(v0.contains(a1.address()));
  EXPECT_FALSE(v0.contains(b0.address()));

  EXPECT_EQ(v1.shard, 1u);
  EXPECT_EQ(v1.epoch, 1u);  // one shard-1 join
  EXPECT_EQ(v1.members.size(), 1u);
  EXPECT_TRUE(v1.contains(b0.address()));

  // Join acks carry the joiner's own shard view.
  ASSERT_TRUE(b0.join_view_.has_value());
  EXPECT_EQ(b0.join_view_->shard, 1u);
  EXPECT_EQ(b0.join_view_->members.size(), 1u);
}

TEST_F(ShardMembershipTest, HotShardChurnLeavesColdShardUntouched) {
  auto& hot_a = add_member(0);
  auto& hot_b = add_member(0);
  auto& cold_a = add_member(1);
  auto& cold_b = add_member(1);
  hot_a.join();
  hot_b.join();
  cold_a.join();
  cold_b.join();
  sim.run();
  const std::uint64_t cold_epoch = service->shard_epoch(kScope, 1);
  const std::uint64_t hot_epoch = service->shard_epoch(kScope, 0);
  ASSERT_EQ(cold_epoch, 2u);

  // hot_b goes silent; everybody else keeps heartbeating. The failure
  // detector evicts it from shard 0 only.
  const std::size_t cold_pushes_before = cold_a.deltas_.size();
  run_heartbeats(sim::SimDuration::millis(600), {&hot_a, &cold_a, &cold_b});

  EXPECT_GT(service->shard_epoch(kScope, 0), hot_epoch);
  EXPECT_FALSE(service->shard_view(kScope, 0).contains(hot_b.address()));
  // Cold shard: same epoch, same members, and no view traffic at all.
  EXPECT_EQ(service->shard_epoch(kScope, 1), cold_epoch);
  EXPECT_EQ(service->shard_view(kScope, 1).members.size(), 2u);
  EXPECT_EQ(cold_a.deltas_.size(), cold_pushes_before);
  // The eviction showed up in the per-shard rollup for shard 0 only.
  ASSERT_TRUE(metrics.shard_stats().contains(0));
  EXPECT_GT(metrics.shard_stats().at(0).view_changes, 0u);
  const auto it = metrics.shard_stats().find(1);
  EXPECT_EQ(it == metrics.shard_stats().end() ? 0 : it->second.view_changes,
            2u);  // only the two cold joins

  // The evicted store heartbeats again: re-admitted to its shard.
  run_heartbeats(sim::SimDuration::millis(200),
                 {&hot_a, &hot_b, &cold_a, &cold_b});
  EXPECT_TRUE(service->shard_view(kScope, 0).contains(hot_b.address()));
  EXPECT_GE(service->stats().rejoins, 1u);
  EXPECT_EQ(service->shard_epoch(kScope, 1), cold_epoch);
}

TEST_F(ShardMembershipTest, WatchersAreShardScoped) {
  auto& a = add_member(0);
  auto& b = add_member(1);
  a.join();
  b.join();
  sim.run();

  // Watch shard 1 from a separate endpoint.
  const NodeId wnode = net.add_node("watcher");
  next_port[wnode] = 1;
  std::vector<ShardId> pushed_shards;
  core::CommunicationObject watcher(&sim);
  watcher.open(factory(wnode),
               [&](const Address&, const msg::EnvelopeView& env) {
                 if (env.type == msg::MsgType::kViewDelta) {
                   pushed_shards.push_back(ViewDelta::decode(env.body).shard);
                 }
               });
  WatchMsg msg;
  msg.watcher = watcher.local_address();
  msg.shard = 1;
  watcher.send_with(service->address(), msg::MsgType::kMembershipWatch, kScope,
                    [&](util::Writer& w) { msg.encode(w); });
  sim.run();
  EXPECT_EQ(service->watcher_count(kScope, 1), 1u);
  EXPECT_EQ(service->watcher_count(kScope, 0), 0u);

  // A shard-0 join is invisible to the shard-1 watcher; a shard-1 join
  // is pushed.
  add_member(0).join();
  sim.run();
  EXPECT_TRUE(pushed_shards.empty());
  add_member(1).join();
  sim.run();
  ASSERT_EQ(pushed_shards.size(), 1u);
  EXPECT_EQ(pushed_shards[0], 1u);
}

}  // namespace
}  // namespace globe::membership
