// The view follower over a real MembershipService on a Simulator, with
// no Testbed: which diffs it drops, adopts or re-anchors on, that a
// burst of gaps costs one full-view fetch, that a failed fetch leaves
// the next gap free to fetch again, that a follower with membership off
// never fetches, and that the owner receives the view each adoption
// replaced.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "globe/membership/follower.hpp"
#include "globe/membership/service.hpp"
#include "globe/net/sim_transport.hpp"
#include "globe/sim/network.hpp"

namespace globe::membership {
namespace {

constexpr ObjectId kScope = 0xC1;

class ViewFollowerTest : public ::testing::Test {
 protected:
  ViewFollowerTest() : net(sim, 1) {
    service_node = net.add_node("membership");
    MembershipOptions opts;
    opts.failure_timeout = sim::SimDuration::seconds(10);  // no evictions
    service.emplace(factory(service_node), sim, opts);
    follower_node = net.add_node("follower");
    comm.emplace(&sim);
    follower.emplace(service->address(), kScope, 0,
                     [this](const View& previous, const View& adopted) {
                       adoptions.emplace_back(previous, adopted);
                     });
    comm->open(factory(follower_node),
               [this](const Address&, const msg::EnvelopeView& env) {
                 if (env.type == msg::MsgType::kViewDelta) {
                   deliver(ViewDelta::decode(env.body));
                 }
               });
  }

  core::TransportFactory factory(NodeId node) {
    return [this, node](net::MessageHandler handler)
               -> std::unique_ptr<net::Transport> {
      return std::make_unique<net::SimTransport>(
          net, net::Address{node, ++next_port[node]}, std::move(handler));
    };
  }

  /// Registers the follower's endpoint for shard 0's diffs.
  void watch() {
    WatchMsg m;
    m.watcher = comm->local_address();
    comm->send_with(service->address(), msg::MsgType::kMembershipWatch,
                    kScope, [&](util::Writer& w) { m.encode(w); });
    sim.run();
  }

  /// A store of shard 0 joins; its endpoint only makes the request.
  void join() {
    const NodeId node = net.add_node("store");
    auto& store = *stores.emplace_back(
        std::make_unique<core::CommunicationObject>(&sim));
    store.open(factory(node), {});
    MemberAnnounce m;
    m.contact.address = store.local_address();
    m.contact.store_id = static_cast<StoreId>(stores.size());
    m.contact.store_class = naming::StoreClass::kObjectInitiated;
    store.request_with(service->address(), msg::MsgType::kMembershipJoin,
                       kScope, [&](util::Writer& w) { m.encode(w); },
                       [](bool, const Address&, const msg::EnvelopeView&) {});
  }

  void deliver(const ViewDelta& d) { follower->on_delta(d, *comm); }

  /// A diff of shard 0 at `epoch` that adds nobody.
  static ViewDelta diff(std::uint64_t epoch) {
    ViewDelta d;
    d.object = kScope;
    d.epoch = epoch;
    return d;
  }

  [[nodiscard]] std::uint64_t fetches() const {
    return service->stats().view_fetches;
  }

  sim::Simulator sim;
  sim::Network net;
  std::map<NodeId, PortId> next_port;
  NodeId service_node = 0;
  NodeId follower_node = 0;
  std::optional<MembershipService> service;
  std::vector<std::unique_ptr<core::CommunicationObject>> stores;
  std::vector<std::pair<View, View>> adoptions;
  // The follower outlives its endpoint: declared before it.
  std::optional<ViewFollower> follower;
  std::optional<core::CommunicationObject> comm;
};

TEST_F(ViewFollowerTest, DropsForeignAndStaleDiffs) {
  ViewDelta other_scope = diff(1);
  other_scope.object = kScope + 1;
  deliver(other_scope);
  ViewDelta other_shard = diff(1);
  other_shard.shard = 1;
  deliver(other_shard);
  ViewDelta stale = diff(0);  // not newer than the empty epoch-0 base
  deliver(stale);
  sim.run();
  EXPECT_TRUE(adoptions.empty());
  EXPECT_EQ(fetches(), 0u);

  deliver(diff(1));
  deliver(diff(1));  // a duplicate
  View old = follower->view();
  follower->on_view(old);       // a full view that is not newer
  old.shard = 1;
  old.epoch = 9;
  follower->on_view(old);       // a full view of another shard
  sim.run();
  ASSERT_EQ(adoptions.size(), 1u);
  EXPECT_EQ(follower->view().epoch, 1u);
  EXPECT_EQ(fetches(), 0u);
}

TEST_F(ViewFollowerTest, AdoptsContiguousDiffsWithoutFetching) {
  watch();
  join();
  sim.run();
  join();
  sim.run();
  EXPECT_EQ(fetches(), 0u);
  ASSERT_EQ(adoptions.size(), 2u);
  EXPECT_EQ(follower->view(), service->shard_view(kScope, 0));
  EXPECT_EQ(follower->view().members.size(), 2u);
}

TEST_F(ViewFollowerTest, GapBurstSendsOneFetchAndAdoptsItsReply) {
  join();
  join();
  sim.run();
  watch();
  // Three joins inside one round trip: the follower, with no base,
  // hears epochs 3, 4 and 5 before the fetch the first gap sent returns.
  join();
  join();
  join();
  sim.run();
  EXPECT_EQ(fetches(), 1u);
  ASSERT_EQ(adoptions.size(), 1u);
  EXPECT_EQ(follower->view(), service->shard_view(kScope, 0));
  EXPECT_EQ(follower->view().epoch, 5u);
}

TEST_F(ViewFollowerTest, FailedFetchLeavesTheNextGapFreeToFetch) {
  join();
  join();
  sim.run();
  net.set_node_down(service_node, true);
  deliver(diff(2));
  sim.run();  // the fetch and its two retries time out
  EXPECT_EQ(comm->pending_requests(), 0u);
  EXPECT_TRUE(adoptions.empty());

  net.set_node_down(service_node, false);
  deliver(diff(2));
  sim.run();
  EXPECT_EQ(fetches(), 1u);
  ASSERT_EQ(adoptions.size(), 1u);
  EXPECT_EQ(follower->view(), service->shard_view(kScope, 0));

  // A forgotten fetch (the owner crashed) frees the slot at once.
  deliver(diff(5));
  follower->forget_fetch();
  deliver(diff(5));
  EXPECT_EQ(comm->pending_requests(), 2u);
  sim.run();
}

TEST_F(ViewFollowerTest, WithMembershipOffNothingIsFetched) {
  ViewFollower off(net::Address{}, kScope, 0, [](const View&, const View&) {});
  off.on_delta(diff(3), *comm);
  EXPECT_EQ(comm->pending_requests(), 0u);
  EXPECT_EQ(off.view().epoch, 0u);
}

TEST_F(ViewFollowerTest, OwnerReceivesThePreviousView) {
  watch();
  join();
  sim.run();
  join();
  sim.run();
  ASSERT_EQ(adoptions.size(), 2u);
  const auto& [first_previous, first] = adoptions[0];
  EXPECT_EQ(first_previous, (View{kScope, 0, 0, {}}));
  EXPECT_EQ(first.epoch, 1u);
  const auto& [second_previous, second] = adoptions[1];
  EXPECT_EQ(second_previous, first);
  EXPECT_EQ(second, follower->view());
}

}  // namespace
}  // namespace globe::membership
