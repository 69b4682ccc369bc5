// Tests for the binding flow: name resolution, contact selection by
// store layer, and end-to-end operation through a Binder-produced local
// object.
#include <gtest/gtest.h>

#include <optional>

#include "globe/replication/binder.hpp"
#include "globe/replication/testbed.hpp"

namespace globe::replication {
namespace {

using coherence::ClientModel;
using core::ReplicationPolicy;

constexpr ObjectId kObj = 1;

ReplicationPolicy immediate_pram() {
  ReplicationPolicy p;
  p.instant = core::TransferInstant::kImmediate;
  return p;
}

naming::ContactPoint contact(naming::StoreClass cls, NodeId node,
                             bool primary = false) {
  naming::ContactPoint c;
  c.address = {node, 1};
  c.store_class = cls;
  c.store_id = node;
  c.is_primary = primary;
  return c;
}

TEST(ContactSelection, PrefersRequestedLayerThenFallsBack) {
  const std::vector<naming::ContactPoint> contacts = {
      contact(naming::StoreClass::kPermanent, 1, true),
      contact(naming::StoreClass::kObjectInitiated, 2),
      contact(naming::StoreClass::kClientInitiated, 3),
  };
  const auto* cache = naming::choose_read_contact(
      contacts, naming::StoreClass::kClientInitiated);
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->address.node, 3u);

  const auto* mirror = naming::choose_read_contact(
      contacts, naming::StoreClass::kObjectInitiated);
  EXPECT_EQ(mirror->address.node, 2u);

  // Without caches, a cache-preferring client falls back to the mirror.
  const std::vector<naming::ContactPoint> no_cache = {
      contact(naming::StoreClass::kPermanent, 1, true),
      contact(naming::StoreClass::kObjectInitiated, 2),
  };
  const auto* fallback = naming::choose_read_contact(
      no_cache, naming::StoreClass::kClientInitiated);
  EXPECT_EQ(fallback->address.node, 2u);
}

TEST(ContactSelection, WritesGoToPrimaryForSingleMasterModels) {
  const std::vector<naming::ContactPoint> contacts = {
      contact(naming::StoreClass::kClientInitiated, 3),
      contact(naming::StoreClass::kPermanent, 1, true),
  };
  const auto* read = naming::choose_read_contact(
      contacts, naming::StoreClass::kClientInitiated);
  const auto* write = naming::choose_write_contact(
      contacts, coherence::multi_master(coherence::ObjectModel::kPram), read);
  ASSERT_NE(write, nullptr);
  EXPECT_TRUE(write->is_primary);

  const auto* local = naming::choose_write_contact(
      contacts, coherence::multi_master(coherence::ObjectModel::kEventual),
      read);
  EXPECT_EQ(local, read);  // multi-master: write where you read
}

TEST(BinderTest, ResolvesAndBindsEndToEnd) {
  Testbed bed;
  auto& server = bed.add_primary(kObj, immediate_pram());
  server.seed("index.html", "bound!");
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                              immediate_pram());
  bed.settle();
  bed.publish(kObj, "www.conference.org");

  const NodeId client_node = bed.add_node("browser");
  Binder binder(bed.factory(client_node), bed.sim(),
                bed.naming().address());

  std::unique_ptr<ClientBinding> binding;
  BindRequest req;
  req.client = 42;
  binder.bind("www.conference.org", req,
              [&](bool ok, std::unique_ptr<ClientBinding> b) {
                ASSERT_TRUE(ok);
                binding = std::move(b);
              });
  bed.settle();
  ASSERT_NE(binding, nullptr);

  // Reads are served by the cache contact, not the server.
  std::optional<ReadResult> read;
  binding->read("index.html", [&](ReadResult r) { read = std::move(r); });
  bed.settle();
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(read->ok);
  EXPECT_EQ(read->content, "bound!");
  EXPECT_EQ(read->store, cache.id());

  // Writes are routed to the primary.
  std::optional<WriteResult> wrote;
  binding->write("index.html", "updated",
                 [&](WriteResult r) { wrote = std::move(r); });
  bed.settle();
  ASSERT_TRUE(wrote.has_value());
  EXPECT_TRUE(wrote->ok);
  EXPECT_EQ(wrote->store, server.id());
}

TEST(BinderTest, UnknownNameFails) {
  Testbed bed;
  bed.add_primary(kObj, immediate_pram());
  const NodeId client_node = bed.add_node("browser");
  Binder binder(bed.factory(client_node), bed.sim(),
                bed.naming().address());

  std::optional<bool> outcome;
  binder.bind("no.such.site", {},
              [&](bool ok, std::unique_ptr<ClientBinding> b) {
                outcome = ok;
                EXPECT_EQ(b, nullptr);
              });
  bed.settle();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(*outcome);
}

TEST(BinderTest, NameWithoutContactsFails) {
  Testbed bed;
  bed.add_primary(kObj, immediate_pram());
  bed.naming().register_name("ghost", 999);  // no contacts for object 999
  const NodeId client_node = bed.add_node("browser");
  Binder binder(bed.factory(client_node), bed.sim(),
                bed.naming().address());

  std::optional<bool> outcome;
  binder.bind("ghost", {},
              [&](bool ok, std::unique_ptr<ClientBinding>) { outcome = ok; });
  bed.settle();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(*outcome);
}

TEST(BinderTest, SessionModelsCarryThroughBinding) {
  auto policy = ReplicationPolicy::conference_example();
  policy.lazy_period = sim::SimDuration::seconds(10);

  Testbed bed;
  auto& server = bed.add_primary(kObj, policy);
  server.seed("p", "old");
  bed.add_store(kObj, naming::StoreClass::kClientInitiated, policy);
  bed.settle();
  bed.publish(kObj, "site");

  const NodeId client_node = bed.add_node("master");
  Binder binder(bed.factory(client_node), bed.sim(),
                bed.naming().address());
  BindRequest req;
  req.client = 7;
  req.session = ClientModel::kReadYourWrites;

  std::unique_ptr<ClientBinding> master;
  binder.bind("site", req, [&](bool ok, std::unique_ptr<ClientBinding> b) {
    ASSERT_TRUE(ok);
    master = std::move(b);
  });
  bed.settle();
  ASSERT_NE(master, nullptr);

  master->write("p", "new", [](WriteResult) {});
  bed.run_for(sim::SimDuration::millis(200));
  std::optional<ReadResult> read;
  master->read("p", [&](ReadResult r) { read = std::move(r); });
  bed.run_for(sim::SimDuration::seconds(2));
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->content, "new");  // RYW held through the bound cache
}

}  // namespace
}  // namespace globe::replication
