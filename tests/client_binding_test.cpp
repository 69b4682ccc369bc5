// Unit-level tests of the client local object's session filter: what
// requirements and dependencies it attaches, and how its session state
// evolves — verified by observing actual protocol behaviour.
#include <gtest/gtest.h>

#include <optional>

#include "globe/coherence/checkers.hpp"
#include "globe/replication/testbed.hpp"

namespace globe::replication {
namespace {

using coherence::ClientModel;
using coherence::ObjectModel;
using core::ReplicationPolicy;

constexpr ObjectId kObj = 1;

ReplicationPolicy pram() {
  ReplicationPolicy p;
  p.instant = core::TransferInstant::kImmediate;
  return p;
}

TEST(ClientBinding, WriteIdsAreSequentialPerClient) {
  Testbed bed;
  bed.add_primary(kObj, pram());
  auto& c = bed.add_client(kObj, ClientModel::kNone);
  std::vector<std::uint64_t> seqs;
  for (int i = 0; i < 4; ++i) {
    c.write("p", "v", [&](WriteResult r) { seqs.push_back(r.wid.seq); });
  }
  bed.settle();
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(c.writes_issued(), 4u);
}

TEST(ClientBinding, DistinctClientsGetDistinctIds) {
  Testbed bed;
  bed.add_primary(kObj, pram());
  auto& a = bed.add_client(kObj, ClientModel::kNone);
  auto& b = bed.add_client(kObj, ClientModel::kNone);
  EXPECT_NE(a.id(), b.id());
}

TEST(ClientBinding, ReadSetGrowsWithObservedClocks) {
  Testbed bed;
  auto& primary = bed.add_primary(kObj, pram());
  primary.seed("p", "v");
  auto& writer = bed.add_client(kObj, ClientModel::kNone);
  auto& reader = bed.add_client(kObj, ClientModel::kNone);
  writer.write("p", "v1", [](WriteResult) {});
  bed.settle();

  EXPECT_TRUE(reader.read_set().empty());
  reader.read("p", [](ReadResult) {});
  bed.settle();
  EXPECT_TRUE(reader.read_set().covers({writer.id(), 1}));
}

TEST(ClientBinding, OwnWritesFoldedIntoReadSet) {
  Testbed bed;
  bed.add_primary(kObj, pram());
  auto& c = bed.add_client(kObj, ClientModel::kNone);
  c.write("p", "v", [](WriteResult) {});
  bed.settle();
  EXPECT_TRUE(c.read_set().covers({c.id(), 1}));
}

/// The clock the primary applied the client's one write with.
const coherence::VectorClock& applied_write_deps(Testbed& bed,
                                                 ClientBinding& c) {
  const coherence::History& h = bed.history();
  for (const coherence::ApplyEvent& a : h.applies()) {
    if (a.wid.client == c.id()) return h.clock(a.deps);
  }
  ADD_FAILURE() << "no apply of client " << c.id() << "'s write";
  return h.clock(coherence::kEmptyClock);
}

TEST(ClientBinding, CausalWritesCarryContextDeps) {
  // Under the causal object model, a write's dependency clock covers
  // everything the client has read and written; verified via the clock
  // the store applied it with.
  ReplicationPolicy p;
  p.model = ObjectModel::kCausal;
  p.write_set = core::WriteSet::kMultiple;
  p.instant = core::TransferInstant::kImmediate;

  Testbed bed;
  auto& primary = bed.add_primary(kObj, p);
  primary.seed("article", "text");
  auto& c = bed.add_client(kObj, ClientModel::kNone);
  c.read("article", [](ReadResult) {});
  bed.settle();
  c.write("reply", "re", [](WriteResult) {});
  bed.settle();

  ASSERT_EQ(bed.history().writes().size(), 1u);
  EXPECT_TRUE(applied_write_deps(bed, c).covers({0, 1}));  // the seed it read
}

TEST(ClientBinding, PlainPramWritesCarryNoDeps) {
  Testbed bed;
  auto& primary = bed.add_primary(kObj, pram());
  primary.seed("article", "text");
  auto& c = bed.add_client(kObj, ClientModel::kNone);
  c.read("article", [](ReadResult) {});
  bed.settle();
  c.write("reply", "re", [](WriteResult) {});
  bed.settle();
  ASSERT_EQ(bed.history().writes().size(), 1u);
  EXPECT_TRUE(applied_write_deps(bed, c).empty());
}

TEST(ClientBinding, SequentialReadDeferredBehindPendingWrite) {
  // Issue a write and a read back-to-back without waiting: under the
  // sequential model the read completes only after the write ack, and
  // observes the write.
  ReplicationPolicy p;
  p.model = ObjectModel::kSequential;
  p.instant = core::TransferInstant::kImmediate;

  Testbed bed;
  bed.add_primary(kObj, p);
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated, p);
  bed.settle();
  auto& c = bed.add_client(kObj, ClientModel::kNone, cache.address());

  std::vector<std::string> completion_order;
  c.write("p", "mine", [&](WriteResult) {
    completion_order.push_back("write");
  });
  c.read("p", [&](ReadResult r) {
    completion_order.push_back("read");
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.content, "mine");
  });
  bed.settle();
  EXPECT_EQ(completion_order,
            (std::vector<std::string>{"write", "read"}));
  EXPECT_TRUE(coherence::check_sequential(bed.history()).ok);
}

TEST(ClientBinding, PramReadsAreNotDeferred) {
  // Under PRAM there is no read barrier: the read may be served from
  // the (stale) cache concurrently with the in-flight write.
  Testbed bed;
  auto& primary = bed.add_primary(kObj, pram());
  primary.seed("p", "old");
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                              pram());
  bed.settle();
  auto& c = bed.add_client(kObj, ClientModel::kNone, cache.address());
  // Put the client near its cache and far from the primary.
  sim::LinkSpec metro;
  metro.base_latency = sim::SimDuration::millis(2);
  bed.net().set_link(c.address().node, cache.address().node, metro);

  std::vector<std::string> completion_order;
  c.write("p", "new", [&](WriteResult) {
    completion_order.push_back("write");
  });
  c.read("p", [&](ReadResult) { completion_order.push_back("read"); });
  bed.settle();
  // The cache is 2ms away; the write crosses the 20ms WAN to the
  // primary and back — the read finishes first (no read barrier).
  EXPECT_EQ(completion_order,
            (std::vector<std::string>{"read", "write"}));
}

TEST(ClientBinding, RywRequirementSkippedWhenModelSubsumes) {
  // Sequential subsumes RYW; the client should not attach (or demand)
  // anything extra. We verify no session demands are recorded.
  ReplicationPolicy p;
  p.model = ObjectModel::kSequential;
  p.instant = core::TransferInstant::kImmediate;

  Testbed bed;
  bed.add_primary(kObj, p);
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated, p);
  bed.settle();
  auto& c = bed.add_client(kObj, ClientModel::kReadYourWrites,
                           cache.address());
  c.write("p", "v", [](WriteResult) {});
  bed.settle();
  c.read("p", [](ReadResult r) { EXPECT_EQ(r.content, "v"); });
  bed.settle();
  const auto res = coherence::check_read_your_writes(bed.history(), c.id());
  EXPECT_TRUE(res.ok) << res.summary();
}

TEST(ClientBinding, GetDocumentMergesClockIntoReadSet) {
  Testbed bed;
  auto& primary = bed.add_primary(kObj, pram());
  primary.seed("a", "1");
  auto& writer = bed.add_client(kObj, ClientModel::kNone);
  writer.write("b", "2", [](WriteResult) {});
  bed.settle();

  auto& reader = bed.add_client(kObj, ClientModel::kNone);
  reader.get_document([](DocumentResult r) {
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.document.page_count(), 2u);
  });
  bed.settle();
  EXPECT_TRUE(reader.read_set().covers({writer.id(), 1}));
}

}  // namespace
}  // namespace globe::replication
