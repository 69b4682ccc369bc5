// End-to-end tests of the replication engine: a primary store, caches,
// and clients exchanging real protocol messages over the simulated
// network. These cover the fundamental read/write paths before the
// model-specific suites.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "globe/coherence/checkers.hpp"
#include "globe/replication/testbed.hpp"
#include "oracle/checkers_naive.hpp"

namespace globe::replication {
namespace {

using coherence::ClientModel;
using core::ReplicationPolicy;

constexpr ObjectId kObj = 1;

ReplicationPolicy pram_immediate_push() {
  ReplicationPolicy p;  // defaults: PRAM, update, all, push, immediate
  p.instant = core::TransferInstant::kImmediate;
  return p;
}

TEST(EngineBasic, WriteThenReadAtPrimary) {
  Testbed bed;
  auto& primary = bed.add_primary(kObj, pram_immediate_push());
  auto& client = bed.add_client(kObj, ClientModel::kNone);

  std::optional<WriteResult> wrote;
  client.write("index.html", "<h1>hello</h1>",
               [&](WriteResult r) { wrote = std::move(r); });
  bed.settle();
  ASSERT_TRUE(wrote.has_value());
  EXPECT_TRUE(wrote->ok);
  EXPECT_EQ(wrote->wid.seq, 1u);
  EXPECT_EQ(wrote->store, primary.id());

  std::optional<ReadResult> read;
  client.read("index.html", [&](ReadResult r) { read = std::move(r); });
  bed.settle();
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(read->ok);
  EXPECT_EQ(read->content, "<h1>hello</h1>");
  EXPECT_EQ(read->writer, wrote->wid);
}

TEST(EngineBasic, ReadMissingPageFails) {
  Testbed bed;
  bed.add_primary(kObj, pram_immediate_push());
  auto& client = bed.add_client(kObj, ClientModel::kNone);

  std::optional<ReadResult> read;
  client.read("nope.html", [&](ReadResult r) { read = std::move(r); });
  bed.settle();
  ASSERT_TRUE(read.has_value());
  EXPECT_FALSE(read->ok);
  EXPECT_NE(read->error.find("not found"), std::string::npos);
}

TEST(EngineBasic, SeededContentVisibleEverywhere) {
  Testbed bed;
  auto& primary = bed.add_primary(kObj, pram_immediate_push());
  primary.seed("index.html", "seeded");
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                              pram_immediate_push());
  bed.settle();  // subscription snapshot transfer

  auto& client =
      bed.add_client(kObj, ClientModel::kNone, cache.address());
  std::optional<ReadResult> read;
  client.read("index.html", [&](ReadResult r) { read = std::move(r); });
  bed.settle();
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(read->ok);
  EXPECT_EQ(read->content, "seeded");
  EXPECT_EQ(read->store, cache.id());
}

TEST(EngineBasic, UpdatePropagatesToCache) {
  Testbed bed;
  bed.add_primary(kObj, pram_immediate_push());
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                              pram_immediate_push());
  bed.settle();

  // Writer writes via the primary; a reader bound to the cache should
  // see the new content after push propagation.
  auto& writer = bed.add_client(kObj, ClientModel::kNone);
  writer.write("p", "v1", [](WriteResult) {});
  bed.settle();

  auto& reader = bed.add_client(kObj, ClientModel::kNone, cache.address());
  std::optional<ReadResult> read;
  reader.read("p", [&](ReadResult r) { read = std::move(r); });
  bed.settle();
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(read->ok);
  EXPECT_EQ(read->content, "v1");
  EXPECT_TRUE(bed.converged(kObj));
}

TEST(EngineBasic, WriteViaCacheForwardsToPrimary) {
  Testbed bed;
  auto& primary = bed.add_primary(kObj, pram_immediate_push());
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                              pram_immediate_push());
  bed.settle();

  // Bind both reads AND writes to the cache: the cache must forward the
  // write to the primary transparently.
  auto& client = bed.add_client(kObj, ClientModel::kNone, cache.address(),
                                cache.address());
  std::optional<WriteResult> wrote;
  client.write("p", "forwarded", [&](WriteResult r) { wrote = std::move(r); });
  bed.settle();
  ASSERT_TRUE(wrote.has_value());
  EXPECT_TRUE(wrote->ok);
  EXPECT_EQ(wrote->store, primary.id());  // accepted at the primary
  EXPECT_EQ(primary.document().get("p")->content, "forwarded");
  EXPECT_TRUE(bed.converged(kObj));
}

TEST(EngineBasic, DeletePropagates) {
  Testbed bed;
  auto& primary = bed.add_primary(kObj, pram_immediate_push());
  primary.seed("p", "content");
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                              pram_immediate_push());
  bed.settle();

  auto& client = bed.add_client(kObj, ClientModel::kNone);
  client.remove("p", [](WriteResult) {});
  bed.settle();
  EXPECT_FALSE(primary.document().has("p"));
  EXPECT_FALSE(cache.document().has("p"));
  EXPECT_TRUE(bed.converged(kObj));
}

TEST(EngineBasic, GetDocumentReturnsAllPages) {
  Testbed bed;
  auto& primary = bed.add_primary(kObj, pram_immediate_push());
  primary.seed("a", "1");
  primary.seed("b", "2");
  auto& client = bed.add_client(kObj, ClientModel::kNone);

  std::optional<DocumentResult> doc;
  client.get_document([&](DocumentResult r) { doc = std::move(r); });
  bed.settle();
  ASSERT_TRUE(doc.has_value());
  EXPECT_TRUE(doc->ok);
  EXPECT_EQ(doc->document.page_count(), 2u);
  EXPECT_EQ(doc->document.get("a")->content, "1");
  EXPECT_EQ(doc->document.get("b")->content, "2");
}

TEST(EngineBasic, MultipleCachesAllConverge) {
  Testbed bed;
  bed.add_primary(kObj, pram_immediate_push());
  for (int i = 0; i < 5; ++i) {
    bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                  pram_immediate_push());
  }
  bed.settle();
  auto& writer = bed.add_client(kObj, ClientModel::kNone);
  for (int i = 0; i < 10; ++i) {
    writer.write("p" + std::to_string(i % 3), "v" + std::to_string(i),
                 [](WriteResult) {});
  }
  bed.settle();
  EXPECT_TRUE(bed.converged(kObj));
  auto check = coherence::check_pram(bed.history());
  EXPECT_TRUE(check.ok) << check.summary();
}

TEST(EngineBasic, MirrorChainPropagates) {
  // primary -> mirror (object-initiated) -> cache (client-initiated)
  Testbed bed;
  bed.add_primary(kObj, pram_immediate_push());
  auto& mirror = bed.add_store(kObj, naming::StoreClass::kObjectInitiated,
                               pram_immediate_push());
  bed.settle();
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                              pram_immediate_push(), mirror.address());
  bed.settle();

  auto& writer = bed.add_client(kObj, ClientModel::kNone);
  writer.write("p", "chained", [](WriteResult) {});
  bed.settle();
  EXPECT_EQ(mirror.document().get("p")->content, "chained");
  EXPECT_EQ(cache.document().get("p")->content, "chained");
}

TEST(EngineBasic, IncrementalWritesArriveInOrder) {
  Testbed bed;
  bed.add_primary(kObj, pram_immediate_push());
  auto& cache = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                              pram_immediate_push());
  bed.settle();

  auto& writer = bed.add_client(kObj, ClientModel::kNone);
  for (int i = 1; i <= 20; ++i) {
    writer.write("page", "v" + std::to_string(i), [](WriteResult) {});
  }
  bed.settle();
  EXPECT_EQ(cache.document().get("page")->content, "v20");
  auto check = coherence::check_pram(bed.history());
  EXPECT_TRUE(check.ok) << check.summary();
}

TEST(EngineBasic, HistoryRecordsClientOps) {
  Testbed bed;
  bed.add_primary(kObj, pram_immediate_push());
  auto& client = bed.add_client(kObj, ClientModel::kNone);
  client.write("p", "v", [](WriteResult) {});
  bed.settle();
  client.read("p", [](ReadResult) {});
  bed.settle();

  EXPECT_EQ(bed.history().writes().size(), 1u);
  EXPECT_EQ(bed.history().reads().size(), 1u);
  EXPECT_GE(bed.history().applies().size(), 1u);
  const auto ops = coherence::naive::client_ops(bed.history(), client.id());
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_TRUE(ops[0].is_write);
  EXPECT_FALSE(ops[1].is_write);
}

TEST(EngineBasic, TrafficIsAccounted) {
  Testbed bed;
  bed.add_primary(kObj, pram_immediate_push());
  auto& client = bed.add_client(kObj, ClientModel::kNone);
  client.write("p", "v", [](WriteResult) {});
  bed.settle();
  EXPECT_GT(bed.metrics().total_traffic().messages, 0u);
  EXPECT_GT(bed.metrics().total_traffic().bytes, 0u);
  EXPECT_GT(bed.net().stats().messages_delivered, 0u);
}

TEST(EngineBasic, ReadLatencyReflectsNetworkDistance) {
  TestbedOptions opts;
  opts.wan.base_latency = sim::SimDuration::millis(40);
  Testbed bed(opts);
  auto& primary = bed.add_primary(kObj, pram_immediate_push());
  primary.seed("p", "v");
  auto& client = bed.add_client(kObj, ClientModel::kNone);

  std::optional<ReadResult> read;
  client.read("p", [&](ReadResult r) { read = std::move(r); });
  bed.settle();
  ASSERT_TRUE(read.has_value());
  // One round trip: 2 x 40ms.
  EXPECT_EQ(read->latency().count_micros(), 80'000);
}

}  // namespace
}  // namespace globe::replication
