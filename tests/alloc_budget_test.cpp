// Allocation budgets of the store receive path and of per-object state.
//
// A causal multi-master tree — a primary, one mirror and six leaf
// caches — takes client writes at the primary and at the mirror. Every
// record reaches each leaf as one pushed update. The test counts every
// heap allocation the process makes while a measured batch of writes
// propagates (simulator, network, comm, store engines and clients alike)
// and divides by the records the leaf caches apply. A leaf's only push
// target is the upstream its records came from, so applying one should
// cost decode, log and document state, not an encode for nobody. It
// counts twice: with no History, for the replication path alone, and
// with the History recording every event.
//
// A sharded store hosts many objects and a client talks to many, so
// what one hosted object and one client session cost bounds how many a
// process can serve. One shard (a primary and a secondary) places
// one-page objects, seeds and settles them, and a placed client then
// reads each object once; the allocations of each phase are divided by
// the objects.
//
// The counting operator new below is this binary's own: replacing the
// global allocation functions affects the whole program it links into.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "globe/replication/testbed.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_alloc_or_throw(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every non-aligned form is replaced, so each allocation and its release
// pair up through malloc/free even where a sanitizer runtime supplies its
// own operators.
void* operator new(std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new[](std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace globe::replication {
namespace {

constexpr ObjectId kObj = 1;
constexpr int kLeaves = 6;
constexpr int kPlacedObjects = 500;

/// Allocations per record applied at the leaf caches may not exceed
/// this. A tree whose leaves encode a batch for the upstream their
/// records came from, and copy each record into a list nobody reads,
/// pays 40.4; one whose leaves only decode, apply and log pays 16.2.
/// Leaves also fold each record once their upstream's frontier covers
/// it: 16.1 when an emptied log index keeps its storage (checked and
/// unchecked builds alike), 20.1 when the fold frees it and the next
/// record re-creates it. 15.6 once a client no longer copies each
/// write's dependency clock for a History field nothing read, and
/// still 15.6 with the per-page tables indexed by page id. 14.8 once a
/// client request carries its invocation inline instead of encoding it
/// into a buffer of its own first.
constexpr double kAllocsPerLeafRecord = 15.5;

/// The same budget with the History recording every event, as a Testbed
/// does by default and bench/e2e's fanout and churn workloads do. Each
/// leaf apply then also records one apply event: 17.6 when every event
/// held its own copy of the record's dependency clock, 16.1 when the
/// History interns the clock and keeps the events in deques, 15.3 with
/// invocations written inline.
constexpr double kAllocsPerLeafRecordWhileRecording = 16.0;

struct Tree {
  Testbed bed;
  StoreEngine* primary = nullptr;
  StoreEngine* mirror = nullptr;
  std::vector<StoreEngine*> leaves;
  ClientBinding* at_primary = nullptr;
  ClientBinding* at_mirror = nullptr;

  explicit Tree(bool record_history) : bed(options(record_history)) {
    core::ReplicationPolicy p;
    p.model = coherence::ObjectModel::kCausal;
    p.write_set = core::WriteSet::kMultiple;
    p.initiative = core::TransferInitiative::kPush;
    primary = &bed.add_primary(kObj, p);
    mirror = &bed.add_store(kObj, naming::StoreClass::kObjectInitiated, p);
    for (int i = 0; i < kLeaves; ++i) {
      leaves.push_back(&bed.add_store(
          kObj, naming::StoreClass::kClientInitiated, p, mirror->address()));
    }
    bed.settle();
    at_primary = &bed.add_client(kObj, coherence::ClientModel::kNone,
                                 primary->address(), primary->address());
    at_mirror = &bed.add_client(kObj, coherence::ClientModel::kNone,
                                mirror->address(), mirror->address());
  }

  static TestbedOptions options(bool record_history) {
    TestbedOptions o;
    o.record_history = record_history;
    return o;
  }

  /// Issues `count` writes from each client, spaced so each propagates
  /// on its own, and lets the tree settle.
  void write(int count, int round) {
    for (int i = 0; i < count; ++i) {
      const std::string page = "page" + std::to_string(i % 8) + ".html";
      const std::string body(200, static_cast<char>('a' + (round + i) % 26));
      at_primary->write(page, body, [](WriteResult) {});
      at_mirror->write(page, body, [](WriteResult) {});
      bed.run_for(sim::SimDuration::millis(20));
    }
    bed.settle();
  }

  [[nodiscard]] std::uint64_t leaf_records() const {
    std::uint64_t n = 0;
    for (const StoreEngine* leaf : leaves) n += leaf->writes_applied();
    return n;
  }
};

/// Allocations per record the leaf caches apply while a measured batch
/// of writes propagates, after a warm-up batch.
double allocs_per_leaf_record(bool record_history) {
  Tree tree(record_history);
  tree.write(40, 0);  // warm-up: containers and caches reach steady size

  const std::uint64_t records_before = tree.leaf_records();
  const std::uint64_t allocs_before = g_allocs.load();
  tree.write(200, 1);
  const std::uint64_t allocs = g_allocs.load() - allocs_before;
  const std::uint64_t records = tree.leaf_records() - records_before;

  // Every write reached every leaf, so the denominator is the workload.
  EXPECT_EQ(records, std::uint64_t{2 * 200 * kLeaves});
  return static_cast<double>(allocs) / static_cast<double>(records);
}

TEST(AllocBudget, LeafCachesApplyRecordsWithinBudget) {
  const double per_record = allocs_per_leaf_record(false);
  std::printf("allocations per leaf-applied record: %.2f (budget %.1f)\n",
              per_record, kAllocsPerLeafRecord);
  EXPECT_LE(per_record, kAllocsPerLeafRecord);
}

TEST(AllocBudget, LeafCachesApplyRecordsWithinBudgetWhileRecording) {
  const double per_record = allocs_per_leaf_record(true);
  std::printf(
      "allocations per leaf-applied record, recording: %.2f (budget %.1f)\n",
      per_record, kAllocsPerLeafRecordWhileRecording);
  EXPECT_LE(per_record, kAllocsPerLeafRecordWhileRecording);
}

/// Placing, seeding and settling one one-page object on a primary and a
/// secondary, and a placed client's first read of it, which opens the
/// object's session, may allocate no more than these. A checked build's
/// invariant monitors keep state per object and per session. Placing
/// costs 52.1 (checked) and 41.1 (unchecked) when a replica keeps its
/// document pages, page stamps, log postings and per-client log index
/// in maps keyed by name or client, and 50.1 and 39.1 with slots indexed
/// by a page id and a sorted vector. A session costs 40.0 and 38.0 when
/// its two op queues are deques, which allocate a map and a block each
/// from birth, and 36.0 and 34.0 with vectors, which allocate nothing
/// until an op queues; 29.0 and 27.0 once requests write their
/// invocation inline.
#if GLOBE_CHECKED
constexpr double kAllocsPerPlacedObject = 51.0;
constexpr double kAllocsPerSession = 30.5;
#else
constexpr double kAllocsPerPlacedObject = 40.0;
constexpr double kAllocsPerSession = 28.5;
#endif

struct PerObject {
  double per_object = 0;
  double per_session = 0;
};

PerObject allocs_per_placed_object() {
  TestbedOptions opts;
  opts.shards = 1;
  // Placed clients keep per-object write sequences; a shared History
  // would conflate them.
  opts.record_history = false;
  Testbed bed(opts);
  core::ReplicationPolicy p;  // PRAM, push, immediate, partial
  p.object_outdate_reaction = core::OutdateReaction::kDemand;
  bed.add_shard_store(0, naming::StoreClass::kPermanent, p, /*primary=*/true);
  bed.add_shard_store(0, naming::StoreClass::kObjectInitiated, p);
  ClientBinding& client = bed.add_placed_client(
      coherence::ClientModel::kReadYourWrites, coherence::ObjectModel::kPram);
  bed.settle();
  std::vector<ObjectId> objects;
  for (ObjectId id = 1; id <= kPlacedObjects; ++id) objects.push_back(id);
  const std::string body(128, 'x');

  PerObject out;
  std::uint64_t before = g_allocs.load();
  bed.place_objects(objects);
  for (const ObjectId id : objects) bed.primary(id).seed(id, "page0.html", body);
  bed.settle();
  out.per_object = static_cast<double>(g_allocs.load() - before) /
                   kPlacedObjects;

  int served = 0;
  before = g_allocs.load();
  for (const ObjectId id : objects) {
    client.read(id, "page0.html", [&served](ReadResult r) { served += r.ok; });
  }
  bed.settle();
  out.per_session = static_cast<double>(g_allocs.load() - before) /
                    kPlacedObjects;
  EXPECT_EQ(served, kPlacedObjects);
  return out;
}

TEST(AllocBudget, PlacedObjectsAndSessionsWithinBudget) {
  const PerObject got = allocs_per_placed_object();
  std::printf("allocations per placed object: %.2f (budget %.1f)\n",
              got.per_object, kAllocsPerPlacedObject);
  std::printf("allocations per client session: %.2f (budget %.1f)\n",
              got.per_session, kAllocsPerSession);
  EXPECT_LE(got.per_object, kAllocsPerPlacedObject);
  EXPECT_LE(got.per_session, kAllocsPerSession);
}

}  // namespace
}  // namespace globe::replication
