// Golden digests for the propagation fan-out. Records are encoded once
// into shared RecordBatches and every identical fan-out message travels
// as one shared wire datagram; the seed encoded a private copy per
// subscriber and per destination. Both disciplines delivered the same
// bytes, so each scenario is pinned to constants generated while both
// still existed: the FNV digest of every delivered datagram
// (Network::wire_digest, enabled right after Testbed construction) and
// an FNV over every store's state digest (retained log + document +
// applied clock). Any change to what travels or what replicas end up
// holding trips these. The two full-transfer scenarios were frozen on the
// last tree with separate full-state bodies (the kSnapshot push and the
// full FetchReply). When those became StateTransfer, their wire constants
// and the invalidate scenario's (FetchRequest/FetchReply) were re-frozen;
// every state constant held.
//
// The state digest includes each store's retained log, which holds only
// what some replica may still read from it. A third constant pins the
// replicated state alone: every store's document, applied gseq and
// applied clock, with no log. It was frozen before stores with no
// subscriber began folding what their upstream holds; that change
// re-froze the state constants of the three scenarios whose leaves learn
// records from updates (both push fan-outs and the multi-master chain),
// while every wire and replicated-state constant held.
//
// All three constants hash encodings, so when every protocol integer
// became a varint all eighteen were re-frozen, after a value-level dump
// of every store in every scenario (pages with contents and writers,
// applied clocks and gseqs, retained log WiDs) and the message counts
// read the same under both encodings.
//
// The two membership scenarios pin view changes, evictions, re-parenting,
// a rejoin and a leave, plain and on a windowed transport whose
// flow-control deadline drops a subscriber. They read the counters that
// show the script reached each of those paths. A third pins a mirror that
// rejoins after a partition still listing the caches that re-parented
// away from it, until they tell it to drop them.
//
// FullAccessReads pins client reads under the default policy, whose
// access transfer is full, with a fourth digest over every ReadResult
// the clients receive.
//
// Client traffic came to carry each byte once: a full-access read's page
// travels only inside the document, a request carries only its kind's
// fields, and requests, replies and subscribes lost the fields no
// receiver read. Every wire constant was re-frozen across those steps,
// FullAccessReads' first (it was frozen just before them); every state,
// replicated and read constant held.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "globe/replication/testbed.hpp"
#include "globe/web/record_batch.hpp"

namespace globe::replication {
namespace {

using coherence::ClientModel;
using core::ReplicationPolicy;

constexpr ObjectId kObj = 1;
constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

std::uint64_t fnv1a(std::uint64_t h, util::BytesView bytes) {
  for (const auto byte : bytes) {
    h ^= static_cast<std::uint8_t>(byte);
    h *= 1099511628211ull;
  }
  return h;
}

struct Golden {
  std::uint64_t wire;
  std::uint64_t state;
  std::uint64_t replicated;
};

// What a store replicates, without the log kept to serve other replicas.
util::Buffer replicated_state(const StoreEngine& s) {
  util::Writer w;
  w.bytes(util::BytesView(s.document().encode_snapshot()));
  w.varint(s.applied_gseq());
  s.applied_clock().encode(w);
  return w.take();
}

using Scenario = std::function<void(Testbed& bed)>;

TestbedOptions golden_options() {
  TestbedOptions opts;
  opts.seed = 7;
  opts.record_history = false;
  opts.wan.base_latency = sim::SimDuration::millis(5);
  return opts;
}

void expect_golden(const Scenario& scenario, Golden golden,
                   const TestbedOptions& opts = golden_options()) {
  Testbed bed(opts);
  bed.net().enable_wire_digest(true);
  scenario(bed);
  EXPECT_TRUE(bed.converged(kObj));
  std::uint64_t state = kFnvBasis;
  std::uint64_t replicated = state;
  for (const auto& s : bed.stores()) {
    state = fnv1a(state, util::BytesView(store_state_digest(*s)));
    replicated = fnv1a(replicated, util::BytesView(replicated_state(*s)));
  }
  EXPECT_EQ(bed.net().wire_digest(), golden.wire);
  EXPECT_EQ(state, golden.state);
  EXPECT_EQ(replicated, golden.replicated);
}

void seed_writes(StoreEngine& primary, Testbed& bed, int count) {
  for (int i = 0; i < count; ++i) {
    primary.seed("page" + std::to_string(i % 5) + ".html",
                 "v" + std::to_string(i));
    bed.run_for(sim::SimDuration::millis(2));
  }
  bed.settle();
}

TEST(FanoutGolden, ImmediatePushFanout) {
  expect_golden([](Testbed& bed) {
    ReplicationPolicy p;  // PRAM, push, immediate, partial
    auto& primary = bed.add_primary(kObj, p);
    for (int s = 0; s < 8; ++s) {
      bed.add_store(kObj, naming::StoreClass::kObjectInitiated, p);
    }
    bed.settle();
    seed_writes(primary, bed, 40);
  }, {0xf309bab9dd433febull, 0x6a3100b345283314ull,
     0x0651112f1d63effbull});
}

TEST(FanoutGolden, LazyPushSharesQueuedSegments) {
  expect_golden([](Testbed& bed) {
    ReplicationPolicy p;
    p.instant = core::TransferInstant::kLazy;
    p.lazy_period = sim::SimDuration::millis(20);
    auto& primary = bed.add_primary(kObj, p);
    for (int s = 0; s < 8; ++s) {
      bed.add_store(kObj, naming::StoreClass::kObjectInitiated, p);
    }
    bed.settle();
    seed_writes(primary, bed, 40);
  }, {0x0d0cfc1e74ba5a83ull, 0x6a3100b345283314ull,
     0x0651112f1d63effbull});
}

TEST(FanoutGolden, InvalidatePropagation) {
  expect_golden([](Testbed& bed) {
    ReplicationPolicy p;
    p.propagation = core::Propagation::kInvalidate;
    p.object_outdate_reaction = core::OutdateReaction::kDemand;
    auto& primary = bed.add_primary(kObj, p);
    for (int s = 0; s < 4; ++s) {
      bed.add_store(kObj, naming::StoreClass::kObjectInitiated, p);
    }
    bed.settle();
    seed_writes(primary, bed, 20);
  }, {0x67d14039ab4f827bull, 0x982e3b8065d1c088ull,
     0x96679a7641b5f549ull});
}

TEST(FanoutGolden, FullPushImmediate) {
  // Full coherence transfer pushed immediately: every write ships the
  // whole document. The leaf under the first mirror receives it as the
  // mirror's single-destination forward of an adopted state.
  expect_golden([](Testbed& bed) {
    ReplicationPolicy p;
    p.coherence_transfer = core::CoherenceTransfer::kFull;
    auto& primary = bed.add_primary(kObj, p);
    auto& mirror =
        bed.add_store(kObj, naming::StoreClass::kObjectInitiated, p);
    for (int s = 0; s < 2; ++s) {
      bed.add_store(kObj, naming::StoreClass::kObjectInitiated, p);
    }
    bed.settle();
    bed.add_store(kObj, naming::StoreClass::kClientInitiated, p,
                  mirror.address());
    bed.settle();
    seed_writes(primary, bed, 20);
  }, {0x9a3407ee438e63a1ull, 0x317e7fcb13d89949ull,
     0x9c2ca2d82d61abf4ull});
}

TEST(FanoutGolden, FullPullPoll) {
  // Full coherence transfer pulled: every poll is a want_full fetch
  // answered with the whole document.
  expect_golden([](Testbed& bed) {
    ReplicationPolicy p;
    p.initiative = core::TransferInitiative::kPull;
    p.coherence_transfer = core::CoherenceTransfer::kFull;
    p.lazy_period = sim::SimDuration::millis(20);
    auto& primary = bed.add_primary(kObj, p);
    for (int s = 0; s < 4; ++s) {
      bed.add_store(kObj, naming::StoreClass::kObjectInitiated, p);
    }
    bed.settle();
    seed_writes(primary, bed, 20);
  }, {0x90bbffc7c67def33ull, 0x14bce5c86353cb5aull,
     0x8568823909a28361ull});
}

TEST(FanoutGolden, MultiMasterReflectionExclusion) {
  // Multi-master chain: client writes enter at different stores, so
  // records propagate both downstream and upstream and the per-record
  // origin exclusion (never reflect a record back to its sender) is
  // exercised with mixed-origin batches.
  expect_golden([](Testbed& bed) {
    ReplicationPolicy p;
    p.model = coherence::ObjectModel::kEventual;
    p.write_set = core::WriteSet::kMultiple;
    p.initiative = core::TransferInitiative::kPush;
    auto& primary = bed.add_primary(kObj, p);
    auto& mirror =
        bed.add_store(kObj, naming::StoreClass::kObjectInitiated, p);
    auto& leaf = bed.add_store(kObj, naming::StoreClass::kClientInitiated, p,
                               mirror.address());
    bed.settle();

    auto& wa = bed.add_client(kObj, ClientModel::kNone, primary.address(),
                              primary.address());
    auto& wb = bed.add_client(kObj, ClientModel::kNone, leaf.address(),
                              leaf.address());
    for (int i = 0; i < 15; ++i) {
      wa.write("shared" + std::to_string(i % 3), "a" + std::to_string(i),
               [](WriteResult) {});
      wb.write("shared" + std::to_string(i % 3), "b" + std::to_string(i),
               [](WriteResult) {});
      bed.run_for(sim::SimDuration::millis(15));
    }
    bed.settle();
  }, {0x860347ac6841df28ull, 0x3c0eae4a5f306472ull,
     0xd04733b586ba3afcull});
}

// Access transfer full, the policy default: a page read's reply carries
// the whole document. Clients on two caches read while a writer on the
// primary puts pages and deletes one (which is written again), then read
// every page, one deleted for good and one never written.
TEST(FanoutGolden, FullAccessReads) {
  std::uint64_t reads = kFnvBasis;
  int answered = 0;
  int not_found = 0;
  const auto record = [&](const ReadResult& r) {
    ++answered;
    if (r.error.starts_with("page not found: ")) ++not_found;
    util::Writer w;
    w.boolean(r.ok);
    w.str(r.error);
    w.str(r.content);
    w.str(r.mime);
    r.writer.encode(w);
    w.varint(r.store);
    w.varint(r.store_global_seq);
    r.store_clock.encode(w);
    reads = fnv1a(reads, w.view());
  };
  expect_golden([&record](Testbed& bed) {
    ReplicationPolicy p;
    auto& primary = bed.add_primary(kObj, p);
    std::vector<net::Address> caches;
    for (int c = 0; c < 2; ++c) {
      caches.push_back(
          bed.add_store(kObj, naming::StoreClass::kClientInitiated, p)
              .address());
    }
    bed.settle();

    auto& writer =
        bed.add_client(kObj, ClientModel::kWritesFollowReads,
                       primary.address(), primary.address());
    std::vector<ClientBinding*> readers;
    readers.push_back(&bed.add_client(kObj, ClientModel::kMonotonicReads,
                                      caches[0], primary.address()));
    readers.push_back(&bed.add_client(
        kObj, ClientModel::kReadYourWrites | ClientModel::kMonotonicReads,
        caches[1], primary.address()));
    const auto page = [](int i) {
      return "page" + std::to_string(i) + ".html";
    };
    for (int i = 0; i < 18; ++i) {
      writer.write(page(i % 6), std::string(20 + i, 'a' + i % 26),
                   [](WriteResult) {},
                   i % 3 == 0 ? "text/plain" : "text/html");
      if (i == 12) writer.remove(page(4), [](WriteResult) {});
      for (ClientBinding* r : readers) r->read(page(i % 6), record);
      bed.run_for(sim::SimDuration::millis(3));
    }
    writer.remove(page(5), [](WriteResult) {});
    readers[1]->write(page(6), "from a reader", [](WriteResult) {});
    bed.settle();
    for (ClientBinding* r : readers) {
      for (int i = 0; i <= 6; ++i) r->read(page(i), record);
      r->read("never-written.html", record);
    }
    bed.settle();
  }, {0x1187d194b9c92300ull, 0xd5c50ebf0e086589ull,
     0x34a87de164c8958aull});
  EXPECT_EQ(reads, 0xe70d01c2b2a082full);
  EXPECT_EQ(answered, 2 * (18 + 8));
  EXPECT_EQ(not_found, 18);
}

// Membership traffic: views, evictions, re-parenting, a rejoin with an
// epoch jump, and a leave. A causal multi-master tree (the primary, two
// mirrors, two caches under each) loses mirror 1 for good, so its caches
// re-parent. A cache under mirror 2 is then cut off from every other
// store while 300 writes go by: the view evicts it, and on a windowed
// transport its mirror first drops it as a subscriber that stays paused
// past the flow-control deadline. After the heal it rejoins and
// re-subscribes; then another cache leaves. The primary is in every view
// the stores adopt, so any re-parent rule that keeps the primary first
// yields these constants.
TestbedOptions membership_options(bool windowed) {
  TestbedOptions opts = golden_options();
  opts.enable_membership = true;
  opts.failure_timeout = sim::SimDuration::millis(800);
  opts.windowed_multicast = windowed;
  opts.window.window_size = 4;
  opts.window.max_queue = 16;
  return opts;
}

void membership_churn(Testbed& bed) {
  ReplicationPolicy p;
  p.model = coherence::ObjectModel::kCausal;
  p.write_set = core::WriteSet::kMultiple;
  p.object_outdate_reaction = core::OutdateReaction::kDemand;
  auto& primary = bed.add_primary(kObj, p);
  bed.settle();
  std::vector<net::Address> mirrors;
  for (int m = 0; m < 2; ++m) {
    mirrors.push_back(
        bed.add_store(kObj, naming::StoreClass::kObjectInitiated, p)
            .address());
  }
  bed.settle();
  for (const net::Address& mirror : mirrors) {
    for (int c = 0; c < 2; ++c) {
      bed.add_store(kObj, naming::StoreClass::kClientInitiated, p, mirror);
    }
  }
  bed.settle();
  // Stores: 0 the primary, 1 and 2 the mirrors, 3 and 4 under mirror 1,
  // 5 and 6 under mirror 2.
  bed.crash_store(1);
  bed.run_for(sim::SimDuration::seconds(2));

  auto& writer = bed.add_client(kObj, ClientModel::kNone, primary.address(),
                                primary.address());
  bed.partition_stores({5}, {0, 1, 2, 3, 4, 6});
  for (int i = 0; i < 300; ++i) {
    writer.write("page" + std::to_string(i % 7) + ".html",
                 "w" + std::to_string(i), [](WriteResult) {});
    bed.run_for(sim::SimDuration::millis(3));
  }
  bed.run_for(sim::SimDuration::seconds(1));
  bed.heal_partitions();
  bed.run_for(sim::SimDuration::seconds(2));
  bed.leave_store(6);
  bed.run_for(sim::SimDuration::seconds(1));
  bed.settle();

  std::uint64_t resubscribes = 0;
  for (const auto& s : bed.stores()) resubscribes += s->resubscribes();
  EXPECT_EQ(resubscribes, 3u);
  EXPECT_EQ(bed.membership().stats().evictions, 2u);
  EXPECT_EQ(bed.metrics().flow_evictions(),
            bed.window() != nullptr ? 1u : 0u);
}

TEST(MembershipGolden, ReparentEvictRejoinLeave) {
  expect_golden(membership_churn,
                {0x16b77949afe38c2eull, 0x1ae53a517d2ea342ull,
                 0x88e3f6b1e6fc8636ull},
                membership_options(/*windowed=*/false));
}

TEST(MembershipGolden, ReparentEvictRejoinLeaveWindowed) {
  expect_golden(membership_churn,
                {0xf0a82f4b0884ca8cull, 0xab1e80a27653c16eull,
                 0x5eae10affe7a0edaull},
                membership_options(/*windowed=*/true));
}

// A partitioned mirror rejoins. The same tree, no crash: mirror 2 is cut
// off alone for longer than the failure timeout, so the view evicts it
// and its two caches re-parent to the primary. Nothing tells the mirror:
// after the heal it rejoins (an epoch jump), re-subscribes to the
// primary and still lists both caches. Writes continue at the primary
// and at a re-parented cache. Frozen while nothing removed such an edge;
// its wire constant was re-frozen once, for the pushes the mirror stopped
// sending when the caches answered its first ones with kUnsubscribe.
void partitioned_mirror_rejoins(Testbed& bed) {
  ReplicationPolicy p;
  p.model = coherence::ObjectModel::kCausal;
  p.write_set = core::WriteSet::kMultiple;
  p.object_outdate_reaction = core::OutdateReaction::kDemand;
  auto& primary = bed.add_primary(kObj, p);
  bed.settle();
  std::vector<net::Address> mirrors;
  for (int m = 0; m < 2; ++m) {
    mirrors.push_back(
        bed.add_store(kObj, naming::StoreClass::kObjectInitiated, p)
            .address());
  }
  bed.settle();
  for (const net::Address& mirror : mirrors) {
    for (int c = 0; c < 2; ++c) {
      bed.add_store(kObj, naming::StoreClass::kClientInitiated, p, mirror);
    }
  }
  bed.settle();
  // Stores: 0 the primary, 1 and 2 the mirrors, 3 and 4 under mirror 1,
  // 5 and 6 under mirror 2.
  const net::Address cache = bed.stores()[5]->address();
  auto& at_primary = bed.add_client(kObj, ClientModel::kNone,
                                    primary.address(), primary.address());
  auto& at_cache = bed.add_client(kObj, ClientModel::kNone, cache, cache);
  const auto write = [&](int first, int last) {
    for (int i = first; i < last; ++i) {
      at_primary.write("page" + std::to_string(i % 5) + ".html",
                       "p" + std::to_string(i), [](WriteResult) {});
      if (i % 4 == 0) {
        at_cache.write("cache.html", "c" + std::to_string(i),
                       [](WriteResult) {});
      }
      bed.run_for(sim::SimDuration::millis(3));
    }
  };
  write(0, 40);
  bed.partition_stores({2}, {0, 1, 3, 4, 5, 6});
  write(40, 140);
  bed.run_for(sim::SimDuration::seconds(1));
  bed.heal_partitions();
  bed.run_for(sim::SimDuration::seconds(2));
  write(140, 240);
  bed.run_for(sim::SimDuration::seconds(1));
  bed.settle();

  std::uint64_t resubscribes = 0;
  for (const auto& s : bed.stores()) resubscribes += s->resubscribes();
  EXPECT_EQ(resubscribes, 3u);
  EXPECT_EQ(bed.membership().stats().evictions, 1u);
  EXPECT_EQ(bed.stores()[5]->upstream(), primary.address());
  EXPECT_EQ(bed.stores()[6]->upstream(), primary.address());
  // The caches told the rejoined mirror, which still listed them, to
  // drop them (kUnsubscribe) when it pushed to them.
  EXPECT_EQ(bed.stores()[2]->subscriber_count(), 0u);
}

TEST(MembershipGolden, PartitionedMirrorRejoins) {
  expect_golden(partitioned_mirror_rejoins,
                {0x9aa8584869752994ull, 0x49233fa2c4e6bf1bull,
                 0x98432c5ed8373bf1ull},
                membership_options(/*windowed=*/false));
}

TEST(RecordBatch, EncodesSameBytesAsEncodeRecords) {
  std::vector<web::WriteRecord> recs;
  for (int i = 0; i < 7; ++i) {
    web::WriteRecord rec;
    rec.wid = {static_cast<ClientId>(i % 3),
               static_cast<std::uint64_t>(i + 1)};
    rec.page = "p" + std::to_string(i % 4);
    rec.content = std::string(64 + i, 'x');
    rec.lamport = i + 1;
    rec.deps.set(1, i);
    recs.push_back(rec);
  }

  util::Writer reference;
  web::encode_records(reference, recs);

  // Split into two batches; the concatenated encoding must match.
  const auto half = recs.size() / 2;
  std::vector<web::RecordBatchPtr> batches;
  batches.push_back(std::make_shared<const web::RecordBatch>(
      std::span(recs).subspan(0, half), 0));
  batches.push_back(std::make_shared<const web::RecordBatch>(
      std::span(recs).subspan(half), 0));
  util::Writer combined;
  web::encode_batches(combined, batches);

  EXPECT_EQ(reference.view(), combined.view());
  EXPECT_EQ(web::batch_record_count(batches), recs.size());
}

}  // namespace
}  // namespace globe::replication
