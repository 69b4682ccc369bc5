// Equivalence of the post-hoc checkers with the seed oracle.
//
// check_object_model and check_sessions replay the retained History
// through a StreamingChecker; every per-model and per-guarantee entry
// point forwards to them. They must return verdicts identical to the
// test-only oracle (tests/oracle/) — same ok flag, same violations in
// the same order, same events_checked — on clean recorded runs, on
// deliberately corrupted histories (out-of-order apply, gap, broken
// total order, RYW miss, MR regression, WFR violation, eventual
// divergence), and on randomized event soups.
#include <gtest/gtest.h>

#include <vector>

#include "globe/coherence/checkers.hpp"
#include "globe/replication/testbed.hpp"
#include "globe/util/rng.hpp"
#include "globe/workload/zipf.hpp"
#include "oracle/checkers_naive.hpp"

namespace globe::coherence {
namespace {

constexpr ClientModel kAllSessions =
    ClientModel::kMonotonicWrites | ClientModel::kReadYourWrites |
    ClientModel::kMonotonicReads | ClientModel::kWritesFollowReads;

constexpr ObjectModel kAllObjectModels[] = {
    ObjectModel::kSequential, ObjectModel::kPram, ObjectModel::kFifoPram,
    ObjectModel::kCausal, ObjectModel::kEventual};

void expect_checker_equivalence(const History& h) {
  for (ObjectModel m : kAllObjectModels) {
    const CheckResult replayed = check_object_model(h, m);
    const CheckResult baseline = naive::check_object_model(h, m);
    EXPECT_EQ(replayed, baseline)
        << to_string(m) << "\nreplayed: " << replayed.summary()
        << "\nbaseline: " << baseline.summary();
  }
  std::vector<SessionSpec> specs;
  for (ClientId c : naive::clients(h)) specs.push_back({c, kAllSessions});
  const auto replayed = check_sessions(h, specs);
  ASSERT_EQ(replayed.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const CheckResult baseline =
        naive::check_client_models(h, specs[i].client, kAllSessions);
    EXPECT_EQ(replayed[i], baseline)
        << "client " << specs[i].client << "\nreplayed: "
        << replayed[i].summary() << "\nbaseline: " << baseline.summary();
    // The per-client entry point is a one-spec replay; it must agree too.
    EXPECT_EQ(check_client_models(h, specs[i].client, kAllSessions),
              baseline);
  }
}

/// Records an apply of `wid` at `store`, made with the clock `deps`.
void apply(History& h, StoreId store, WriteId wid, PageId page,
           std::uint64_t gseq = 0, const VectorClock& deps = {}) {
  ApplyEvent e;
  e.store = store;
  e.wid = wid;
  e.page = page;
  e.global_seq = gseq;
  h.record_apply(e, deps);
}

/// Records a snapshot adoption at `store` with the snapshot's clock.
void snapshot(History& h, StoreId store, const VectorClock& clock,
              std::uint64_t gseq = 0) {
  ApplyEvent e;
  e.store = store;
  e.global_seq = gseq;
  e.from_snapshot = true;
  h.record_apply(e, clock);
}

WriteEvent client_write(ClientId client, std::uint64_t op_index, WriteId wid,
                        PageId page, std::uint64_t gseq = 0) {
  WriteEvent e;
  e.client_op_index = op_index;
  e.client = client;
  e.wid = wid;
  e.page = page;
  e.global_seq = gseq;
  return e;
}

/// Records a read of `page` served at a store whose applied clock was
/// `store_clock`.
void read(History& h, ClientId client, std::uint64_t op_index, PageId page,
          const VectorClock& store_clock = {}, std::uint64_t gseq = 0) {
  ReadEvent e;
  e.client_op_index = op_index;
  e.client = client;
  e.store = 0;
  e.page = page;
  e.store_global_seq = gseq;
  h.record_read(e, store_clock);
}

// -- Corrupted histories ------------------------------------------------

TEST(CheckerEquivalence, OutOfOrderApply) {
  History h;
  const PageId p = h.intern("p");
  apply(h, 0, {1, 1}, p);
  apply(h, 0, {1, 2}, p);
  apply(h, 1, {1, 2}, p);  // applied before seq 1
  apply(h, 1, {1, 1}, p);
  h.record_write(client_write(1, 1, {1, 1}, p));
  h.record_write(client_write(1, 2, {1, 2}, p));
  EXPECT_FALSE(check_pram(h).ok);
  EXPECT_FALSE(naive::check_pram(h).ok);
  EXPECT_FALSE(check_client_models(h, 1, ClientModel::kMonotonicWrites).ok);
  expect_checker_equivalence(h);
}

TEST(CheckerEquivalence, GapInPerWriterSequence) {
  History h;
  const PageId p = h.intern("p");
  apply(h, 0, {1, 1}, p);
  apply(h, 0, {1, 3}, p);  // skipped seq 2
  EXPECT_FALSE(check_pram(h).ok);
  EXPECT_TRUE(check_fifo_pram(h).ok);  // FIFO tolerates the gap
  expect_checker_equivalence(h);
}

TEST(CheckerEquivalence, BrokenTotalOrder) {
  History h;
  const PageId p = h.intern("p");
  apply(h, 0, {1, 1}, p, 1);
  apply(h, 0, {2, 1}, p, 2);
  apply(h, 1, {2, 1}, p, 1);  // stores disagree on the order
  apply(h, 1, {1, 1}, p, 2);
  EXPECT_FALSE(check_sequential(h).ok);
  expect_checker_equivalence(h);
}

TEST(CheckerEquivalence, ReadYourWritesMiss) {
  History h;
  const PageId p = h.intern("p");
  h.record_write(client_write(5, 1, {5, 1}, p));
  read(h, 5, 2, p);  // empty clock: own write missing
  EXPECT_FALSE(check_client_models(h, 5, ClientModel::kReadYourWrites).ok);
  expect_checker_equivalence(h);
}

TEST(CheckerEquivalence, MonotonicReadRegression) {
  History h;
  const PageId p = h.intern("p");
  VectorClock newer;
  newer.set(1, 4);
  VectorClock older;
  older.set(1, 2);
  read(h, 5, 1, p, newer);
  read(h, 5, 2, p, older);
  EXPECT_FALSE(check_client_models(h, 5, ClientModel::kMonotonicReads).ok);
  expect_checker_equivalence(h);
}

TEST(CheckerEquivalence, WritesFollowReadsViolation) {
  History h;
  const PageId p = h.intern("p");
  VectorClock dep;
  dep.set(1, 1);
  h.record_write(client_write(1, 1, {1, 1}, p));
  h.record_write(client_write(5, 1, {5, 1}, p));
  apply(h, 0, {5, 1}, p, 0, dep);  // before its read context
  apply(h, 0, {1, 1}, p);
  EXPECT_FALSE(check_client_models(h, 5, ClientModel::kWritesFollowReads).ok);
  expect_checker_equivalence(h);
}

TEST(CheckerEquivalence, EventualDivergence) {
  History h;
  const PageId p = h.intern("page.html");
  apply(h, 0, {1, 4}, p);
  apply(h, 1, {1, 2}, p);  // settled on an older final write
  EXPECT_FALSE(check_eventual_delivery(h).ok);
  // The violation message resolves the interned page name.
  EXPECT_NE(check_eventual_delivery(h).violations.at(0).find("page.html"),
            std::string::npos);
  expect_checker_equivalence(h);
}

TEST(CheckerEquivalence, SnapshotBaselines) {
  History h;
  const PageId p = h.intern("p");
  VectorClock snap;
  snap.set(1, 5);
  snapshot(h, 2, snap, 7);
  apply(h, 2, {1, 6}, p, 8);
  apply(h, 2, {1, 3}, p, 9);  // regression below the snapshot
  expect_checker_equivalence(h);
}

// -- One write, four ways into a store ----------------------------------

/// A causal run with writes-follow-reads sessions. Client 5 reads w(1,1)
/// and writes w(5,1) with deps {1:1}. That write reaches store 0 and
/// store 1 by push (store 1 ahead of its dependency), store 2 as a
/// cutover state record, which carries no deps, and store 3 after a
/// snapshot that covers its dependency. Store 0 later adopts a second
/// snapshot, with a different clock, and applies w(1,3) on top of it.
/// Every apply must be judged with the clock it was recorded with.
TEST(CheckerEquivalence, OneWriteFourWaysKeepsEachRecordedClock) {
  History h;
  const PageId p = h.intern("p");
  VectorClock dep;
  dep.set(1, 1);
  VectorClock later = dep;
  later.set(1, 2);
  later.set(5, 1);
  h.record_write(client_write(1, 1, {1, 1}, p));
  read(h, 5, 1, p, dep);
  h.record_write(client_write(5, 2, {5, 1}, p));
  apply(h, 0, {1, 1}, p);
  apply(h, 0, {5, 1}, p, 0, dep);
  apply(h, 1, {5, 1}, p, 0, dep);  // ahead of w(1,1)
  apply(h, 1, {1, 1}, p);
  apply(h, 2, {5, 1}, p);  // state record: no deps
  snapshot(h, 3, dep);
  apply(h, 3, {5, 1}, p, 0, dep);
  snapshot(h, 0, later);
  apply(h, 0, {1, 3}, p, 0, later);

  const std::string missed =
      " store 1 applied w(5,1) with deps {1:1} before those dependencies "
      "were applied (applied={})";
  EXPECT_EQ(check_causal(h).violations,
            std::vector<std::string>{"causal:" + missed});
  EXPECT_EQ(check_causal(h).events_checked, 9u);
  EXPECT_EQ(check_writes_follow_reads(h, 5).violations,
            std::vector<std::string>{"WFR:" + missed});
  EXPECT_TRUE(check_pram(h).ok) << check_pram(h).summary();
  // Equal clocks share one entry: {}, {1:1} and the second snapshot's.
  EXPECT_EQ(h.clocks_interned(), 3u);
  expect_checker_equivalence(h);
}

// -- Randomized event soup ---------------------------------------------

TEST(CheckerEquivalence, RandomizedHistories) {
  util::Rng rng(2026);
  for (int round = 0; round < 20; ++round) {
    History h;
    const int clients = 4, stores = 3, pages = 3;
    std::vector<PageId> page_ids;
    for (int i = 0; i < pages; ++i) {
      page_ids.push_back(h.intern("page" + std::to_string(i)));
    }
    std::vector<std::uint64_t> seq(clients, 0), op(clients, 0);
    std::uint64_t gseq = 0;
    for (int i = 0; i < 120; ++i) {
      const auto c = static_cast<ClientId>(rng.below(clients));
      const PageId page = page_ids[rng.below(pages)];
      const auto kind = rng.below(4);
      if (kind == 0) {
        h.record_write(client_write(c, ++op[c], {c, ++seq[c]}, page, ++gseq));
      } else if (kind == 1) {
        VectorClock clock;
        clock.set(static_cast<ClientId>(rng.below(clients)), rng.below(8));
        read(h, c, ++op[c], page, clock, rng.below(6));
      } else if (kind == 2) {
        // Deliberately unordered applies: random writer/seq/gseq.
        VectorClock deps;
        if (rng.chance(0.3)) {
          deps.set(static_cast<ClientId>(rng.below(clients)), rng.below(5));
        }
        apply(h, static_cast<StoreId>(rng.below(stores)),
              {c, rng.below(6) + 1}, page, rng.below(5), deps);
      } else {
        const auto store = static_cast<StoreId>(rng.below(stores));
        VectorClock clock;
        clock.set(static_cast<ClientId>(rng.below(clients)), rng.below(6));
        snapshot(h, store, clock, rng.below(4));
      }
    }
    expect_checker_equivalence(h);
  }
}

// -- Real recorded executions ------------------------------------------

/// bench_scale's `history` scenario at its smoke size: 1 primary, 4
/// mirrors, 6 caches and 12 clients with all four session guarantees
/// run 60 causal ops (10% writes) over 24 Zipf-popular pages. Returns
/// the recorded history.
History record_history_scenario() {
  using namespace replication;
  TestbedOptions opts;
  opts.seed = 23;
  opts.wan.base_latency = sim::SimDuration::millis(5);
  Testbed bed(opts);
  constexpr ObjectId kObj = 1;

  core::ReplicationPolicy policy;
  policy.model = ObjectModel::kCausal;
  policy.write_set = core::WriteSet::kMultiple;
  policy.initiative = core::TransferInitiative::kPush;

  auto& primary = bed.add_primary(kObj, policy);
  constexpr int kPages = 24;
  for (int i = 0; i < kPages; ++i) {
    primary.seed("page" + std::to_string(i) + ".html", "v0");
  }
  std::vector<net::Address> mirrors;
  for (int i = 0; i < 4; ++i) {
    mirrors.push_back(
        bed.add_store(kObj, naming::StoreClass::kObjectInitiated, policy)
            .address());
  }
  bed.settle();
  std::vector<net::Address> caches;
  for (int i = 0; i < 6; ++i) {
    caches.push_back(bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                                   policy, mirrors[i % mirrors.size()])
                         .address());
  }
  bed.settle();
  std::vector<ClientBinding*> users;
  for (int i = 0; i < 12; ++i) {
    users.push_back(
        &bed.add_client(kObj, kAllSessions, caches[i % caches.size()]));
  }
  util::Rng rng(31);
  workload::ZipfGenerator zipf(kPages, 0.9);
  for (int op = 0; op < 60; ++op) {
    auto& c = *users[rng.below(users.size())];
    const std::string page =
        "page" + std::to_string(zipf.sample(rng)) + ".html";
    if (rng.chance(0.10)) {
      c.write(page, "v" + std::to_string(op), [](WriteResult) {});
    } else {
      c.read(page, [](ReadResult) {});
    }
    bed.run_for(sim::SimDuration::millis(10));
  }
  bed.settle();
  EXPECT_GT(bed.history().size(), 100u);
  return bed.history();
}

TEST(CheckerEquivalence, RecordedTestbedHistory) {
  using namespace replication;
  core::ReplicationPolicy policy;
  policy.model = ObjectModel::kCausal;
  policy.write_set = core::WriteSet::kMultiple;
  policy.initiative = core::TransferInitiative::kPush;

  Testbed bed;
  constexpr ObjectId kObj = 1;
  auto& primary = bed.add_primary(kObj, policy);
  primary.seed("p0", "v");
  std::vector<net::Address> caches;
  for (int i = 0; i < 3; ++i) {
    caches.push_back(
        bed.add_store(kObj, naming::StoreClass::kClientInitiated, policy)
            .address());
  }
  bed.settle();
  std::vector<ClientBinding*> clients;
  for (int i = 0; i < 6; ++i) {
    clients.push_back(&bed.add_client(kObj, kAllSessions,
                                      caches[i % caches.size()]));
  }
  util::Rng rng(7);
  for (int i = 0; i < 60; ++i) {
    auto& c = *clients[rng.below(clients.size())];
    const std::string page = "p" + std::to_string(rng.below(4));
    if (rng.chance(0.4)) {
      c.write(page, "v" + std::to_string(i), [](WriteResult) {});
    } else {
      c.read(page, [](ReadResult) {});
    }
    bed.run_for(sim::SimDuration::millis(15));
  }
  bed.settle();

  ASSERT_GT(bed.history().size(), 100u);
  expect_checker_equivalence(bed.history());
  // This clean causal run must actually pass its model and sessions.
  EXPECT_TRUE(check_causal(bed.history()).ok);
  for (ClientBinding* c : clients) {
    EXPECT_TRUE(check_client_models(bed.history(), c->id(), kAllSessions).ok);
  }

  expect_checker_equivalence(record_history_scenario());
}

}  // namespace
}  // namespace globe::coherence
