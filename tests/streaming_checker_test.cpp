// Equivalence of the streaming (check-as-you-record) verifier with the
// post-hoc replay and the test-only oracle.
//
// A StreamingChecker fed the same event stream as a History must
// assemble verdicts identical to check_object_model / check_sessions —
// same ok flag, same violation strings in the same order, same
// events_checked — on clean recorded runs, on every corrupted shape the
// post-hoc equivalence suite uses, and on randomized event soups. The
// post-hoc checkers are themselves a replay through StreamingChecker, so
// both are also compared with the seed oracle (tests/oracle/): the live
// path and the replay cannot agree on a shared bug. On top of that the
// checker must catch eager violations AT the violating event
// (violations_so_far), retire buffered state as the stability horizon
// advances (bounded retained memory), and survive History::clear() as if
// freshly constructed.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "globe/coherence/checkers.hpp"
#include "globe/coherence/streaming.hpp"
#include "globe/replication/testbed.hpp"
#include "globe/util/rng.hpp"
#include "oracle/checkers_naive.hpp"

namespace globe::coherence {
namespace {

constexpr ClientModel kAllSessions =
    ClientModel::kMonotonicWrites | ClientModel::kReadYourWrites |
    ClientModel::kMonotonicReads | ClientModel::kWritesFollowReads;

constexpr ObjectModel kAllObjectModels[] = {
    ObjectModel::kSequential, ObjectModel::kPram, ObjectModel::kFifoPram,
    ObjectModel::kCausal, ObjectModel::kEventual};

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

/// Compares the streaming verdicts against the post-hoc replay, and
/// both against the oracle, over the history the checker was attached
/// to.
void expect_verdicts_equal(const StreamingChecker& sc, const History& h) {
  const CheckResult posthoc = check_object_model(h, sc.model());
  const CheckResult oracle = naive::check_object_model(h, sc.model());
  const CheckResult streamed = sc.model_result();
  EXPECT_EQ(streamed, posthoc)
      << to_string(sc.model()) << "\nstreamed: " << streamed.summary()
      << "\nposthoc:  " << posthoc.summary();
  EXPECT_EQ(posthoc, oracle)
      << to_string(sc.model()) << "\nposthoc:  " << posthoc.summary()
      << "\noracle:   " << oracle.summary();
  const auto replayed = check_sessions(h, sc.sessions());
  const auto live = sc.session_results();
  ASSERT_EQ(live.size(), replayed.size());
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    const SessionSpec& spec = sc.sessions()[i];
    const CheckResult baseline =
        naive::check_client_models(h, spec.client, spec.models);
    EXPECT_EQ(live[i], replayed[i])
        << to_string(sc.model()) << " client " << spec.client
        << "\nstreamed: " << live[i].summary()
        << "\nposthoc:  " << replayed[i].summary();
    EXPECT_EQ(replayed[i], baseline)
        << to_string(sc.model()) << " client " << spec.client
        << "\nposthoc:  " << replayed[i].summary()
        << "\noracle:   " << baseline.summary();
  }
}

/// Runs `script` against a History with an attached StreamingChecker,
/// once per object model, and gates verdict equivalence each time.
void expect_streaming_equivalence(
    const std::function<void(History&)>& script,
    const std::vector<ClientId>& spec_clients,
    StreamingChecker::Options opts = StreamingChecker::Options{}) {
  for (ObjectModel m : kAllObjectModels) {
    History h;
    StreamingChecker sc(m, opts);
    for (ClientId c : spec_clients) sc.add_session({c, kAllSessions});
    h.attach_streaming(&sc);
    script(h);
    EXPECT_TRUE(sc.exact()) << to_string(m);
    expect_verdicts_equal(sc, h);
  }
}

// -- Corrupted shapes (mirroring checker_equivalence_test) --------------

TEST(StreamingChecker, OutOfOrderApply) {
  expect_streaming_equivalence(
      [](History& h) {
        const PageId p = h.intern("p");
        apply(h, 0, {1, 1}, p);
        apply(h, 0, {1, 2}, p);
        apply(h, 1, {1, 2}, p);  // applied before seq 1
        apply(h, 1, {1, 1}, p);
        h.record_write(client_write(1, 1, {1, 1}, p));
        h.record_write(client_write(1, 2, {1, 2}, p));
      },
      {1});
}

TEST(StreamingChecker, GapInPerWriterSequence) {
  expect_streaming_equivalence(
      [](History& h) {
        const PageId p = h.intern("p");
        apply(h, 0, {1, 1}, p);
        apply(h, 0, {1, 3}, p);  // skipped seq 2
      },
      {});
}

TEST(StreamingChecker, BrokenTotalOrder) {
  expect_streaming_equivalence(
      [](History& h) {
        const PageId p = h.intern("p");
        apply(h, 0, {1, 1}, p, 1);
        apply(h, 0, {2, 1}, p, 2);
        apply(h, 1, {2, 1}, p, 1);  // stores disagree
        apply(h, 1, {1, 1}, p, 2);
      },
      {});
}

TEST(StreamingChecker, ReadYourWritesMiss) {
  expect_streaming_equivalence(
      [](History& h) {
        const PageId p = h.intern("p");
        h.record_write(client_write(5, 1, {5, 1}, p));
        read(h, 5, 2, p);  // own write missing
      },
      {5});
}

TEST(StreamingChecker, MonotonicReadRegression) {
  expect_streaming_equivalence(
      [](History& h) {
        const PageId p = h.intern("p");
        VectorClock newer;
        newer.set(1, 4);
        VectorClock older;
        older.set(1, 2);
        read(h, 5, 1, p, newer);
        read(h, 5, 2, p, older);
      },
      {5});
}

TEST(StreamingChecker, WritesFollowReadsViolation) {
  expect_streaming_equivalence(
      [](History& h) {
        const PageId p = h.intern("p");
        VectorClock dep;
        dep.set(1, 1);
        h.record_write(client_write(1, 1, {1, 1}, p));
        h.record_write(client_write(5, 1, {5, 1}, p));
        apply(h, 0, {5, 1}, p, 0, dep);  // before its context
        apply(h, 0, {1, 1}, p);
      },
      {1, 5});
}

TEST(StreamingChecker, WfrApplySeenBeforeWriteEvent) {
  // The apply of a flagged client's write arrives before the write event
  // itself — the pending-apply buffer must resolve it retroactively.
  expect_streaming_equivalence(
      [](History& h) {
        const PageId p = h.intern("p");
        VectorClock dep;
        dep.set(1, 1);
        apply(h, 0, {5, 1}, p, 0, dep);  // write not yet seen
        apply(h, 0, {1, 1}, p);
        h.record_write(client_write(1, 1, {1, 1}, p));
        h.record_write(client_write(5, 1, {5, 1}, p));
      },
      {1, 5});
}

TEST(StreamingChecker, EventualDivergence) {
  expect_streaming_equivalence(
      [](History& h) {
        const PageId p = h.intern("page.html");
        apply(h, 0, {1, 4}, p);
        apply(h, 1, {1, 2}, p);  // older final write
      },
      {});
  // The assembled violation resolves the interned page name.
  History h;
  StreamingChecker sc(ObjectModel::kEventual);
  h.attach_streaming(&sc);
  const PageId p = h.intern("page.html");
  apply(h, 0, {1, 4}, p);
  apply(h, 1, {1, 2}, p);
  const CheckResult r = sc.model_result();
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.violations.at(0).find("page.html"), std::string::npos);
}

TEST(StreamingChecker, SnapshotBaselines) {
  expect_streaming_equivalence(
      [](History& h) {
        const PageId p = h.intern("p");
        VectorClock snap;
        snap.set(1, 5);
        snapshot(h, 2, snap, 7);
        apply(h, 2, {1, 6}, p, 8);
        apply(h, 2, {1, 3}, p, 9);  // below the snapshot
      },
      {});
}

// -- Retention off ---------------------------------------------------------

// The bounded-memory mode tees each event to the checker and keeps
// nothing. Its live verdicts must equal the replay of a History that
// retained the same events: one write reaching stores by push with its
// deps, as a deps-less state record, and after snapshots whose clocks
// differ; reads at those clocks, one missing its reader's own write and
// one going back in time.
TEST(StreamingChecker, RetentionOffJudgesLikeTheReplay) {
  const auto script = [](History& h) {
    const PageId p = h.intern("p");
    VectorClock dep;
    dep.set(1, 1);
    VectorClock later = dep;
    later.set(1, 2);
    h.record_write(client_write(1, 1, {1, 1}, p));
    read(h, 5, 1, p, dep);
    h.record_write(client_write(5, 2, {5, 1}, p));
    apply(h, 0, {5, 1}, p, 0, dep);  // ahead of w(1,1)
    apply(h, 0, {1, 1}, p);
    apply(h, 1, {5, 1}, p);  // state record: no deps
    snapshot(h, 2, dep);
    apply(h, 2, {5, 1}, p, 0, dep);
    snapshot(h, 1, later);
    apply(h, 1, {1, 3}, p, 0, later);
    read(h, 5, 3, p, later);  // misses w(5,1)
    read(h, 5, 4, p, dep);    // behind the previous read
    read(h, 1, 2, p, later);
  };
  for (ObjectModel m : kAllObjectModels) {
    History kept;
    script(kept);
    EXPECT_EQ(kept.clocks_interned(), 3u);  // {}, dep and later
    History live;
    live.set_retain_events(false);
    StreamingChecker sc(m);
    sc.add_session({1, kAllSessions});
    sc.add_session({5, kAllSessions});
    live.attach_streaming(&sc);
    script(live);
    EXPECT_EQ(live.size(), 0u);
    EXPECT_EQ(live.clocks_interned(), 1u);  // the empty clock alone
    EXPECT_TRUE(sc.exact()) << to_string(m);
    expect_verdicts_equal(sc, kept);
  }
}

// -- Eager detection at the violating event ----------------------------

TEST(StreamingChecker, CatchesRywAtTheViolatingRead) {
  History h;
  StreamingChecker sc(ObjectModel::kEventual);
  sc.add_session({5, ClientModel::kReadYourWrites});
  h.attach_streaming(&sc);
  const PageId p = h.intern("p");
  h.record_write(client_write(5, 1, {5, 1}, p));
  EXPECT_EQ(sc.violations_so_far(), 0u);
  read(h, 5, 2, p);  // own write missing
  EXPECT_EQ(sc.violations_so_far(), 1u);
}

TEST(StreamingChecker, CatchesPramAtTheViolatingApply) {
  History h;
  StreamingChecker sc(ObjectModel::kPram);
  h.attach_streaming(&sc);
  const PageId p = h.intern("p");
  apply(h, 0, {1, 1}, p);
  EXPECT_EQ(sc.violations_so_far(), 0u);
  apply(h, 0, {1, 3}, p);  // gap
  EXPECT_EQ(sc.violations_so_far(), 1u);
}

TEST(StreamingChecker, CatchesMonotonicReadAtTheRegression) {
  History h;
  StreamingChecker sc(ObjectModel::kEventual);
  sc.add_session({7, ClientModel::kMonotonicReads});
  h.attach_streaming(&sc);
  const PageId p = h.intern("p");
  VectorClock newer;
  newer.set(1, 4);
  VectorClock older;
  older.set(1, 2);
  read(h, 7, 1, p, newer);
  EXPECT_EQ(sc.violations_so_far(), 0u);
  read(h, 7, 2, p, older);
  EXPECT_EQ(sc.violations_so_far(), 1u);
}

// -- Randomized event soup ---------------------------------------------

TEST(StreamingChecker, RandomizedHistories) {
  util::Rng rng(2026);
  for (int round = 0; round < 12; ++round) {
    for (ObjectModel m : kAllObjectModels) {
      History h;
      StreamingChecker sc(m);
      const int clients = 4, stores = 3, pages = 3;
      for (int c = 0; c < clients; ++c) {
        sc.add_session({static_cast<ClientId>(c), kAllSessions});
      }
      h.attach_streaming(&sc);
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
          h.record_write(
              client_write(c, ++op[c], {c, ++seq[c]}, page, ++gseq));
        } else if (kind == 1) {
          VectorClock clock;
          clock.set(static_cast<ClientId>(rng.below(clients)), rng.below(8));
          read(h, c, ++op[c], page, clock, rng.below(6));
        } else if (kind == 2) {
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
      EXPECT_TRUE(sc.exact()) << to_string(m) << " round " << round;
      expect_verdicts_equal(sc, h);
    }
  }
}

// -- Horizon-driven retirement -----------------------------------------

// A well-formed replicated run: every store applies every write in the
// same order, clients read their store's exact state. The horizon (the
// floor of store clocks) advances periodically and must retire buffered
// state without changing any verdict.
TEST(StreamingChecker, HorizonRetiresWithoutChangingVerdicts) {
  for (ObjectModel m : kAllObjectModels) {
    History h;
    StreamingChecker sc(m);
    constexpr int kClients = 3, kStores = 3;
    for (int c = 0; c < kClients; ++c) {
      sc.add_session({static_cast<ClientId>(c + 1), kAllSessions});
    }
    h.attach_streaming(&sc);
    const PageId p = h.intern("p");

    util::Rng rng(99);
    std::vector<std::uint64_t> seq(kClients + 1, 0), op(kClients + 1, 0);
    VectorClock applied;  // shared apply order => identical store clocks
    std::uint64_t gseq = 0;
    std::size_t max_retained = 0;
    for (int i = 0; i < 300; ++i) {
      const auto c = static_cast<ClientId>(rng.below(kClients) + 1);
      if (rng.chance(0.5)) {
        const WriteId wid{c, ++seq[c]};
        h.record_write(client_write(c, ++op[c], wid, p, ++gseq));
        for (int s = 0; s < kStores; ++s) {
          apply(h, static_cast<StoreId>(s), wid, p, gseq, applied);
        }
        applied.observe(wid);
      } else {
        read(h, c, ++op[c], p, applied, gseq);
      }
      max_retained = std::max(max_retained, sc.retained_events());
      if (i % 40 == 39) sc.advance_horizon(applied, gseq);
    }
    sc.advance_horizon(applied, gseq);

    EXPECT_TRUE(sc.exact()) << to_string(m);
    EXPECT_GT(sc.events_retired(), 0u) << to_string(m);
    EXPECT_GT(sc.horizon_advances(), 0u) << to_string(m);
    // Retirement keeps memory bounded by the horizon lag: the high
    // watermark stays far below the total number of recorded events.
    EXPECT_LT(sc.retained_high_watermark(), h.size() / 4) << to_string(m);
    expect_verdicts_equal(sc, h);

    // A clean run is actually clean.
    EXPECT_TRUE(sc.model_result().ok) << to_string(m);
    for (const CheckResult& r : sc.session_results()) {
      EXPECT_TRUE(r.ok) << to_string(m);
    }
  }
}

TEST(StreamingChecker, HorizonIsMonotonic) {
  StreamingChecker sc(ObjectModel::kCausal);
  VectorClock a;
  a.set(1, 5);
  sc.advance_horizon(a, 3);
  EXPECT_EQ(sc.horizon().get(1), 5u);
  EXPECT_EQ(sc.horizon_gseq(), 3u);
  VectorClock stale;
  stale.set(1, 2);
  sc.advance_horizon(stale, 1);  // regression must be ignored
  EXPECT_EQ(sc.horizon().get(1), 5u);
  EXPECT_EQ(sc.horizon_gseq(), 3u);
}

// -- Out-of-order clients ----------------------------------------------

// The live checker needs buffered clocks to re-check this client in
// program order. The post-hoc replay does not: it feeds the ops already
// sorted, duplicate index included, and must still match the oracle.
TEST(StreamingChecker, OutOfOrderClientWithBufferedClocks) {
  StreamingChecker::Options opts;
  opts.buffer_clocks = true;
  expect_streaming_equivalence(
      [](History& h) {
        const PageId p = h.intern("p");
        VectorClock c1;
        c1.set(1, 1);
        VectorClock c2;
        c2.set(1, 2);
        // Recorded out of program order; program order sorts by index
        // with the write-before-read tie rule.
        read(h, 9, 3, p, c1);
        h.record_write(client_write(9, 1, {9, 1}, p));
        read(h, 9, 2, p, c2);
        h.record_write(client_write(9, 2, {9, 2}, p));
        read(h, 9, 2, p, c1);  // ties with op 2
      },
      {9}, opts);
}

TEST(StreamingChecker, OutOfOrderWithoutBufferedClocksIsInexact) {
  History h;
  StreamingChecker sc(ObjectModel::kEventual);
  sc.add_session({9, kAllSessions});
  h.attach_streaming(&sc);
  const PageId p = h.intern("p");
  VectorClock c1;
  c1.set(1, 1);
  read(h, 9, 3, p, c1);
  h.record_write(client_write(9, 1, {9, 1}, p));  // falls out of order
  EXPECT_FALSE(sc.exact());
}

// -- History::clear() regression ---------------------------------------

TEST(StreamingChecker, ClearResetsRecorderAndChecker) {
  const auto script = [](History& h) {
    const PageId p = h.intern("p");
    const PageId q = h.intern("q");
    h.record_write(client_write(1, 1, {1, 1}, p));
    apply(h, 0, {1, 1}, p, 1);
    apply(h, 0, {2, 1}, q, 3);  // gseq gap + unknown writer
    read(h, 1, 2, q);
    read(h, 2, 1, p);
  };

  // Reference: a fresh recorder + checker pair.
  History fresh;
  StreamingChecker fresh_sc(ObjectModel::kSequential);
  fresh_sc.add_session({1, kAllSessions});
  fresh_sc.add_session({2, kAllSessions});
  fresh.attach_streaming(&fresh_sc);
  script(fresh);

  // Reused: dirtied with different pages/clients/horizon, then cleared.
  History reused;
  StreamingChecker reused_sc(ObjectModel::kSequential);
  reused_sc.add_session({1, kAllSessions});
  reused_sc.add_session({2, kAllSessions});
  reused.attach_streaming(&reused_sc);
  const PageId junk = reused.intern("junk");
  reused.record_write(client_write(3, 1, {3, 1}, junk));
  apply(reused, 5, {3, 1}, junk, 9);
  read(reused, 3, 2, junk);
  VectorClock hz;
  hz.set(3, 1);
  reused_sc.advance_horizon(hz, 9);
  reused.clear();
  script(reused);

  // The intern table restarted: page ids and names line up again.
  EXPECT_EQ(reused.page_name(1), "p");
  EXPECT_EQ(reused.page_name(2), "q");

  EXPECT_EQ(fresh_sc.model_result(), reused_sc.model_result());
  const auto a = fresh_sc.session_results();
  const auto b = reused_sc.session_results();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  EXPECT_EQ(check_object_model(fresh, ObjectModel::kSequential),
            check_object_model(reused, ObjectModel::kSequential));
  EXPECT_EQ(fresh_sc.horizon_gseq(), reused_sc.horizon_gseq());
  EXPECT_TRUE(reused_sc.horizon().empty());
  EXPECT_EQ(reused_sc.retained_events(), fresh_sc.retained_events());
}

// -- A real recorded execution -----------------------------------------

TEST(StreamingChecker, RecordedTestbedRun) {
  using namespace replication;
  core::ReplicationPolicy policy;
  policy.model = ObjectModel::kCausal;
  policy.write_set = core::WriteSet::kMultiple;
  policy.initiative = core::TransferInitiative::kPush;

  Testbed bed;
  StreamingChecker& sc = bed.enable_streaming(ObjectModel::kCausal);
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
  EXPECT_TRUE(sc.exact());
  expect_verdicts_equal(sc, bed.history());
  EXPECT_TRUE(sc.model_result().ok);
  for (const CheckResult& r : sc.session_results()) EXPECT_TRUE(r.ok);
}

}  // namespace
}  // namespace globe::coherence
