// Equivalence and compaction tests for the indexed WriteLog.
//
// The load-bearing property: records_since() (per-client / per-page /
// gseq indexes, O(delta)) must return *byte-identical* results to the
// naive full scan it replaced, across randomized histories — same
// records, same order, same encoding. The histories deliberately include
// out-of-order per-client arrival (eventual coherence), a mix of
// sequenced and unsequenced records, deletes, and skewed page sets.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "globe/replication/write_log.hpp"
#include "globe/util/rng.hpp"
#include "globe/web/write_record.hpp"

namespace globe::replication {
namespace {

using coherence::VectorClock;
using coherence::WriteId;
using web::WriteRecord;

/// Appends as a replica does: under the record's page id in `names`,
/// held only while the log takes its own hold.
void append(WriteLog& log, web::PageTable& names, web::WriteRecord rec) {
  const web::PageId id = names.acquire(rec.page);
  log.append(std::move(rec), id);
  names.release(id);
}

util::Buffer encode_all(const std::vector<WriteRecord>& records) {
  util::Writer w;
  web::encode_records(w, records);
  return w.take();
}

void expect_identical(const WriteLog& log, const VectorClock& have,
                      std::uint64_t have_gseq,
                      const std::vector<std::string>& pages) {
  const auto indexed = log.records_since(have, have_gseq, pages);
  const auto naive = log.records_since_naive(have, have_gseq, pages);
  ASSERT_EQ(indexed.size(), naive.size());
  EXPECT_EQ(encode_all(indexed), encode_all(naive))
      << "indexed delta diverged from naive scan (have=" << have.str()
      << ", gseq=" << have_gseq << ", pages=" << pages.size() << ")";
}

/// Builds a randomized apply history: `writers` clients, mostly in-order
/// per-client seqs with occasional out-of-order arrivals, a fraction of
/// records carrying global sequence numbers.
std::vector<WriteRecord> random_history(util::Rng& rng, int writers,
                                        int pages, int length,
                                        double sequenced_fraction) {
  std::vector<std::uint64_t> next_seq(writers, 1);
  std::uint64_t next_gseq = 1;
  std::vector<WriteRecord> history;
  std::vector<WriteRecord> delayed;  // arrive later, out of order
  for (int i = 0; i < length; ++i) {
    const auto client = static_cast<ClientId>(rng.below(writers));
    WriteRecord rec;
    rec.wid = WriteId{client, next_seq[client]++};
    rec.page = "page" + std::to_string(rng.below(pages)) + ".html";
    rec.op = rng.chance(0.05) ? web::WriteOp::kDelete : web::WriteOp::kPut;
    rec.content = rec.op == web::WriteOp::kPut
                      ? "content-" + std::to_string(rng.next() % 1000)
                      : "";
    rec.lamport = i + 1;
    if (rng.chance(sequenced_fraction)) rec.global_seq = next_gseq++;
    if (rng.chance(0.1)) {
      delayed.push_back(std::move(rec));  // simulate reordered arrival
    } else {
      history.push_back(std::move(rec));
      while (!delayed.empty() && rng.chance(0.5)) {
        history.push_back(std::move(delayed.back()));
        delayed.pop_back();
      }
    }
  }
  for (auto& rec : delayed) history.push_back(std::move(rec));
  return history;
}

VectorClock random_clock(util::Rng& rng, const std::vector<WriteRecord>& h) {
  // A clock that covers a random prefix of each writer's records, with
  // some writers entirely unknown to the requester.
  VectorClock have;
  std::map<ClientId, std::uint64_t> top;
  for (const auto& rec : h) {
    top[rec.wid.client] = std::max(top[rec.wid.client], rec.wid.seq);
  }
  for (const auto& [client, seq] : top) {
    if (rng.chance(0.2)) continue;  // requester never heard of this writer
    have.set(client, rng.below(seq + 1));
  }
  return have;
}

TEST(WriteLog, IndexedDeltaMatchesNaiveScanAcrossRandomHistories) {
  util::Rng rng(42);
  for (int round = 0; round < 30; ++round) {
    const int writers = static_cast<int>(rng.between(1, 8));
    const int pages = static_cast<int>(rng.between(1, 12));
    const int length = static_cast<int>(rng.between(1, 400));
    const double sequenced = rng.chance(0.5) ? rng.uniform01() : 0.0;

    web::PageTable names;

    WriteLog log(names);
    const auto history = random_history(rng, writers, pages, length,
                                        sequenced);
    for (const auto& rec : history) append(log, names, rec);

    for (int query = 0; query < 20; ++query) {
      const VectorClock have = random_clock(rng, history);
      const std::uint64_t have_gseq = rng.below(length + 2);
      std::vector<std::string> filter;
      const int mode = static_cast<int>(rng.below(4));
      if (mode == 1) {
        filter.push_back("page" + std::to_string(rng.below(pages)) +
                         ".html");
      } else if (mode == 2) {
        for (int i = 0; i < 3; ++i) {
          filter.push_back("page" + std::to_string(rng.below(pages)) +
                           ".html");
        }
        filter.push_back("no-such-page.html");
      } else if (mode == 3) {
        // Duplicate page names must not duplicate records.
        const std::string page =
            "page" + std::to_string(rng.below(pages)) + ".html";
        filter = {page, page};
      }
      expect_identical(log, have, have_gseq, filter);
    }
  }
}

TEST(WriteLog, EmptyCloseAndFullCoverage) {
  web::PageTable names;
  WriteLog log(names);
  expect_identical(log, VectorClock{}, 0, {});  // empty log

  WriteRecord rec;
  rec.wid = WriteId{7, 1};
  rec.page = "p.html";
  rec.content = "v";
  append(log, names, rec);

  VectorClock all;
  all.set(7, 1);
  EXPECT_TRUE(log.records_since(all, 0).empty());       // fully covered
  EXPECT_EQ(log.records_since(VectorClock{}, 0).size(), 1u);
  expect_identical(log, all, 0, {});
}

TEST(WriteLog, GseqFloorSkipsTotallyOrderedRecords) {
  web::PageTable names;
  WriteLog log(names);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    WriteRecord rec;
    rec.wid = WriteId{1, i};
    rec.page = "p.html";
    rec.content = "v" + std::to_string(i);
    rec.global_seq = i;
    append(log, names, rec);
  }
  // Requester with an empty clock but a total-order floor of 7 only
  // needs the last three records.
  const auto delta = log.records_since(VectorClock{}, 7);
  ASSERT_EQ(delta.size(), 3u);
  EXPECT_EQ(delta.front().global_seq, 8u);
  EXPECT_EQ(delta.back().global_seq, 10u);
  expect_identical(log, VectorClock{}, 7, {});
}

TEST(WriteLog, CompactionFoldsOldRecordsIntoBaseClock) {
  web::PageTable names;
  WriteLog log(names);
  for (std::uint64_t i = 1; i <= 100; ++i) {
    WriteRecord rec;
    rec.wid = WriteId{static_cast<ClientId>(i % 3), (i / 3) + 1};
    rec.page = "page" + std::to_string(i % 5) + ".html";
    rec.content = "v";
    append(log, names, rec);
  }
  ASSERT_EQ(log.size(), 100u);
  log.compact(40);
  EXPECT_EQ(log.size(), 40u);
  EXPECT_EQ(log.appended_total(), 100u);
  EXPECT_FALSE(log.base_clock().empty());

  // A requester that covers the base clock can still be served a delta.
  VectorClock caught_up = log.base_clock();
  EXPECT_TRUE(log.can_serve(caught_up, 0));
  // One that is behind the horizon cannot.
  EXPECT_FALSE(log.can_serve(VectorClock{}, 0));

  // The retained delta still matches the naive scan over retained
  // records.
  expect_identical(log, caught_up, 0, {});
  expect_identical(log, caught_up, 0, {"page1.html", "page3.html"});
}

// A store that folds after every update empties a client's and a
// page's postings, then appends to the same client and page again. The
// indexes must keep answering exactly as the naive scan does.
TEST(WriteLog, PostingsFoldedToEmptyTakeAppendsAgain) {
  web::PageTable names;
  WriteLog log(names);
  const auto rec = [](ClientId client, std::uint64_t seq,
                      const std::string& page) {
    WriteRecord r;
    r.wid = WriteId{client, seq};
    r.page = page;
    r.content = "v" + std::to_string(seq);
    return r;
  };
  const auto check = [&log](const VectorClock& have) {
    for (const std::vector<std::string>& pages :
         {std::vector<std::string>{}, std::vector<std::string>{"a.html"},
          std::vector<std::string>{"b.html", "a.html"}}) {
      expect_identical(log, have, 0, pages);
      expect_identical(log, VectorClock{}, 0, pages);
    }
  };

  VectorClock upstream;
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    append(log, names, rec(1, seq, "a.html"));
    check(upstream);
  }
  append(log, names, rec(2, 1, "b.html"));
  check(upstream);

  // Fold client 1 and page a.html to empty; client 2 keeps its record.
  upstream.set(1, 3);
  EXPECT_EQ(log.compact_below(upstream, 0), 3u);
  ASSERT_EQ(log.size(), 1u);
  check(upstream);

  // Both emptied lists take appends again.
  append(log, names, rec(1, 4, "a.html"));
  check(upstream);
  append(log, names, rec(1, 5, "b.html"));
  check(upstream);
  EXPECT_EQ(log.records_since(upstream, 0).size(), 3u);
  EXPECT_EQ(log.records_since(upstream, 0, {"a.html"}).size(), 1u);

  // Fold everything, then append once more.
  upstream.set(1, 5);
  upstream.set(2, 1);
  EXPECT_EQ(log.compact_below(upstream, 0), 3u);
  EXPECT_TRUE(log.empty());
  check(upstream);
  append(log, names, rec(1, 6, "a.html"));
  check(upstream);
  ASSERT_EQ(log.records_since(upstream, 0, {"a.html"}).size(), 1u);
  EXPECT_EQ(log.records_since(upstream, 0).front().wid, (WriteId{1, 6}));
  EXPECT_TRUE(log.can_serve(upstream, 0));
  EXPECT_FALSE(log.can_serve(VectorClock{}, 0));
}

// A folded-to-empty list stays for the next append, except a deleted
// page's: the index then holds a list per page still in the document, not
// one per page name ever written.
TEST(WriteLog, FoldingAPagesDeleteFreesItsPostings) {
  web::PageTable names;
  WriteLog log(names);
  std::uint64_t seq = 0;
  const auto add = [&](const std::string& page, web::WriteOp op) {
    WriteRecord r;
    r.wid = WriteId{1, ++seq};
    r.page = page;
    r.op = op;
    if (op == web::WriteOp::kPut) r.content = "v" + std::to_string(seq);
    append(log, names, std::move(r));
  };
  const auto fold_all = [&] {
    VectorClock all;
    all.set(1, seq);
    log.compact_below(all, 0);
  };

  for (int i = 0; i < 50; ++i) {
    add("p" + std::to_string(i) + ".html", web::WriteOp::kPut);
  }
  for (int i = 0; i < 50; ++i) {
    add("p" + std::to_string(i) + ".html", web::WriteOp::kDelete);
  }
  add("kept.html", web::WriteOp::kPut);
  EXPECT_EQ(log.indexed_pages(), 51u);
  fold_all();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.indexed_pages(), 1u);

  // Deleted and re-created before the fold: the page is still there.
  add("kept.html", web::WriteOp::kDelete);
  add("kept.html", web::WriteOp::kPut);
  fold_all();
  EXPECT_EQ(log.indexed_pages(), 1u);

  // A freed page's name takes appends again.
  add("p0.html", web::WriteOp::kPut);
  add("kept.html", web::WriteOp::kDelete);
  EXPECT_EQ(log.indexed_pages(), 2u);
  for (const std::vector<std::string>& pages :
       {std::vector<std::string>{}, std::vector<std::string>{"p0.html"},
        std::vector<std::string>{"kept.html", "p0.html"}}) {
    expect_identical(log, VectorClock{}, 0, pages);
  }
  fold_all();
  EXPECT_EQ(log.indexed_pages(), 1u);
}

TEST(WriteLog, CompactionKeepsSequentialCatchupServable) {
  web::PageTable names;
  WriteLog log(names);
  for (std::uint64_t i = 1; i <= 50; ++i) {
    WriteRecord rec;
    rec.wid = WriteId{1, i};
    rec.page = "p.html";
    rec.content = "v";
    rec.global_seq = i;  // every record totally ordered
    append(log, names, rec);
  }
  log.compact(10);
  EXPECT_EQ(log.base_gseq(), 40u);
  // A sequential-model requester at gseq >= 40 needs only retained
  // records even though its vector clock says nothing. The caller must
  // vouch that the floor is contiguous (sequential model); FIFO/PRAM
  // floors advance by max and prove nothing.
  EXPECT_TRUE(log.can_serve(VectorClock{}, 40, /*contiguous=*/true));
  EXPECT_FALSE(log.can_serve(VectorClock{}, 39, /*contiguous=*/true));
  EXPECT_FALSE(log.can_serve(VectorClock{}, 40, /*contiguous=*/false));
  const auto delta = log.records_since(VectorClock{}, 45);
  ASSERT_EQ(delta.size(), 5u);
  EXPECT_EQ(delta.front().global_seq, 46u);
}

TEST(WriteLog, IndexedDeltaMatchesNaiveAfterCompaction) {
  util::Rng rng(7);
  web::PageTable names;
  WriteLog log(names);
  const auto history = random_history(rng, 5, 8, 600, 0.4);
  for (const auto& rec : history) append(log, names, rec);
  log.compact(200);
  for (int query = 0; query < 30; ++query) {
    const VectorClock have = random_clock(rng, history);
    expect_identical(log, have, rng.below(400), {});
  }
}

TEST(WriteLog, IndexedDeltaMatchesNaiveAcrossInterleavedCompaction) {
  util::Rng rng(11);
  for (int round = 0; round < 12; ++round) {
    const int pages = static_cast<int>(rng.between(1, 10));
    const auto history = random_history(rng, static_cast<int>(rng.between(1, 6)),
                                        pages, 500, rng.uniform01());
    web::PageTable names;
    WriteLog log(names);
    // The retained records as a plain prefix-dropping list: every
    // compaction must drop exactly the prefix this model predicts.
    std::vector<WriteRecord> model;
    std::size_t next = 0;
    while (next < history.size()) {
      const std::uint64_t burst = rng.between(1, 40);
      for (std::uint64_t i = 0; i < burst && next < history.size(); ++i) {
        append(log, names, history[next]);
        model.push_back(history[next++]);
      }
      std::size_t drop = 0;
      if (rng.chance(0.5)) {
        const std::size_t keep = rng.below(model.size() + 1);
        drop = model.size() - keep;
        log.compact(keep);
      } else {
        // A horizon covering every writer up to a random applied
        // record; the fold stops at the first record it misses.
        VectorClock horizon;
        const std::uint64_t upto = rng.below(next + 1);
        for (std::uint64_t i = 0; i < upto; ++i) {
          horizon.observe(history[i].wid);
        }
        const std::uint64_t gseq_horizon = rng.below(next + 2);
        while (drop < model.size() && horizon.covers(model[drop].wid) &&
               (model[drop].global_seq == 0 ||
                model[drop].global_seq <= gseq_horizon)) {
          ++drop;
        }
        EXPECT_EQ(log.compact_below(horizon, gseq_horizon), drop);
      }
      for (std::size_t i = 0; i < drop; ++i) {
        EXPECT_TRUE(log.base_clock().covers(model[i].wid));
      }
      model.erase(model.begin(),
                  model.begin() + static_cast<std::ptrdiff_t>(drop));

      ASSERT_EQ(log.size(), model.size());
      EXPECT_EQ(log.appended_total(), next);
      EXPECT_EQ(encode_all({log.retained().begin(), log.retained().end()}),
                encode_all(model));
      std::size_t bytes = 0;
      for (const auto& rec : model) bytes += WriteLog::record_bytes(rec);
      EXPECT_EQ(log.retained_bytes(), bytes);
      for (int query = 0; query < 3; ++query) {
        std::vector<std::string> filter;
        if (rng.chance(0.3)) {
          filter.push_back("page" + std::to_string(rng.below(pages)) +
                           ".html");
        }
        expect_identical(log, random_clock(rng, history),
                         rng.below(next + 2), filter);
      }
    }
  }
}

}  // namespace
}  // namespace globe::replication
