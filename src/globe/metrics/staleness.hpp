// Staleness oracle.
//
// The oracle records every committed write (globally, outside the
// protocol) so that a read result can be scored: how many committed
// writes to that page were missing from the serving store's clock, and
// how old the newest missing one was. This is the metric behind the
// paper's qualitative staleness trade-offs (Section 3.3).
//
// Metric contract: `versions_behind` counts the committed-before-issue
// writes the serving store's clock did not cover; `time_behind_us` is
// `served - commit time of the NEWEST such write` — i.e. for how long
// the freshest update the read should have seen had already been
// committed. (The seed reported the oldest missing write's age here,
// inflating the metric whenever commit times interleaved.)
//
// Scale: commits are grouped per page AND per writing client, ordered
// by that client's write sequence number. A store clock covers exactly
// a per-writer prefix, so scoring walks only each writer's uncovered
// suffix (binary search + the missing writes themselves) instead of
// rescanning every commit ever made to the page. The seed's full-scan
// scorer is retained as `score_naive()` for equivalence tests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "globe/coherence/vector_clock.hpp"
#include "globe/coherence/write_id.hpp"
#include "globe/util/ids.hpp"
#include "globe/util/time.hpp"

namespace globe::metrics {

class StalenessOracle {
 public:
  /// Records that a write to `page` was accepted at `at`.
  void committed(const std::string& page, const coherence::WriteId& wid,
                 util::SimTime at) {
    PerWriter& w = pages_[page].writers[wid.client];
    if (!w.commits.empty() && wid.seq <= w.commits.back().seq) {
      w.seq_sorted = false;  // duplicate/out-of-order commit report
    }
    w.commits.push_back(SeqCommit{wid.seq, at});
  }

  struct Score {
    double versions_behind = 0;
    double time_behind_us = 0;  // age of the newest missing write
  };

  /// Scores a read of `page` served with `store_clock` at time `served`.
  /// Only writes committed before `issued` count against the store.
  [[nodiscard]] Score score(const std::string& page,
                            const coherence::VectorClock& store_clock,
                            util::SimTime issued,
                            util::SimTime served) const {
    Score s;
    auto it = pages_.find(page);
    if (it == pages_.end()) return s;
    util::SimTime newest_missing{};
    bool any = false;
    for (const auto& [client, w] : it->second.writers) {
      const std::uint64_t have = store_clock.get(client);
      // Everything at or below `have` is covered; walk only the suffix.
      std::size_t start = 0;
      if (w.seq_sorted) {
        start = static_cast<std::size_t>(
            std::upper_bound(w.commits.begin(), w.commits.end(), have,
                             [](std::uint64_t h, const SeqCommit& c) {
                               return h < c.seq;
                             }) -
            w.commits.begin());
      }
      for (std::size_t i = start; i < w.commits.size(); ++i) {
        const SeqCommit& c = w.commits[i];
        if (c.seq <= have) continue;    // covered (unsorted fallback)
        if (c.at > issued) continue;    // not yet committed
        s.versions_behind += 1;
        if (!any || c.at > newest_missing) newest_missing = c.at;
        any = true;
      }
    }
    if (any) {
      s.time_behind_us =
          static_cast<double>((served - newest_missing).count_micros());
    }
    return s;
  }

  /// The seed's full scan — every commit to the page tested against the
  /// clock, no suffix search — with the corrected newest-missing-write
  /// semantics. Equivalence baseline for score().
  [[nodiscard]] Score score_naive(const std::string& page,
                                  const coherence::VectorClock& store_clock,
                                  util::SimTime issued,
                                  util::SimTime served) const {
    Score s;
    auto it = pages_.find(page);
    if (it == pages_.end()) return s;
    util::SimTime newest_missing{};
    bool any = false;
    for (const auto& [client, w] : it->second.writers) {
      const std::uint64_t have = store_clock.get(client);
      for (const SeqCommit& c : w.commits) {
        if (c.at > issued) continue;   // not yet committed
        if (c.seq <= have) continue;   // store had it
        s.versions_behind += 1;
        if (!any || c.at > newest_missing) newest_missing = c.at;
        any = true;
      }
    }
    if (any) {
      s.time_behind_us =
          static_cast<double>((served - newest_missing).count_micros());
    }
    return s;
  }

 private:
  struct SeqCommit {
    std::uint64_t seq = 0;
    util::SimTime at;
  };
  struct PerWriter {
    std::vector<SeqCommit> commits;  // append order; seq-sorted in practice
    bool seq_sorted = true;
  };
  struct PerPage {
    std::unordered_map<ClientId, PerWriter> writers;
  };
  std::unordered_map<std::string, PerPage> pages_;
};

}  // namespace globe::metrics
