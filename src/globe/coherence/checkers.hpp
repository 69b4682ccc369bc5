// Coherence checkers.
//
// Each checker takes a recorded History and verifies one coherence model
// from the paper. They return a CheckResult listing every violation found
// (not just the first), which makes property-test failures diagnosable.
//
// Object-based models (Section 3.2.1):
//   check_pram        — per-writer order, contiguous, at every store
//   check_fifo_pram   — per-writer order, gaps allowed (stale discarded)
//   check_causal      — store apply order is a linear extension of the
//                       dependency (vector-clock) order
//   check_sequential  — all stores apply one total order; client reads
//                       respect that order and their own program order
//   check_eventual_delivery — every store eventually applied every write
//                       that any store applied (quiescent delivery)
//
// Client-based models (Section 3.2.2), verified per flagged client:
//   check_monotonic_writes, check_read_your_writes,
//   check_monotonic_reads, check_writes_follow_reads
//
// One implementation: check_object_model and check_sessions replay the
// retained History through a fresh StreamingChecker (streaming.hpp), the
// same code that checks a bounded-memory soak while it records. Every
// other entry point forwards to those two. The replay feeds each
// client's operations in program order (by client_op_index, writes
// before reads on a tie, record order within a kind), then every apply
// in record order, and never advances a horizon, so nothing is retired
// and every verdict is exact. The seed implementation lives on as a
// test-only oracle (tests/oracle/) that the equivalence suites compare
// both the replay and the live checker against.
#pragma once

#include <string>
#include <vector>

#include "globe/coherence/history.hpp"
#include "globe/coherence/models.hpp"
#include "globe/util/ids.hpp"

namespace globe::coherence {

struct CheckResult {
  bool ok = true;
  std::vector<std::string> violations;
  std::size_t events_checked = 0;

  void fail(std::string what) {
    ok = false;
    violations.push_back(std::move(what));
  }

  /// Merges another result into this one.
  void merge(const CheckResult& other) {
    ok = ok && other.ok;
    violations.insert(violations.end(), other.violations.begin(),
                      other.violations.end());
    events_checked += other.events_checked;
  }

  friend bool operator==(const CheckResult&, const CheckResult&) = default;

  [[nodiscard]] std::string summary(std::size_t max_lines = 5) const;
};

// -- Object-based models ---------------------------------------------

CheckResult check_pram(const History& h);
CheckResult check_fifo_pram(const History& h);
CheckResult check_causal(const History& h);
CheckResult check_sequential(const History& h);
CheckResult check_eventual_delivery(const History& h);

/// Verifies the object-based `model` over the whole history.
CheckResult check_object_model(const History& h, ObjectModel model);

// -- Client-based models ----------------------------------------------

CheckResult check_monotonic_writes(const History& h, ClientId client);
CheckResult check_read_your_writes(const History& h, ClientId client);
CheckResult check_monotonic_reads(const History& h, ClientId client);
CheckResult check_writes_follow_reads(const History& h, ClientId client);

/// One client's session-guarantee request for check_sessions.
struct SessionSpec {
  ClientId client = 0;
  ClientModel models = ClientModel::kNone;
};

/// Verifies every spec'd client's session guarantees in one replay of
/// the history. Returns one CheckResult per spec, in spec order,
/// identical to running the per-client checkers separately. Expects at
/// most one spec per client.
std::vector<CheckResult> check_sessions(const History& h,
                                        const std::vector<SessionSpec>& specs);

/// Checks every client-based guarantee in `models` for `client`.
CheckResult check_client_models(const History& h, ClientId client,
                                ClientModel models);

}  // namespace globe::coherence
