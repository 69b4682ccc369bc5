// Canned explorer scenarios.
//
// Each scenario is a deterministic function of (seed, op budget) — see
// explorer.hpp for the contract. The seed picks a coherence profile and
// perturbs the schedule (message jitter, partition timing, cache churn,
// workload phasing); the budget truncates the client workload so the
// explorer can shrink a failing run to its minimal op prefix.
//
// The registry maps CLI names (schedule_explorer --scenario=) to
// ready-built explorers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "globe/check/explorer.hpp"

namespace globe::check {

/// Partition + churn smoke scenario: primary, two mirrors, a cache under
/// each mirror, two session-guarantee clients. The seed chooses the
/// coherence model (sequential / PRAM / FIFO-PRAM / causal / eventual /
/// eventual-pull), the WAN jitter, when the partition cuts the minority
/// side off, how long it lasts, and whether a cache additionally
/// crash-recovers after the heal. Fails on any monitor trip, checker
/// violation, or failure to converge.
[[nodiscard]] ScenarioVerdict run_partition_churn(std::uint64_t seed,
                                                  std::uint64_t max_ops);

/// Default op budget of run_partition_churn (the shrink upper bound).
inline constexpr std::uint64_t kPartitionChurnDefaultOps = 120;

/// Compaction cutover: a primary and two pulling mirrors under the
/// eventual model, two monotonic-writes clients at the primary whose
/// writes walk pages in descending name order. The seed cuts one mirror
/// off, for long enough that the primary's log compacts past it (filler
/// seeds guarantee that at any op budget), and picks the jitter and
/// timings. After the heal the mirror's anti-entropy pull is answered
/// with the state as records. Fails on any monitor trip, checker
/// violation, failure to converge, or a run without a snapshot cutover.
[[nodiscard]] ScenarioVerdict run_compaction_cutover(std::uint64_t seed,
                                                     std::uint64_t max_ops);

/// Default op budget of run_compaction_cutover.
inline constexpr std::uint64_t kCompactionCutoverDefaultOps = 40;

/// Re-parenting churn, the racing-joins fault shape: a primary, three
/// mirrors and two caches under each join at once, with a writer at every
/// cache, so a store can adopt a view that lacks its upstream and
/// re-parent, even while it bootstraps. The seed picks the jitter, update
/// or invalidate propagation and partial or full coherence transfer (the
/// causal multi-master model where the policy allows one, PRAM
/// otherwise), a mirror, and whether that mirror crashes or is cut off
/// alone past the failure timeout before it recovers or the partition
/// heals. More writes follow, and after them a few writes at the primary
/// that do not count against the budget, so every mirror pushes after it
/// is back at any budget. Fails on any monitor trip, object-model
/// violation or failure to converge, and on an edge only one end holds
/// once the run is quiet: a subscriber whose upstream is another store,
/// or a store its upstream does not list.
[[nodiscard]] ScenarioVerdict run_reparent_churn(std::uint64_t seed,
                                                 std::uint64_t max_ops);

/// Default op budget of run_reparent_churn.
inline constexpr std::uint64_t kReparentChurnDefaultOps = 120;

/// Explorer for a registered scenario name, or nullptr-equivalent
/// (found=false) if unknown.
struct ScenarioLookup {
  bool found = false;
  ScheduleExplorer explorer{"", nullptr, 0};
};
[[nodiscard]] ScenarioLookup find_scenario(std::string_view name);

/// Registered scenario names, for --list and error messages.
[[nodiscard]] std::vector<std::string> scenario_names();

}  // namespace globe::check
