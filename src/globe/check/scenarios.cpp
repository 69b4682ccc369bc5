#include "globe/check/scenarios.hpp"

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "globe/check/monitor.hpp"
#include "globe/coherence/checkers.hpp"
#include "globe/fault/scenario.hpp"
#include "globe/replication/testbed.hpp"
#include "globe/util/rng.hpp"

namespace globe::check {

namespace {

using coherence::ClientModel;
using coherence::ObjectModel;

constexpr ObjectId kObj = 1;

struct ChurnProfile {
  ObjectModel model{};
  bool pull = false;
  std::uint64_t jitter_ms = 0;
  std::uint64_t partition_at_ms = 0;
  std::uint64_t heal_at_ms = 0;
  bool churn_mirror = false;
  std::uint64_t crash_at_ms = 0;
  std::uint64_t recover_at_ms = 0;
};

// Everything the seed decides, derived up front in a fixed order so the
// fault schedule is identical for every op budget (shrinking the
// workload must not move the faults).
ChurnProfile derive_profile(std::uint64_t seed) {
  util::Rng rng(seed);
  ChurnProfile p;
  constexpr ObjectModel kModels[] = {
      ObjectModel::kSequential, ObjectModel::kPram, ObjectModel::kFifoPram,
      ObjectModel::kCausal,     ObjectModel::kEventual,
      ObjectModel::kEventual,  // second slot runs the pull variant
  };
  const std::uint64_t pick = rng.below(6);
  p.model = kModels[pick];
  p.pull = pick == 5;
  p.jitter_ms = rng.below(9);                       // 0..8ms on every hop
  p.partition_at_ms = 150 + rng.below(300);         // cut at 150..449ms
  p.heal_at_ms = p.partition_at_ms + 1500 + rng.below(1000);
  p.churn_mirror = rng.chance(0.5);
  p.crash_at_ms = p.heal_at_ms + 100 + rng.below(400);
  p.recover_at_ms = p.crash_at_ms + 300 + rng.below(300);
  return p;
}

std::string script_text(const ChurnProfile& p) {
  // Store indices follow construction order below: 0=primary,
  // 1-2=mirrors, 3-4=caches. Side B {2,4} loses the services quorum.
  std::string text = "at " + std::to_string(p.partition_at_ms) +
                     "ms partition 0,1,3|2,4\n" + "at " +
                     std::to_string(p.heal_at_ms) + "ms heal\n";
  if (p.churn_mirror) {
    // Churn the object-initiated mirror, not a cache: a client-initiated
    // cache only refreshes on client demand, so crashing it after the
    // workload drains would leave it legitimately stale forever.
    text += "at " + std::to_string(p.crash_at_ms) + "ms crash 2\n";
    text += "at " + std::to_string(p.recover_at_ms) + "ms recover 2\n";
  }
  return text;
}

void note(std::vector<std::string>& failures, bool ok, std::string what) {
  if (!ok) failures.push_back(std::move(what));
}

// Folds the checker verdicts and monitor trips of a finished run into
// one verdict.
ScenarioVerdict conclude(std::vector<std::string> failures,
                         const ScopedTripCapture& trips,
                         std::uint64_t ops_issued) {
  for (const TripReport& report : trips.reports()) {
    failures.push_back("monitor trip: " + report.str());
  }
  ScenarioVerdict verdict;
  verdict.ops_issued = ops_issued;
  if (!failures.empty()) {
    verdict.ok = false;
    verdict.failure = failures.front();
    if (failures.size() > 1) {
      verdict.failure +=
          " (+" + std::to_string(failures.size() - 1) + " more)";
    }
  }
  return verdict;
}

}  // namespace

ScenarioVerdict run_partition_churn(std::uint64_t seed,
                                    std::uint64_t max_ops) {
  namespace repl = globe::replication;
  const ChurnProfile profile = derive_profile(seed);

  ScenarioVerdict verdict;
  std::vector<std::string> failures;

  // Monitor trips fail the run instead of aborting the process; the
  // capture spans the whole deployment lifetime.
  ScopedTripCapture trips;
  {
    repl::TestbedOptions opts;
    opts.seed = seed;
    opts.enable_membership = true;
    opts.membership_heartbeat = sim::SimDuration::millis(50);
    opts.failure_timeout = sim::SimDuration::millis(200);
    opts.wan.base_latency = sim::SimDuration::millis(5);
    opts.wan.jitter = sim::SimDuration::millis(profile.jitter_ms);
    opts.client_timeout = sim::SimDuration::millis(250);
    opts.client_retries = 1;
    repl::Testbed bed(opts);

    core::ReplicationPolicy policy;
    policy.model = profile.model;
    policy.object_outdate_reaction = core::OutdateReaction::kDemand;
    if (coherence::multi_master(profile.model)) {
      policy.write_set = core::WriteSet::kMultiple;
    }
    if (profile.pull) {
      policy.initiative = core::TransferInitiative::kPull;
      policy.lazy_period = sim::SimDuration::millis(50);
    }

    auto& primary = bed.add_primary(kObj, policy);
    for (int i = 0; i < 6; ++i) {
      primary.seed("page" + std::to_string(i) + ".html", "seed");
    }
    auto& mirror_a =
        bed.add_store(kObj, naming::StoreClass::kObjectInitiated, policy);
    auto& mirror_b =
        bed.add_store(kObj, naming::StoreClass::kObjectInitiated, policy);
    bed.settle();
    auto& cache_a = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                                  policy, mirror_a.address());
    auto& cache_b = bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                                  policy, mirror_b.address());
    bed.settle();

    // WFR needs a cross-writer apply order; only the sequential total
    // order and the causal orderer provide one (see
    // partition_matrix_test.cpp for the full rationale).
    auto session = ClientModel::kMonotonicWrites |
                   ClientModel::kReadYourWrites | ClientModel::kMonotonicReads;
    if (profile.model == ObjectModel::kSequential ||
        profile.model == ObjectModel::kCausal) {
      session = session | ClientModel::kWritesFollowReads;
    }
    auto& client_a = bed.add_client(kObj, session, cache_a.address());
    auto& client_b = bed.add_client(kObj, session, cache_b.address());
    bed.run_for(sim::SimDuration::millis(100));

    fault::ScenarioScript script;
    std::string error;
    if (!fault::ScenarioScript::parse(script_text(profile), &script, &error)) {
      verdict.ok = false;
      verdict.failure = "scenario script rejected: " + error;
      return verdict;
    }
    repl::TestbedFaultHost host(bed);
    fault::ScenarioEngine engine(script, host, seed);
    engine.arm(bed.sim());

    // Workload spanning before, during, and after the partition. Ops
    // are counted in issue order so an op budget truncates a prefix of
    // this exact sequence.
    std::uint64_t issued = 0;
    const auto budget_left = [&] { return issued < max_ops; };
    for (int i = 0; i < 30 && budget_left(); ++i) {
      const std::string tick = std::to_string(i);
      if (budget_left()) {
        client_a.write("page0.html", "a" + tick, [](repl::WriteResult) {});
        ++issued;
      }
      if (budget_left()) {
        client_b.write("page1.html", "b" + tick, [](repl::WriteResult) {});
        ++issued;
      }
      if (budget_left()) {
        client_a.read("page2.html", [](repl::ReadResult) {});
        ++issued;
      }
      if (budget_left()) {
        client_b.read("page2.html", [](repl::ReadResult) {});
        ++issued;
      }
      bed.run_for(sim::SimDuration::millis(100));
    }
    verdict.ops_issued = issued;

    // Run past the last scripted fault, let heartbeats re-admit the
    // minority side and resyncs drain, then settle to quiescence.
    bed.run_for(engine.duration() + sim::SimDuration::seconds(3));
    bed.settle();

    note(failures, bed.converged(kObj),
         std::string("diverged: replicas disagree with the primary (model=") +
             coherence::to_string(profile.model) + ")");

    const auto object_verdict =
        coherence::check_object_model(bed.history(), profile.model);
    note(failures, object_verdict.ok,
         "object-model checker: " + object_verdict.summary());

    const std::vector<coherence::SessionSpec> specs = {
        {client_a.id(), session}, {client_b.id(), session}};
    for (const auto& result :
         coherence::check_sessions(bed.history(), specs)) {
      note(failures, result.ok, "session checker: " + result.summary());
    }
  }
  return conclude(std::move(failures), trips, verdict.ops_issued);
}

ScenarioVerdict run_compaction_cutover(std::uint64_t seed,
                                       std::uint64_t max_ops) {
  namespace repl = globe::replication;
  // Everything the seed decides, drawn before the run in a fixed order.
  util::Rng rng(seed);
  const std::uint64_t jitter_ms = rng.below(9);
  const std::uint64_t cut_at_ms = 50 + rng.below(100);
  const std::uint64_t heal_at_ms = cut_at_ms + 600 + rng.below(600);
  const std::uint64_t pages = 3 + rng.below(6);
  const bool cut_second = rng.chance(0.5);

  constexpr std::size_t kThreshold = 8;
  std::vector<std::string> failures;
  std::uint64_t issued = 0;
  ScopedTripCapture trips;
  {
    repl::TestbedOptions opts;
    opts.seed = seed;
    opts.log_compact_threshold = kThreshold;
    opts.wan.base_latency = sim::SimDuration::millis(5);
    opts.wan.jitter = sim::SimDuration::millis(jitter_ms);
    repl::Testbed bed(opts);

    core::ReplicationPolicy policy;
    policy.model = ObjectModel::kEventual;
    policy.write_set = core::WriteSet::kMultiple;
    policy.initiative = core::TransferInitiative::kPull;
    policy.lazy_period = sim::SimDuration::millis(50);

    auto& primary = bed.add_primary(kObj, policy);
    auto& mirror_a =
        bed.add_store(kObj, naming::StoreClass::kObjectInitiated, policy);
    auto& mirror_b =
        bed.add_store(kObj, naming::StoreClass::kObjectInitiated, policy);
    bed.settle();
    const auto& cut = cut_second ? mirror_b : mirror_a;

    const auto session = ClientModel::kMonotonicWrites;
    auto& client_a =
        bed.add_client(kObj, session, primary.address(), primary.address());
    auto& client_b =
        bed.add_client(kObj, session, primary.address(), primary.address());
    bed.run_for(sim::SimDuration::millis(cut_at_ms));
    bed.net().partition(primary.address().node, cut.address().node);

    // Each client walks the pages downwards, so its later writes land on
    // pages whose names sort first.
    const auto page = [&](std::uint64_t i) {
      return "p" + std::to_string(pages - 1 - i % pages) + ".html";
    };
    for (std::uint64_t i = 0; i < max_ops / 2 + 1 && issued < max_ops; ++i) {
      client_a.write(page(i), "a" + std::to_string(i),
                     [](repl::WriteResult) {});
      if (++issued < max_ops) {
        client_b.write(page(i + 1), "b" + std::to_string(i),
                       [](repl::WriteResult) {});
        ++issued;
      }
      bed.run_for(sim::SimDuration::millis(20));
    }
    // Filler past the threshold: the log compacts past the cut mirror at
    // any op budget.
    for (std::size_t i = 0; i < 2 * kThreshold; ++i) {
      primary.seed("z" + std::to_string(i) + ".html", "filler");
    }
    const sim::SimTime heal_at =
        sim::SimTime{} + sim::SimDuration::millis(heal_at_ms);
    if (bed.sim().now() < heal_at) bed.sim().run_until(heal_at);
    bed.net().heal_all();
    bed.run_for(sim::SimDuration::seconds(2));
    bed.settle();

    note(failures, bed.converged(kObj),
         "diverged: replicas disagree with the primary");
    note(failures, bed.metrics().snapshot_cutovers() > 0,
         "no snapshot cutover: the scenario missed its target");
    const auto object_verdict =
        coherence::check_object_model(bed.history(), ObjectModel::kEventual);
    note(failures, object_verdict.ok,
         "object-model checker: " + object_verdict.summary());
    const std::vector<coherence::SessionSpec> specs = {
        {client_a.id(), session}, {client_b.id(), session}};
    for (const auto& result :
         coherence::check_sessions(bed.history(), specs)) {
      note(failures, result.ok, "session checker: " + result.summary());
    }
  }
  return conclude(std::move(failures), trips, issued);
}

namespace {

// The edges of a quiet run that only one end holds, named by store id.
std::vector<std::string> one_sided_edges(const replication::Testbed& bed) {
  const auto find = [&](const net::Address& a) {
    const replication::StoreEngine* found = nullptr;
    for (const auto& s : bed.stores()) {
      if (s->address() == a && s->alive() && !s->departed()) found = s.get();
    }
    return found;
  };
  std::vector<std::string> out;
  for (const auto& s : bed.stores()) {
    if (!s->alive() || s->departed()) continue;
    const std::string id = std::to_string(s->id());
    for (const net::Address& a : s->subscribers()) {
      const replication::StoreEngine* sub = find(a);
      if (sub != nullptr && sub->upstream() != s->address()) {
        out.push_back("one-sided edge: store " + id + " lists store " +
                      std::to_string(sub->id()) +
                      ", whose upstream is another store");
      }
    }
    if (s->config().is_primary) continue;
    const replication::StoreEngine* up = find(s->upstream());
    if (up != nullptr && std::ranges::find(up->subscribers(), s->address()) ==
                             up->subscribers().end()) {
      out.push_back("one-sided edge: store " + id + "'s upstream, store " +
                    std::to_string(up->id()) + ", does not list it");
    }
  }
  return out;
}

}  // namespace

ScenarioVerdict run_reparent_churn(std::uint64_t seed, std::uint64_t max_ops) {
  namespace repl = globe::replication;
  // Everything the seed decides, drawn before the run in a fixed order.
  util::Rng rng(seed);
  const std::uint64_t jitter_ms = rng.below(9);
  const bool invalidate = rng.chance(0.5);
  const bool full = rng.chance(0.5);
  const bool crash = rng.chance(0.5);
  // Store indices follow construction order: 0 the primary, then each
  // mirror followed by its two caches.
  const std::size_t mirror = 1 + 3 * rng.below(3);
  const std::uint64_t fault_at_ms = 100 + rng.below(300);
  // Past the 400 ms failure timeout: the view evicts the mirror and its
  // caches re-parent.
  const std::uint64_t heal_at_ms = fault_at_ms + 600 + rng.below(600);

  std::vector<std::string> failures;
  std::uint64_t issued = 0;
  ScopedTripCapture trips;
  {
    repl::TestbedOptions opts;
    opts.seed = seed;
    opts.enable_membership = true;
    opts.failure_timeout = sim::SimDuration::millis(400);
    opts.wan.base_latency = sim::SimDuration::millis(5);
    opts.wan.jitter = sim::SimDuration::millis(jitter_ms);
    opts.client_timeout = sim::SimDuration::millis(250);
    opts.client_retries = 1;
    repl::Testbed bed(opts);

    core::ReplicationPolicy policy;
    policy.object_outdate_reaction = core::OutdateReaction::kDemand;
    if (invalidate) policy.propagation = core::Propagation::kInvalidate;
    if (full) policy.coherence_transfer = core::CoherenceTransfer::kFull;
    if (!invalidate && !full) {
      policy.model = ObjectModel::kCausal;
      policy.write_set = core::WriteSet::kMultiple;
    }

    auto& primary = bed.add_primary(kObj, policy);
    std::vector<repl::ClientBinding*> writers;
    for (int m = 0; m < 3; ++m) {
      const net::Address at =
          bed.add_store(kObj, naming::StoreClass::kObjectInitiated, policy)
              .address();
      for (int c = 0; c < 2; ++c) {
        const net::Address cache =
            bed.add_store(kObj, naming::StoreClass::kClientInitiated, policy,
                          at)
                .address();
        writers.push_back(
            &bed.add_client(kObj, ClientModel::kNone, cache, cache));
      }
    }

    const std::string m = std::to_string(mirror);
    std::string text = "at " + std::to_string(fault_at_ms) + "ms ";
    if (crash) {
      text += "crash " + m + "\nat " + std::to_string(heal_at_ms) +
              "ms recover " + m + "\n";
    } else {
      std::string rest;
      for (std::size_t i = 0; i < bed.stores().size(); ++i) {
        if (i == mirror) continue;
        rest += (rest.empty() ? "" : ",") + std::to_string(i);
      }
      text += "partition " + rest + "|" + m + "\nat " +
              std::to_string(heal_at_ms) + "ms heal\n";
    }
    fault::ScenarioScript script;
    std::string error;
    if (!fault::ScenarioScript::parse(text, &script, &error)) {
      failures.push_back("scenario script rejected: " + error);
      return conclude(std::move(failures), trips, 0);
    }
    repl::TestbedFaultHost host(bed);
    fault::ScenarioEngine engine(script, host, seed);
    engine.arm(bed.sim());

    // Rounds of one write per cache, 25 ms apart: half the budget from
    // the joins on, the rest once the mirror is back.
    std::uint64_t round = 0;
    const auto write_until = [&](std::uint64_t budget) {
      while (issued < budget) {
        for (std::size_t w = 0; w < writers.size() && issued < budget; ++w) {
          writers[w]->write("w" + std::to_string(w) + ".html",
                            "r" + std::to_string(round), [](repl::WriteResult) {});
          ++issued;
        }
        ++round;
        bed.run_for(sim::SimDuration::millis(25));
      }
    };
    const auto run_until_ms = [&](std::uint64_t ms) {
      const sim::SimTime at = sim::SimTime{} + sim::SimDuration::millis(ms);
      if (bed.sim().now() < at) bed.sim().run_until(at);
    };
    write_until(max_ops / 2);
    run_until_ms(heal_at_ms + 500);
    write_until(max_ops);
    run_until_ms(heal_at_ms + 1000);
    for (int i = 0; i < 4; ++i) {
      primary.seed("filler.html", "f" + std::to_string(i));
      bed.run_for(sim::SimDuration::millis(50));
    }
    bed.run_for(sim::SimDuration::seconds(2));
    bed.settle();

    const std::string shape =
        std::string(coherence::to_string(policy.model)) + ", " +
        core::to_string(policy.propagation) + ", " +
        core::to_string(policy.coherence_transfer) + ", " +
        (crash ? "crash" : "partition") + " store " + m;
    note(failures, bed.converged(kObj),
         "diverged: replicas disagree with the primary (" + shape + ")");
    const auto object_verdict =
        coherence::check_object_model(bed.history(), policy.model);
    note(failures, object_verdict.ok,
         "object-model checker: " + object_verdict.summary());
    for (std::string& edge : one_sided_edges(bed)) {
      failures.push_back(std::move(edge) + " (" + shape + ")");
    }
  }
  return conclude(std::move(failures), trips, issued);
}

ScenarioLookup find_scenario(std::string_view name) {
  ScenarioLookup out;
  if (name == "partition_churn") {
    out.found = true;
    out.explorer = ScheduleExplorer("partition_churn", run_partition_churn,
                                    kPartitionChurnDefaultOps);
  } else if (name == "compaction_cutover") {
    out.found = true;
    out.explorer = ScheduleExplorer("compaction_cutover",
                                    run_compaction_cutover,
                                    kCompactionCutoverDefaultOps);
  } else if (name == "reparent_churn") {
    out.found = true;
    out.explorer = ScheduleExplorer("reparent_churn", run_reparent_churn,
                                    kReparentChurnDefaultOps);
  }
  return out;
}

std::vector<std::string> scenario_names() {
  return {"partition_churn", "compaction_cutover", "reparent_churn"};
}

}  // namespace globe::check
