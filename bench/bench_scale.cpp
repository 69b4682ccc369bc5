// Scale benchmark: the perf trajectory of the replication hot path.
//
// Sections, emitted as machine-readable BENCH_scale.json. Each reports
// absolute numbers for the one production path; the seed behaviour is
// pinned by golden digests in tests/, not re-run here.
//
//  1. micro_writelog — the delta computation itself: a long write
//     history served to near-tip requesters by the indexed WriteLog
//     (tests/write_log_test.cpp pins it to the reference full scan).
//  2. e2e_pull_long_history / e2e_anti_entropy — full simulated
//     deployments with a long history (pull and anti-entropy), one
//     wall-clock run each.
//  3. scale_trajectory — wide deployments (hundreds of stores/clients,
//     thousands of ops) across every coherence model: the numbers the
//     ROADMAP tracks across PRs.
//  4. fanout — propagation fan-out (1 primary, 16–128 subscribers,
//     immediate vs lazy vs pull) through shared RecordBatches.
//  5. fanout_loopback — the same fan-out over the threaded
//     LoopbackRouter runtime.
//  6. multicast_window — the windowed credit-based multicast on the
//     threaded runtime: a 128-subscriber fan-out run unwindowed and
//     windowed (sliding windows + coalescing + cross-peer frame
//     sharing), delivering byte-identical state, plus a slow-subscriber
//     fault where the victim's channel must pause inside its bound and
//     catch up after the heal.
//  7. churn — the membership + fault-scenario gate: a trajectory-scale
//     deployment (125 stores / 240 clients / 2000 ops) suffers three
//     partition/heal cycles, ~10% rolling store churn, and a
//     flash-crowd join, under EVERY coherence model; the run must
//     converge, the faults must bite (evictions and re-admissions), and
//     the checkers must return clean verdicts.
//  8. soak — streaming verification + stability-horizon GC at 10x the
//     trajectory ops under churn: bounded retained memory, verdicts
//     equal to the post-hoc checkers, a 10% check budget.
//  9. snapshot_delta — page-granular state transfer: a trajectory-scale
//     deployment with a large document suffers repeated sparse-update
//     rejoins (caches crash and recover between small writes). Every
//     transfer must go through the delta path, and the shipped state
//     must be at least 5x smaller than the whole documents it replaced.
// 10. micro_snapshot — WebDocument snapshot encoding, uncached oracle
//     vs the shared snapshot cache (cutover-storm cost model).
// 11. history — history recording + checker verification: record and
//     check times on a trajectory-scale recorded history, which must
//     pass its causal model and every session guarantee (verdict
//     equality with the seed oracle is a ctest:
//     tests/checker_equivalence_test.cpp).
// 12. multi_object — many-object sharding: scaling with the shard
//     count (under 12 msgs/op: clock beacons follow writes, not
//     hosted objects), hot-shard churn isolation, and
//     digest equivalence of a single-object deployment against the
//     legacy path.
// 13. observability — the write-lifecycle tracer: a deployment run
//     with tracing off must put byte-identical traffic on the wire
//     run-to-run (FNV digest over every delivered datagram), tracing
//     every write must cost <= 2% wall clock and must put a context on
//     the wire, the sampled write's spans must form one connected trace
//     without overflowing the span ring, and the Chrome-trace JSON
//     plus (checked builds) a monitor-trip window dump are written as
//     artifacts.
//
// Usage: bench_scale [--smoke] [--out <path>]
//   --smoke  tiny sizes; validates the harness (CI bitrot check)
// Exits 1 when any gate fails, after printing every failed one.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "globe/check/monitor.hpp"
#include "globe/fault/scenario.hpp"
#include "globe/metrics/histogram.hpp"
#include "globe/net/loopback.hpp"
#include "globe/net/windowed_multicast.hpp"
#include "globe/obs/export.hpp"
#include "globe/obs/trace.hpp"
#include "globe/replication/write_log.hpp"
#include "globe/web/document.hpp"

namespace globe::bench {
namespace {

using replication::ObjectConfig;
using replication::StoreConfig;
using replication::StoreEngine;
using replication::Testbed;
using replication::TestbedOptions;
using replication::WriteLog;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------
// 1. WriteLog delta microbenchmark
// ---------------------------------------------------------------------

struct MicroResult {
  std::size_t records = 0;
  std::size_t queries = 0;
  double indexed_s = 0;
  std::size_t delta_records = 0;
};

MicroResult micro_writelog(int records, int queries, int writers, int pages) {
  util::Rng rng(99);
  WriteLog log;
  std::vector<std::uint64_t> next_seq(writers, 1);
  for (int i = 0; i < records; ++i) {
    const auto client = static_cast<ClientId>(rng.below(writers));
    web::WriteRecord rec;
    rec.wid = coherence::WriteId{client, next_seq[client]++};
    rec.page = "page" + std::to_string(rng.below(pages)) + ".html";
    rec.content = "content-" + std::to_string(i);
    rec.lamport = i + 1;
    log.append(rec);
  }

  // Near-tip requesters: each misses the last ~16 writes — the steady
  // state of a replica polling a busy object.
  std::vector<coherence::VectorClock> haves;
  haves.reserve(queries);
  for (int q = 0; q < queries; ++q) {
    coherence::VectorClock have;
    for (int c = 0; c < writers; ++c) {
      const std::uint64_t top = next_seq[c] - 1;
      const std::uint64_t missing = rng.below(3);
      have.set(static_cast<ClientId>(c),
               top > missing ? top - missing : 0);
    }
    haves.push_back(std::move(have));
  }

  MicroResult res;
  res.records = static_cast<std::size_t>(records);
  res.queries = static_cast<std::size_t>(queries);

  const auto start = Clock::now();
  for (const auto& have : haves) {
    res.delta_records += log.records_since(have, 0).size();
  }
  res.indexed_s = seconds_since(start);
  return res;
}

// ---------------------------------------------------------------------
// 2. End-to-end long-history scenarios
// ---------------------------------------------------------------------

struct E2eResult {
  int writes = 0;
  int stores = 0;
  double indexed_s = 0;
  std::uint64_t events = 0;  // simulator events
  bool converged = false;
};

/// A primary accumulates `writes` records (no compaction: the full
/// history is the worst case for delta computation) while `stores`
/// replicas of `store_class` pull from it under `policy`.
E2eResult run_long_history(const core::ReplicationPolicy& policy,
                           naming::StoreClass store_class,
                           std::uint64_t seed, std::uint64_t write_seed,
                           int writes, int stores) {
  TestbedOptions opts;
  opts.seed = seed;
  opts.record_history = false;
  // Poll period must exceed the fetch round-trip, or a request is always
  // in flight and the run can never quiesce; short metro links model
  // replicas near their upstream.
  opts.wan.base_latency = sim::SimDuration::millis(1);
  opts.log_compact_threshold = 0;
  const auto start = Clock::now();
  Testbed bed(opts);
  constexpr ObjectId kObj = 1;

  auto& primary = bed.add_primary(kObj, policy);
  for (int s = 0; s < stores; ++s) bed.add_store(kObj, store_class, policy);
  bed.settle();

  util::Rng rng(write_seed);
  for (int i = 0; i < writes; ++i) {
    primary.seed("page" + std::to_string(rng.below(32)) + ".html",
                 "v" + std::to_string(i));
    bed.run_for(sim::SimDuration::millis(4));
  }
  bed.settle();
  E2eResult res;
  res.writes = writes;
  res.stores = stores;
  res.events = bed.sim().events_run();
  res.converged = bed.converged(kObj);
  res.indexed_s = seconds_since(start);
  return res;
}

/// Long-history pull: PRAM replicas poll the primary every 10 ms.
E2eResult run_pull_scenario(int writes, int stores) {
  core::ReplicationPolicy policy;
  policy.model = coherence::ObjectModel::kPram;
  policy.initiative = core::TransferInitiative::kPull;
  policy.coherence_transfer = core::CoherenceTransfer::kPartial;
  policy.lazy_period = sim::SimDuration::millis(10);  // poll period
  return run_long_history(policy, naming::StoreClass::kClientInitiated,
                          /*seed=*/11, /*write_seed=*/3, writes, stores);
}

/// Long-history anti-entropy: eventual coherence, every store gossips
/// with the primary (reply and push-back are both log deltas).
E2eResult run_anti_entropy_scenario(int writes, int stores) {
  core::ReplicationPolicy policy;
  policy.model = coherence::ObjectModel::kEventual;
  policy.write_set = core::WriteSet::kMultiple;
  policy.initiative = core::TransferInitiative::kPull;  // anti-entropy
  policy.coherence_transfer = core::CoherenceTransfer::kPartial;
  policy.lazy_period = sim::SimDuration::millis(10);
  return run_long_history(policy, naming::StoreClass::kObjectInitiated,
                          /*seed=*/13, /*write_seed=*/5, writes, stores);
}

// ---------------------------------------------------------------------
// 3. Scale trajectory across coherence models
// ---------------------------------------------------------------------

struct TrajectoryRow {
  std::string model;
  int stores = 0;
  int clients = 0;
  int ops = 0;
  double wall_s = 0;
  double msgs_per_op = 0;
  double kb_per_op = 0;
  double stale_versions = 0;
  bool converged = false;
  bool model_ok = false;
};

TrajectoryRow run_trajectory(coherence::ObjectModel model, int mirrors,
                             int caches, int clients, int ops) {
  ScenarioConfig cfg;
  cfg.policy.model = model;
  if (model == coherence::ObjectModel::kCausal ||
      model == coherence::ObjectModel::kEventual) {
    cfg.policy.write_set = core::WriteSet::kMultiple;
    cfg.policy.initiative = core::TransferInitiative::kPush;
  }
  cfg.mirrors = mirrors;
  cfg.caches = caches;
  cfg.clients = clients;
  cfg.ops = ops;
  cfg.pages = 24;
  cfg.think = sim::SimDuration::millis(10);
  cfg.seed = 17;

  const auto start = Clock::now();
  const ScenarioResult r = run_scenario(cfg);
  TrajectoryRow row;
  row.model = coherence::to_string(model);
  row.stores = 1 + mirrors + caches;
  row.clients = clients;
  row.ops = ops;
  row.wall_s = seconds_since(start);
  row.msgs_per_op = r.msgs_per_op;
  row.kb_per_op = r.bytes_per_op / 1024.0;
  row.stale_versions = r.stale_versions_mean;
  row.converged = r.converged;
  row.model_ok = r.model_ok;
  return row;
}

// ---------------------------------------------------------------------
// 4. Propagation fan-out through shared record batches
// ---------------------------------------------------------------------

struct FanoutRow {
  std::string mode;  // immediate | lazy | pull | loopback
  int subscribers = 0;
  int writes = 0;
  double shared_s = 0;
  bool converged = false;
};

struct FanoutRun {
  double wall_s = 0;
  bool converged = false;
  std::vector<util::Buffer> digests;  // per-store delivered state
};

FanoutRow run_fanout(const std::string& mode, int subscribers, int writes) {
  TestbedOptions opts;
  opts.seed = 29;
  opts.record_history = false;
  opts.wan.base_latency = sim::SimDuration::millis(1);
  const auto start = Clock::now();
  Testbed bed(opts);
  constexpr ObjectId kObj = 1;

  core::ReplicationPolicy policy;  // PRAM, push, immediate, partial
  if (mode == "lazy") {
    policy.instant = core::TransferInstant::kLazy;
    policy.lazy_period = sim::SimDuration::millis(10);
  } else if (mode == "pull") {
    policy.initiative = core::TransferInitiative::kPull;
    policy.lazy_period = sim::SimDuration::millis(10);  // poll period
  }

  auto& primary = bed.add_primary(kObj, policy);
  for (int s = 0; s < subscribers; ++s) {
    bed.add_store(kObj, naming::StoreClass::kObjectInitiated, policy);
  }
  bed.settle();

  util::Rng rng(7);
  const std::string payload(2048, 'f');
  for (int i = 0; i < writes; ++i) {
    primary.seed("page" + std::to_string(rng.below(16)) + ".html",
                 payload + std::to_string(i));
    bed.run_for(sim::SimDuration::millis(2));
  }
  bed.settle();

  FanoutRow row;
  row.mode = mode;
  row.subscribers = subscribers;
  row.writes = writes;
  row.shared_s = seconds_since(start);
  row.converged = bed.converged(kObj);
  return row;
}

// ---------------------------------------------------------------------
// 5. Fan-out over the threaded loopback runtime
// ---------------------------------------------------------------------

FanoutRun run_loopback_fanout(int subscribers, int writes,
                              net::WindowedMulticast* window = nullptr) {
  net::LoopbackRouter router;
  sim::Simulator sim;  // clock source only; delivery is thread-driven
  std::vector<std::unique_ptr<StoreEngine>> stores;
  NodeId next_node = 0;
  auto make_factory = [&router, &next_node, window]() {
    const NodeId node = next_node++;
    core::TransportFactory base(
        [&router, node](net::MessageHandler h) -> std::unique_ptr<net::Transport> {
          return std::make_unique<net::LoopbackTransport>(
              router, net::Address{node, 1}, std::move(h));
        });
    if (window == nullptr) return base;
    net::TransportFactoryFn wrapped =
        net::windowed_factory(*window, std::move(base));
    return core::TransportFactory(
        [wrapped = std::move(wrapped)](net::MessageHandler h) {
          return wrapped(std::move(h));
        });
  };

  StoreConfig pcfg;
  pcfg.store_id = 0;
  pcfg.is_primary = true;
  pcfg.flow = window;
  ObjectConfig oc;  // PRAM push immediate partial: no timers, no sim run
  oc.object = 1;
  stores.push_back(std::make_unique<StoreEngine>(
      make_factory(), sim, pcfg, std::vector<ObjectConfig>{oc}));
  oc.upstream = stores.front()->address();
  for (int s = 0; s < subscribers; ++s) {
    StoreConfig cfg;
    cfg.store_id = static_cast<StoreId>(s + 1);
    cfg.store_class = naming::StoreClass::kObjectInitiated;
    cfg.flow = window;
    stores.push_back(std::make_unique<StoreEngine>(
        make_factory(), sim, cfg, std::vector<ObjectConfig>{oc}));
  }
  router.drain();  // all subscriptions acknowledged

  const auto start = Clock::now();
  const std::string payload(2048, 'l');
  for (int i = 0; i < writes; ++i) {
    stores.front()->seed("page" + std::to_string(i % 16) + ".html",
                         payload + std::to_string(i));
    // Run the network periodically: acks and credit only move when the
    // router does, and a burst that never yields starves the flow
    // window until the engine declares every peer hopeless. The cadence
    // leaves enough queued between drains for coalescing to engage, and
    // applies to unwindowed runs too so timings stay comparable.
    if (i % 64 == 63) router.drain();
  }
  router.drain();
  if (window != nullptr) {
    // Batches parked while a peer was flow-paused flush on the
    // propagation path once the resume event is polled; a few explicit
    // rounds drain them (mirrors Testbed::settle).
    for (int round = 0; round < 8; ++round) {
      for (auto& s : stores) s->finalize_propagation();
      router.drain();
    }
  }

  FanoutRun out;
  out.wall_s = seconds_since(start);
  out.converged = true;
  for (std::size_t i = 1; i < stores.size(); ++i) {
    out.converged = out.converged &&
                    stores[i]->document() == stores.front()->document();
  }
  for (const auto& s : stores) out.digests.push_back(replication::store_state_digest(*s));
  stores.clear();  // unbind endpoints before the router goes away
  return out;
}

// ---------------------------------------------------------------------
// 6. Windowed credit-based multicast on the threaded runtime
// ---------------------------------------------------------------------

struct WindowRow {
  int subscribers = 0;
  int writes = 0;
  double unwindowed_s = 0;
  double windowed_s = 0;
  double mb_per_s = 0;   // delivered payload bytes, windowed run
  double ops_per_s = 0;  // seeds per second, windowed run
  std::uint64_t data_frames = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t frames_shared = 0;
  std::uint64_t retransmits = 0;
  std::size_t queue_high_watermark = 0;
  std::size_t max_queue = 0;
  bool queue_bounded = false;
  bool identical = false;
  bool converged = false;
  // Slow-subscriber fault: one peer's data frames are dropped mid-burst.
  bool fault_paused = false;     // the engine saw the pause
  bool fault_bounded = false;    // pending stayed inside the bound
  bool fault_recovered = false;  // victim caught up after the heal
  std::uint64_t fault_evictions = 0;
};

/// Loopback transport decorator that drops windowed DATA frames sent to
/// one victim address while the fault flag is up — the wire-level shape
/// of a subscriber whose inbound path stopped draining.
class DropToPeerTransport final : public net::Transport {
 public:
  DropToPeerTransport(std::unique_ptr<net::Transport> inner,
                      net::Address victim,
                      std::shared_ptr<std::atomic<bool>> dropping)
      : inner_(std::move(inner)),
        victim_(victim),
        dropping_(std::move(dropping)) {}

  void send_shared(const net::Address& to,
                   util::SharedBuffer payload) override {
    if (dropping_->load() && to == victim_ && !payload->empty() &&
        static_cast<std::uint8_t>((*payload)[0]) == net::kDataFrameKind) {
      return;
    }
    inner_->send_shared(to, std::move(payload));
  }

  [[nodiscard]] net::Address local_address() const override {
    return inner_->local_address();
  }

 private:
  std::unique_ptr<net::Transport> inner_;
  net::Address victim_;
  std::shared_ptr<std::atomic<bool>> dropping_;
};

/// One slow subscriber under a windowed fan-out: its channel must pause
/// (not grow without bound), healthy peers must keep converging, and the
/// victim must catch up once its path heals.
void run_window_fault(int subscribers, int writes, WindowRow& row) {
  net::WindowOptions wopts;
  wopts.window_size = 8;
  wopts.max_queue = 16;  // pause at 8 pending, resume at <= 4
  net::WindowedMulticast window(wopts);
  net::LoopbackRouter router;
  sim::Simulator sim;
  auto dropping = std::make_shared<std::atomic<bool>>(false);
  const net::Address victim{1, 1};  // first subscriber (primary is node 0)

  std::vector<std::unique_ptr<StoreEngine>> stores;
  NodeId next_node = 0;
  auto make_factory = [&]() {
    const NodeId node = next_node++;
    const bool is_primary = node == 0;
    net::TransportFactoryFn inner =
        [&router, node, is_primary, victim, dropping](
            net::MessageHandler h) -> std::unique_ptr<net::Transport> {
      auto t = std::make_unique<net::LoopbackTransport>(
          router, net::Address{node, 1}, std::move(h));
      if (!is_primary) return t;
      return std::make_unique<DropToPeerTransport>(std::move(t), victim,
                                                   dropping);
    };
    net::TransportFactoryFn wrapped =
        net::windowed_factory(window, std::move(inner));
    return core::TransportFactory(
        [wrapped = std::move(wrapped)](net::MessageHandler h) {
          return wrapped(std::move(h));
        });
  };

  StoreConfig pcfg;
  pcfg.store_id = 0;
  pcfg.is_primary = true;
  pcfg.flow = &window;
  // This leg measures pause -> park -> resume recovery, so the victim's
  // parked batches must outlive the burst: disable the hopeless-peer
  // disposition that would otherwise discard them after 64 paused rounds.
  pcfg.flow_paused_rounds_limit = 0;
  ObjectConfig oc;
  oc.object = 1;
  stores.push_back(std::make_unique<StoreEngine>(
      make_factory(), sim, pcfg, std::vector<ObjectConfig>{oc}));
  const net::Address primary_addr = stores.front()->address();
  oc.upstream = primary_addr;
  for (int s = 0; s < subscribers; ++s) {
    StoreConfig cfg;
    cfg.store_id = static_cast<StoreId>(s + 1);
    cfg.store_class = naming::StoreClass::kObjectInitiated;
    cfg.flow = &window;
    stores.push_back(std::make_unique<StoreEngine>(
        make_factory(), sim, cfg, std::vector<ObjectConfig>{oc}));
  }
  router.drain();  // subscriptions + bootstrap before the fault

  dropping->store(true);
  const std::string payload(2048, 'f');
  for (int i = 0; i < writes; ++i) {
    stores.front()->seed("page" + std::to_string(i % 16) + ".html",
                         payload + std::to_string(i));
    // Keep the network moving so healthy peers' acks return credit and
    // they resume mid-burst; the victim's acks are dropped, so it stays
    // paused and its batches stay parked.
    if (i % 8 == 7) router.drain();
  }
  router.drain();
  // Healthy peers can brush the pause threshold during the burst too;
  // flush their parked batches. The victim stays paused (no acks), so
  // its parked state survives these rounds.
  for (int round = 0; round < 8; ++round) {
    for (auto& s : stores) s->finalize_propagation();
    router.drain();
  }

  row.fault_paused = window.peer_paused(primary_addr, victim) ||
                     window.stats().pauses > 0;
  row.fault_bounded =
      window.stats().queue_high_watermark <= wopts.max_queue;
  bool healthy_converged = true;
  for (std::size_t i = 2; i < stores.size(); ++i) {
    healthy_converged = healthy_converged &&
                        stores[i]->document() == stores.front()->document();
  }
  row.fault_bounded = row.fault_bounded && healthy_converged;

  dropping->store(false);
  for (int round = 0; round < 200; ++round) {
    if (stores[1]->document() == stores.front()->document()) break;
    window.tick(primary_addr);  // retransmit into the healed path
    router.drain();
    for (auto& s : stores) s->finalize_propagation();
    router.drain();
  }
  row.fault_recovered =
      stores[1]->document() == stores.front()->document();
  row.fault_evictions = window.stats().evictions;
  stores.clear();
}

WindowRow run_multicast_window(int subscribers, int writes) {
  WindowRow row;
  row.subscribers = subscribers;
  row.writes = writes;

  const FanoutRun plain = run_loopback_fanout(subscribers, writes);
  net::WindowedMulticast window;  // default options
  const FanoutRun windowed = run_loopback_fanout(subscribers, writes, &window);

  row.unwindowed_s = plain.wall_s;
  row.windowed_s = windowed.wall_s;
  row.converged = plain.converged && windowed.converged;
  row.identical = plain.digests == windowed.digests;
  if (!row.identical) {
    for (std::size_t i = 0; i < plain.digests.size(); ++i) {
      if (plain.digests[i] == windowed.digests[i]) continue;
      std::size_t off = 0;
      const std::size_t n =
          std::min(plain.digests[i].size(), windowed.digests[i].size());
      while (off < n && plain.digests[i][off] == windowed.digests[i][off]) {
        ++off;
      }
      std::fprintf(stderr,
                   "  store %zu: digests differ at byte %zu (%zu vs %zu)\n",
                   i, off, plain.digests[i].size(),
                   windowed.digests[i].size());
    }
    const net::WindowStats ws = window.stats();
    std::fprintf(stderr,
                 "  window: frames=%llu dropped=%llu pauses=%llu "
                 "resumes=%llu evictions=%llu queue_hwm=%zu stash_drops=%llu "
                 "retransmits=%llu\n",
                 static_cast<unsigned long long>(ws.data_frames_sent),
                 static_cast<unsigned long long>(ws.dropped_payloads),
                 static_cast<unsigned long long>(ws.pauses),
                 static_cast<unsigned long long>(ws.resumes),
                 static_cast<unsigned long long>(ws.evictions),
                 ws.queue_high_watermark,
                 static_cast<unsigned long long>(ws.stash_drops),
                 static_cast<unsigned long long>(ws.retransmits));
    std::fprintf(stderr, "FATAL: windowed multicast digests diverged\n");
    std::exit(1);
  }

  // Delivered payload volume: every seed's content reaches every
  // subscriber (records also carry page names and clocks; this is the
  // conservative content-only number).
  double delivered_bytes = 0;
  for (int i = 0; i < writes; ++i) {
    delivered_bytes += static_cast<double>(
        (2048 + std::to_string(i).size()) *
        static_cast<std::size_t>(subscribers));
  }
  if (windowed.wall_s > 0) {
    row.mb_per_s = delivered_bytes / windowed.wall_s / 1e6;
    row.ops_per_s = writes / windowed.wall_s;
  }
  const net::WindowStats s = window.stats();
  row.data_frames = s.data_frames_sent;
  row.coalesced = s.datagrams_coalesced;
  row.frames_shared = s.frames_shared;
  row.retransmits = s.retransmits;
  row.queue_high_watermark = s.queue_high_watermark;
  row.max_queue = window.options().max_queue;
  row.queue_bounded = s.queue_high_watermark <= row.max_queue &&
                      s.dropped_payloads == 0;

  run_window_fault(subscribers, writes, row);
  return row;
}

// ---------------------------------------------------------------------
// 7. Churn: membership + fault scenarios at trajectory scale
// ---------------------------------------------------------------------

struct ChurnRow {
  std::string model;
  int stores = 0;
  int clients = 0;
  int ops = 0;
  double wall_s = 0;
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t partitions = 0;
  std::uint64_t heals = 0;
  std::uint64_t joins = 0;
  std::uint64_t evictions = 0;
  std::uint64_t rejoins = 0;
  std::uint64_t view_changes = 0;
  std::uint64_t client_rebinds = 0;
  std::uint64_t snapshot_cutovers = 0;
  std::uint64_t delta_snapshots = 0;
  std::uint64_t full_snapshots = 0;
  std::uint64_t snapshot_pages_shipped = 0;
  std::uint64_t snapshot_bytes_saved = 0;
  std::uint64_t horizon_advances = 0;
  std::uint64_t events_retired = 0;
  std::uint64_t tombstones_collected = 0;
  std::size_t events = 0;
  bool converged = false;
  bool model_ok = false;
  bool sessions_ok = false;
};

ChurnRow run_churn(coherence::ObjectModel model, int mirrors, int caches,
                   int clients, int ops, bool smoke) {
  TestbedOptions opts;
  opts.seed = 47 + static_cast<std::uint64_t>(model);
  opts.enable_membership = true;
  // The failure timeout must sit well inside the scripted partition
  // window (10% of the run) or the eviction / re-admission / rebinding
  // machinery this section gates is never exercised.
  opts.membership_heartbeat = sim::SimDuration::millis(smoke ? 10 : 100);
  opts.failure_timeout = sim::SimDuration::millis(smoke ? 30 : 400);
  opts.wan.base_latency = sim::SimDuration::millis(5);
  opts.client_timeout = sim::SimDuration::millis(300);
  opts.client_retries = 1;
  Testbed bed(opts);
  constexpr ObjectId kObj = 1;

  const auto start = Clock::now();
  core::ReplicationPolicy policy;
  policy.model = model;
  policy.object_outdate_reaction = core::OutdateReaction::kDemand;
  if (model == coherence::ObjectModel::kCausal ||
      model == coherence::ObjectModel::kEventual) {
    policy.write_set = core::WriteSet::kMultiple;
  }

  // Writes-follow-reads needs a cross-writer apply order: the causal
  // orderer enforces the dependencies, and the sequential total order
  // subsumes them. PRAM-family and eventual objects only promise
  // per-writer order, which churn-driven resyncs legitimately exploit,
  // so their clients hold the other three guarantees.
  auto session = coherence::ClientModel::kMonotonicWrites |
                 coherence::ClientModel::kReadYourWrites |
                 coherence::ClientModel::kMonotonicReads;
  if (model == coherence::ObjectModel::kSequential ||
      model == coherence::ObjectModel::kCausal) {
    session = session | coherence::ClientModel::kWritesFollowReads;
  }

  auto& primary = bed.add_primary(kObj, policy);
  const int pages = 24;
  for (int i = 0; i < pages; ++i) {
    primary.seed("page" + std::to_string(i) + ".html", "v0");
  }
  std::vector<net::Address> mirror_addrs;
  for (int i = 0; i < mirrors; ++i) {
    mirror_addrs.push_back(
        bed.add_store(kObj, naming::StoreClass::kObjectInitiated, policy)
            .address());
  }
  bed.settle();
  std::vector<net::Address> cache_addrs;
  for (int i = 0; i < caches; ++i) {
    cache_addrs.push_back(
        bed.add_store(kObj, naming::StoreClass::kClientInitiated, policy,
                      mirror_addrs[i % mirror_addrs.size()])
            .address());
  }
  bed.settle();
  std::vector<replication::ClientBinding*> users;
  for (int i = 0; i < clients; ++i) {
    users.push_back(&bed.add_client(kObj, session,
                                    cache_addrs[i % cache_addrs.size()]));
  }
  bed.settle();

  // Scenario, scaled to the run length T = ops * think: three
  // partition/heal cycles, a rolling-churn window crashing ~10% of the
  // stores, and a flash-crowd join near the end. The partition splits
  // off the last mirror with its caches (and, via the testbed host,
  // their clients); services stay with the primary.
  const auto think = sim::SimDuration::millis(10);
  const std::int64_t total_ms = ops * think.count_micros() / 1000;
  std::string side_b = std::to_string(mirrors);  // the last mirror
  for (int i = 0; i < caches; ++i) {
    if (i % mirrors == mirrors - 1) {
      side_b += "," + std::to_string(1 + mirrors + i);
    }
  }
  std::string side_a;
  for (int s = 0; s < 1 + mirrors + caches; ++s) {
    const std::string tok = std::to_string(s);
    if (("," + side_b + ",").find("," + tok + ",") != std::string::npos ||
        side_b == tok) {
      continue;
    }
    side_a += (side_a.empty() ? "" : ",") + tok;
  }
  const auto at = [&](double frac) {
    return std::to_string(
               static_cast<std::int64_t>(frac * static_cast<double>(total_ms))) +
           "ms";
  };
  std::string text;
  for (const double f : {0.10, 0.40, 0.70}) {
    text += "at " + at(f) + " partition " + side_a + "|" + side_b + "\n";
    text += "at " + at(f + 0.10) + " heal\n";
  }
  text += "at " + at(0.52) + " churn period=" + at(0.02) +
          " until=" + at(0.64) + " down=" + at(0.03) + " fraction=0.016\n";
  text += "at " + at(0.85) + " join " + std::to_string(smoke ? 2 : 8) + "\n";

  fault::ScenarioScript script;
  std::string error;
  if (!fault::ScenarioScript::parse(text, &script, &error)) {
    std::fprintf(stderr, "FATAL: churn script did not parse: %s\n%s\n",
                 error.c_str(), text.c_str());
    std::exit(1);
  }
  replication::TestbedFaultHost host(bed);
  fault::ScenarioEngine engine(std::move(script), host, opts.seed);
  engine.arm(bed.sim());

  util::Rng rng(opts.seed * 31 + 7);
  workload::ZipfGenerator zipf(pages, 0.9);
  for (int op = 0; op < ops; ++op) {
    auto& c = *users[rng.below(users.size())];
    const std::string page =
        "page" + std::to_string(zipf.sample(rng)) + ".html";
    if (rng.chance(0.10)) {
      c.write(page, "v" + std::to_string(op), [](replication::WriteResult) {});
    } else {
      c.read(page, [](replication::ReadResult) {});
    }
    bed.run_for(think);
  }
  // Cover the scenario tail (recoveries, re-admissions), then let the
  // resync rounds and heartbeats drain.
  bed.run_for(engine.duration() + sim::SimDuration::seconds(smoke ? 1 : 3));
  bed.settle();

  ChurnRow row;
  row.model = coherence::to_string(model);
  row.stores = static_cast<int>(bed.stores().size());
  row.clients = clients;
  row.ops = ops;
  row.crashes = engine.stats().crashes;
  row.recoveries = engine.stats().recoveries;
  row.partitions = engine.stats().partitions;
  row.heals = engine.stats().heals;
  row.joins = engine.stats().joins;
  row.evictions = bed.membership().stats().evictions;
  row.rejoins = bed.membership().stats().rejoins;
  row.view_changes = bed.membership().stats().view_changes;
  row.snapshot_cutovers = bed.metrics().snapshot_cutovers();
  row.delta_snapshots = bed.metrics().delta_snapshots();
  row.full_snapshots = bed.metrics().full_snapshots();
  row.snapshot_pages_shipped = bed.metrics().snapshot_pages_shipped();
  row.snapshot_bytes_saved = bed.metrics().snapshot_bytes_saved();
  row.horizon_advances = bed.metrics().horizon_advances();
  row.events_retired = bed.metrics().events_retired();
  row.tombstones_collected = bed.metrics().tombstones_collected();
  for (const auto* u : users) row.client_rebinds += u->rebinds();
  row.events = bed.history().size();
  row.converged = bed.converged(kObj);
  row.model_ok = coherence::check_object_model(bed.history(), model).ok;
  std::vector<coherence::SessionSpec> specs;
  specs.reserve(users.size());
  for (const auto* u : users) specs.push_back({u->id(), session});
  row.sessions_ok = true;
  for (const auto& res : coherence::check_sessions(bed.history(), specs)) {
    row.sessions_ok = row.sessions_ok && res.ok;
  }
  row.wall_s = seconds_since(start);
  return row;
}

// ---------------------------------------------------------------------
// 8. Soak: bounded-memory verification + stability-horizon GC, 10x ops
// ---------------------------------------------------------------------
//
// The long-run configuration the streaming checker and the horizon
// collectors exist for: 10x the trajectory op count under rolling store
// churn, with a live StreamingChecker attached to the recorder and the
// cluster stability horizon as the ONLY write-log compactor
// (log_compact_threshold = 0). Gates: the checker's retained-event high
// watermark stays under 25% of the event total, write-log records and
// tombstones are collected behind the advancing floor, verdicts are
// byte-identical to the post-hoc replay of the fully retained history,
// and the check-as-you-record overhead — measured by replaying the
// recorded stream with and without the checker attached — stays within
// 10% of record-only.

struct SoakRow {
  std::string model;
  int stores = 0;
  int clients = 0;
  int ops = 0;
  double wall_s = 0;
  double ops_per_s = 0;
  double record_only_s = 0;   // replayed stream, recorder alone
  double record_check_s = 0;  // replayed stream, checker attached
  double check_overhead_pct = 0;
  std::size_t events = 0;
  std::size_t retained_hwm = 0;
  std::uint64_t events_retired = 0;
  std::uint64_t horizon_advances = 0;
  std::uint64_t tombstones_collected = 0;
  std::size_t tombstones_left = 0;
  std::uint64_t log_compactions = 0;
  std::uint64_t log_appended = 0;
  std::size_t log_retained_records = 0;
  std::size_t log_retained_bytes = 0;
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  bool verdicts_equal = false;
  bool exact = false;
  bool memory_bounded = false;
  bool clean = false;
  bool converged = false;
};

// Runs the soak deployment + workload once. With `with_streaming`, a
// StreamingChecker (with buffered read clocks — churn-era timeouts and
// retries legitimately complete client ops out of program order) rides
// the recorder and `row` is filled from the run; without it the same
// run is the unbounded record-only baseline. Returns wall seconds.
double run_soak_sim(int mirrors, int caches, int clients, int ops,
                    bool smoke, bool with_streaming, SoakRow* row) {
  TestbedOptions opts;
  opts.seed = 101;
  opts.enable_membership = true;
  opts.membership_heartbeat = sim::SimDuration::millis(smoke ? 10 : 100);
  opts.failure_timeout = sim::SimDuration::millis(smoke ? 30 : 400);
  opts.wan.base_latency = sim::SimDuration::millis(5);
  opts.client_timeout = sim::SimDuration::millis(300);
  opts.client_retries = 1;
  // No count-based compaction: a bounded log at the end proves the
  // stability horizon collected it.
  opts.log_compact_threshold = 0;
  Testbed bed(opts);
  constexpr ObjectId kObj = 1;
  const auto model = coherence::ObjectModel::kCausal;
  coherence::StreamingChecker* sc = nullptr;
  if (with_streaming) {
    coherence::StreamingChecker::Options sc_opts;
    sc_opts.buffer_clocks = true;
    sc = &bed.enable_streaming(model, sc_opts);
  }

  const auto start = Clock::now();
  core::ReplicationPolicy policy;
  policy.model = model;
  policy.write_set = core::WriteSet::kMultiple;
  policy.object_outdate_reaction = core::OutdateReaction::kDemand;
  const auto session = coherence::ClientModel::kMonotonicWrites |
                       coherence::ClientModel::kReadYourWrites |
                       coherence::ClientModel::kMonotonicReads |
                       coherence::ClientModel::kWritesFollowReads;

  auto& primary = bed.add_primary(kObj, policy);
  const int pages = 24;
  for (int i = 0; i < pages; ++i) {
    primary.seed("page" + std::to_string(i) + ".html", "v0");
  }
  std::vector<net::Address> mirror_addrs;
  for (int i = 0; i < mirrors; ++i) {
    mirror_addrs.push_back(
        bed.add_store(kObj, naming::StoreClass::kObjectInitiated, policy)
            .address());
  }
  bed.settle();
  std::vector<net::Address> cache_addrs;
  for (int i = 0; i < caches; ++i) {
    cache_addrs.push_back(
        bed.add_store(kObj, naming::StoreClass::kClientInitiated, policy,
                      mirror_addrs[i % mirror_addrs.size()])
            .address());
  }
  bed.settle();
  std::vector<replication::ClientBinding*> users;
  for (int i = 0; i < clients; ++i) {
    users.push_back(&bed.add_client(kObj, session,
                                    cache_addrs[i % cache_addrs.size()]));
  }
  bed.settle();

  // Rolling churn through the middle 60% of the run: caches crash, sit
  // out past the failure timeout (eviction + horizon exclusion), and
  // recover into a snapshot bootstrap against the compacted logs.
  const auto think = sim::SimDuration::millis(10);
  const std::int64_t total_ms = ops * think.count_micros() / 1000;
  const auto at = [&](double frac) {
    return std::to_string(
               static_cast<std::int64_t>(frac * static_cast<double>(total_ms))) +
           "ms";
  };
  const std::string text = "at " + at(0.20) + " churn period=" + at(0.02) +
                           " until=" + at(0.80) + " down=" + at(0.03) +
                           " fraction=0.05\n";
  fault::ScenarioScript script;
  std::string error;
  if (!fault::ScenarioScript::parse(text, &script, &error)) {
    std::fprintf(stderr, "FATAL: soak script did not parse: %s\n%s\n",
                 error.c_str(), text.c_str());
    std::exit(1);
  }
  replication::TestbedFaultHost host(bed);
  fault::ScenarioEngine engine(std::move(script), host, opts.seed);
  engine.arm(bed.sim());

  util::Rng rng(opts.seed * 31 + 7);
  workload::ZipfGenerator zipf(pages, 0.9);
  for (int op = 0; op < ops; ++op) {
    auto& c = *users[rng.below(users.size())];
    const std::string page =
        "page" + std::to_string(zipf.sample(rng)) + ".html";
    if (op % 97 == 41) {
      // Deletions feed the tombstone collector; the page comes back via
      // later zipf writes.
      c.remove(page, [](replication::WriteResult) {});
    } else if (rng.chance(0.10)) {
      c.write(page, "v" + std::to_string(op), [](replication::WriteResult) {});
    } else {
      c.read(page, [](replication::ReadResult) {});
    }
    bed.run_for(think);
  }
  bed.run_for(engine.duration() + sim::SimDuration::seconds(smoke ? 1 : 3));
  bed.settle();
  // Let the final applied clocks ride a few heartbeats so the horizon
  // catches up with the quiesced run before the plateau is measured.
  bed.run_for(sim::SimDuration::millis(smoke ? 200 : 1000));
  const double wall = seconds_since(start);

  if (row == nullptr) return wall;
  row->model = coherence::to_string(model);
  row->stores = static_cast<int>(bed.stores().size());
  row->clients = clients;
  row->ops = ops;
  row->wall_s = wall;
  row->ops_per_s = wall > 0 ? ops / wall : 0.0;
  row->crashes = engine.stats().crashes;
  row->recoveries = engine.stats().recoveries;
  row->events = bed.history().size();
  row->retained_hwm = sc->retained_high_watermark();
  row->events_retired = sc->events_retired();
  row->horizon_advances = bed.metrics().horizon_advances();
  row->tombstones_collected = bed.metrics().tombstones_collected();
  row->log_compactions = bed.metrics().log_compactions();
  for (const auto& s : bed.stores()) {
    const WriteLog& log = s->write_log(kObj);
    row->log_appended += log.appended_total();
    row->log_retained_records += log.size();
    row->log_retained_bytes += log.retained_bytes();
    row->tombstones_left += s->document(kObj).tombstones().size();
  }
  row->converged = bed.converged(kObj);

  // Verdict equivalence against the post-hoc replay of the retained
  // history, exact down to the violation strings (CheckResult
  // operator==).
  const coherence::CheckResult model_posthoc =
      coherence::check_object_model(bed.history(), model);
  std::vector<coherence::SessionSpec> specs;
  specs.reserve(users.size());
  for (const auto* u : users) specs.push_back({u->id(), session});
  const auto sessions_posthoc =
      coherence::check_sessions(bed.history(), specs);
  row->verdicts_equal = sc->model_result() == model_posthoc &&
                        sc->session_results() == sessions_posthoc;
  // Informational, not gated: churn-era retries complete ops out of
  // program order across retirement boundaries, which the checker
  // conservatively reports as inexact even when (as the line above
  // verifies directly) every verdict matches the post-hoc walk.
  row->exact = sc->exact();
  row->clean = model_posthoc.ok;
  for (const auto& res : sessions_posthoc) row->clean = row->clean && res.ok;

  // Bounded memory: the checker's retained-event peak stayed under 25%
  // of the event total, and the horizon (the only compactor in this
  // run) kept the write logs and tombstones from growing with the run.
  row->memory_bounded =
      row->events_retired > 0 && row->horizon_advances > 0 &&
      row->tombstones_collected > 0 && row->retained_hwm * 4 < row->events &&
      row->log_retained_records * 4 <
          static_cast<std::size_t>(row->log_appended);
  return wall;
}

SoakRow run_soak(int mirrors, int caches, int clients, int ops, bool smoke) {
  SoakRow row;
  // Check-as-you-record overhead: the identical deterministic run with
  // and without the checker attached to the recorder (the unbounded
  // record-only baseline). Best-of-N on both sides keeps the smoke-sized
  // comparison out of scheduler noise.
  const int reps = smoke ? 3 : 1;
  double with_check = 0, record_only = 0;
  for (int rep = 0; rep < reps; ++rep) {
    SoakRow* fill = rep == 0 ? &row : nullptr;
    const double w =
        run_soak_sim(mirrors, caches, clients, ops, smoke, true, fill);
    with_check = rep == 0 ? w : std::min(with_check, w);
  }
  for (int rep = 0; rep < reps; ++rep) {
    const double w =
        run_soak_sim(mirrors, caches, clients, ops, smoke, false, nullptr);
    record_only = rep == 0 ? w : std::min(record_only, w);
  }
  row.record_check_s = with_check;
  row.record_only_s = record_only;
  row.check_overhead_pct =
      record_only > 0 ? (with_check / record_only - 1.0) * 100.0 : 0.0;
  return row;
}

// ---------------------------------------------------------------------
// 9. Delta snapshots: sparse-update rejoins on a large document
// ---------------------------------------------------------------------

struct SnapshotDeltaResult {
  int stores = 0;
  int pages = 0;
  int page_bytes = 0;
  int rounds = 0;
  int rejoins = 0;
  double wall_s = 0;
  std::uint64_t state_bytes = 0;  // subscribe/snapshot/delta wire traffic
  std::uint64_t delta_transfers = 0;
  std::uint64_t full_transfers = 0;
  std::uint64_t pages_shipped = 0;
  std::uint64_t bytes_saved = 0;
  /// (state_bytes + bytes_saved) / state_bytes: how much smaller the
  /// shipped state was than the whole documents it replaced.
  double reduction = 0;
  bool converged = false;
};

SnapshotDeltaResult run_snapshot_delta(bool smoke) {
  const int mirrors = smoke ? 2 : 4;
  const int caches = smoke ? 6 : 120;
  const int pages = smoke ? 32 : 160;
  const int page_bytes = smoke ? 512 : 3072;
  const int rounds = smoke ? 4 : 12;
  const int rejoins_per_round = smoke ? 2 : 5;

  TestbedOptions opts;
  opts.seed = 61;
  opts.record_history = false;
  opts.wan.base_latency = sim::SimDuration::millis(1);
  Testbed bed(opts);
  constexpr ObjectId kObj = 1;

  core::ReplicationPolicy policy;  // PRAM push immediate partial
  policy.object_outdate_reaction = core::OutdateReaction::kDemand;

  auto& primary = bed.add_primary(kObj, policy);
  std::vector<net::Address> mirror_addrs;
  for (int i = 0; i < mirrors; ++i) {
    mirror_addrs.push_back(
        bed.add_store(kObj, naming::StoreClass::kObjectInitiated, policy)
            .address());
  }
  bed.settle();
  for (int i = 0; i < caches; ++i) {
    bed.add_store(kObj, naming::StoreClass::kClientInitiated, policy,
                  mirror_addrs[i % mirror_addrs.size()]);
  }
  bed.settle();

  // The document grows to production size AFTER the topology exists, so
  // the bootstrap snapshots stay out of the measurement.
  const std::string payload(static_cast<std::size_t>(page_bytes), 'd');
  for (int p = 0; p < pages; ++p) {
    primary.seed("page" + std::to_string(p) + ".html",
                 payload + std::to_string(p));
    if (p % 16 == 0) bed.run_for(sim::SimDuration::millis(2));
  }
  bed.settle();
  bed.metrics().reset();

  const auto start = Clock::now();
  util::Rng rng(opts.seed * 7 + 1);
  for (int r = 0; r < rounds; ++r) {
    // Rejoin storm with a sparse update in the middle: the caches go
    // down, a couple of pages change while they are away, and their
    // recovery re-bootstraps through the state-transfer path: a page
    // delta against the whole (mostly unchanged) document.
    std::vector<std::size_t> down;
    for (int k = 0; k < rejoins_per_round; ++k) {
      down.push_back(1 + static_cast<std::size_t>(mirrors) +
                     static_cast<std::size_t>((r * rejoins_per_round + k) %
                                              caches));
      bed.crash_store(down.back());
    }
    bed.run_for(sim::SimDuration::millis(2));
    for (int wv = 0; wv < 2; ++wv) {
      primary.seed("page" + std::to_string(rng.below(pages)) + ".html",
                   payload + "r" + std::to_string(r * 2 + wv));
    }
    bed.run_for(sim::SimDuration::millis(5));
    for (const std::size_t idx : down) {
      bed.recover_store(idx);
      bed.run_for(sim::SimDuration::millis(5));
    }
    bed.settle();
  }
  bed.settle();

  SnapshotDeltaResult out;
  out.stores = 1 + mirrors + caches;
  out.pages = pages;
  out.page_bytes = page_bytes;
  out.rounds = rounds;
  out.rejoins = rounds * rejoins_per_round;
  out.wall_s = seconds_since(start);
  out.converged = bed.converged(kObj);
  const auto& traffic = bed.metrics().traffic_by_type();
  for (const auto type :
       {msg::MsgType::kSubscribe, msg::MsgType::kSubscribeAck,
        msg::MsgType::kSnapshot, msg::MsgType::kSnapshotDeltaRequest,
        msg::MsgType::kSnapshotDeltaReply}) {
    auto it = traffic.find(static_cast<std::uint8_t>(type));
    if (it != traffic.end()) out.state_bytes += it->second.bytes;
  }
  out.delta_transfers = bed.metrics().delta_snapshots();
  out.full_transfers = bed.metrics().full_snapshots();
  out.pages_shipped = bed.metrics().snapshot_pages_shipped();
  out.bytes_saved = bed.metrics().snapshot_bytes_saved();
  out.reduction = out.state_bytes > 0
                      ? static_cast<double>(out.state_bytes + out.bytes_saved) /
                            static_cast<double>(out.state_bytes)
                      : 0.0;
  return out;
}

// ---------------------------------------------------------------------
// 10. Snapshot-cache microbenchmark
// ---------------------------------------------------------------------

struct SnapshotMicroResult {
  std::size_t pages = 0;
  std::size_t requests = 0;
  double uncached_s = 0;
  double cached_s = 0;
};

SnapshotMicroResult micro_snapshot(int pages, int requests) {
  web::WebDocument doc;
  for (int i = 0; i < pages; ++i) {
    web::WriteRecord rec;
    rec.wid = {1, static_cast<std::uint64_t>(i + 1)};
    rec.page = "page" + std::to_string(i) + ".html";
    rec.content = std::string(1024, 'p');
    doc.apply(rec);
  }

  SnapshotMicroResult res;
  res.pages = static_cast<std::size_t>(pages);
  res.requests = static_cast<std::size_t>(requests);

  // N snapshot requesters without the cache: N full encodes (the seed's
  // cutover-storm cost).
  std::size_t uncached_bytes = 0;
  auto start = Clock::now();
  for (int i = 0; i < requests; ++i) {
    uncached_bytes += doc.encode_snapshot().size();
  }
  res.uncached_s = seconds_since(start);

  // The same storm through the cache: one encode, N shared references.
  std::size_t cached_bytes = 0;
  start = Clock::now();
  for (int i = 0; i < requests; ++i) {
    cached_bytes += doc.snapshot()->size();
  }
  res.cached_s = seconds_since(start);

  if (uncached_bytes != cached_bytes ||
      *doc.snapshot() != doc.encode_snapshot()) {
    std::fprintf(stderr, "FATAL: cached snapshot diverged from oracle\n");
    std::exit(1);
  }
  return res;
}

// ---------------------------------------------------------------------
// 11. History recording + checker verification
// ---------------------------------------------------------------------
//
// The trajectory-scale scenario (1 primary + 4 mirrors + caches,
// hundreds of clients) is run once with history recording on; the
// recorded events are then replayed into a fresh History (interned
// pages) to time recording in isolation, and the full verification pass
// (object model + every client's session guarantees) is timed. The
// clean run must pass. The same scenario at smoke size is a ctest input
// that requires verdicts identical to the seed oracle
// (tests/checker_equivalence_test.cpp).

struct HistoryBenchResult {
  int stores = 0;
  int clients = 0;
  int ops = 0;
  std::size_t events = 0;
  std::size_t pages_interned = 0;
  double record_s = 0;
  double check_s = 0;
  bool clean_ok = false;
};

/// Replays `src` into `dst` in chronological order (3-way merge on the
/// event timestamps), re-interning page names — i.e. exactly the
/// recording work the testbed run performed, isolated from the
/// simulator.
double replay_history(const coherence::History& src,
                      coherence::History& dst) {
  const auto& ws = src.writes();
  const auto& rs = src.reads();
  const auto& as = src.applies();
  const auto start = Clock::now();
  std::size_t wi = 0, ri = 0, ai = 0;
  const auto at = [](util::SimTime t) { return t.count_micros(); };
  while (wi < ws.size() || ri < rs.size() || ai < as.size()) {
    const std::int64_t wt =
        wi < ws.size() ? at(ws[wi].at) : std::numeric_limits<std::int64_t>::max();
    const std::int64_t rt =
        ri < rs.size() ? at(rs[ri].at) : std::numeric_limits<std::int64_t>::max();
    const std::int64_t st =
        ai < as.size() ? at(as[ai].at) : std::numeric_limits<std::int64_t>::max();
    if (wt <= rt && wt <= st) {
      coherence::WriteEvent e = ws[wi++];
      e.page = dst.intern(src.page_name(e.page));
      dst.record_write(std::move(e));
    } else if (rt <= st) {
      coherence::ReadEvent e = rs[ri++];
      e.page = dst.intern(src.page_name(e.page));
      dst.record_read(std::move(e));
    } else {
      coherence::ApplyEvent e = as[ai++];
      e.page = dst.intern(src.page_name(e.page));
      dst.record_apply(std::move(e));
    }
  }
  return seconds_since(start);
}

HistoryBenchResult run_history_bench(int mirrors, int caches, int clients,
                                     int ops) {
  TestbedOptions opts;
  opts.seed = 23;
  opts.wan.base_latency = sim::SimDuration::millis(5);
  Testbed bed(opts);
  constexpr ObjectId kObj = 1;

  core::ReplicationPolicy policy;
  policy.model = coherence::ObjectModel::kCausal;
  policy.write_set = core::WriteSet::kMultiple;
  policy.initiative = core::TransferInitiative::kPush;

  const auto session =
      coherence::ClientModel::kMonotonicWrites |
      coherence::ClientModel::kReadYourWrites |
      coherence::ClientModel::kMonotonicReads |
      coherence::ClientModel::kWritesFollowReads;

  auto& primary = bed.add_primary(kObj, policy);
  const int pages = 24;
  for (int i = 0; i < pages; ++i) {
    primary.seed("page" + std::to_string(i) + ".html", "v0");
  }
  std::vector<net::Address> mirror_addrs;
  for (int i = 0; i < mirrors; ++i) {
    mirror_addrs.push_back(
        bed.add_store(kObj, naming::StoreClass::kObjectInitiated, policy)
            .address());
  }
  bed.settle();
  std::vector<net::Address> cache_addrs;
  for (int i = 0; i < caches; ++i) {
    cache_addrs.push_back(
        bed.add_store(kObj, naming::StoreClass::kClientInitiated, policy,
                      mirror_addrs[i % mirror_addrs.size()])
            .address());
  }
  bed.settle();
  std::vector<replication::ClientBinding*> users;
  for (int i = 0; i < clients; ++i) {
    users.push_back(&bed.add_client(kObj, session,
                                    cache_addrs[i % cache_addrs.size()]));
  }

  util::Rng rng(31);
  workload::ZipfGenerator zipf(pages, 0.9);
  for (int op = 0; op < ops; ++op) {
    auto& c = *users[rng.below(users.size())];
    const std::string page = "page" + std::to_string(zipf.sample(rng)) +
                             ".html";
    if (rng.chance(0.10)) {
      c.write(page, "v" + std::to_string(op), [](replication::WriteResult) {});
    } else {
      c.read(page, [](replication::ReadResult) {});
    }
    bed.run_for(sim::SimDuration::millis(10));
  }
  bed.settle();

  HistoryBenchResult res;
  res.stores = 1 + mirrors + caches;
  res.clients = clients;
  res.ops = ops;
  res.events = bed.history().size();
  res.pages_interned = bed.history().pages_interned();

  coherence::History hist;
  res.record_s = replay_history(bed.history(), hist);

  std::vector<coherence::SessionSpec> specs;
  for (replication::ClientBinding* u : users) {
    specs.push_back({u->id(), session});
  }

  const auto start = Clock::now();
  const auto object = coherence::check_object_model(hist, policy.model);
  const auto sessions = coherence::check_sessions(hist, specs);
  res.check_s = seconds_since(start);

  res.clean_ok = object.ok;
  for (const auto& r : sessions) res.clean_ok = res.clean_ok && r.ok;
  return res;
}

// ---------------------------------------------------------------------
// 12. multi_object — many-object sharding (placement + per-shard
// subgroups + the multi-object engine). Three gates: aggregate scaling
// with the shard count, hot-shard churn isolation, and digest
// equivalence of a single-object deployment against the legacy path.
// ---------------------------------------------------------------------

struct MultiObjectRow {
  int shards = 0;
  int objects = 0;
  int ops = 0;
  double wall_s = 0;
  std::uint64_t messages = 0;
  double msgs_per_op = 0;
  bool converged = false;
  std::map<ShardId, metrics::ShardStats> shard_stats;  // per-shard rollup
};

struct MultiObjectResult {
  std::vector<MultiObjectRow> scaling;  // one row per shard count
  // Hot-shard churn isolation (2 shards, membership on).
  std::uint64_t churn_crashes = 0;
  std::uint64_t cold_epoch_before = 0;
  std::uint64_t cold_epoch_after = 0;
  std::uint64_t hot_epoch_after = 0;
  bool cold_untouched = false;
  bool isolation_converged = false;
  // One object, one shard, placed through the placement service vs the
  // single-object testbed builders: per-store state digests must match.
  bool baseline_identical = false;
};

core::ReplicationPolicy multi_object_policy() {
  core::ReplicationPolicy policy;  // PRAM push immediate partial
  policy.object_outdate_reaction = core::OutdateReaction::kDemand;
  return policy;
}

/// A placed deployment of `objects` objects over `shards` shards (one
/// primary + one secondary each), `ops` Zipf-distributed client writes
/// and reads through placed bindings.
MultiObjectRow run_multi_object_scale(int shards, int objects, int ops,
                                      std::uint64_t seed) {
  MultiObjectRow row;
  row.shards = shards;
  row.objects = objects;
  row.ops = ops;
  const auto start = Clock::now();

  TestbedOptions opts;
  opts.seed = seed;
  opts.shards = static_cast<std::uint32_t>(shards);
  opts.record_history = false;
  Testbed bed(opts);
  const auto policy = multi_object_policy();
  for (ShardId s = 0; s < static_cast<ShardId>(shards); ++s) {
    bed.add_shard_store(s, naming::StoreClass::kPermanent, policy,
                        /*primary=*/true);
    bed.add_shard_store(s, naming::StoreClass::kObjectInitiated, policy);
  }
  std::vector<ObjectId> ids;
  ids.reserve(static_cast<std::size_t>(objects));
  for (ObjectId id = 1; id <= static_cast<ObjectId>(objects); ++id) {
    ids.push_back(id);
  }
  bed.place_objects(ids);
  for (const ObjectId id : ids) {
    bed.primary(id).seed(id, "page.html", "base-" + std::to_string(id));
  }
  bed.settle();

  constexpr int kClients = 4;
  std::vector<replication::ClientBinding*> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(
        &bed.add_placed_client(coherence::ClientModel::kReadYourWrites));
  }
  bed.metrics().reset();

  workload::ZipfGenerator zipf(ids.size(), 0.9);
  util::Rng rng(seed * 77 + shards);
  int failures = 0;
  for (int op = 0; op < ops; ++op) {
    const ObjectId id = ids[zipf.sample(rng)];
    auto& client = *clients[op % kClients];
    if (op % 3 == 0) {
      client.write(id, "page.html", "v" + std::to_string(op),
                   [&](replication::WriteResult r) {
                     if (!r.ok) ++failures;
                   });
    } else {
      client.read(id, "page.html", [&](replication::ReadResult r) {
        if (!r.ok) ++failures;
      });
    }
    // Drain in small batches: sessions serialize per object, so an
    // unbounded backlog would only measure queue depth.
    if (op % 64 == 63) bed.settle();
  }
  bed.settle();

  row.wall_s = seconds_since(start);
  row.messages = bed.metrics().total_traffic().messages;
  row.msgs_per_op = ops > 0 ? static_cast<double>(row.messages) / ops : 0;
  row.shard_stats = bed.metrics().shard_stats();
  row.converged = failures == 0;
  for (const ObjectId id : ids) {
    if (!bed.converged(id)) {
      row.converged = false;
      break;
    }
  }
  return row;
}

/// Hot-shard churn isolation: Zipf's head lives on one shard; churn it
/// while writing everywhere; the cold shard's subgroup view must not
/// move and every object must still converge.
void run_multi_object_isolation(int objects, std::uint64_t seed,
                                MultiObjectResult* out) {
  TestbedOptions opts;
  opts.seed = seed;
  opts.shards = 2;
  opts.record_history = false;
  opts.enable_membership = true;
  opts.membership_heartbeat = sim::SimDuration::millis(50);
  opts.failure_timeout = sim::SimDuration::millis(200);
  opts.wan.base_latency = sim::SimDuration::millis(2);
  Testbed bed(opts);
  const auto policy = multi_object_policy();
  for (ShardId s = 0; s < 2; ++s) {
    bed.add_shard_store(s, naming::StoreClass::kPermanent, policy,
                        /*primary=*/true);
    bed.add_shard_store(s, naming::StoreClass::kObjectInitiated, policy);
    bed.add_shard_store(s, naming::StoreClass::kObjectInitiated, policy);
  }
  std::vector<ObjectId> ids;
  for (ObjectId id = 1; id <= static_cast<ObjectId>(objects); ++id) {
    ids.push_back(id);
  }
  bed.place_objects(ids);
  for (const ObjectId id : ids) {
    bed.primary(id).seed(id, "page.html", "base-" + std::to_string(id));
  }
  bed.settle();

  const ShardId hot = bed.placement().layout().shard_of(ids.front());
  const ShardId cold = hot == 0 ? 1 : 0;
  out->cold_epoch_before = bed.shard_primary(cold).view_epoch();

  fault::ScenarioScript script;
  std::string error;
  const std::string text = "at 100ms churn period=300ms until=1500ms "
                           "down=250ms fraction=0.5 shard=" +
                           std::to_string(hot) + "\n";
  if (!fault::ScenarioScript::parse(text, &script, &error)) {
    std::fprintf(stderr, "FATAL: bad isolation script: %s\n", error.c_str());
    std::exit(1);
  }
  replication::TestbedFaultHost host(bed);
  fault::ScenarioEngine engine(script, host, seed);
  engine.arm(bed.sim());

  int version = 0;
  for (int step = 0; step < 25; ++step) {
    ++version;
    for (const ObjectId id : ids) {
      bed.primary(id).seed(id, "page.html",
                           "v" + std::to_string(version) + "-" +
                               std::to_string(id));
    }
    bed.run_for(sim::SimDuration::millis(100));
  }
  bed.run_for(sim::SimDuration::millis(800));
  bed.settle();

  out->churn_crashes = engine.stats().crashes;
  out->cold_epoch_after = bed.shard_primary(cold).view_epoch();
  out->hot_epoch_after = bed.shard_primary(hot).view_epoch();
  out->cold_untouched = out->churn_crashes > 0 &&
                        out->cold_epoch_after == out->cold_epoch_before &&
                        out->hot_epoch_after > out->cold_epoch_after;
  out->isolation_converged = true;
  for (const ObjectId id : ids) {
    if (!bed.converged(id)) {
      out->isolation_converged = false;
      break;
    }
  }
}

/// The same single-object write stream through the single-object
/// testbed builders and through a one-shard placed deployment: placement
/// must not change what the stores end up holding.
bool run_multi_object_baseline(int writes, std::uint64_t seed) {
  constexpr ObjectId kObj = 1;
  const auto policy = multi_object_policy();
  const auto drive = [&](Testbed& bed) {
    for (int i = 0; i < writes; ++i) {
      bed.primary(kObj).seed(kObj, "page.html", "w" + std::to_string(i));
      bed.run_for(sim::SimDuration::millis(10));
    }
    bed.settle();
  };

  TestbedOptions legacy_opts;
  legacy_opts.seed = seed;
  legacy_opts.record_history = false;
  Testbed legacy(legacy_opts);
  legacy.add_primary(kObj, policy);
  legacy.add_store(kObj, naming::StoreClass::kObjectInitiated, policy);
  drive(legacy);

  TestbedOptions placed_opts;
  placed_opts.seed = seed;
  placed_opts.record_history = false;
  placed_opts.shards = 1;
  Testbed placed(placed_opts);
  placed.add_shard_store(0, naming::StoreClass::kPermanent, policy,
                         /*primary=*/true);
  placed.add_shard_store(0, naming::StoreClass::kObjectInitiated, policy);
  placed.place_objects({kObj});
  drive(placed);

  // Topologies differ (the placement node shifts event timing), so the
  // wall-clock stamps are masked; everything else must match per store.
  for (std::size_t i = 0; i < legacy.stores().size(); ++i) {
    const auto a = replication::store_state_digest(*legacy.stores()[i], kObj,
                                                   /*mask_wall_clock=*/true);
    const auto b = replication::store_state_digest(*placed.stores()[i], kObj,
                                                   /*mask_wall_clock=*/true);
    if (!(a == b)) return false;
  }
  return true;
}

MultiObjectResult run_multi_object(bool smoke) {
  MultiObjectResult res;
  const int objects = smoke ? 200 : 10000;
  const int ops = smoke ? 120 : 4000;
  for (const int shards : {1, 2, 4}) {
    res.scaling.push_back(
        run_multi_object_scale(shards, objects, ops, /*seed=*/29));
  }
  run_multi_object_isolation(smoke ? 40 : 400, /*seed=*/31, &res);
  res.baseline_identical = run_multi_object_baseline(smoke ? 20 : 200,
                                                     /*seed=*/37);
  return res;
}

// ---------------------------------------------------------------------
// 13. observability — the write-lifecycle tracer's two contracts:
//     tracing disabled leaves the simulated wire byte-identical
//     run-to-run (digest gate), and tracing every write costs <= 2%
//     wall clock on a full deployment. The traced run must also yield
//     one connected trace per write and feed the propagation
//     histograms; the Chrome-trace artifact and (in checked builds) a
//     monitor-trip window dump are left on disk for CI to upload.
// ---------------------------------------------------------------------

struct ObservabilityResult {
  int stores = 0;
  int clients = 0;
  int ops = 0;
  int reps = 0;
  std::uint64_t sample_every = 1;  // production sampling rate under test
  double off_s = 0;  // best-of-reps wall, tracing disabled
  double on_s = 0;   // best-of-reps wall, tracing enabled (sampled)
  double overhead_pct = 0;
  bool wire_identical_tracing_off = false;
  bool tracing_visible_on_wire = false;
  bool lifecycle_connected = false;
  std::size_t spans = 0;
  std::uint64_t span_overflow = 0;
  std::uint64_t writes_accepted = 0;
  std::uint64_t writes_applied_remotely = 0;
  double prop_first_p50_us = 0;
  double prop_first_p99_us = 0;
  double prop_last_p99_us = 0;
  bool checked = false;       // monitor hooks compiled in?
  bool trip_dump_ok = false;  // vacuously true when !checked
  std::string trace_json;     // Chrome trace artifact path
};

struct ObsRun {
  double wall_s = 0;
  std::uint64_t digest = 0;
  std::vector<coherence::WriteId> wids;
  std::vector<obs::Span> spans;          // traced runs only
  std::vector<obs::GaugeSeries> gauges;  // traced runs only
  std::uint64_t overflow = 0;
};

/// One immediate-propagation deployment (primary + caches + clients)
/// driving `ops` writes, identical virtual-time schedule either way;
/// `traced` is the only degree of freedom the digest may see.
ObsRun run_obs_workload(int caches, int clients, int ops, bool traced,
                        std::uint64_t sample_every,
                        metrics::Histogram* first_us,
                        metrics::Histogram* last_us,
                        obs::PropagationStats* prop) {
  TestbedOptions o;
  o.seed = 41;
  o.record_history = false;
  Testbed bed(o);
  bed.net().enable_wire_digest(true);
  if (traced) {
    Testbed::ObservabilityOptions oo;
    oo.trace_capacity = 1 << 14;  // holds every sampled span of the run
    oo.sample_every = sample_every;
    bed.enable_observability(oo);
  }
  constexpr ObjectId kObj = 1;
  constexpr int kPages = 8;
  constexpr std::size_t kPageBytes = 4096;
  core::ReplicationPolicy policy;
  policy.instant = core::TransferInstant::kImmediate;
  auto& primary = bed.add_primary(kObj, policy);
  util::Rng content_rng(o.seed * 7919 + 13);
  std::vector<std::string> contents;
  for (int i = 0; i < kPages; ++i) {
    contents.push_back(workload::make_content(content_rng, kPageBytes));
    primary.seed("page" + std::to_string(i) + ".html", contents.back());
  }
  std::vector<net::Address> cache_addrs;
  for (int i = 0; i < caches; ++i) {
    cache_addrs.push_back(
        bed.add_store(kObj, naming::StoreClass::kClientInitiated, policy)
            .address());
  }
  bed.settle();
  std::vector<replication::ClientBinding*> cls;
  for (int i = 0; i < clients; ++i) {
    cls.push_back(&bed.add_client(kObj, coherence::ClientModel::kNone,
                                  cache_addrs[i % cache_addrs.size()]));
  }

  ObsRun out;
  // Time the steady-state workload only: deployment setup (including
  // the tracer's one-time ring allocation) is the same whether tracing
  // ever gets enabled in production or not, and would otherwise drown
  // the per-write cost this section budgets.
  const auto start = Clock::now();
  for (int i = 0; i < ops; ++i) {
    // Full-page rewrites: every write ships kPageBytes to every cache,
    // the paper's workload shape (documents, not counters).
    std::string body = contents[i % kPages];
    body.replace(0, 12, "v" + std::to_string(100000 + i));
    cls[i % clients]->write("page" + std::to_string(i % kPages) + ".html",
                            body, [&out](replication::WriteResult r) {
                              if (r.ok) out.wids.push_back(r.wid);
                            });
    bed.run_for(sim::SimDuration::millis(5));
  }
  bed.settle();
  out.wall_s = seconds_since(start);  // before harvest/snapshot work
  out.digest = bed.net().wire_digest();
  if (traced) {
    // ~Testbed disables the process tracer: snapshot before it dies.
    out.spans = obs::Tracer::instance().snapshot();
    out.overflow = obs::Tracer::instance().overflow();
    if (bed.recorder() != nullptr) out.gauges = bed.recorder()->snapshot();
    const obs::PropagationStats p = bed.harvest_propagation();
    if (prop != nullptr) {
      prop->writes_accepted += p.writes_accepted;
      prop->writes_applied_remotely += p.writes_applied_remotely;
    }
    if (first_us != nullptr) first_us->merge(bed.metrics().propagation_first_us());
    if (last_us != nullptr) last_us->merge(bed.metrics().propagation_last_us());
  }
  return out;
}

/// True iff `wid`'s spans form one tree: a single parentless
/// client.write root, every other parent resolving inside the trace,
/// and the whole accept/order/apply/ack lifecycle present.
bool lifecycle_connected(const std::vector<obs::Span>& spans,
                         const coherence::WriteId& wid) {
  const std::uint64_t trace = obs::trace_of(wid.client, wid.seq);
  std::map<std::uint64_t, int> ids;  // span_id -> count
  std::size_t roots = 0, accepts = 0, orders = 0, applies = 0, acks = 0;
  for (const obs::Span& s : spans) {
    if (s.trace_id != trace) continue;
    ids[s.span_id] = 1;
    switch (s.kind) {
      case obs::SpanKind::kClientWrite:
        if (s.parent_id == 0) ++roots;
        break;
      case obs::SpanKind::kStoreAccept: ++accepts; break;
      case obs::SpanKind::kOrder: ++orders; break;
      case obs::SpanKind::kApply: ++applies; break;
      case obs::SpanKind::kAck: ++acks; break;
      default: break;
    }
  }
  if (roots != 1 || accepts < 1 || orders != 1 || applies < 2 || acks != 1) {
    return false;
  }
  for (const obs::Span& s : spans) {
    if (s.trace_id != trace) continue;
    if (s.parent_id == 0) {
      if (s.kind != obs::SpanKind::kClientWrite) return false;
    } else if (ids.find(s.parent_id) == ids.end()) {
      return false;
    }
  }
  return true;
}

/// In checked builds: force a synthetic monitor trip against a small
/// observed testbed and verify the window dump lands and parses.
bool run_obs_trip_dump(const std::string& dump_path) {
#if defined(GLOBE_CHECKED) && GLOBE_CHECKED
  std::remove(dump_path.c_str());
  Testbed bed;
  Testbed::ObservabilityOptions oo;
  oo.trip_dump_path = dump_path;
  oo.gauge_period = sim::SimDuration::millis(20);
  bed.enable_observability(oo);
  constexpr ObjectId kObj = 1;
  core::ReplicationPolicy policy;
  policy.instant = core::TransferInstant::kImmediate;
  bed.add_primary(kObj, policy);
  bed.add_store(kObj, naming::StoreClass::kPermanent, policy);
  bed.settle();
  auto& client = bed.add_client(kObj, coherence::ClientModel::kNone);
  client.write("p", "v", [](replication::WriteResult) {});
  bed.settle();
  bed.run_for(sim::SimDuration::millis(200));  // gauge samples

  {
    check::ScopedTripCapture trips;
    int owner = 0;
    check::note_owner_context(&owner, /*store=*/1, /*view_epoch=*/1);
    check::on_gseq_apply(&owner, 1, kObj, true, 7);
    check::on_gseq_apply(&owner, 1, kObj, true, 6);  // regression: trips
    check::release(&owner);
    if (!trips.tripped()) return false;
  }
  std::ifstream in(dump_path);
  if (!in.good()) return false;
  std::vector<obs::Span> spans;
  std::vector<obs::GaugeSeries> gauges;
  std::string err;
  if (!obs::read_dump(in, &spans, &gauges, &err)) return false;
  return !spans.empty() && !gauges.empty();
#else
  (void)dump_path;
  return true;  // no monitors compiled in: nothing to trip
#endif
}

ObservabilityResult run_observability(bool smoke,
                                      const std::string& artifact_dir) {
  ObservabilityResult res;
  const int caches = smoke ? 6 : 16;
  const int clients = smoke ? 12 : 32;
  const int ops = smoke ? 400 : 1500;
  const int reps = smoke ? 5 : 3;
  // The production configuration under test: sampled tracing (1-in-N
  // writes carry a context; unsampled traffic pays one branch per
  // message). Full sampling is exercised by the tests; the overhead
  // budget applies to the deployable config, like any sampling tracer.
  const std::uint64_t sample_every = 16;
  res.stores = 1 + caches;
  res.clients = clients;
  res.ops = ops;
  res.reps = reps;
  res.sample_every = sample_every;
#if defined(GLOBE_CHECKED) && GLOBE_CHECKED
  res.checked = true;
#endif

  metrics::Histogram first_us, last_us;  // merged across traced reps
  obs::PropagationStats prop;
  double off_best = std::numeric_limits<double>::infinity();
  double on_best = std::numeric_limits<double>::infinity();
  std::uint64_t off_digest = 0, on_digest = 0;
  bool off_equal = true;
  ObsRun traced_keep;  // last traced run's spans/gauges for artifacts
  // Interleave off/on reps so drift hits both sides equally; wall
  // comparisons take the min (noise is one-sided).
  for (int r = 0; r < reps; ++r) {
    ObsRun off = run_obs_workload(caches, clients, ops, /*traced=*/false,
                                  sample_every, nullptr, nullptr, nullptr);
    if (r == 0) {
      off_digest = off.digest;
    } else if (off.digest != off_digest) {
      off_equal = false;
    }
    off_best = std::min(off_best, off.wall_s);
    ObsRun on = run_obs_workload(caches, clients, ops, /*traced=*/true,
                                 sample_every, &first_us, &last_us, &prop);
    on_best = std::min(on_best, on.wall_s);
    on_digest = on.digest;
    if (r + 1 == reps) traced_keep = std::move(on);
  }
  res.off_s = off_best;
  res.on_s = on_best;
  res.overhead_pct =
      off_best > 0 ? std::max(0.0, (on_best - off_best) / off_best * 100.0)
                   : 0.0;
  res.wire_identical_tracing_off = off_equal;
  res.tracing_visible_on_wire = on_digest != off_digest;

  res.spans = traced_keep.spans.size();
  res.span_overflow = traced_keep.overflow;
  // Connectivity is checked on the newest *sampled* write: only 1-in-N
  // writes carry a context, so pick one whose trace actually exists.
  const coherence::WriteId* sampled_wid = nullptr;
  for (auto it = traced_keep.wids.rbegin(); it != traced_keep.wids.rend();
       ++it) {
    if (obs::trace_of(it->client, it->seq) % sample_every == 0) {
      sampled_wid = &*it;
      break;
    }
  }
  res.lifecycle_connected =
      sampled_wid != nullptr && traced_keep.overflow == 0 &&
      lifecycle_connected(traced_keep.spans, *sampled_wid);
  res.writes_accepted = prop.writes_accepted;
  res.writes_applied_remotely = prop.writes_applied_remotely;
  res.prop_first_p50_us = first_us.p50();
  res.prop_first_p99_us = first_us.p99();
  res.prop_last_p99_us = last_us.p99();

  res.trace_json = artifact_dir + "BENCH_observability_trace.json";
  std::ofstream trace_out(res.trace_json);
  if (trace_out.good()) {
    obs::write_chrome_trace(trace_out, traced_keep.spans,
                            traced_keep.gauges);
  } else {
    res.trace_json.clear();
  }
  res.trip_dump_ok =
      run_obs_trip_dump(artifact_dir + "BENCH_observability_trip.obstrace");
  return res;
}

// ---------------------------------------------------------------------

void emit_json(std::FILE* f, bool smoke, const MicroResult& micro,
               const SnapshotMicroResult& snap, const E2eResult& pull,
               const E2eResult& ae, const std::vector<FanoutRow>& fanout,
               const FanoutRow& loopback, const WindowRow& win,
               const HistoryBenchResult& hist,
               const std::vector<ChurnRow>& churn, const SoakRow& soak,
               const SnapshotDeltaResult& sd,
               const MultiObjectResult& mo,
               const ObservabilityResult& ob,
               const std::vector<TrajectoryRow>& rows) {
  auto speedup = [](double before, double after) {
    return after > 0 ? before / after : 0.0;
  };
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"scale\",\n  \"smoke\": %s,\n",
               smoke ? "true" : "false");
  std::fprintf(f,
               "  \"micro_writelog\": {\"records\": %zu, \"queries\": %zu, "
               "\"delta_records\": %zu, \"indexed_s\": %.6f},\n",
               micro.records, micro.queries, micro.delta_records,
               micro.indexed_s);
  std::fprintf(f,
               "  \"micro_snapshot\": {\"pages\": %zu, \"requests\": %zu, "
               "\"uncached_s\": %.6f, \"cached_s\": %.6f, \"speedup\": "
               "%.2f},\n",
               snap.pages, snap.requests, snap.uncached_s, snap.cached_s,
               speedup(snap.uncached_s, snap.cached_s));
  for (const auto& [name, r] : {std::pair{"e2e_pull_long_history", &pull},
                                 std::pair{"e2e_anti_entropy", &ae}}) {
    std::fprintf(f,
                 "  \"%s\": {\"writes\": %d, \"stores\": %d, \"indexed_s\": "
                 "%.4f, \"sim_events\": %llu, \"converged\": %s},\n",
                 name, r->writes, r->stores, r->indexed_s,
                 static_cast<unsigned long long>(r->events),
                 r->converged ? "true" : "false");
  }
  std::fprintf(f, "  \"fanout\": [\n");
  for (std::size_t i = 0; i < fanout.size(); ++i) {
    const FanoutRow& r = fanout[i];
    std::fprintf(f,
                 "    {\"mode\": \"%s\", \"subscribers\": %d, \"writes\": "
                 "%d, \"shared_s\": %.4f, \"converged\": %s}%s\n",
                 r.mode.c_str(), r.subscribers, r.writes, r.shared_s,
                 r.converged ? "true" : "false",
                 i + 1 < fanout.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"fanout_loopback\": {\"subscribers\": %d, \"writes\": "
               "%d, \"shared_s\": %.4f, \"converged\": %s},\n",
               loopback.subscribers, loopback.writes, loopback.shared_s,
               loopback.converged ? "true" : "false");
  std::fprintf(
      f,
      "  \"multicast_window\": {\"subscribers\": %d, \"writes\": %d, "
      "\"unwindowed_s\": %.4f, \"windowed_s\": %.4f, \"mb_per_s\": %.2f, "
      "\"ops_per_s\": %.1f, \"data_frames\": %llu, \"coalesced\": %llu, "
      "\"frames_shared\": %llu, \"retransmits\": %llu, "
      "\"queue_high_watermark\": %zu, \"max_queue\": %zu, "
      "\"queue_bounded\": %s, \"identical\": %s, \"converged\": %s, "
      "\"fault\": {\"paused\": %s, \"bounded\": %s, \"recovered\": %s, "
      "\"evictions\": %llu}},\n",
      win.subscribers, win.writes, win.unwindowed_s, win.windowed_s,
      win.mb_per_s, win.ops_per_s,
      static_cast<unsigned long long>(win.data_frames),
      static_cast<unsigned long long>(win.coalesced),
      static_cast<unsigned long long>(win.frames_shared),
      static_cast<unsigned long long>(win.retransmits),
      win.queue_high_watermark, win.max_queue,
      win.queue_bounded ? "true" : "false",
      win.identical ? "true" : "false", win.converged ? "true" : "false",
      win.fault_paused ? "true" : "false",
      win.fault_bounded ? "true" : "false",
      win.fault_recovered ? "true" : "false",
      static_cast<unsigned long long>(win.fault_evictions));
  std::fprintf(
      f,
      "  \"history\": {\"stores\": %d, \"clients\": %d, \"ops\": %d, "
      "\"events\": %zu, \"pages_interned\": %zu, \"record_s\": %.6f, "
      "\"check_s\": %.6f, \"clean_ok\": %s},\n",
      hist.stores, hist.clients, hist.ops, hist.events, hist.pages_interned,
      hist.record_s, hist.check_s, hist.clean_ok ? "true" : "false");
  bool churn_all_converged = true;
  bool churn_all_clean = true;
  std::fprintf(f, "  \"churn\": {\n    \"rows\": [\n");
  for (std::size_t i = 0; i < churn.size(); ++i) {
    const ChurnRow& r = churn[i];
    churn_all_converged = churn_all_converged && r.converged;
    churn_all_clean = churn_all_clean && r.model_ok && r.sessions_ok;
    std::fprintf(
        f,
        "      {\"model\": \"%s\", \"stores\": %d, \"clients\": %d, "
        "\"ops\": %d, \"wall_s\": %.4f, \"crashes\": %llu, \"recoveries\": "
        "%llu, \"partitions\": %llu, \"heals\": %llu, \"joins\": %llu, "
        "\"evictions\": %llu, \"rejoins\": %llu, \"view_changes\": %llu, "
        "\"client_rebinds\": %llu, \"snapshot_cutovers\": %llu, "
        "\"delta_snapshots\": %llu, \"full_snapshots\": %llu, "
        "\"snapshot_pages_shipped\": %llu, \"snapshot_bytes_saved\": %llu, "
        "\"horizon_advances\": %llu, \"events_retired\": %llu, "
        "\"tombstones_collected\": %llu, \"events\": "
        "%zu, \"converged\": %s, \"model_ok\": %s, \"sessions_ok\": %s}%s\n",
        r.model.c_str(), r.stores, r.clients, r.ops, r.wall_s,
        static_cast<unsigned long long>(r.crashes),
        static_cast<unsigned long long>(r.recoveries),
        static_cast<unsigned long long>(r.partitions),
        static_cast<unsigned long long>(r.heals),
        static_cast<unsigned long long>(r.joins),
        static_cast<unsigned long long>(r.evictions),
        static_cast<unsigned long long>(r.rejoins),
        static_cast<unsigned long long>(r.view_changes),
        static_cast<unsigned long long>(r.client_rebinds),
        static_cast<unsigned long long>(r.snapshot_cutovers),
        static_cast<unsigned long long>(r.delta_snapshots),
        static_cast<unsigned long long>(r.full_snapshots),
        static_cast<unsigned long long>(r.snapshot_pages_shipped),
        static_cast<unsigned long long>(r.snapshot_bytes_saved),
        static_cast<unsigned long long>(r.horizon_advances),
        static_cast<unsigned long long>(r.events_retired),
        static_cast<unsigned long long>(r.tombstones_collected), r.events,
        r.converged ? "true" : "false", r.model_ok ? "true" : "false",
        r.sessions_ok ? "true" : "false", i + 1 < churn.size() ? "," : "");
  }
  std::fprintf(f, "    ],\n    \"all_converged\": %s,\n    \"all_clean\": %s\n  },\n",
               churn_all_converged ? "true" : "false",
               churn_all_clean ? "true" : "false");
  std::fprintf(
      f,
      "  \"soak\": {\"model\": \"%s\", \"stores\": %d, \"clients\": %d, "
      "\"ops\": %d, \"wall_s\": %.4f, \"ops_per_s\": %.1f, \"events\": %zu, "
      "\"retained_high_watermark\": %zu, \"events_retired\": %llu, "
      "\"horizon_advances\": %llu, \"tombstones_collected\": %llu, "
      "\"tombstones_left\": %zu, \"log_compactions\": %llu, "
      "\"log_appended\": %llu, \"log_retained_records\": %zu, "
      "\"log_retained_bytes\": %zu, \"crashes\": %llu, \"recoveries\": %llu, "
      "\"record_only_s\": %.4f, \"record_check_s\": %.4f, "
      "\"check_overhead_pct\": %.2f, \"verdicts_equal\": %s, \"exact\": %s, "
      "\"memory_bounded\": %s, \"clean\": %s, \"converged\": %s},\n",
      soak.model.c_str(), soak.stores, soak.clients, soak.ops, soak.wall_s,
      soak.ops_per_s, soak.events, soak.retained_hwm,
      static_cast<unsigned long long>(soak.events_retired),
      static_cast<unsigned long long>(soak.horizon_advances),
      static_cast<unsigned long long>(soak.tombstones_collected),
      soak.tombstones_left,
      static_cast<unsigned long long>(soak.log_compactions),
      static_cast<unsigned long long>(soak.log_appended),
      soak.log_retained_records, soak.log_retained_bytes,
      static_cast<unsigned long long>(soak.crashes),
      static_cast<unsigned long long>(soak.recoveries), soak.record_only_s,
      soak.record_check_s, soak.check_overhead_pct,
      soak.verdicts_equal ? "true" : "false", soak.exact ? "true" : "false",
      soak.memory_bounded ? "true" : "false", soak.clean ? "true" : "false",
      soak.converged ? "true" : "false");
  std::fprintf(
      f,
      "  \"snapshot_delta\": {\"stores\": %d, \"pages\": %d, "
      "\"page_bytes\": %d, \"rounds\": %d, \"rejoins\": %d, "
      "\"delta_s\": %.4f, \"delta_transfer_bytes\": %llu, "
      "\"reduction\": %.2f, \"delta_transfers\": %llu, "
      "\"full_fallbacks\": %llu, \"pages_shipped\": %llu, "
      "\"bytes_saved\": %llu, \"converged\": %s},\n",
      sd.stores, sd.pages, sd.page_bytes, sd.rounds, sd.rejoins, sd.wall_s,
      static_cast<unsigned long long>(sd.state_bytes), sd.reduction,
      static_cast<unsigned long long>(sd.delta_transfers),
      static_cast<unsigned long long>(sd.full_transfers),
      static_cast<unsigned long long>(sd.pages_shipped),
      static_cast<unsigned long long>(sd.bytes_saved),
      sd.converged ? "true" : "false");
  std::fprintf(f, "  \"multi_object\": {\n    \"scaling\": [\n");
  for (std::size_t i = 0; i < mo.scaling.size(); ++i) {
    const MultiObjectRow& r = mo.scaling[i];
    std::fprintf(f,
                 "      {\"shards\": %d, \"objects\": %d, \"ops\": %d, "
                 "\"wall_s\": %.4f, \"messages\": %llu, \"msgs_per_op\": "
                 "%.2f, \"converged\": %s}%s\n",
                 r.shards, r.objects, r.ops, r.wall_s,
                 static_cast<unsigned long long>(r.messages), r.msgs_per_op,
                 r.converged ? "true" : "false",
                 i + 1 < mo.scaling.size() ? "," : "");
  }
  std::fprintf(
      f,
      "    ],\n    \"isolation\": {\"churn_crashes\": %llu, "
      "\"cold_epoch_before\": %llu, \"cold_epoch_after\": %llu, "
      "\"hot_epoch_after\": %llu, \"cold_untouched\": %s, "
      "\"converged\": %s},\n    \"baseline_identical\": %s\n  },\n",
      static_cast<unsigned long long>(mo.churn_crashes),
      static_cast<unsigned long long>(mo.cold_epoch_before),
      static_cast<unsigned long long>(mo.cold_epoch_after),
      static_cast<unsigned long long>(mo.hot_epoch_after),
      mo.cold_untouched ? "true" : "false",
      mo.isolation_converged ? "true" : "false",
      mo.baseline_identical ? "true" : "false");
  std::fprintf(
      f,
      "  \"observability\": {\"stores\": %d, \"clients\": %d, \"ops\": %d, "
      "\"reps\": %d, \"sample_every\": %llu, \"off_s\": %.4f, "
      "\"on_s\": %.4f, "
      "\"overhead_pct\": %.2f, \"wire_identical_tracing_off\": %s, "
      "\"tracing_visible_on_wire\": %s, \"lifecycle_connected\": %s, "
      "\"spans\": %zu, \"span_overflow\": %llu, \"writes_accepted\": %llu, "
      "\"writes_applied_remotely\": %llu, \"prop_first_p50_us\": %.0f, "
      "\"prop_first_p99_us\": %.0f, \"prop_last_p99_us\": %.0f, "
      "\"checked\": %s, \"trip_dump_ok\": %s, \"trace_json\": \"%s\"},\n",
      ob.stores, ob.clients, ob.ops, ob.reps,
      static_cast<unsigned long long>(ob.sample_every), ob.off_s, ob.on_s,
      ob.overhead_pct, ob.wire_identical_tracing_off ? "true" : "false",
      ob.tracing_visible_on_wire ? "true" : "false",
      ob.lifecycle_connected ? "true" : "false", ob.spans,
      static_cast<unsigned long long>(ob.span_overflow),
      static_cast<unsigned long long>(ob.writes_accepted),
      static_cast<unsigned long long>(ob.writes_applied_remotely),
      ob.prop_first_p50_us, ob.prop_first_p99_us, ob.prop_last_p99_us,
      ob.checked ? "true" : "false", ob.trip_dump_ok ? "true" : "false",
      ob.trace_json.c_str());
  std::fprintf(f, "  \"scale_trajectory\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const TrajectoryRow& r = rows[i];
    std::fprintf(f,
                 "    {\"model\": \"%s\", \"stores\": %d, \"clients\": %d, "
                 "\"ops\": %d, \"wall_s\": %.4f, \"msgs_per_op\": %.2f, "
                 "\"kb_per_op\": %.2f, \"stale_versions\": %.3f, "
                 "\"converged\": %s, \"model_ok\": %s}%s\n",
                 r.model.c_str(), r.stores, r.clients, r.ops, r.wall_s,
                 r.msgs_per_op, r.kb_per_op, r.stale_versions,
                 r.converged ? "true" : "false",
                 r.model_ok ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
}

int run(bool smoke, const std::string& out_path) {
  const int micro_records = smoke ? 2000 : 30000;
  const int micro_queries = smoke ? 100 : 3000;
  const int snap_pages = smoke ? 32 : 256;
  const int snap_requests = smoke ? 200 : 4000;
  const int e2e_writes = smoke ? 150 : 16000;
  const int e2e_stores = smoke ? 3 : 12;
  const int fanout_subs = smoke ? 16 : 128;
  const int fanout_writes = smoke ? 40 : 400;
  const int loop_subs = smoke ? 8 : 64;
  const int loop_writes = smoke ? 30 : 300;
  const int traj_caches = smoke ? 6 : 120;
  const int traj_clients = smoke ? 12 : 240;
  const int traj_ops = smoke ? 60 : 2000;

  std::printf("bench_scale%s: WriteLog micro...\n", smoke ? " (smoke)" : "");
  const MicroResult micro =
      micro_writelog(micro_records, micro_queries, 32, 64);
  std::printf("  indexed %.4fs, %zu delta records\n", micro.indexed_s,
              micro.delta_records);

  std::printf("bench_scale: snapshot cache micro...\n");
  const SnapshotMicroResult snap = micro_snapshot(snap_pages, snap_requests);
  std::printf("  uncached %.4fs, cached %.4fs (%.1fx)\n", snap.uncached_s,
              snap.cached_s, snap.uncached_s / snap.cached_s);

  std::printf("bench_scale: e2e long-history pull...\n");
  const E2eResult pull = run_pull_scenario(e2e_writes, e2e_stores);
  std::printf("  %.3fs, %llu sim events, converged=%d\n", pull.indexed_s,
              static_cast<unsigned long long>(pull.events), pull.converged);

  std::printf("bench_scale: e2e anti-entropy...\n");
  const E2eResult ae = run_anti_entropy_scenario(e2e_writes, e2e_stores);
  std::printf("  %.3fs, %llu sim events, converged=%d\n", ae.indexed_s,
              static_cast<unsigned long long>(ae.events), ae.converged);

  std::printf("bench_scale: propagation fan-out (%d subscribers)...\n",
              fanout_subs);
  std::vector<FanoutRow> fanout;
  for (const char* mode : {"immediate", "lazy", "pull"}) {
    fanout.push_back(run_fanout(mode, fanout_subs, fanout_writes));
    std::printf("  %-9s %.3fs, converged=%d\n", fanout.back().mode.c_str(),
                fanout.back().shared_s, fanout.back().converged);
  }

  std::printf("bench_scale: loopback-runtime fan-out (%d subscribers)...\n",
              loop_subs);
  const FanoutRun loop = run_loopback_fanout(loop_subs, loop_writes);
  const FanoutRow loopback{"loopback", loop_subs, loop_writes, loop.wall_s,
                           loop.converged};
  std::printf("  %.3fs, converged=%d\n", loopback.shared_s,
              loopback.converged);

  const int win_subs = smoke ? 16 : 128;
  const int win_writes = smoke ? 40 : 300;
  std::printf("bench_scale: windowed multicast (%d subscribers)...\n",
              win_subs);
  const WindowRow win = run_multicast_window(win_subs, win_writes);
  std::printf(
      "  unwindowed %.3fs, windowed %.3fs, %.1f MB/s, %.0f op/s, "
      "frames=%llu coalesced=%llu shared=%llu queue<=%zu/%zu, "
      "identical=%d fault: paused=%d bounded=%d recovered=%d\n",
      win.unwindowed_s, win.windowed_s, win.mb_per_s, win.ops_per_s,
      static_cast<unsigned long long>(win.data_frames),
      static_cast<unsigned long long>(win.coalesced),
      static_cast<unsigned long long>(win.frames_shared),
      win.queue_high_watermark, win.max_queue, win.identical,
      win.fault_paused, win.fault_bounded, win.fault_recovered);

  std::printf("bench_scale: history recording + checker pipeline...\n");
  const HistoryBenchResult hist =
      run_history_bench(/*mirrors=*/4, traj_caches, traj_clients, traj_ops);
  std::printf(
      "  %zu events, %d stores, %d clients: record %.4fs, check %.4fs, "
      "clean=%d\n",
      hist.events, hist.stores, hist.clients, hist.record_s, hist.check_s,
      hist.clean_ok);

  std::printf("bench_scale: churn/partition scenarios across models...\n");
  std::vector<ChurnRow> churn;
  for (const auto model :
       {coherence::ObjectModel::kSequential, coherence::ObjectModel::kPram,
        coherence::ObjectModel::kFifoPram, coherence::ObjectModel::kCausal,
        coherence::ObjectModel::kEventual}) {
    churn.push_back(run_churn(model, /*mirrors=*/4, traj_caches,
                              traj_clients, traj_ops, smoke));
    const ChurnRow& r = churn.back();
    std::printf(
        "  %-11s %3d stores %3d clients %5d ops: %.2fs, crashes=%llu "
        "evict=%llu rejoin=%llu rebinds=%llu conv=%d model_ok=%d "
        "sessions_ok=%d\n",
        r.model.c_str(), r.stores, r.clients, r.ops, r.wall_s,
        static_cast<unsigned long long>(r.crashes),
        static_cast<unsigned long long>(r.evictions),
        static_cast<unsigned long long>(r.rejoins),
        static_cast<unsigned long long>(r.client_rebinds), r.converged,
        r.model_ok, r.sessions_ok);
  }

  const int soak_ops = 10 * traj_ops;
  std::printf("bench_scale: soak (streaming verification + horizon GC, "
              "%d ops under churn)...\n",
              soak_ops);
  const SoakRow soak =
      run_soak(/*mirrors=*/2, smoke ? 4 : 8, smoke ? 8 : 16, soak_ops, smoke);
  std::printf(
      "  %d stores %d clients %d ops: %.2fs (%.0f op/s), %zu events, "
      "retained hwm=%zu (%.1f%%), retired=%llu, log %zu/%llu records "
      "(%zu KB), tombstones collected=%llu left=%zu, overhead %.2f%% "
      "(record %.4fs / check %.4fs), verdicts_equal=%d exact=%d "
      "memory_bounded=%d clean=%d conv=%d\n",
      soak.stores, soak.clients, soak.ops, soak.wall_s, soak.ops_per_s,
      soak.events, soak.retained_hwm,
      soak.events > 0 ? 100.0 * static_cast<double>(soak.retained_hwm) /
                            static_cast<double>(soak.events)
                      : 0.0,
      static_cast<unsigned long long>(soak.events_retired),
      soak.log_retained_records,
      static_cast<unsigned long long>(soak.log_appended),
      soak.log_retained_bytes / 1024,
      static_cast<unsigned long long>(soak.tombstones_collected),
      soak.tombstones_left, soak.check_overhead_pct, soak.record_only_s,
      soak.record_check_s, soak.verdicts_equal, soak.exact,
      soak.memory_bounded, soak.clean, soak.converged);

  std::printf("bench_scale: delta-snapshot sparse-update rejoins...\n");
  const SnapshotDeltaResult sd = run_snapshot_delta(smoke);
  std::printf(
      "  %d stores, %d pages x %dB, %d rejoins: %.3fs / %.1fKB (%.1fx fewer "
      "bytes than whole documents), deltas=%llu fallbacks=%llu conv=%d\n",
      sd.stores, sd.pages, sd.page_bytes, sd.rejoins, sd.wall_s,
      sd.state_bytes / 1024.0, sd.reduction,
      static_cast<unsigned long long>(sd.delta_transfers),
      static_cast<unsigned long long>(sd.full_transfers), sd.converged);

  std::printf("bench_scale: many-object sharding...\n");
  const MultiObjectResult mo = run_multi_object(smoke);
  for (const MultiObjectRow& r : mo.scaling) {
    std::printf("  %d shard(s) %5d objects %5d ops: %.2fs, %.2f msgs/op, "
                "conv=%d\n",
                r.shards, r.objects, r.ops, r.wall_s, r.msgs_per_op,
                r.converged);
  }
  if (!mo.scaling.empty()) {
    std::printf("  per-shard rollup of the widest run:\n%s",
                metrics::render_shard_stats(mo.scaling.back().shard_stats)
                    .c_str());
  }
  std::printf("  isolation: crashes=%llu cold epoch %llu->%llu hot=%llu "
              "untouched=%d conv=%d; baseline_identical=%d\n",
              static_cast<unsigned long long>(mo.churn_crashes),
              static_cast<unsigned long long>(mo.cold_epoch_before),
              static_cast<unsigned long long>(mo.cold_epoch_after),
              static_cast<unsigned long long>(mo.hot_epoch_after),
              mo.cold_untouched, mo.isolation_converged,
              mo.baseline_identical);

  const std::size_t slash = out_path.find_last_of('/');
  const std::string artifact_dir =
      slash == std::string::npos ? std::string() : out_path.substr(0, slash + 1);
  std::printf("bench_scale: observability (tracing off/on x%d)...\n",
              smoke ? 5 : 3);
  const ObservabilityResult ob = run_observability(smoke, artifact_dir);
  std::printf(
      "  %d stores %d clients %d ops (1-in-%llu): off %.3fs, on %.3fs "
      "(overhead %.2f%%), wire_identical_off=%d visible_on=%d "
      "connected=%d spans=%zu prop_first p50=%.0fus p99=%.0fus "
      "trip_dump_ok=%d\n",
      ob.stores, ob.clients, ob.ops,
      static_cast<unsigned long long>(ob.sample_every), ob.off_s, ob.on_s,
      ob.overhead_pct, ob.wire_identical_tracing_off,
      ob.tracing_visible_on_wire, ob.lifecycle_connected, ob.spans,
      ob.prop_first_p50_us, ob.prop_first_p99_us, ob.trip_dump_ok);

  std::printf("bench_scale: trajectory across coherence models...\n");
  std::vector<TrajectoryRow> rows;
  for (const auto model :
       {coherence::ObjectModel::kSequential, coherence::ObjectModel::kPram,
        coherence::ObjectModel::kFifoPram, coherence::ObjectModel::kCausal,
        coherence::ObjectModel::kEventual}) {
    rows.push_back(run_trajectory(model, /*mirrors=*/4, traj_caches,
                                  traj_clients, traj_ops));
    std::printf("  %-11s %3d stores %3d clients %5d ops: %.2fs, "
                "%.2f msgs/op, conv=%d model_ok=%d\n",
                rows.back().model.c_str(), rows.back().stores,
                rows.back().clients, rows.back().ops, rows.back().wall_s,
                rows.back().msgs_per_op, rows.back().converged,
                rows.back().model_ok);
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  emit_json(f, smoke, micro, snap, pull, ae, fanout, loopback, win, hist,
            churn, soak, sd, mo, ob, rows);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  // Smoke mode doubles as a regression gate for the harness itself.
  // Every gate is evaluated and every failure printed: a failing early
  // gate must not hide a later one.
  int failed = 0;
  if (!pull.converged || !ae.converged) {
    std::fprintf(stderr, "FAIL: long-history scenarios did not converge\n");
    ++failed;
  }
  for (const FanoutRow& r : fanout) {
    if (!r.converged) {
      std::fprintf(stderr, "FAIL: fan-out scenario %s did not converge\n",
                   r.mode.c_str());
      ++failed;
    }
  }
  if (!loopback.converged) {
    std::fprintf(stderr, "FAIL: loopback fan-out did not converge\n");
    ++failed;
  }
  if (!win.converged || !win.identical || !win.queue_bounded ||
      !win.fault_paused || !win.fault_bounded || !win.fault_recovered) {
    std::fprintf(stderr,
                 "FAIL: windowed multicast conv=%d identical=%d bounded=%d "
                 "fault(paused=%d bounded=%d recovered=%d)\n",
                 win.converged, win.identical, win.queue_bounded,
                 win.fault_paused, win.fault_bounded, win.fault_recovered);
    ++failed;
  }
  std::uint64_t churn_evictions = 0;
  std::uint64_t churn_rejoins = 0;
  for (const ChurnRow& r : churn) {
    churn_evictions += r.evictions;
    churn_rejoins += r.rejoins;
    if (!r.converged || !r.model_ok || !r.sessions_ok) {
      std::fprintf(stderr,
                   "FAIL: churn scenario (%s) conv=%d model=%d sessions=%d\n",
                   r.model.c_str(), r.converged, r.model_ok, r.sessions_ok);
      ++failed;
    }
  }
  // The scenarios must actually bite: the partitions outlast the
  // failure timeout, so evictions and heartbeat re-admissions have to
  // happen (the simulation is deterministic).
  if (churn_evictions == 0 || churn_rejoins == 0) {
    std::fprintf(stderr,
                 "FAIL: churn faults never bit: evictions=%llu rejoins=%llu\n",
                 static_cast<unsigned long long>(churn_evictions),
                 static_cast<unsigned long long>(churn_rejoins));
    ++failed;
  }
  // The soak section's reasons to exist: byte-identical verdicts from
  // the streaming checker, bounded retained memory, and a check budget.
  if (!soak.verdicts_equal || !soak.memory_bounded || !soak.clean ||
      !soak.converged || soak.check_overhead_pct > 10.0) {
    std::fprintf(stderr,
                 "FAIL: soak verdicts_equal=%d memory_bounded=%d clean=%d "
                 "conv=%d overhead=%.2f%% (budget 10%%)\n",
                 soak.verdicts_equal, soak.memory_bounded, soak.clean,
                 soak.converged, soak.check_overhead_pct);
    ++failed;
  }
  // A session or model violation in this clean scenario is a checker
  // regression.
  if (!hist.clean_ok) {
    std::fprintf(stderr, "FAIL: history checker pipeline regressed\n");
    ++failed;
  }
  // Every rejoin must take the delta path, and the byte win is the
  // section's reason to exist.
  if (!sd.converged || sd.delta_transfers == 0 || sd.full_transfers != 0 ||
      sd.reduction < 5.0) {
    std::fprintf(stderr,
                 "FAIL: delta snapshots conv=%d deltas=%llu full=%llu "
                 "reduction=%.2f (want deltas > 0, full = 0, >= 5x)\n",
                 sd.converged,
                 static_cast<unsigned long long>(sd.delta_transfers),
                 static_cast<unsigned long long>(sd.full_transfers),
                 sd.reduction);
    ++failed;
  }
  for (const MultiObjectRow& r : mo.scaling) {
    if (!r.converged) {
      std::fprintf(stderr,
                   "FAIL: multi-object scaling run (%d shards) did not "
                   "converge\n",
                   r.shards);
      ++failed;
    }
    // One clock beacon per subscriber peer per tick: background traffic
    // follows writes, not the hosted objects.
    if (r.msgs_per_op >= 12.0) {
      std::fprintf(stderr,
                   "FAIL: multi-object scaling run (%d shards) sends %.2f "
                   "msgs/op (budget < 12)\n",
                   r.shards, r.msgs_per_op);
      ++failed;
    }
  }
  if (!mo.cold_untouched || !mo.isolation_converged ||
      !mo.baseline_identical) {
    std::fprintf(stderr,
                 "FAIL: multi-object untouched=%d conv=%d baseline=%d\n",
                 mo.cold_untouched, mo.isolation_converged,
                 mo.baseline_identical);
    ++failed;
  }
  // The tracer's contracts: disabled must be invisible on the wire,
  // enabled must stay within the overhead budget and still produce one
  // connected trace per write (and a parseable trip dump when checked).
  if (!ob.wire_identical_tracing_off) {
    std::fprintf(stderr,
                 "FAIL: wire digest differs across tracing-off runs\n");
    ++failed;
  }
  if (ob.overhead_pct > 2.0) {
    std::fprintf(stderr,
                 "FAIL: tracing overhead %.2f%% exceeds 2%% budget "
                 "(off %.4fs on %.4fs)\n",
                 ob.overhead_pct, ob.off_s, ob.on_s);
    ++failed;
  }
  if (!ob.tracing_visible_on_wire || !ob.lifecycle_connected ||
      ob.span_overflow != 0 || !ob.trip_dump_ok) {
    std::fprintf(stderr,
                 "FAIL: observability visible_on_wire=%d connected=%d "
                 "overflow=%llu trip_dump_ok=%d (spans=%zu)\n",
                 ob.tracing_visible_on_wire, ob.lifecycle_connected,
                 static_cast<unsigned long long>(ob.span_overflow),
                 ob.trip_dump_ok, ob.spans);
    ++failed;
  }
  return failed > 0 ? 1 : 0;
}

}  // namespace
}  // namespace globe::bench

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_scale.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_scale [--smoke] [--out <path>]\n");
      return 2;
    }
  }
  return globe::bench::run(smoke, out);
}
