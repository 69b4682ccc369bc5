// Scale benchmark: the perf trajectory of the replication hot path.
//
// Each section builds its deployment, runs its workload, and returns its
// record for BENCH_scale.json together with its gates. Seed behaviour is
// pinned by golden digests in tests/, not re-run here.
//
//  micro_writelog, micro_snapshot   the indexed WriteLog delta and the
//      shared snapshot cache alone.
//  e2e_pull_long_history, e2e_anti_entropy   replicas polling a primary
//      with a long history.
//  fanout   1 primary, 16–128 subscribers: immediate, lazy and pull.
//  multicast_window   the same fan-out on the threaded loopback runtime,
//      unwindowed and windowed (byte-identical state), plus a slow
//      subscriber that must pause, stay bounded, and catch up.
//  history   recording + the checker pipeline on a wide causal run.
//  churn   partitions, rolling churn and a flash-crowd join under every
//      coherence model: converged, faults bite, clean verdicts.
//  soak   streaming verification + horizon GC at 10x the ops: bounded
//      memory, verdicts equal to the post-hoc replay, a 10% check budget.
//  snapshot_delta   rejoin storms: every transfer takes the delta path
//      and ships at least 5x fewer bytes.
//  multi_object   placed objects over 1, 2 and 4 shards (under 12
//      msgs/op), and placed vs plain digest equality.
//  observability   tracing off is invisible on the wire, sampled tracing
//      costs at most 2%, traces stay connected.
//  scale_trajectory   wide deployments across every coherence model.
//
// Usage: bench_scale [--smoke] [--out <path>]
//   --smoke  tiny sizes; validates the harness (CI bitrot check)
// Every gate is evaluated: the run writes the JSON, prints each failed
// gate, and exits 1 if any failed.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_common.hpp"
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

using coherence::ClientModel;
using coherence::ObjectModel;
using replication::ObjectConfig;
using replication::StoreConfig;
using Clock = std::chrono::steady_clock;
using sim::SimDuration;

constexpr ObjectModel kModels[] = {ObjectModel::kSequential,
                                   ObjectModel::kPram, ObjectModel::kFifoPram,
                                   ObjectModel::kCausal,
                                   ObjectModel::kEventual};
constexpr ClientModel kAllSessions =
    ClientModel::kMonotonicWrites | ClientModel::kReadYourWrites |
    ClientModel::kMonotonicReads | ClientModel::kWritesFollowReads;
constexpr SimDuration kThink = SimDuration::millis(10);  // history/churn/soak

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[gnu::format(printf, 1, 2)]] std::string fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  return buf;
}

// ---- The report: one JSON record and a gate list per section -------

/// A JSON value built in report order. Sections write named values
/// straight into their record; BENCH_scale.json and stdout render it.
class Json {
 public:
  Json() = default;
  static Json array() {
    Json j;
    j.array_ = true;
    return j;
  }

  Json& set(const std::string& key, Json value) {
    members_.emplace_back(key, std::move(value));
    return *this;
  }
  Json& set(const std::string& key, bool v) {
    return set(key, Json(v ? "true" : "false"));
  }
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  Json& set(const std::string& key, T v) {
    return set(key, Json(std::to_string(v)));
  }
  /// A real number, printed with `digits` decimals.
  Json& set(const std::string& key, double v, int digits) {
    return set(key, Json(fmt("%.*f", digits, v)));
  }
  Json& set(const std::string& key, double v) = delete;
  Json& set(const std::string& key, const char* v) = delete;
  Json& str(const std::string& key, const std::string& v) {
    return set(key, Json("\"" + v + "\""));
  }
  Json& push(Json item) { return set({}, std::move(item)); }

  /// Arrays print one item per line, objects on one line unless they
  /// hold an array.
  [[nodiscard]] std::string render(int indent = 0) const {
    if (!text_.empty()) return text_;
    const bool lines = multiline();
    std::string out = array_ ? "[" : "{";
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (i > 0) out += lines ? "," : ", ";
      if (lines) out += "\n" + std::string(indent + 2, ' ');
      if (!array_) out += "\"" + members_[i].first + "\": ";
      out += members_[i].second.render(indent + 2);
    }
    if (lines && !members_.empty()) out += "\n" + std::string(indent, ' ');
    return out + (array_ ? "]" : "}");
  }

 private:
  explicit Json(std::string scalar) : text_(std::move(scalar)) {}
  [[nodiscard]] bool multiline() const {
    return array_ || std::any_of(members_.begin(), members_.end(),
                                 [](const auto& m) {
                                   return m.second.multiline();
                                 });
  }

  std::string text_;  // a rendered scalar
  bool array_ = false;
  std::vector<std::pair<std::string, Json>> members_;  // items: no key
};

struct Gate {
  std::string name;    // what must hold, in the record's terms
  bool ok = false;
  std::string detail;  // the values behind a failure
};

struct Section {
  Json record;
  std::vector<Gate> gates;

  void gate(std::string name, bool ok, std::string detail = {}) {
    gates.push_back({std::move(name), ok, std::move(detail)});
  }
};

// ---- Shared pieces: policies, wide tree, op loop, fault scripts -----

/// `model` with the write set it needs: causal and eventual objects take
/// writes at every store.
core::ReplicationPolicy policy_for(ObjectModel model) {
  core::ReplicationPolicy policy;  // push, immediate, partial
  policy.model = model;
  if (model == ObjectModel::kCausal || model == ObjectModel::kEventual) {
    policy.write_set = core::WriteSet::kMultiple;
  }
  return policy;
}

core::ReplicationPolicy push_demand() {
  core::ReplicationPolicy policy;  // PRAM push immediate partial
  policy.object_outdate_reaction = core::OutdateReaction::kDemand;
  return policy;
}

/// The trajectory-scale tree: 4 mirrors, 120 caches, 240 clients, 2000
/// ops (smoke: 6 caches, 12 clients, 60 ops).
TreeSpec wide_tree(bool smoke) {
  TreeSpec spec;
  spec.mirrors = 4;
  spec.caches = smoke ? 6 : 120;
  spec.clients = smoke ? 12 : 240;
  return spec;
}
int wide_ops(bool smoke) { return smoke ? 60 : 2000; }

/// Membership on, a failure timeout well inside the scripted fault
/// windows (or eviction, re-admission and rebinding are never
/// exercised), 5 ms WAN, and client timeouts with one retry.
TestbedOptions faulty_options(std::uint64_t seed, bool smoke) {
  TestbedOptions opts;
  opts.seed = seed;
  opts.enable_membership = true;
  opts.membership_heartbeat = SimDuration::millis(smoke ? 10 : 100);
  opts.failure_timeout = SimDuration::millis(smoke ? 30 : 400);
  opts.wan.base_latency = SimDuration::millis(5);
  opts.client_timeout = SimDuration::millis(300);
  opts.client_retries = 1;
  return opts;
}

/// The client workload of history, churn and soak: one op every kThink
/// from a random client on a Zipf page, 10% writes. With `deletes`,
/// every 97th op deletes its page instead (feeding the tombstone
/// collector; later writes bring the page back).
void zipf_ops(Testbed& bed, const Tree& tree, int ops, std::uint64_t seed,
              bool deletes = false) {
  util::Rng rng(seed);
  workload::ZipfGenerator zipf(tree.pages.size(), 0.9);
  for (int op = 0; op < ops; ++op) {
    ClientBinding& c = *tree.clients[rng.below(tree.clients.size())];
    const std::string& page = tree.pages[zipf.sample(rng)];
    if (deletes && op % 97 == 41) {
      c.remove(page, [](replication::WriteResult) {});
    } else if (rng.chance(0.10)) {
      c.write(page, "v" + std::to_string(op), [](replication::WriteResult) {});
    } else {
      c.read(page, [](replication::ReadResult) {});
    }
    bed.run_for(kThink);
  }
}

std::vector<coherence::SessionSpec> specs_for(const Tree& tree,
                                              ClientModel session) {
  std::vector<coherence::SessionSpec> specs;
  for (const ClientBinding* c : tree.clients) {
    specs.push_back({c->id(), session});
  }
  return specs;
}

/// "<frac of total_ms>ms", a script time scaled to the run length.
std::string at(double frac, std::int64_t total_ms) {
  return std::to_string(static_cast<std::int64_t>(
             frac * static_cast<double>(total_ms))) +
         "ms";
}

/// A fault script armed on a testbed. A script that does not parse arms
/// nothing and leaves its error for the section's gate.
class FaultScript {
 public:
  FaultScript(Testbed& bed, const std::string& text, std::uint64_t seed)
      : host_(bed), engine_(parse(text, &error_), host_, seed) {
    engine_.arm(bed.sim());
  }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] const fault::ScenarioEngine& engine() const { return engine_; }

 private:
  static fault::ScenarioScript parse(const std::string& text,
                                     std::string* error) {
    fault::ScenarioScript script;
    if (fault::ScenarioScript::parse(text, &script, error)) return script;
    *error += " in: " + text;
    return {};
  }

  std::string error_;
  replication::TestbedFaultHost host_;
  fault::ScenarioEngine engine_;
};

// ---- Microbenchmarks ------------------------------------------------

Section micro_writelog(bool smoke) {
  const int records = smoke ? 2000 : 30000;
  const int queries = smoke ? 100 : 3000;
  constexpr int kWriters = 32;
  util::Rng rng(99);
  web::PageTable pages;
  replication::WriteLog log(pages);
  std::vector<std::uint64_t> next_seq(kWriters, 1);
  for (int i = 0; i < records; ++i) {
    const auto client = static_cast<ClientId>(rng.below(kWriters));
    web::WriteRecord rec;
    rec.wid = coherence::WriteId{client, next_seq[client]++};
    rec.page = "page" + std::to_string(rng.below(64)) + ".html";
    rec.content = "content-" + std::to_string(i);
    rec.lamport = i + 1;
    const web::PageId page = pages.acquire(rec.page);
    log.append(rec, page);
    pages.release(page);
  }
  // Near-tip requesters: each misses the last 0–2 writes of every
  // writer, the steady state of a replica polling a busy object.
  std::vector<coherence::VectorClock> haves(queries);
  for (auto& have : haves) {
    for (int c = 0; c < kWriters; ++c) {
      const std::uint64_t top = next_seq[c] - 1;
      const std::uint64_t missing = rng.below(3);
      have.set(static_cast<ClientId>(c), top > missing ? top - missing : 0);
    }
  }
  std::size_t delta_records = 0;
  const auto start = Clock::now();
  for (const auto& have : haves) {
    delta_records += log.records_since(have, 0).size();
  }
  Section s;
  s.record.set("records", records)
      .set("queries", queries)
      .set("delta_records", delta_records)
      .set("indexed_s", seconds_since(start), 6);
  return s;
}

Section micro_snapshot(bool smoke) {
  const int pages = smoke ? 32 : 256;
  const int requests = smoke ? 200 : 4000;
  web::WebDocument doc;
  for (int i = 0; i < pages; ++i) {
    web::WriteRecord rec;
    rec.wid = {1, static_cast<std::uint64_t>(i + 1)};
    rec.page = "page" + std::to_string(i) + ".html";
    rec.content = std::string(1024, 'p');
    doc.apply(rec);
  }
  // N snapshot requesters without the cache: N full encodes (the seed's
  // cutover-storm cost). Then the same storm through the cache: one
  // encode, N shared references.
  std::size_t uncached_bytes = 0;
  auto start = Clock::now();
  for (int i = 0; i < requests; ++i) {
    uncached_bytes += doc.encode_snapshot().size();
  }
  const double uncached_s = seconds_since(start);
  std::size_t cached_bytes = 0;
  start = Clock::now();
  for (int i = 0; i < requests; ++i) cached_bytes += doc.snapshot()->size();
  const double cached_s = seconds_since(start);

  Section s;
  s.record.set("pages", pages)
      .set("requests", requests)
      .set("uncached_s", uncached_s, 6)
      .set("cached_s", cached_s, 6)
      .set("speedup", cached_s > 0 ? uncached_s / cached_s : 0.0, 2);
  s.gate("micro_snapshot: cached snapshot equals encode_snapshot()",
         uncached_bytes == cached_bytes &&
             *doc.snapshot() == doc.encode_snapshot());
  return s;
}

// ---- Simulated deployments without clients --------------------------

/// A primary accumulates a long history (no compaction: the full history
/// is the worst case for delta computation) while flat replicas of
/// `store_class` poll it every 10 ms.
Section long_history(const std::string& name, ObjectModel model,
                     naming::StoreClass store_class, std::uint64_t seed,
                     std::uint64_t write_seed, bool smoke) {
  const int writes = smoke ? 150 : 16000;
  const int stores = smoke ? 3 : 12;
  core::ReplicationPolicy policy = policy_for(model);
  policy.initiative = core::TransferInitiative::kPull;  // poll/anti-entropy
  policy.lazy_period = SimDuration::millis(10);
  TestbedOptions opts;
  opts.seed = seed;
  opts.record_history = false;
  // The poll period must exceed the fetch round trip, or a request is
  // always in flight and the run never quiesces: metro links.
  opts.wan.base_latency = SimDuration::millis(1);
  opts.log_compact_threshold = 0;
  const auto start = Clock::now();
  Testbed bed(opts);
  auto& primary = bed.add_primary(kObj, policy);
  for (int i = 0; i < stores; ++i) bed.add_store(kObj, store_class, policy);
  bed.settle();
  util::Rng rng(write_seed);
  for (int i = 0; i < writes; ++i) {
    primary.seed("page" + std::to_string(rng.below(32)) + ".html",
                 "v" + std::to_string(i));
    bed.run_for(SimDuration::millis(4));
  }
  bed.settle();
  const bool converged = bed.converged(kObj);
  Section s;
  s.record.set("writes", writes)
      .set("stores", stores)
      .set("indexed_s", seconds_since(start), 4)
      .set("sim_events", bed.sim().events_run())
      .set("converged", converged);
  s.gate(name + ".converged", converged);
  return s;
}

Section fanout(bool smoke) {
  const int subscribers = smoke ? 16 : 128;
  const int writes = smoke ? 40 : 400;
  Section s{Json::array(), {}};
  for (const std::string mode : {"immediate", "lazy", "pull"}) {
    core::ReplicationPolicy policy;  // PRAM, push, immediate, partial
    if (mode == "lazy") policy.instant = core::TransferInstant::kLazy;
    if (mode == "pull") policy.initiative = core::TransferInitiative::kPull;
    if (mode != "immediate") policy.lazy_period = SimDuration::millis(10);
    TestbedOptions opts;
    opts.seed = 29;
    opts.record_history = false;
    opts.wan.base_latency = SimDuration::millis(1);
    const auto start = Clock::now();
    Testbed bed(opts);
    auto& primary = bed.add_primary(kObj, policy);
    for (int i = 0; i < subscribers; ++i) {
      bed.add_store(kObj, naming::StoreClass::kObjectInitiated, policy);
    }
    bed.settle();
    util::Rng rng(7);
    const std::string payload(2048, 'f');
    for (int i = 0; i < writes; ++i) {
      primary.seed("page" + std::to_string(rng.below(16)) + ".html",
                   payload + std::to_string(i));
      bed.run_for(SimDuration::millis(2));
    }
    bed.settle();
    const double shared_s = seconds_since(start);
    const bool converged = bed.converged(kObj);
    s.record.push(Json()
                      .str("mode", mode)
                      .set("subscribers", subscribers)
                      .set("writes", writes)
                      .set("shared_s", shared_s, 4)
                      .set("converged", converged));
    s.gate("fanout[" + mode + "].converged", converged);
  }
  return s;
}

// ---- Threaded loopback fan-out: plain, windowed, a slow subscriber --

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

/// A primary (node 0) and `subscribers` mirrors (nodes 1..N) of one
/// PRAM push object on a LoopbackRouter, optionally windowed. Delivery is
/// thread-driven; nothing runs the simulator.
class LoopbackRig {
 public:
  using Wrap = std::function<std::unique_ptr<net::Transport>(
      std::unique_ptr<net::Transport>)>;

  LoopbackRig(int subscribers, net::WindowedMulticast* window,
              const Wrap& wrap_primary = {}) {
    StoreConfig cfg;
    cfg.is_primary = true;
    cfg.flow = window;
    ObjectConfig oc;  // PRAM push immediate partial: no timers
    oc.object = kObj;
    add(cfg, oc, window, wrap_primary);
    oc.upstream = primary().address();
    for (int i = 0; i < subscribers; ++i) {
      StoreConfig sub;
      sub.store_id = static_cast<StoreId>(i + 1);
      sub.store_class = naming::StoreClass::kObjectInitiated;
      sub.flow = window;
      add(sub, oc, window, {});
    }
    router_.drain();  // all subscriptions acknowledged
  }

  /// `writes` 2 KB seeds over 16 pages at the primary. The router runs
  /// every `drain_every` seeds: acks and credit only move when it does,
  /// and a burst that never yields starves the flow window until the
  /// engine declares every peer hopeless.
  void burst(int writes, char fill, int drain_every) {
    const std::string payload(2048, fill);
    for (int i = 0; i < writes; ++i) {
      primary().seed("page" + std::to_string(i % 16) + ".html",
                     payload + std::to_string(i));
      if (i % drain_every == drain_every - 1) router_.drain();
    }
    router_.drain();
  }

  /// Flushes batches parked while a peer was flow-paused: they go out on
  /// the propagation path once the resume event is polled (mirrors
  /// Testbed::settle).
  void flush(int rounds) {
    for (int r = 0; r < rounds; ++r) {
      for (auto& s : stores_) s->finalize_propagation();
      router_.drain();
    }
  }

  void drain() { router_.drain(); }
  [[nodiscard]] StoreEngine& primary() const { return *stores_.front(); }
  [[nodiscard]] std::size_t size() const { return stores_.size(); }
  [[nodiscard]] bool matches_primary(std::size_t i) const {
    return stores_[i]->document() == primary().document();
  }
  [[nodiscard]] std::vector<util::Buffer> digests() const {
    std::vector<util::Buffer> out;
    for (const auto& s : stores_) {
      out.push_back(replication::store_state_digest(*s));
    }
    return out;
  }

 private:
  void add(const StoreConfig& cfg, const ObjectConfig& oc,
           net::WindowedMulticast* window, const Wrap& wrap) {
    const NodeId node = static_cast<NodeId>(stores_.size());
    core::TransportFactory factory =
        [this, node, wrap](net::MessageHandler h)
        -> std::unique_ptr<net::Transport> {
      auto t = std::make_unique<net::LoopbackTransport>(
          router_, net::Address{node, 1}, std::move(h));
      if (!wrap) return t;
      return wrap(std::move(t));
    };
    if (window != nullptr) {
      factory = net::windowed_factory(*window, std::move(factory));
    }
    stores_.push_back(std::make_unique<StoreEngine>(
        std::move(factory), sim_, cfg, std::vector<ObjectConfig>{oc}));
  }

  net::LoopbackRouter router_;
  sim::Simulator sim_;  // clock source only
  std::vector<std::unique_ptr<StoreEngine>> stores_;  // die before router_
};

struct FanoutRun {
  double wall_s = 0;
  bool converged = true;
  std::vector<util::Buffer> digests;  // per-store delivered state
};

FanoutRun loopback_fanout(int subscribers, int writes,
                          net::WindowedMulticast* window) {
  LoopbackRig rig(subscribers, window);
  const auto start = Clock::now();
  // The drain cadence leaves enough queued for coalescing to engage, and
  // applies to unwindowed runs too so timings stay comparable.
  rig.burst(writes, 'l', 64);
  if (window != nullptr) rig.flush(8);
  FanoutRun out;
  out.wall_s = seconds_since(start);
  for (std::size_t i = 1; i < rig.size(); ++i) {
    out.converged = out.converged && rig.matches_primary(i);
  }
  out.digests = rig.digests();
  return out;
}

/// The stores whose windowed state digest departs from the plain one.
std::string diverged(const std::vector<util::Buffer>& plain,
                     const std::vector<util::Buffer>& windowed,
                     const net::WindowStats& ws) {
  std::string out = fmt("%zu vs %zu stores, differing:", plain.size(),
                        windowed.size());
  for (std::size_t i = 0; i < std::min(plain.size(), windowed.size()); ++i) {
    if (plain[i] != windowed[i]) out += " " + std::to_string(i);
  }
  return out + fmt("; window dropped=%llu pauses=%llu retransmits=%llu",
                   static_cast<unsigned long long>(ws.dropped_payloads),
                   static_cast<unsigned long long>(ws.pauses),
                   static_cast<unsigned long long>(ws.retransmits));
}

/// One slow subscriber under a windowed fan-out: its channel must pause
/// (not grow without bound), healthy peers must keep converging, and the
/// victim must catch up once its path heals.
Json window_fault(int subscribers, int writes, Section& s) {
  net::WindowOptions wopts;
  wopts.window_size = 8;
  wopts.max_queue = 16;  // pause at 8 pending, resume at <= 4
  net::WindowedMulticast window(wopts);
  auto dropping = std::make_shared<std::atomic<bool>>(false);
  const net::Address victim{1, 1};  // the first subscriber
  LoopbackRig rig(subscribers, &window,
                  [victim, dropping](std::unique_ptr<net::Transport> t) {
                    return std::make_unique<DropToPeerTransport>(
                        std::move(t), victim, dropping);
                  });
  dropping->store(true);
  // Healthy peers' acks return credit mid-burst; the victim's never do,
  // so it stays paused and its batches stay parked through the flush.
  // This leg measures pause -> park -> resume recovery, so the victim's
  // parked batches must outlive the burst: one write is one propagation
  // round, and the burst stays under the rounds after which the primary
  // drops a paused peer.
  const int burst =
      std::min(writes,
               static_cast<int>(replication::kFlowPausedRoundsLimit) * 3 / 4);
  rig.burst(burst, 'f', 8);
  rig.flush(8);
  const net::Address primary = rig.primary().address();
  const bool paused =
      window.peer_paused(primary, victim) || window.stats().pauses > 0;
  bool bounded = window.stats().queue_high_watermark <= wopts.max_queue;
  for (std::size_t i = 2; i < rig.size(); ++i) {
    bounded = bounded && rig.matches_primary(i);
  }
  dropping->store(false);
  for (int round = 0; round < 200 && !rig.matches_primary(1); ++round) {
    window.tick(primary);  // retransmit into the healed path
    rig.drain();
    rig.flush(1);
  }
  const bool recovered = rig.matches_primary(1);
  s.gate("multicast_window.fault.paused", paused);
  s.gate("multicast_window.fault.bounded", bounded,
         fmt("queue_high_watermark=%zu max_queue=%zu, or a healthy peer "
             "diverged",
             window.stats().queue_high_watermark, wopts.max_queue));
  s.gate("multicast_window.fault.recovered", recovered);
  return Json()
      .set("paused", paused)
      .set("bounded", bounded)
      .set("recovered", recovered);
}

Section multicast_window(bool smoke) {
  const int subscribers = smoke ? 16 : 128;
  const int writes = smoke ? 40 : 300;
  const FanoutRun plain = loopback_fanout(subscribers, writes, nullptr);
  net::WindowedMulticast window;  // default options
  const FanoutRun windowed = loopback_fanout(subscribers, writes, &window);
  const net::WindowStats ws = window.stats();
  // Delivered payload volume: every seed's content reaches every
  // subscriber (records also carry page names and clocks; this is the
  // conservative content-only number).
  double delivered_bytes = 0;
  for (int i = 0; i < writes; ++i) {
    delivered_bytes += static_cast<double>(
        (2048 + std::to_string(i).size()) *
        static_cast<std::size_t>(subscribers));
  }
  const double wall = windowed.wall_s;
  const std::size_t max_queue = window.options().max_queue;
  const bool queue_bounded =
      ws.queue_high_watermark <= max_queue && ws.dropped_payloads == 0;
  const bool identical = plain.digests == windowed.digests;
  const bool converged = plain.converged && windowed.converged;

  Section s;
  s.gate("multicast_window.converged", converged);
  s.gate("multicast_window.identical", identical,
         identical ? "" : diverged(plain.digests, windowed.digests, ws));
  s.gate("multicast_window.queue_bounded", queue_bounded,
         fmt("queue_high_watermark=%zu max_queue=%zu dropped=%llu",
             ws.queue_high_watermark, max_queue,
             static_cast<unsigned long long>(ws.dropped_payloads)));
  s.record.set("subscribers", subscribers)
      .set("writes", writes)
      .set("unwindowed_s", plain.wall_s, 4)
      .set("windowed_s", wall, 4)
      .set("mb_per_s", wall > 0 ? delivered_bytes / wall / 1e6 : 0.0, 2)
      .set("ops_per_s", wall > 0 ? writes / wall : 0.0, 1)
      .set("data_frames", ws.data_frames_sent)
      .set("coalesced", ws.datagrams_coalesced)
      .set("frames_shared", ws.frames_shared)
      .set("retransmits", ws.retransmits)
      .set("queue_high_watermark", ws.queue_high_watermark)
      .set("max_queue", max_queue)
      .set("queue_bounded", queue_bounded)
      .set("identical", identical)
      .set("converged", converged)
      .set("fault", window_fault(subscribers, writes, s));
  return s;
}

// ---- Wide trees: history, churn, soak, snapshot_delta ---------------

/// Replays `src` into `dst` in chronological order (3-way merge on the
/// event timestamps), re-interning page names and clocks — exactly
/// the recording work the testbed run performed, isolated from the
/// simulator.
double replay_history(const coherence::History& src,
                      coherence::History& dst) {
  const auto& ws = src.writes();
  const auto& rs = src.reads();
  const auto& as = src.applies();
  const auto start = Clock::now();
  std::size_t wi = 0, ri = 0, ai = 0;
  const auto time_of = [](const auto& events, std::size_t i) {
    return i < events.size() ? events[i].at.count_micros()
                             : std::numeric_limits<std::int64_t>::max();
  };
  while (wi < ws.size() || ri < rs.size() || ai < as.size()) {
    const std::int64_t wt = time_of(ws, wi), rt = time_of(rs, ri),
                       st = time_of(as, ai);
    if (wt <= rt && wt <= st) {
      coherence::WriteEvent e = ws[wi++];
      e.page = dst.intern(src.page_name(e.page));
      dst.record_write(e);
    } else if (rt <= st) {
      coherence::ReadEvent e = rs[ri++];
      e.page = dst.intern(src.page_name(e.page));
      dst.record_read(e, src.clock(e.store_clock));
    } else {
      coherence::ApplyEvent e = as[ai++];
      e.page = dst.intern(src.page_name(e.page));
      dst.record_apply(e, src.clock(e.deps));
    }
  }
  return seconds_since(start);
}

/// The trajectory-scale causal run with history recording on; the
/// recorded events are replayed into a fresh History to time recording
/// alone, then the full verification (object model + every client's
/// session guarantees) is timed. Verdict equality with the seed oracle
/// is a ctest (tests/checker_equivalence_test.cpp).
Section history(bool smoke) {
  TestbedOptions opts;
  opts.seed = 23;
  opts.wan.base_latency = SimDuration::millis(5);
  Testbed bed(opts);
  TreeSpec spec = wide_tree(smoke);
  spec.policy = policy_for(ObjectModel::kCausal);
  spec.pages.assign(24, "v0");
  spec.session = kAllSessions;
  const Tree tree = build_tree(bed, spec);
  const int ops = wide_ops(smoke);
  zipf_ops(bed, tree, ops, /*seed=*/31);
  bed.settle();

  coherence::History hist;
  const double record_s = replay_history(bed.history(), hist);
  const auto start = Clock::now();
  const auto object = coherence::check_object_model(hist, spec.policy.model);
  const auto sessions =
      coherence::check_sessions(hist, specs_for(tree, spec.session));
  const double check_s = seconds_since(start);
  bool clean_ok = object.ok;
  for (const auto& r : sessions) clean_ok = clean_ok && r.ok;

  Section s;
  s.record.set("stores", 1 + spec.mirrors + spec.caches)
      .set("clients", spec.clients)
      .set("ops", ops)
      .set("events", bed.history().size())
      .set("pages_interned", bed.history().pages_interned())
      .set("record_s", record_s, 6)
      .set("check_s", check_s, 6)
      .set("clean_ok", clean_ok);
  s.gate("history.clean_ok", clean_ok);
  return s;
}

struct ChurnTotals {
  std::uint64_t evictions = 0;
  std::uint64_t rejoins = 0;
  bool converged = true;
  bool clean = true;
};

/// One churn row: the wide tree under `model` with three partition/heal
/// cycles, a rolling-churn window crashing ~10% of the stores, and a
/// flash-crowd join near the end, all scaled to the run length.
Json churn_row(ObjectModel model, bool smoke, Section& s,
               ChurnTotals& totals) {
  const TestbedOptions opts =
      faulty_options(47 + static_cast<std::uint64_t>(model), smoke);
  Testbed bed(opts);
  const auto start = Clock::now();
  TreeSpec spec = wide_tree(smoke);
  spec.policy = policy_for(model);
  spec.policy.object_outdate_reaction = core::OutdateReaction::kDemand;
  spec.pages.assign(24, "v0");
  // Writes-follow-reads needs a cross-writer apply order: the causal
  // orderer enforces the dependencies, and the sequential total order
  // subsumes them. PRAM-family and eventual objects only promise
  // per-writer order, which churn-driven resyncs legitimately exploit,
  // so their clients hold the other three guarantees.
  spec.session = model == ObjectModel::kSequential ||
                         model == ObjectModel::kCausal
                     ? kAllSessions
                     : ClientModel::kMonotonicWrites |
                           ClientModel::kReadYourWrites |
                           ClientModel::kMonotonicReads;
  spec.settle_clients = true;
  const Tree tree = build_tree(bed, spec);

  // The partition splits off the last mirror with its caches (and, via
  // the testbed host, their clients); services stay with the primary.
  const int ops = wide_ops(smoke);
  const std::int64_t total = ops * kThink.count_micros() / 1000;
  std::string side_a, side_b;
  for (int st = 0; st < 1 + spec.mirrors + spec.caches; ++st) {
    const bool cut_off =
        st == spec.mirrors ||
        (st > spec.mirrors &&
         (st - 1 - spec.mirrors) % spec.mirrors == spec.mirrors - 1);
    std::string& side = cut_off ? side_b : side_a;
    side += (side.empty() ? "" : ",") + std::to_string(st);
  }
  std::string text;
  for (const double f : {0.10, 0.40, 0.70}) {
    text += "at " + at(f, total) + " partition " + side_a + "|" + side_b + "\n";
    text += "at " + at(f + 0.10, total) + " heal\n";
  }
  text += "at " + at(0.52, total) + " churn period=" + at(0.02, total) +
          " until=" + at(0.64, total) + " down=" + at(0.03, total) +
          " fraction=0.016\n";
  text += "at " + at(0.85, total) + " join " + std::to_string(smoke ? 2 : 8) +
          "\n";
  const FaultScript faults(bed, text, opts.seed);
  zipf_ops(bed, tree, ops, opts.seed * 31 + 7);
  // Cover the scenario tail (recoveries, re-admissions), then let the
  // resync rounds and heartbeats drain.
  bed.run_for(faults.engine().duration() + SimDuration::seconds(smoke ? 1 : 3));
  bed.settle();

  const fault::ScenarioStats& fs = faults.engine().stats();
  const auto& member = bed.membership().stats();
  const auto& m = bed.metrics();
  std::uint64_t rebinds = 0;
  for (const ClientBinding* c : tree.clients) rebinds += c->rebinds();
  const bool converged = bed.converged(kObj);
  const bool model_ok = coherence::check_object_model(bed.history(), model).ok;
  bool sessions_ok = true;
  for (const auto& r : coherence::check_sessions(
           bed.history(), specs_for(tree, spec.session))) {
    sessions_ok = sessions_ok && r.ok;
  }
  totals.evictions += member.evictions;
  totals.rejoins += member.rejoins;
  totals.converged = totals.converged && converged;
  totals.clean = totals.clean && model_ok && sessions_ok;
  const std::string row = fmt("churn[%s]", coherence::to_string(model));
  s.gate(row + " fault script parses", faults.error().empty(), faults.error());
  s.gate(row + ".converged", converged);
  s.gate(row + ".model_ok", model_ok);
  s.gate(row + ".sessions_ok", sessions_ok);
  return Json()
      .str("model", coherence::to_string(model))
      .set("stores", bed.stores().size())
      .set("clients", spec.clients)
      .set("ops", ops)
      .set("wall_s", seconds_since(start), 4)
      .set("crashes", fs.crashes)
      .set("recoveries", fs.recoveries)
      .set("partitions", fs.partitions)
      .set("heals", fs.heals)
      .set("joins", fs.joins)
      .set("evictions", member.evictions)
      .set("rejoins", member.rejoins)
      .set("view_changes", member.view_changes)
      .set("client_rebinds", rebinds)
      .set("snapshot_cutovers", m.snapshot_cutovers())
      .set("delta_snapshots", m.delta_snapshots())
      .set("full_snapshots", m.full_snapshots())
      .set("snapshot_pages_shipped", m.snapshot_pages_shipped())
      .set("snapshot_bytes_saved", m.snapshot_bytes_saved())
      .set("horizon_advances", m.horizon_advances())
      .set("events_retired", m.events_retired())
      .set("tombstones_collected", m.tombstones_collected())
      .set("events", bed.history().size())
      .set("converged", converged)
      .set("model_ok", model_ok)
      .set("sessions_ok", sessions_ok);
}

Section churn(bool smoke) {
  Section s;
  Json rows = Json::array();
  ChurnTotals totals;
  for (const ObjectModel model : kModels) {
    rows.push(churn_row(model, smoke, s, totals));
  }
  // The faults must bite: the partitions outlast the failure timeout, so
  // evictions and heartbeat re-admissions have to happen (the simulation
  // is deterministic).
  s.gate("churn: faults bite (evictions and rejoins, summed over rows, > 0)",
         totals.evictions > 0 && totals.rejoins > 0,
         fmt("evictions=%llu rejoins=%llu",
             static_cast<unsigned long long>(totals.evictions),
             static_cast<unsigned long long>(totals.rejoins)));
  s.record.set("rows", std::move(rows))
      .set("all_converged", totals.converged)
      .set("all_clean", totals.clean);
  return s;
}

/// One soak run: 10x the trajectory ops on a causal multi-master tree
/// under rolling cache churn, with the cluster stability horizon as the
/// ONLY write-log compactor. With `streaming`, a StreamingChecker rides
/// the recorder and the run fills `s`; without it the same run is the
/// unbounded record-only baseline. Returns wall seconds.
double soak_run(bool smoke, bool streaming, Section* s) {
  TestbedOptions opts = faulty_options(101, smoke);
  opts.log_compact_threshold = 0;
  Testbed bed(opts);
  constexpr ObjectModel kModel = ObjectModel::kCausal;
  coherence::StreamingChecker* sc = nullptr;
  if (streaming) {
    coherence::StreamingChecker::Options sc_opts;
    // Timeouts and retries complete client ops out of program order.
    sc_opts.buffer_clocks = true;
    sc = &bed.enable_streaming(kModel, sc_opts);
  }
  const auto start = Clock::now();
  TreeSpec spec;
  spec.policy = policy_for(kModel);
  spec.policy.object_outdate_reaction = core::OutdateReaction::kDemand;
  spec.pages.assign(24, "v0");
  spec.mirrors = 2;
  spec.caches = smoke ? 4 : 8;
  spec.clients = smoke ? 8 : 16;
  spec.session = kAllSessions;
  spec.settle_clients = true;
  const Tree tree = build_tree(bed, spec);
  // Rolling churn through the middle 60% of the run: caches crash, sit
  // out past the failure timeout (eviction + horizon exclusion), and
  // recover into a snapshot bootstrap against the compacted logs.
  const int ops = 10 * wide_ops(smoke);
  const std::int64_t total = ops * kThink.count_micros() / 1000;
  const FaultScript faults(bed,
                           "at " + at(0.20, total) + " churn period=" +
                               at(0.02, total) + " until=" + at(0.80, total) +
                               " down=" + at(0.03, total) + " fraction=0.05\n",
                           opts.seed);
  zipf_ops(bed, tree, ops, opts.seed * 31 + 7, /*deletes=*/true);
  bed.run_for(faults.engine().duration() + SimDuration::seconds(smoke ? 1 : 3));
  bed.settle();
  // Let the final applied clocks ride a few heartbeats so the horizon
  // catches up with the quiesced run before the plateau is measured.
  bed.run_for(SimDuration::millis(smoke ? 200 : 1000));
  const double wall = seconds_since(start);
  if (s == nullptr) return wall;

  std::uint64_t log_appended = 0;
  std::size_t log_records = 0, log_bytes = 0, tombstones_left = 0;
  for (const auto& st : bed.stores()) {
    const replication::WriteLog& log = st->write_log(kObj);
    log_appended += log.appended_total();
    log_records += log.size();
    log_bytes += log.retained_bytes();
    tombstones_left += st->document(kObj).tombstones().size();
  }
  const auto& m = bed.metrics();
  const std::size_t events = bed.history().size();
  const std::size_t hwm = sc->retained_high_watermark();
  const bool converged = bed.converged(kObj);
  // Verdicts must equal the post-hoc replay of the retained history down
  // to the violation strings (CheckResult operator==).
  const auto model_posthoc =
      coherence::check_object_model(bed.history(), kModel);
  const auto sessions_posthoc = coherence::check_sessions(
      bed.history(), specs_for(tree, spec.session));
  const bool verdicts_equal = sc->model_result() == model_posthoc &&
                              sc->session_results() == sessions_posthoc;
  bool clean = model_posthoc.ok;
  for (const auto& r : sessions_posthoc) clean = clean && r.ok;
  // Bounded memory: the checker's retained-event peak stayed under 25%
  // of the event total, and the horizon (the only compactor in this run)
  // kept the write logs and tombstones from growing with the run.
  const bool memory_bounded =
      sc->events_retired() > 0 && m.horizon_advances() > 0 &&
      m.tombstones_collected() > 0 && hwm * 4 < events &&
      log_records * 4 < static_cast<std::size_t>(log_appended);

  s->gate("soak fault script parses", faults.error().empty(), faults.error());
  s->gate("soak.verdicts_equal", verdicts_equal);
  s->gate("soak.memory_bounded", memory_bounded,
          fmt("retained %zu of %zu events, log %zu of %llu records", hwm,
              events, log_records,
              static_cast<unsigned long long>(log_appended)));
  s->gate("soak.clean", clean);
  s->gate("soak.converged", converged);
  s->record.str("model", coherence::to_string(kModel))
      .set("stores", bed.stores().size())
      .set("clients", spec.clients)
      .set("ops", ops)
      .set("wall_s", wall, 4)
      .set("ops_per_s", wall > 0 ? ops / wall : 0.0, 1)
      .set("events", events)
      .set("retained_high_watermark", hwm)
      .set("events_retired", sc->events_retired())
      .set("horizon_advances", m.horizon_advances())
      .set("tombstones_collected", m.tombstones_collected())
      .set("tombstones_left", tombstones_left)
      .set("log_compactions", m.log_compactions())
      .set("log_appended", log_appended)
      .set("log_retained_records", log_records)
      .set("log_retained_bytes", log_bytes)
      .set("crashes", faults.engine().stats().crashes)
      .set("recoveries", faults.engine().stats().recoveries)
      .set("verdicts_equal", verdicts_equal)
      // Informational: retries complete ops out of program order across
      // retirement boundaries, which the checker conservatively reports
      // as inexact even when every verdict matches (checked above).
      .set("exact", sc->exact())
      .set("memory_bounded", memory_bounded)
      .set("clean", clean)
      .set("converged", converged);
  return wall;
}

Section soak(bool smoke) {
  // Check-as-you-record overhead: the identical deterministic run with
  // and without the checker attached to the recorder. Best-of-N on both
  // sides keeps the smoke-sized comparison out of scheduler noise.
  const int reps = smoke ? 3 : 1;
  Section s;
  double with_check = soak_run(smoke, true, &s);
  for (int rep = 1; rep < reps; ++rep) {
    with_check = std::min(with_check, soak_run(smoke, true, nullptr));
  }
  double record_only = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    record_only = std::min(record_only, soak_run(smoke, false, nullptr));
  }
  const double pct =
      record_only > 0 ? (with_check / record_only - 1.0) * 100.0 : 0.0;
  s.gate("soak.check_overhead_pct <= 10", pct <= 10.0,
         fmt("%.2f%% (record %.4fs, check %.4fs)", pct, record_only,
             with_check));
  s.record.set("record_only_s", record_only, 4)
      .set("record_check_s", with_check, 4)
      .set("check_overhead_pct", pct, 2);
  return s;
}

/// Page-granular state transfer: the wide tree with a large document
/// suffers repeated rejoin storms around sparse updates.
Section snapshot_delta(bool smoke) {
  const int pages = smoke ? 32 : 160;
  const int page_bytes = smoke ? 512 : 3072;
  const int rounds = smoke ? 4 : 12;
  const int rejoins_per_round = smoke ? 2 : 5;
  TestbedOptions opts;
  opts.seed = 61;
  opts.record_history = false;
  opts.wan.base_latency = SimDuration::millis(1);
  Testbed bed(opts);
  TreeSpec spec;
  spec.policy = push_demand();
  spec.mirrors = smoke ? 2 : 4;
  spec.caches = smoke ? 6 : 120;
  StoreEngine& primary = *build_tree(bed, spec).primary;

  // The document grows to production size AFTER the topology exists, so
  // the bootstrap snapshots stay out of the measurement.
  const std::string payload(static_cast<std::size_t>(page_bytes), 'd');
  for (int p = 0; p < pages; ++p) {
    primary.seed("page" + std::to_string(p) + ".html",
                 payload + std::to_string(p));
    if (p % 16 == 0) bed.run_for(SimDuration::millis(2));
  }
  bed.settle();
  bed.metrics().reset();

  const auto start = Clock::now();
  util::Rng rng(opts.seed * 7 + 1);
  for (int r = 0; r < rounds; ++r) {
    // The caches go down, a couple of pages change while they are away,
    // and their recovery re-bootstraps through the state-transfer path:
    // a page delta against the whole (mostly unchanged) document.
    std::vector<std::size_t> down;
    for (int k = 0; k < rejoins_per_round; ++k) {
      down.push_back(1 + static_cast<std::size_t>(spec.mirrors) +
                     static_cast<std::size_t>((r * rejoins_per_round + k) %
                                              spec.caches));
      bed.crash_store(down.back());
    }
    bed.run_for(SimDuration::millis(2));
    for (int wv = 0; wv < 2; ++wv) {
      primary.seed("page" + std::to_string(rng.below(pages)) + ".html",
                   payload + "r" + std::to_string(r * 2 + wv));
    }
    bed.run_for(SimDuration::millis(5));
    for (const std::size_t idx : down) {
      bed.recover_store(idx);
      bed.run_for(SimDuration::millis(5));
    }
    bed.settle();
  }
  bed.settle();
  const double wall = seconds_since(start);

  const auto& m = bed.metrics();
  std::uint64_t state_bytes = 0;  // subscribe/snapshot/delta wire traffic
  for (const auto type :
       {msg::MsgType::kSubscribe, msg::MsgType::kSubscribeAck,
        msg::MsgType::kSnapshot, msg::MsgType::kSnapshotDeltaRequest,
        msg::MsgType::kSnapshotDeltaReply}) {
    auto it = m.traffic_by_type().find(static_cast<std::uint8_t>(type));
    if (it != m.traffic_by_type().end()) state_bytes += it->second.bytes;
  }
  // How much smaller the shipped state was than the whole documents it
  // replaced.
  const double reduction =
      state_bytes > 0
          ? static_cast<double>(state_bytes + m.snapshot_bytes_saved()) /
                static_cast<double>(state_bytes)
          : 0.0;
  const bool converged = bed.converged(kObj);
  Section s;
  s.gate("snapshot_delta.converged", converged);
  s.gate("snapshot_delta.delta_transfers > 0", m.delta_snapshots() > 0);
  s.gate("snapshot_delta.full_fallbacks == 0", m.full_snapshots() == 0,
         fmt("%llu", static_cast<unsigned long long>(m.full_snapshots())));
  s.gate("snapshot_delta.reduction >= 5", reduction >= 5.0,
         fmt("%.2f", reduction));
  s.record.set("stores", 1 + spec.mirrors + spec.caches)
      .set("pages", pages)
      .set("page_bytes", page_bytes)
      .set("rounds", rounds)
      .set("rejoins", rounds * rejoins_per_round)
      .set("delta_s", wall, 4)
      .set("delta_transfer_bytes", state_bytes)
      .set("reduction", reduction, 2)
      .set("delta_transfers", m.delta_snapshots())
      .set("full_fallbacks", m.full_snapshots())
      .set("pages_shipped", m.snapshot_pages_shipped())
      .set("bytes_saved", m.snapshot_bytes_saved())
      .set("converged", converged);
  return s;
}

// ---- Many-object sharding -------------------------------------------

/// `objects` placed over `shards` shards (a primary and a secondary
/// each), driven by 4 placed clients: Zipf objects, a write every 3rd op.
Json multi_object_row(int shards, int objects, int ops, Section& s) {
  constexpr std::uint64_t kSeed = 29;
  const auto start = Clock::now();
  TestbedOptions opts;
  opts.seed = kSeed;
  opts.shards = static_cast<std::uint32_t>(shards);
  opts.record_history = false;
  Testbed bed(opts);
  for (ShardId sh = 0; sh < static_cast<ShardId>(shards); ++sh) {
    bed.add_shard_store(sh, naming::StoreClass::kPermanent, push_demand(),
                        /*primary=*/true);
    bed.add_shard_store(sh, naming::StoreClass::kObjectInitiated,
                        push_demand());
  }
  std::vector<ObjectId> ids(static_cast<std::size_t>(objects));
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i + 1;
  bed.place_objects(ids);
  for (const ObjectId id : ids) {
    bed.primary(id).seed(id, "page.html", "base-" + std::to_string(id));
  }
  bed.settle();
  std::vector<ClientBinding*> clients;
  for (int c = 0; c < 4; ++c) {
    clients.push_back(&bed.add_placed_client(ClientModel::kReadYourWrites));
  }
  bed.metrics().reset();

  workload::ZipfGenerator zipf(ids.size(), 0.9);
  util::Rng rng(kSeed * 77 + static_cast<std::uint64_t>(shards));
  int failures = 0;
  for (int op = 0; op < ops; ++op) {
    const ObjectId id = ids[zipf.sample(rng)];
    ClientBinding& client = *clients[op % clients.size()];
    if (op % 3 == 0) {
      client.write(id, "page.html", "v" + std::to_string(op),
                   [&](replication::WriteResult r) { failures += !r.ok; });
    } else {
      client.read(id, "page.html",
                  [&](replication::ReadResult r) { failures += !r.ok; });
    }
    // Drain in small batches: sessions serialize per object, so an
    // unbounded backlog would only measure queue depth.
    if (op % 64 == 63) bed.settle();
  }
  bed.settle();
  const double wall = seconds_since(start);
  const std::uint64_t messages = bed.metrics().total_traffic().messages;
  const double msgs_per_op =
      ops > 0 ? static_cast<double>(messages) / ops : 0.0;
  const bool converged =
      failures == 0 && std::all_of(ids.begin(), ids.end(), [&](ObjectId id) {
        return bed.converged(id);
      });
  const std::string row = fmt("multi_object.scaling[%d shards]", shards);
  s.gate(row + ".converged", converged);
  // One clock beacon per subscriber peer per tick: background traffic
  // follows writes, not the hosted objects.
  s.gate(row + ".msgs_per_op < 12", msgs_per_op < 12.0,
         fmt("%.2f", msgs_per_op));
  return Json()
      .set("shards", shards)
      .set("objects", objects)
      .set("ops", ops)
      .set("wall_s", wall, 4)
      .set("messages", messages)
      .set("msgs_per_op", msgs_per_op, 2)
      .set("converged", converged);
}

/// The same single-object write stream through the single-object
/// testbed builders and through a one-shard placed deployment:
/// placement must not change what the stores end up holding.
bool placed_matches_plain(int writes) {
  const auto drive = [writes](Testbed& bed) {
    for (int i = 0; i < writes; ++i) {
      bed.primary(kObj).seed(kObj, "page.html", "w" + std::to_string(i));
      bed.run_for(SimDuration::millis(10));
    }
    bed.settle();
  };
  TestbedOptions opts;
  opts.seed = 37;
  opts.record_history = false;
  Testbed plain(opts);
  plain.add_primary(kObj, push_demand());
  plain.add_store(kObj, naming::StoreClass::kObjectInitiated, push_demand());
  drive(plain);
  opts.shards = 1;
  Testbed placed(opts);
  placed.add_shard_store(0, naming::StoreClass::kPermanent, push_demand(),
                         /*primary=*/true);
  placed.add_shard_store(0, naming::StoreClass::kObjectInitiated,
                         push_demand());
  placed.place_objects({kObj});
  drive(placed);
  // The placement node shifts event timing, so wall-clock stamps are
  // masked; everything else must match per store.
  for (std::size_t i = 0; i < plain.stores().size(); ++i) {
    if (!(replication::store_state_digest(*plain.stores()[i], kObj, true) ==
          replication::store_state_digest(*placed.stores()[i], kObj, true))) {
      return false;
    }
  }
  return true;
}

Section multi_object(bool smoke) {
  const int objects = smoke ? 200 : 10000;
  const int ops = smoke ? 120 : 4000;
  Section s;
  Json scaling = Json::array();
  for (const int shards : {1, 2, 4}) {
    scaling.push(multi_object_row(shards, objects, ops, s));
  }
  const bool baseline_identical = placed_matches_plain(smoke ? 20 : 200);
  s.gate("multi_object.baseline_identical", baseline_identical);
  s.record.set("scaling", std::move(scaling))
      .set("baseline_identical", baseline_identical);
  return s;
}

// ---- Observability: the write-lifecycle tracer's contracts ----------

// The production configuration under test: sampled tracing (1-in-N
// writes carry a context; unsampled traffic pays one branch per
// message). Full sampling is exercised by the tests; the overhead budget
// applies to the deployable config, like any sampling tracer.
constexpr std::uint64_t kSampleEvery = 16;

struct ObsRun {
  double wall_s = 0;
  std::uint64_t digest = 0;
  std::vector<coherence::WriteId> wids;
  // Traced runs only:
  std::vector<obs::Span> spans;
  std::vector<obs::GaugeSeries> gauges;
  std::uint64_t overflow = 0;
  obs::PropagationStats prop;
  metrics::Histogram first_us, last_us;
};

/// An immediate-propagation tree (primary, caches, clients) driving `ops`
/// full-page writes on an identical virtual-time schedule either way:
/// `traced` is the only degree of freedom the wire digest may see.
ObsRun obs_run(int caches, int clients, int ops, bool traced) {
  TestbedOptions opts;
  opts.seed = 41;
  opts.record_history = false;
  Testbed bed(opts);
  bed.net().enable_wire_digest(true);
  if (traced) {
    Testbed::ObservabilityOptions oo;
    oo.trace_capacity = 1 << 14;  // holds every sampled span of the run
    oo.sample_every = kSampleEvery;
    bed.enable_observability(oo);
  }
  TreeSpec spec;
  spec.pages = random_pages(8, 4096, opts.seed);
  spec.caches = caches;
  spec.clients = clients;
  spec.settle_mirrors = false;
  const Tree tree = build_tree(bed, spec);

  ObsRun out;
  // Time the steady-state workload only: deployment setup (including the
  // tracer's one-time ring allocation) is the same whether tracing is
  // ever enabled or not, and would drown the per-write cost budgeted.
  const auto start = Clock::now();
  for (int i = 0; i < ops; ++i) {
    // Full-page rewrites: every write ships the page to every cache, the
    // paper's workload shape (documents, not counters).
    const std::size_t page = static_cast<std::size_t>(i) % tree.pages.size();
    std::string body = spec.pages[page];
    body.replace(0, 12, "v" + std::to_string(100000 + i));
    tree.clients[static_cast<std::size_t>(i % clients)]->write(
        tree.pages[page], body, [&out](replication::WriteResult r) {
          if (r.ok) out.wids.push_back(r.wid);
        });
    bed.run_for(SimDuration::millis(5));
  }
  bed.settle();
  out.wall_s = seconds_since(start);  // before harvest/snapshot work
  out.digest = bed.net().wire_digest();
  if (traced) {
    // ~Testbed disables the process tracer: snapshot before it dies.
    out.spans = obs::Tracer::instance().snapshot();
    out.overflow = obs::Tracer::instance().overflow();
    if (bed.recorder() != nullptr) out.gauges = bed.recorder()->snapshot();
    out.prop = bed.harvest_propagation();
    out.first_us = bed.metrics().propagation_first_us();
    out.last_us = bed.metrics().propagation_last_us();
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

/// Tracing disabled leaves the simulated wire byte-identical run-to-run
/// (digest gate), and sampled tracing costs <= 2% wall clock on a full
/// deployment while yielding connected traces and propagation
/// histograms. The Chrome-trace JSON is left on disk for CI to upload.
Section observability(bool smoke, const std::string& artifact_dir) {
  const int caches = smoke ? 6 : 16;
  const int clients = smoke ? 12 : 32;
  const int ops = smoke ? 400 : 1500;
  const int reps = smoke ? 5 : 3;
  metrics::Histogram first_us, last_us;  // merged across traced reps
  obs::PropagationStats prop;
  double off_s = std::numeric_limits<double>::infinity();
  double on_s = off_s;
  std::uint64_t off_digest = 0, on_digest = 0;
  bool off_equal = true;
  ObsRun kept;  // the last traced run: spans and gauges for the artifact
  // Interleave off/on reps so drift hits both sides equally; wall
  // comparisons take the min (noise is one-sided).
  for (int r = 0; r < reps; ++r) {
    const ObsRun off = obs_run(caches, clients, ops, /*traced=*/false);
    if (r == 0) off_digest = off.digest;
    off_equal = off_equal && off.digest == off_digest;
    off_s = std::min(off_s, off.wall_s);
    ObsRun on = obs_run(caches, clients, ops, /*traced=*/true);
    on_s = std::min(on_s, on.wall_s);
    on_digest = on.digest;
    prop.writes_accepted += on.prop.writes_accepted;
    prop.writes_applied_remotely += on.prop.writes_applied_remotely;
    first_us.merge(on.first_us);
    last_us.merge(on.last_us);
    kept = std::move(on);
  }
  const double overhead =
      off_s > 0 ? std::max(0.0, (on_s - off_s) / off_s * 100.0) : 0.0;
  // Connectivity is checked on the newest *sampled* write: only 1-in-N
  // writes carry a context, so pick one whose trace actually exists.
  const auto sampled =
      std::find_if(kept.wids.rbegin(), kept.wids.rend(), [](const auto& w) {
        return obs::trace_of(w.client, w.seq) % kSampleEvery == 0;
      });
  const bool connected = sampled != kept.wids.rend() && kept.overflow == 0 &&
                         lifecycle_connected(kept.spans, *sampled);
  std::string trace_json = artifact_dir + "BENCH_observability_trace.json";
  std::ofstream trace_out(trace_json);
  if (trace_out.good()) {
    obs::write_chrome_trace(trace_out, kept.spans, kept.gauges);
  } else {
    trace_json.clear();
  }

  Section s;
  s.gate("observability.wire_identical_tracing_off", off_equal);
  s.gate("observability.overhead_pct <= 2", overhead <= 2.0,
         fmt("%.2f%% (off %.4fs, on %.4fs)", overhead, off_s, on_s));
  s.gate("observability.tracing_visible_on_wire", on_digest != off_digest);
  s.gate("observability.lifecycle_connected", connected,
         fmt("spans=%zu", kept.spans.size()));
  s.gate("observability.span_overflow == 0", kept.overflow == 0,
         fmt("%llu", static_cast<unsigned long long>(kept.overflow)));
  s.record.set("stores", 1 + caches)
      .set("clients", clients)
      .set("ops", ops)
      .set("reps", reps)
      .set("sample_every", kSampleEvery)
      .set("off_s", off_s, 4)
      .set("on_s", on_s, 4)
      .set("overhead_pct", overhead, 2)
      .set("wire_identical_tracing_off", off_equal)
      .set("tracing_visible_on_wire", on_digest != off_digest)
      .set("lifecycle_connected", connected)
      .set("spans", kept.spans.size())
      .set("span_overflow", kept.overflow)
      .set("writes_accepted", prop.writes_accepted)
      .set("writes_applied_remotely", prop.writes_applied_remotely)
      .set("prop_first_p50_us", first_us.p50(), 0)
      .set("prop_first_p99_us", first_us.p99(), 0)
      .set("prop_last_p99_us", last_us.p99(), 0)
      .str("trace_json", trace_json);
  return s;
}

// ---- Scale trajectory across coherence models -----------------------

Section scale_trajectory(bool smoke) {
  Section s{Json::array(), {}};
  for (const ObjectModel model : kModels) {
    const TreeSpec tree = wide_tree(smoke);
    ScenarioConfig cfg;
    cfg.policy = policy_for(model);
    cfg.mirrors = tree.mirrors;
    cfg.caches = tree.caches;
    cfg.clients = tree.clients;
    cfg.ops = wide_ops(smoke);
    cfg.pages = 24;
    cfg.think = kThink;
    cfg.seed = 17;
    const auto start = Clock::now();
    const ScenarioResult r = run_scenario(cfg);
    const std::string row =
        fmt("scale_trajectory[%s]", coherence::to_string(model));
    s.gate(row + ".converged", r.converged);
    s.gate(row + ".model_ok", r.model_ok);
    s.record.push(Json()
                      .str("model", coherence::to_string(model))
                      .set("stores", 1 + cfg.mirrors + cfg.caches)
                      .set("clients", cfg.clients)
                      .set("ops", cfg.ops)
                      .set("wall_s", seconds_since(start), 4)
                      .set("msgs_per_op", r.msgs_per_op, 2)
                      .set("kb_per_op", r.bytes_per_op / 1024.0, 2)
                      .set("stale_versions", r.stale_versions_mean, 3)
                      .set("converged", r.converged)
                      .set("model_ok", r.model_ok));
  }
  return s;
}

int run(bool smoke, const std::string& out_path) {
  const std::size_t slash = out_path.find_last_of('/');
  const std::string artifact_dir =
      slash == std::string::npos ? "" : out_path.substr(0, slash + 1);
  const std::pair<const char*, std::function<Section()>> sections[] = {
      {"micro_writelog", [&] { return micro_writelog(smoke); }},
      {"micro_snapshot", [&] { return micro_snapshot(smoke); }},
      {"e2e_pull_long_history",
       [&] {
         return long_history("e2e_pull_long_history", ObjectModel::kPram,
                             naming::StoreClass::kClientInitiated, 11, 3,
                             smoke);
       }},
      {"e2e_anti_entropy",
       [&] {
         return long_history("e2e_anti_entropy", ObjectModel::kEventual,
                             naming::StoreClass::kObjectInitiated, 13, 5,
                             smoke);
       }},
      {"fanout", [&] { return fanout(smoke); }},
      {"multicast_window", [&] { return multicast_window(smoke); }},
      {"history", [&] { return history(smoke); }},
      {"churn", [&] { return churn(smoke); }},
      {"soak", [&] { return soak(smoke); }},
      {"snapshot_delta", [&] { return snapshot_delta(smoke); }},
      {"multi_object", [&] { return multi_object(smoke); }},
      {"observability", [&] { return observability(smoke, artifact_dir); }},
      {"scale_trajectory", [&] { return scale_trajectory(smoke); }},
  };

  Json report;
  report.str("bench", "scale").set("smoke", smoke);
  std::vector<Gate> failed;
  for (const auto& [name, section] : sections) {
    std::printf("bench_scale%s: %s...\n", smoke ? " (smoke)" : "", name);
    std::fflush(stdout);
    Section s = section();
    std::printf("  %s\n", s.record.render(2).c_str());
    for (Gate& g : s.gates) {
      if (!g.ok) failed.push_back(std::move(g));
    }
    report.set(name, std::move(s.record));
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    failed.push_back({"write " + out_path, false, std::strerror(errno)});
  } else {
    std::fprintf(f, "%s\n", report.render().c_str());
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  }
  for (const Gate& g : failed) {
    std::fprintf(stderr, "FAIL: %s%s%s\n", g.name.c_str(),
                 g.detail.empty() ? "" : ": ", g.detail.c_str());
  }
  return failed.empty() ? 0 : 1;
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
