// bench_e2e: end-to-end benchmark of the replicated Web-object stack.
//
// Four traffic mixes (workloads.cpp) load different layers: `fanout`
// (engine fan-out, causal ordering), `churn` (membership, state
// transfer, rebinds), `many_objects` (placement, per-object state) and
// `soak` (streaming verification, horizon GC). Each invocation runs R
// reps, each on a fresh Testbed, and reports medians.
//
// Arrivals are open loop on the simulated clock: op i is issued by a
// callback scheduled with Simulator::schedule_at at its due time, and
// its latency runs from that due time, so the generator is never late.
// The measured phase is a Simulator::step() loop until the last op has
// been issued, then Testbed::settle(). Its cost is process CPU time: the
// simulator is single-threaded, so CPU time is the work done, and unlike
// wall time it leaves out time spent descheduled on a shared host.
// Latencies, traffic and
// staleness are simulated quantities and repeat exactly at a fixed seed;
// every rep must reproduce them (exit 2 names the metric that did not).
//
// Correctness gates (exit 1): every live store converged; the post-hoc
// object-model and session checkers (fanout, churn) or the streaming
// checker (soak) are clean; every reported percentile has at least ten
// samples beyond it; the traced pass dropped no span.
//
// --traced is a separate invocation: a plain rep, a rep with every write
// traced and each simulator step timed and classified (arrival /
// delivery / timer), and a second plain rep for the counters and the
// tracing overhead. It reports the per-layer metrics and is never used
// for end-to-end numbers.
//
// Usage: bench_e2e --workload <fanout|churn|many_objects|soak>
//          [--seed N] [--reps R] [--seconds S] [--traced] [--smoke]
//          [--out result.json]
// The last stdout line is one JSON object: correct, attempted, failed
// and the end-to-end (or, with --traced, per-layer) metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "globe/coherence/checkers.hpp"
#include "globe/fault/scenario.hpp"
#include "globe/metrics/histogram.hpp"
#include "globe/metrics/staleness.hpp"
#include "globe/msg/envelope.hpp"
#include "globe/obs/trace.hpp"
#include "alloc_count.hpp"
#include "workloads.hpp"

namespace globe::e2e {
namespace {

using Metrics = std::map<std::string, double>;
using replication::Testbed;

// Message types that stores and clients send on at least one workload;
// each gets a count and a size metric per op. The membership, placement
// and naming servers report no per-type traffic: their sends make up
// net.msgs.services_per_op.
constexpr msg::MsgType kWireMix[] = {
    msg::MsgType::kInvokeRequest,       msg::MsgType::kInvokeReply,
    msg::MsgType::kUpdate,              msg::MsgType::kNotify,
    msg::MsgType::kFetchRequest,        msg::MsgType::kFetchReply,
    msg::MsgType::kSubscribe,           msg::MsgType::kSubscribeAck,
    msg::MsgType::kAntiEntropyRequest,  msg::MsgType::kAntiEntropyReply,
    msg::MsgType::kMembershipJoin,      msg::MsgType::kMembershipHeartbeat,
    msg::MsgType::kSnapshotDeltaRequest, msg::MsgType::kSnapshotDeltaReply,
    msg::MsgType::kViewFetchRequest,
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Samples strictly above the nearest-rank percentile `p`.
std::size_t beyond(std::size_t n, double p) {
  return n - static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
}

// Step classes of the traced pass.
enum StepClass { kArrival = 0, kDelivery = 1, kTimer = 2 };

struct RepOutput {
  Metrics counted;  // deterministic at a fixed seed
  Metrics timed;    // CPU-time measurements
  double measured_cpu_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t read_samples = 0;
  std::size_t write_samples = 0;
  std::vector<std::string> violations;
};

/// Outcome of one op, filled by its completion callback.
struct Outcome {
  util::SimTime done_at;
  coherence::VectorClock store_clock;  // reads: the serving store's clock
  coherence::WriteId wid;              // writes
  bool done = false;
  bool ok = false;
};

/// One rep: a fresh deployment, the measured phase, then the checks.
class Rep {
 public:
  Rep(const Workload& w, bool traced) : w_(w), traced_(traced) {}

  RepOutput run() {
    d_ = deploy(w_);
    out_.timed["setup_s"] = d_.setup.total();
    out_.timed["setup.stores_s"] = d_.setup.stores_s;
    out_.timed["setup.place_s"] = d_.setup.place_s;
    out_.timed["setup.clients_s"] = d_.setup.clients_s;
    out_.timed["setup.settle_s"] = d_.setup.settle_s;
    out_.timed["placement.place_us_per_object"] =
        w_.spec.shards > 0 ? d_.setup.place_s * 1e6 / w_.spec.objects : 0.0;
    if (traced_) enable_tracing();
    measured_phase();
    collect_phase_counters();
    score_ops();
    drain_and_check();
    collect_end_state();
    if (traced_) collect_spans();
    return std::move(out_);
  }

 private:
  void enable_tracing() {
    Testbed::ObservabilityOptions o;
    o.sample_every = 1;
    std::size_t writes = 0;
    for (const Op& op : w_.ops) writes += op.kind != OpKind::kRead ? 1 : 0;
    // Every write leaves an accept/order span plus a send, a deliver and
    // an apply per replica; size the ring so that nothing is dropped.
    const std::size_t stores = d_.bed->stores().size() + 8;
    o.trace_capacity = writes * (3 * stores + 16) + (1 << 16);
    // No gauge sampling inside the run: its timer would add sim events
    // and the traced pass must reproduce the plain reps' event count.
    o.gauge_period = sim::SimDuration::seconds(1'000'000);
    d_.bed->enable_observability(o);
  }

  void arm(std::size_t i) {
    d_.bed->sim().schedule_at(start_ + w_.ops[i].offset, [this, i] {
      in_arrival_ = true;
      issue(i);
      ++issued_;
      if (i + 1 < w_.ops.size()) arm(i + 1);
    });
  }

  void issue(std::size_t i) {
    const Op& op = w_.ops[i];
    replication::ClientBinding& c = *d_.clients[op.client];
    const ObjectId object = d_.objects[op.object];
    const std::string& page = w_.pages[op.page];
    switch (op.kind) {
      case OpKind::kRead:
        c.read(object, page, [this, i](replication::ReadResult r) {
          Outcome& o = outcomes_[i];
          o.done = true;
          o.done_at = d_.bed->sim().now();
          // A read of a deleted page is a completed read.
          o.ok = r.ok || r.error.rfind("page not found", 0) == 0;
          o.store_clock = std::move(r.store_clock);
        });
        break;
      case OpKind::kWrite:
      case OpKind::kDelete: {
        auto done = [this, i](replication::WriteResult r) {
          Outcome& o = outcomes_[i];
          o.done = true;
          o.done_at = d_.bed->sim().now();
          o.ok = r.ok;
          o.wid = r.wid;
        };
        if (op.kind == OpKind::kWrite) {
          c.write(object, page, w_.contents[op.content], std::move(done));
        } else {
          c.remove(object, page, std::move(done));
        }
        break;
      }
    }
  }

  void measured_phase() {
    Testbed& bed = *d_.bed;
    sim::Simulator& sim = bed.sim();
    outcomes_.assign(w_.ops.size(), Outcome{});
    if (!d_.fault_script.empty()) {
      fault::ScenarioScript script;
      std::string error;
      if (!fault::ScenarioScript::parse(d_.fault_script, &script, &error)) {
        std::fprintf(stderr, "FATAL: fault script: %s\n%s", error.c_str(),
                     d_.fault_script.c_str());
        std::exit(1);
      }
      host_ = std::make_unique<replication::TestbedFaultHost>(bed);
      faults_ = std::make_unique<fault::ScenarioEngine>(std::move(script),
                                                        *host_, w_.seed);
    }
    bed.metrics().reset();
    bed.net().reset_stats();
    ms0_ = membership_stats();
    rebinds0_ = rebinds();
    const std::uint64_t events0 = sim.events_run();
    const std::uint64_t allocs0 = allocations();
    const std::uint64_t bytes0 = allocated_bytes();
    start_ = sim.now();

    const double cpu0 = cpu_seconds();
    if (faults_ != nullptr) faults_->arm(sim);
    arm(0);
    const std::size_t n = w_.ops.size();
    double settle_cpu = 0;
    if (!traced_) {
      while (issued_ < n && sim.step()) {
      }
      bed.settle();
    } else {
      // One clock read per step: each step is charged the CPU since the
      // previous read, so the loop and the reads themselves are counted.
      const sim::TrafficStats& net = bed.net().stats();
      double last = cpu_seconds();
      while (issued_ < n) {
        in_arrival_ = false;
        const std::uint64_t delivered = net.messages_delivered;
        if (!sim.step()) break;
        const double now = cpu_seconds();
        const StepClass cls = in_arrival_ ? kArrival
                              : net.messages_delivered != delivered ? kDelivery
                                                                    : kTimer;
        step_cpu_[cls] += now - last;
        ++step_count_[cls];
        last = now;
      }
      bed.settle();
      settle_cpu = cpu_seconds() - last;
    }
    const double cpu = cpu_seconds() - cpu0;

    const double ops = static_cast<double>(n);
    out_.measured_cpu_s = cpu;
    out_.timed["ops_per_cpu_s"] = ops / cpu;
    out_.counted["alloc.per_op"] =
        static_cast<double>(allocations() - allocs0) / ops;
    out_.counted["alloc.kb_per_op"] =
        static_cast<double>(allocated_bytes() - bytes0) / 1024.0 / ops;
    const sim::TrafficStats& net = bed.net().stats();
    const double events = static_cast<double>(sim.events_run() - events0);
    const double arrivals = ops;
    const double deliveries = static_cast<double>(net.messages_delivered);
    out_.counted["sim.events_per_op"] = events / ops;
    out_.counted["sim.delivery_events_per_op"] = deliveries / ops;
    out_.counted["sim.timer_events_per_op"] =
        (events - arrivals - deliveries) / ops;
    out_.counted["net.dropped_per_op"] =
        static_cast<double>(net.messages_dropped) / ops;
    out_.counted["msgs_per_op"] = static_cast<double>(net.messages_sent) / ops;
    out_.counted["kb_per_op"] =
        static_cast<double>(net.bytes_sent) / 1024.0 / ops;
    if (traced_) {
      const char* names[] = {"sim.arrival_us", "sim.delivery_us",
                             "sim.timer_us"};
      double stepped = 0;
      for (int c = 0; c < 3; ++c) {
        stepped += step_cpu_[c];
        out_.timed[names[c]] =
            step_count_[c] == 0
                ? 0.0
                : step_cpu_[c] * 1e6 / static_cast<double>(step_count_[c]);
      }
      out_.timed["sim.settle_s"] = settle_cpu;
      out_.timed["sim.accounted_pct"] = (stepped + settle_cpu) / cpu * 100.0;
    }
  }

  /// Latencies, failures and staleness, all from the simulated clock.
  /// Staleness is scored here, after the timed window.
  void score_ops() {
    metrics::Histogram reads, writes;
    metrics::StalenessOracle oracle;
    const bool many = d_.objects.size() > 1;
    const auto key = [&](const Op& op) {
      return many ? std::to_string(d_.objects[op.object]) + "/" + w_.pages[op.page]
                  : w_.pages[op.page];
    };
    for (std::size_t i = 0; i < w_.ops.size(); ++i) {
      const Op& op = w_.ops[i];
      const Outcome& o = outcomes_[i];
      ++out_.attempted;
      if (!o.done || !o.ok) {
        ++out_.failed;
        continue;
      }
      const double ms =
          static_cast<double>((o.done_at - (start_ + op.offset)).count_micros()) /
          1000.0;
      if (op.kind == OpKind::kRead) {
        reads.add(ms);
      } else {
        writes.add(ms);
        oracle.committed(key(op), o.wid, o.done_at);
      }
    }
    std::size_t scored = 0, stale = 0;
    double versions = 0;
    for (std::size_t i = 0; i < w_.ops.size(); ++i) {
      const Op& op = w_.ops[i];
      const Outcome& o = outcomes_[i];
      if (op.kind != OpKind::kRead || !o.done || !o.ok) continue;
      const auto s =
          oracle.score(key(op), o.store_clock, start_ + op.offset, o.done_at);
      ++scored;
      versions += s.versions_behind;
      if (s.versions_behind > 0) ++stale;
    }
    const double attempted = static_cast<double>(out_.attempted);
    out_.counted["completed_frac"] =
        static_cast<double>(out_.attempted - out_.failed) / attempted;
    out_.counted["client.fail_frac"] =
        static_cast<double>(out_.failed) / attempted;
    out_.counted["read_p50_ms"] = reads.p50();
    out_.counted["read_p99_ms"] = reads.p99();
    out_.counted["write_p50_ms"] = writes.p50();
    out_.counted["write_p99_ms"] = writes.p99();
    out_.counted["stale_read_frac"] =
        scored == 0 ? 0.0 : static_cast<double>(stale) / static_cast<double>(scored);
    out_.counted["stale_versions_mean"] =
        scored == 0 ? 0.0 : versions / static_cast<double>(scored);
    out_.read_samples = reads.count();
    out_.write_samples = writes.count();
    for (const auto& [what, n] :
         {std::pair{"read", reads.count()}, std::pair{"write", writes.count()}}) {
      if (beyond(n, 99) < 10) {
        out_.violations.push_back(std::string(what) + "_p99_ms has " +
                                  std::to_string(beyond(n, 99)) +
                                  " samples beyond it (< 10)");
      }
    }
  }

  /// Lets partitioned or evicted stores catch up, then gates convergence
  /// and the coherence verdicts. Outside the measured phase.
  void drain_and_check() {
    Testbed& bed = *d_.bed;
    bed.run_for(sim::SimDuration::seconds(3));
    bed.settle();
    for (const ObjectId id : d_.objects) {
      if (!bed.converged(id)) {
        out_.violations.push_back("object " + std::to_string(id) +
                                  " did not converge on every live store");
        break;
      }
    }
    std::vector<coherence::SessionSpec> specs;
    for (const auto* c : d_.clients) specs.push_back({c->id(), d_.session});
    const auto report = [&](const std::string& what,
                            const coherence::CheckResult& r) {
      if (!r.ok) out_.violations.push_back(what + ": " + r.summary(3));
    };
    if (coherence::StreamingChecker* sc = bed.streaming()) {
      report("streaming object model", sc->model_result());
      for (const auto& r : sc->session_results()) report("streaming session", r);
    } else if (bed.history().size() > 0) {
      report("object model", coherence::check_object_model(bed.history(), d_.model));
      for (const auto& r : coherence::check_sessions(bed.history(), specs)) {
        report("session", r);
      }
    }
  }

  /// Protocol counters over the measured phase (the sink and the
  /// network were reset at its start; membership and rebind counts are
  /// taken against their values then).
  void collect_phase_counters() {
    Testbed& bed = *d_.bed;
    const metrics::MetricsSink& m = bed.metrics();
    Metrics& c = out_.counted;
    const double ops = static_cast<double>(w_.ops.size());
    const auto per_op = [ops](std::uint64_t v) {
      return static_cast<double>(v) / ops;
    };
    for (const msg::MsgType t : kWireMix) {
      const std::string name = msg::to_string(t);
      const auto it = m.traffic_by_type().find(static_cast<std::uint8_t>(t));
      const metrics::TypeTraffic tt =
          it == m.traffic_by_type().end() ? metrics::TypeTraffic{} : it->second;
      c["net.msgs." + name + "_per_op"] = per_op(tt.messages);
      c["net.kb." + name + "_per_op"] = per_op(tt.bytes) / 1024.0;
    }
    // Sends the sink never saw: the naming, membership and placement
    // servers and the clients' placement caches.
    c["net.msgs.services_per_op"] =
        per_op(bed.net().stats().messages_sent - m.total_traffic().messages);

    c["client.rebinds_per_kop"] = per_op(rebinds() - rebinds0_) * 1000.0;
    c["client.session_demands_per_op"] = per_op(m.session_demands());
    c["client.session_waits_per_op"] = per_op(m.session_waits());
    c["client.stale_serves_per_op"] = per_op(m.stale_serves());

    const membership::MembershipStats ms = membership_stats();
    const auto delta = [&](std::uint64_t now, std::uint64_t then) {
      return static_cast<double>(now - then);
    };
    c["membership.view_changes"] = delta(ms.view_changes, ms0_.view_changes);
    c["membership.evictions"] = delta(ms.evictions, ms0_.evictions);
    c["membership.rejoins"] = delta(ms.rejoins, ms0_.rejoins);
    c["membership.delta_broadcasts"] =
        delta(ms.delta_broadcasts, ms0_.delta_broadcasts);
    c["membership.view_fetches"] = delta(ms.view_fetches, ms0_.view_fetches);
    c["membership.horizon_advances"] =
        delta(ms.horizon_advances, ms0_.horizon_advances);

    c["transfer.delta"] = static_cast<double>(m.delta_snapshots());
    c["transfer.full"] = static_cast<double>(m.full_snapshots());
    c["transfer.pages_shipped"] = static_cast<double>(m.snapshot_pages_shipped());
    c["transfer.kb_saved"] = static_cast<double>(m.snapshot_bytes_saved()) / 1024.0;
    c["transfer.cutovers"] = static_cast<double>(m.snapshot_cutovers());
    c["write_log.compactions_per_kop"] = per_op(m.log_compactions()) * 1000.0;
    c["horizon.tombstones_collected"] =
        static_cast<double>(m.tombstones_collected());
  }

  /// What the stores, the history and the streaming checker still hold
  /// once the drain has let the stability horizon catch up.
  void collect_end_state() {
    Testbed& bed = *d_.bed;
    Metrics& c = out_.counted;
    std::size_t records = 0, log_bytes = 0, tombstones = 0;
    for (const auto& s : bed.stores()) {
      if (!s->alive() || s->departed()) continue;
      for (const ObjectId id : s->object_ids()) {
        records += s->write_log(id).size();
        log_bytes += s->write_log(id).retained_bytes();
        tombstones += s->document(id).tombstones().size();
      }
    }
    c["write_log.retained_records"] = static_cast<double>(records);
    c["write_log.retained_kb"] = static_cast<double>(log_bytes) / 1024.0;
    c["document.tombstones_left"] = static_cast<double>(tombstones);
    c["history.events_per_op"] = static_cast<double>(bed.history().size()) /
                                 static_cast<double>(w_.ops.size());
    const coherence::StreamingChecker* sc = bed.streaming();
    c["streaming.retained_hwm"] =
        sc == nullptr ? 0.0 : static_cast<double>(sc->retained_high_watermark());
    c["streaming.events_retired"] =
        sc == nullptr ? 0.0 : static_cast<double>(sc->events_retired());
  }

  [[nodiscard]] std::uint64_t rebinds() const {
    std::uint64_t n = 0;
    for (const auto* c : d_.clients) n += c->rebinds();
    return n;
  }

  [[nodiscard]] membership::MembershipStats membership_stats() {
    return d_.bed->membership_enabled() ? d_.bed->membership().stats()
                                        : membership::MembershipStats{};
  }

  /// Span-derived hop latencies of the traced pass (simulated time).
  /// Trace ids hash (client, write seq), and placed clients number their
  /// writes per object, so spans are joined on (trace, object). That is
  /// also why propagation is derived here rather than taken from
  /// Testbed::harvest_propagation(), whose table is keyed by trace alone.
  void collect_spans() {
    Testbed& bed = *d_.bed;
    obs::Tracer& tracer = obs::Tracer::instance();
    Metrics& c = out_.counted;
    c["obs.span_overflow"] = static_cast<double>(tracer.overflow());

    using Key = std::pair<std::uint64_t, std::uint64_t>;  // (trace, object)
    struct Accept {
      std::int64_t ts = 0;
      std::uint32_t actor = 0;
    };
    std::unordered_map<StoreId, NodeId> node_of;
    for (const auto& s : bed.stores()) node_of[s->id()] = s->address().node;
    std::map<Key, Accept> accept;
    std::map<Key, std::int64_t> order;
    // Earliest wire.deliver of each write at each node.
    std::map<std::pair<Key, std::uint32_t>, std::int64_t> deliver;
    const std::vector<obs::Span> spans = tracer.snapshot();
    for (const obs::Span& s : spans) {
      const Key k{s.trace_id, s.object};
      switch (s.kind) {
        case obs::SpanKind::kStoreAccept: accept.try_emplace(k, Accept{s.ts_us, s.actor}); break;
        case obs::SpanKind::kOrder: order.try_emplace(k, s.ts_us); break;
        case obs::SpanKind::kWireDeliver: deliver.try_emplace({k, s.actor}, s.ts_us); break;
        default: break;
      }
    }
    // Accept -> first / last remote apply, per write.
    std::map<Key, std::pair<std::int64_t, std::int64_t>> remote;
    metrics::Histogram to_order, to_apply, first, last;
    for (const obs::Span& s : spans) {
      if (s.kind != obs::SpanKind::kApply) continue;
      const Key k{s.trace_id, s.object};
      const auto a = accept.find(k);
      if (a == accept.end() || s.actor == a->second.actor) continue;
      const auto [it, fresh] = remote.try_emplace(k, s.ts_us, s.ts_us);
      if (!fresh) it->second.second = s.ts_us;
      const auto n = node_of.find(s.actor);
      if (n == node_of.end()) continue;
      const auto dl = deliver.find({k, n->second});
      if (dl != deliver.end() && s.ts_us >= dl->second) {
        to_apply.add(static_cast<double>(s.ts_us - dl->second));
      }
    }
    for (const auto& [k, ts] : remote) {
      const std::int64_t at = accept.at(k).ts;
      first.add(static_cast<double>(ts.first - at));
      last.add(static_cast<double>(ts.second - at));
    }
    for (const auto& [k, ts] : order) {
      const auto a = accept.find(k);
      if (a != accept.end()) to_order.add(static_cast<double>(ts - a->second.ts));
    }
    c["obs.prop_first_p50_ms"] = first.p50() / 1000.0;
    c["obs.prop_last_p99_ms"] = last.p99() / 1000.0;
    c["obs.accept_to_order_p99_ms"] = to_order.p99() / 1000.0;
    c["obs.deliver_to_apply_p99_ms"] = to_apply.p99() / 1000.0;
    if (tracer.overflow() > 0) {
      out_.violations.push_back("traced pass dropped " +
                                std::to_string(tracer.overflow()) + " spans");
    }
  }

  const Workload& w_;
  const bool traced_;
  Deployment d_;
  std::unique_ptr<replication::TestbedFaultHost> host_;
  std::unique_ptr<fault::ScenarioEngine> faults_;
  std::vector<Outcome> outcomes_;
  membership::MembershipStats ms0_;  // at the start of the measured phase
  std::uint64_t rebinds0_ = 0;
  util::SimTime start_;
  std::size_t issued_ = 0;
  bool in_arrival_ = false;
  double step_cpu_[3] = {0, 0, 0};
  std::uint64_t step_count_[3] = {0, 0, 0};
  RepOutput out_;
};

// ---------------------------------------------------------------------
// Metric names, units and the result line
// ---------------------------------------------------------------------

constexpr const char* kEndToEnd[] = {
    "ops_per_cpu_s",  "setup_s",         "read_p50_ms",      "read_p99_ms",
    "write_p50_ms",   "write_p99_ms",    "completed_frac",   "msgs_per_op",
    "kb_per_op",      "stale_read_frac", "stale_versions_mean", "peak_rss_mb",
};

std::string unit_of(const std::string& name) {
  if (name == "ops_per_cpu_s") return "1/s";
  if (name == "peak_rss_mb") return "MB";
  if (name == "stale_versions_mean") return "versions";
  if (name.starts_with("alloc.")) {
    return name.ends_with("kb_per_op") ? "KB/op" : "alloc/op";
  }
  if (name.starts_with("net.kb.") || name == "kb_per_op") return "KB/op";
  if (name.starts_with("net.msgs.") || name == "msgs_per_op") return "msg/op";
  if (name.ends_with("_frac")) return "fraction";
  if (name.ends_with("_pct")) return "%";
  if (name.ends_with("_ms")) return "ms";
  if (name.ends_with("_us") || name.ends_with("_us_per_object")) return "us";
  if (name.ends_with("_s")) return "s";
  if (name.ends_with("_per_kop")) return "1/kop";
  if (name.ends_with("_per_op")) return "1/op";
  if (name.ends_with("_kb") || name.ends_with("kb_saved")) return "KB";
  return "count";
}

bool is_end_to_end(const std::string& name) {
  return std::find_if(std::begin(kEndToEnd), std::end(kEndToEnd),
                      [&](const char* n) { return name == n; }) !=
         std::end(kEndToEnd);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
      continue;
    }
    out += ch;
  }
  return out;
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const Metrics& m, bool end_to_end) {
  std::string out = "{";
  for (const auto& [name, value] : m) {
    if (is_end_to_end(name) != end_to_end) continue;
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + num(value) + ", \"unit\": \"" +
           unit_of(name) + "\"}";
  }
  return out + "}";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int reps = 3;
  double seconds = 0;
  bool traced = false;
  bool smoke = false;
  std::string out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --workload "
               "<fanout|churn|many_objects|soak> [--seed N] [--reps R] "
               "[--seconds S] [--traced] [--smoke] [--out result.json]\n",
               why);
  std::exit(64);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        a.workload = value();
      } else if (flag == "--seed") {
        a.seed = std::stoull(value());
      } else if (flag == "--reps") {
        a.reps = std::stoi(value());
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value());
      } else if (flag == "--traced") {
        a.traced = true;
      } else if (flag == "--smoke") {
        a.smoke = true;
      } else if (flag == "--out") {
        a.out = value();
      } else {
        usage(("unknown argument " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.reps < 1) usage("--reps must be at least 1");
  return a;
}

int run(const Args& args) {
  const std::optional<Spec> spec = spec_for(args.workload, args.smoke);
  if (!spec) usage(("unknown workload " + args.workload).c_str());
  const Workload w = make_workload(*spec, args.seed);
#ifdef GLOBE_CHECKED
  const bool checked = true;
#else
  const bool checked = false;
#endif

  std::vector<RepOutput> reps;
  if (args.traced) {
    // Plain, traced, plain: the first rep of a process runs cold, so the
    // tracing overhead is taken against the warm second plain rep.
    reps.push_back(Rep(w, false).run());
    reps.push_back(Rep(w, true).run());
    reps.push_back(Rep(w, false).run());
  } else {
    // At least --reps reps; more while the --seconds budget lasts.
    using Clock = std::chrono::steady_clock;
    const auto begin = Clock::now();
    constexpr int kMaxReps = 64;
    while (static_cast<int>(reps.size()) < args.reps ||
           (std::chrono::duration<double>(Clock::now() - begin).count() <
                args.seconds &&
            static_cast<int>(reps.size()) < kMaxReps)) {
      reps.push_back(Rep(w, false).run());
    }
  }

  // Determinism gate: every simulated or counted metric must repeat
  // exactly across the plain reps. A traced rep must reproduce the event
  // and message counts (its envelopes carry a trace context, so bytes
  // may differ).
  const RepOutput& first = reps.front();
  for (std::size_t i = 1; i < reps.size(); ++i) {
    const RepOutput& r = reps[i];
    const bool traced_rep = args.traced && i == 1;
    for (const auto& [name, value] : first.counted) {
      if (traced_rep && name != "sim.events_per_op" && name != "msgs_per_op") {
        continue;
      }
      const auto it = r.counted.find(name);
      if (it == r.counted.end() || it->second != value) {
        std::fprintf(stderr,
                     "NONDETERMINISTIC: workload=%s seed=%llu metric=%s "
                     "(%.17g vs %.17g)\n",
                     args.workload.c_str(),
                     static_cast<unsigned long long>(args.seed), name.c_str(),
                     value, it == r.counted.end() ? NAN : it->second);
        return 2;
      }
    }
  }

  Metrics metrics;
  std::map<std::string, std::vector<double>> per_rep;
  if (args.traced) {
    // Counters and set-up split from the warm plain rep; step timings
    // and spans from the traced one.
    const RepOutput& traced = reps[1];
    const RepOutput& plain = reps[2];
    metrics = plain.counted;
    metrics.insert(plain.timed.begin(), plain.timed.end());
    for (const auto& [name, value] : traced.timed) {
      if (name.starts_with("sim.")) metrics[name] = value;
    }
    for (const auto& [name, value] : traced.counted) {
      if (name.starts_with("obs.")) metrics[name] = value;
    }
    metrics["obs.trace_overhead_pct"] =
        (traced.measured_cpu_s / plain.measured_cpu_s - 1.0) * 100.0;
  } else {
    metrics = first.counted;
    for (const auto& [name, value] : first.timed) {
      std::vector<double> values;
      for (const RepOutput& r : reps) values.push_back(r.timed.at(name));
      metrics[name] = median(values);
      per_rep[name] = std::move(values);
    }
  }
  metrics["peak_rss_mb"] = peak_rss_mb();

  std::vector<std::string> violations;
  std::uint64_t attempted = 0, failed = 0;
  for (const RepOutput& r : reps) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& v : r.violations) {
      if (std::find(violations.begin(), violations.end(), v) == violations.end()) {
        violations.push_back(v);
      }
    }
  }
  if (args.traced && metrics.at("sim.accounted_pct") < 90.0) {
    violations.push_back("traced step classes account for only " +
                         num(metrics.at("sim.accounted_pct")) +
                         "% of measured CPU (< 90%)");
  }
  for (const std::string& v : violations) {
    std::fprintf(stderr, "GATE FAILED: workload=%s seed=%llu: %s\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), v.c_str());
  }
  const bool correct = violations.empty();

  std::fprintf(stderr,
               "bench_e2e: workload=%s seed=%llu reps=%zu checked=%d "
               "samples: read=%zu (%zu beyond p99) write=%zu (%zu beyond p99)\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               reps.size(), checked ? 1 : 0, first.read_samples,
               beyond(first.read_samples, 99), first.write_samples,
               beyond(first.write_samples, 99));

  if (!args.out.empty()) {
    std::ofstream f(args.out);
    f << "{\"workload\": \"" << args.workload << "\", \"seed\": " << args.seed
      << ", \"checked\": " << (checked ? "true" : "false")
      << ", \"smoke\": " << (args.smoke ? "true" : "false")
      << ", \"traced\": " << (args.traced ? "true" : "false")
      << ", \"reps\": " << reps.size() << ", \"correct\": "
      << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ",\n \"samples\": {\"read\": "
      << first.read_samples << ", \"read_beyond_p99\": "
      << beyond(first.read_samples, 99) << ", \"write\": " << first.write_samples
      << ", \"write_beyond_p99\": " << beyond(first.write_samples, 99)
      << "},\n \"violations\": [";
    for (std::size_t i = 0; i < violations.size(); ++i) {
      f << (i ? ", " : "") << "\"" << json_escape(violations[i]) << "\"";
    }
    f << "],\n \"deterministic\": [";
    bool comma = false;
    for (const auto& [name, value] : first.counted) {
      f << (comma ? ", " : "") << "\"" << name << "\"";
      comma = true;
    }
    f << "],\n \"end_to_end\": " << metrics_json(metrics, true)
      << ",\n \"per_layer\": " << metrics_json(metrics, false)
      << ",\n \"per_rep\": {";
    comma = false;
    for (const auto& [name, values] : per_rep) {
      f << (comma ? ", " : "") << "\"" << name << "\": [";
      for (std::size_t i = 0; i < values.size(); ++i) {
        f << (i ? ", " : "") << num(values[i]);
      }
      f << "]";
      comma = true;
    }
    f << "}}\n";
    if (!f) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", args.out.c_str());
      return 1;
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(metrics, !args.traced).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace globe::e2e

int main(int argc, char** argv) {
  return globe::e2e::run(globe::e2e::parse_args(argc, argv));
}
