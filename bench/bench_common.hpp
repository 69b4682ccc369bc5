// Shared deployment builder and scenario runner for the benchmark
// harness.
//
// Every bench binary regenerates one table or figure of the paper by
// sweeping a parameter over this runner: a full deployment (primary,
// optional mirrors, caches, clients) executes a Zipf-distributed
// read/write workload on the simulated WAN, and the runner reports
// traffic, latency, and staleness — the quantities the paper's
// qualitative claims are about.
#pragma once

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "globe/coherence/checkers.hpp"
#include "globe/metrics/report.hpp"
#include "globe/replication/testbed.hpp"
#include "globe/workload/content.hpp"
#include "globe/workload/zipf.hpp"

namespace globe::bench {

using replication::CacheMode;
using replication::ClientBinding;
using replication::StoreEngine;
using replication::Testbed;
using replication::TestbedOptions;

/// The object a single-object deployment replicates.
inline constexpr ObjectId kObj = 1;

struct ScenarioConfig {
  core::ReplicationPolicy policy;
  CacheMode cache_mode = CacheMode::kGlobe;
  sim::SimDuration ttl = sim::SimDuration::seconds(60);

  int mirrors = 0;   // object-initiated stores under the primary
  int caches = 2;    // client-initiated stores (under mirrors if any)
  int clients = 8;   // workload clients, spread across the caches
  coherence::ClientModel session = coherence::ClientModel::kNone;

  int pages = 10;
  std::size_t page_bytes = 1024;
  int ops = 400;
  double write_fraction = 0.10;
  double zipf_s = 0.9;
  sim::SimDuration think = sim::SimDuration::millis(40);

  sim::LinkSpec wan;  // default: 20ms reliable
  std::uint64_t seed = 1;
};

struct ScenarioResult {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  double msgs_per_op = 0;
  double bytes_per_op = 0;
  double read_p50_ms = 0;
  double read_p95_ms = 0;
  double write_p50_ms = 0;
  double stale_versions_mean = 0;   // committed writes missing per read
  double stale_time_ms_mean = 0;    // age of newest missing write
  double stale_read_fraction = 0;   // reads that missed >= 1 write
  std::uint64_t demands = 0;
  std::uint64_t waits = 0;
  bool converged = false;
  bool model_ok = false;
  std::size_t reads_done = 0;
  std::size_t writes_done = 0;
};

/// The paper's layered deployment (Figure 2): a primary seeded with
/// `pages`, mirrors under it, caches spread round robin over the mirrors
/// (over the primary when there are none), and clients spread over the
/// nearest layer that exists. Benches differ only in these inputs.
struct TreeSpec {
  core::ReplicationPolicy policy;
  std::vector<std::string> pages;  // contents of page0.html, page1.html, ...
  int mirrors = 0;
  int caches = 0;
  int clients = 0;
  coherence::ClientModel session = coherence::ClientModel::kNone;
  CacheMode cache_mode = CacheMode::kGlobe;
  sim::SimDuration ttl = sim::SimDuration::seconds(60);
  /// Link from a client to its store when that store is not the primary
  /// (unset: the WAN).
  std::optional<sim::LinkSpec> client_link;
  // Settle points besides the one after the caches join.
  bool settle_mirrors = true;
  bool settle_clients = false;
};

struct Tree {
  StoreEngine* primary = nullptr;
  std::vector<std::string> pages;  // page names, in TreeSpec::pages order
  std::vector<ClientBinding*> clients;
};

inline Tree build_tree(Testbed& bed, const TreeSpec& spec) {
  Tree t;
  t.primary = &bed.add_primary(kObj, spec.policy);
  for (std::size_t i = 0; i < spec.pages.size(); ++i) {
    t.pages.push_back("page" + std::to_string(i) + ".html");
    t.primary->seed(t.pages.back(), spec.pages[i]);
  }
  std::vector<net::Address> mirrors, caches;
  for (int i = 0; i < spec.mirrors; ++i) {
    mirrors.push_back(bed.add_store(kObj, naming::StoreClass::kObjectInitiated,
                                    spec.policy)
                          .address());
  }
  if (spec.settle_mirrors) bed.settle();
  for (int i = 0; i < spec.caches; ++i) {
    const net::Address up = mirrors.empty() ? t.primary->address()
                                            : mirrors[i % mirrors.size()];
    caches.push_back(
        (spec.cache_mode == CacheMode::kGlobe
             ? bed.add_store(kObj, naming::StoreClass::kClientInitiated,
                             spec.policy, up)
             : bed.add_baseline_cache(kObj, spec.cache_mode, spec.ttl,
                                      spec.policy, up))
            .address());
  }
  bed.settle();
  for (int i = 0; i < spec.clients; ++i) {
    const net::Address store = !caches.empty()    ? caches[i % caches.size()]
                               : !mirrors.empty() ? mirrors[i % mirrors.size()]
                                                  : t.primary->address();
    ClientBinding& c = bed.add_client(kObj, spec.session, store);
    if (spec.client_link && store != t.primary->address()) {
      bed.net().set_link(c.address().node, store.node, *spec.client_link);
    }
    t.clients.push_back(&c);
  }
  if (spec.settle_clients) bed.settle();
  return t;
}

/// `n` pages of `bytes` random content, reproducible from `seed`.
inline std::vector<std::string> random_pages(int n, std::size_t bytes,
                                             std::uint64_t seed) {
  util::Rng rng(seed * 7919 + 13);
  std::vector<std::string> pages;
  for (int i = 0; i < n; ++i) {
    pages.push_back(workload::make_content(rng, bytes));
  }
  return pages;
}

inline ScenarioResult run_scenario(const ScenarioConfig& cfg) {
  TestbedOptions opts;
  opts.seed = cfg.seed;
  opts.wan = cfg.wan;
  Testbed bed(opts);

  TreeSpec spec;
  spec.policy = cfg.policy;
  spec.pages = random_pages(cfg.pages, cfg.page_bytes, cfg.seed);
  spec.mirrors = cfg.mirrors;
  spec.caches = cfg.caches;
  spec.clients = cfg.clients;
  spec.session = cfg.session;
  spec.cache_mode = cfg.cache_mode;
  spec.ttl = cfg.ttl;
  // A client is *near* its store (metro link); only the store hierarchy
  // crosses the WAN — that is the whole point of the layered model.
  spec.client_link = cfg.wan;
  spec.client_link->base_latency = sim::SimDuration::millis(
      std::max<std::int64_t>(1, cfg.wan.base_latency.count_micros() / 8000));
  const Tree tree = build_tree(bed, spec);
  const std::vector<std::string>& pages = tree.pages;
  const std::vector<ClientBinding*>& clients = tree.clients;

  // Workload loop with staleness scoring against the oracle.
  bed.metrics().reset();
  bed.net().reset_stats();
  util::Rng rng(cfg.seed);
  workload::ZipfGenerator zipf(pages.size(), cfg.zipf_s);
  auto& oracle = bed.oracle();
  auto& metrics = bed.metrics();
  std::size_t reads = 0, writes = 0, stale_reads = 0;
  int version = 0;

  for (int op = 0; op < cfg.ops; ++op) {
    ClientBinding& c = *clients[rng.below(clients.size())];
    const std::string& page = pages[zipf.sample(rng)];
    if (rng.chance(cfg.write_fraction)) {
      ++writes;
      std::string content =
          workload::make_content(rng, cfg.page_bytes) + "<!--" +
          std::to_string(++version) + "-->";
      c.write(page, content, [&oracle, &bed, page](
                                 replication::WriteResult r) {
        if (r.ok) oracle.committed(page, r.wid, bed.sim().now());
      });
    } else {
      ++reads;
      const util::SimTime issued = bed.sim().now();
      c.read(page, [&, page, issued](replication::ReadResult r) {
        if (!r.ok) return;
        const auto score =
            oracle.score(page, r.store_clock, issued, bed.sim().now());
        metrics.record_staleness(score.versions_behind, score.time_behind_us);
        if (score.versions_behind > 0) ++stale_reads;
      });
    }
    bed.run_for(cfg.think);
  }
  bed.settle();

  ScenarioResult res;
  res.messages = bed.metrics().total_traffic().messages;
  res.bytes = bed.metrics().total_traffic().bytes;
  // Invalidation with the wait reaction leaves caches cold on purpose
  // (data moves at the next read); warm every cache with one read per
  // page — after metrics are captured — so the convergence check below
  // compares post-demand state.
  if (cfg.policy.propagation == core::Propagation::kInvalidate) {
    for (ClientBinding* c : clients) {
      for (const auto& page : pages) {
        c->read(page, [](replication::ReadResult) {});
      }
    }
    bed.settle();
  }
  res.msgs_per_op = static_cast<double>(res.messages) / cfg.ops;
  res.bytes_per_op = static_cast<double>(res.bytes) / cfg.ops;
  res.read_p50_ms = bed.metrics().read_latency_us().p50() / 1000.0;
  res.read_p95_ms = bed.metrics().read_latency_us().p95() / 1000.0;
  res.write_p50_ms = bed.metrics().write_latency_us().p50() / 1000.0;
  res.stale_versions_mean = bed.metrics().staleness_versions().mean();
  res.stale_time_ms_mean = bed.metrics().staleness_time_us().mean() / 1000.0;
  res.stale_read_fraction =
      reads == 0 ? 0 : static_cast<double>(stale_reads) / reads;
  res.demands = bed.metrics().session_demands();
  res.waits = bed.metrics().session_waits();
  res.converged = bed.converged(kObj);
  res.model_ok = cfg.cache_mode == CacheMode::kGlobe
                     ? coherence::check_object_model(bed.history(),
                                                     cfg.policy.model)
                           .ok
                     : true;
  res.reads_done = reads;
  res.writes_done = writes;
  return res;
}

/// Standard row rendering used by most benches.
inline std::vector<std::string> result_row(const std::string& label,
                                           const ScenarioResult& r) {
  using metrics::TablePrinter;
  return {label,
          TablePrinter::num(r.msgs_per_op, 2),
          TablePrinter::num(r.bytes_per_op / 1024.0, 2),
          TablePrinter::num(r.read_p50_ms, 1),
          TablePrinter::num(r.stale_versions_mean, 3),
          TablePrinter::num(r.stale_time_ms_mean, 0),
          r.converged ? "yes" : "NO",
          r.model_ok ? "yes" : "NO"};
}

inline std::vector<std::string> result_header() {
  return {"configuration", "msgs/op",      "KB/op", "read p50 ms",
          "stale ver",     "stale age ms", "conv",  "model"};
}

}  // namespace globe::bench
