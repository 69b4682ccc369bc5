#include "workloads.hpp"

#include <ctime>

#include "globe/workload/content.hpp"
#include "globe/workload/zipf.hpp"

namespace globe::e2e {

using replication::Testbed;
using replication::TestbedOptions;

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::optional<Spec> spec_for(const std::string& name, bool smoke) {
  Spec s;
  s.name = name;
  // Web pages have few authors and many readers: in fanout and churn only
  // the first 24 of 240 clients write. It also bounds each causal write's
  // dependency clock, which every replica's log and history copy.
  if (name == "fanout") {
    s.stores_mirrors = smoke ? 2 : 4;
    s.stores_caches = smoke ? 12 : 120;
    s.clients = smoke ? 24 : 240;
    s.authors = 24;
    s.ops = 12000;  // >= 1000 writes at every size: p99 needs 10 beyond it
    s.interval = sim::SimDuration::millis(10);
    s.write_frac = 0.10;
  } else if (name == "churn") {
    // The fault script spans 36 s of simulated time. Reads are cheap and
    // carry the staleness signal, so the mix is read-heavy: ~1,400
    // writes, each fanned out to every store, and ~13,000 reads.
    s.stores_mirrors = smoke ? 2 : 4;
    s.stores_caches = smoke ? 12 : 120;
    s.clients = smoke ? 24 : 240;
    s.authors = 24;
    s.ops = 14400;
    s.interval = sim::SimDuration::micros(2500);
    s.write_frac = 0.10;
  } else if (name == "many_objects") {
    s.shards = 2;
    s.objects = smoke ? 500 : 10000;
    s.clients = 4;
    s.pages = 1;
    s.page_bytes = 128;
    s.ops = smoke ? 6000 : 20000;
    s.interval = sim::SimDuration::millis(2);
    s.write_frac = 1.0 / 3.0;
  } else if (name == "soak") {
    s.stores_mirrors = 2;
    s.stores_caches = 12;
    s.spare_caches = 4;
    s.clients = 16;
    s.page_bytes = 256;
    s.ops = smoke ? 6000 : 100000;
    s.interval = sim::SimDuration::millis(10);
    s.write_frac = 0.30;
    s.delete_every = 97;
  } else {
    return std::nullopt;
  }
  return s;
}

Workload make_workload(const Spec& spec, std::uint64_t seed) {
  Workload w;
  w.spec = spec;
  w.seed = seed;
  util::Rng rng(seed * 0x9E3779B97F4A7C15ull + 0x5EED);
  for (int i = 0; i < spec.pages; ++i) {
    w.pages.push_back("page" + std::to_string(i) + ".html");
  }
  for (int i = 0; i < 64; ++i) {
    w.contents.push_back(workload::make_content(rng, spec.page_bytes));
  }
  // Zipf(0.9) popularity over pages (single-object mixes) or objects.
  const bool by_object = spec.objects > 1;
  const workload::ZipfGenerator zipf(
      static_cast<std::size_t>(by_object ? spec.objects : spec.pages), 0.9);
  w.ops.reserve(static_cast<std::size_t>(spec.ops));
  for (int i = 0; i < spec.ops; ++i) {
    Op op;
    op.offset = spec.interval * (i + 1);
    op.client = static_cast<std::uint32_t>(rng.below(spec.clients));
    const auto pick = static_cast<std::uint32_t>(zipf.sample(rng));
    (by_object ? op.object : op.page) = pick;
    if (spec.delete_every > 0 && i % spec.delete_every == spec.delete_every / 2) {
      op.kind = OpKind::kDelete;
    } else if (rng.chance(spec.write_frac)) {
      op.kind = OpKind::kWrite;
      op.content = static_cast<std::uint32_t>(rng.below(w.contents.size()));
    }
    if (op.kind != OpKind::kRead && spec.authors > 0) {
      op.client = static_cast<std::uint32_t>(rng.below(spec.authors));
    }
    w.ops.push_back(op);
  }
  return w;
}

namespace {

constexpr ObjectId kObject = 1;

/// Accumulates CPU time into one SetupTimes field per call.
class SetupClock {
 public:
  explicit SetupClock(SetupTimes& t) : t_(t), last_(cpu_seconds()) {}
  void charge(double SetupTimes::*field) {
    const double now = cpu_seconds();
    t_.*field += now - last_;
    last_ = now;
  }

 private:
  SetupTimes& t_;
  double last_;
};

sim::LinkSpec link(int base_ms, int jitter_ms) {
  sim::LinkSpec l;
  l.base_latency = sim::SimDuration::millis(base_ms);
  l.jitter = sim::SimDuration::millis(jitter_ms);
  return l;
}

std::string at_fraction(const Spec& spec, double frac) {
  const double total_ms =
      static_cast<double>(spec.ops) * spec.interval.count_micros() / 1000.0;
  return std::to_string(static_cast<std::int64_t>(frac * total_ms)) + "ms";
}

/// bench_scale's churn script, except that each of the three
/// partition/heal cycles cuts off the last mirror alone (its caches
/// re-parent onto the other mirrors). Cutting off its caches too would
/// co-partition their clients, and how many clients are still bound
/// there in the later cycles depends on earlier rebinds: read staleness
/// then swings by 2x from seed to seed. Then a rolling-churn window and
/// a flash-crowd join near the end.
std::string churn_script(const Spec& spec) {
  const int m = spec.stores_mirrors;
  std::string a;
  for (int s = 0; s < 1 + m + spec.stores_caches; ++s) {
    if (s != m) a += (a.empty() ? "" : ",") + std::to_string(s);
  }
  std::string text;
  for (const double f : {0.10, 0.40, 0.70}) {
    text += "at " + at_fraction(spec, f) + " partition " + a + "|" +
            std::to_string(m) + "\n";
    text += "at " + at_fraction(spec, f + 0.10) + " heal\n";
  }
  text += "at " + at_fraction(spec, 0.52) + " churn period=" +
          at_fraction(spec, 0.02) + " until=" + at_fraction(spec, 0.64) +
          " down=" + at_fraction(spec, 0.03) + " fraction=0.016\n";
  text += "at " + at_fraction(spec, 0.85) + " join 8\n";
  return text;
}

/// Rolling crashes across the middle 60% of the run, over the spare
/// caches only: every 2 s the next spare goes down for 1 s, past the
/// failure timeout (eviction, exclusion from the stability horizon, then
/// a delta bootstrap against the compacted logs). Client failover is
/// churn's job; here a crashed client cache would park reads behind
/// later writes of the same session, which the streaming checker
/// misreports as read-your-writes violations.
std::string soak_script(const Spec& spec) {
  const std::int64_t total_ms = spec.ops * spec.interval.count_micros() / 1000;
  const int first_spare =
      1 + spec.stores_mirrors + spec.stores_caches - spec.spare_caches;
  std::string text;
  int k = 0;
  for (std::int64_t t = total_ms / 5; t < total_ms * 4 / 5; t += 2000, ++k) {
    const std::string victim = std::to_string(first_spare + k % spec.spare_caches);
    text += "at " + std::to_string(t) + "ms crash " + victim + "\n";
    text += "at " + std::to_string(t + 1000) + "ms recover " + victim + "\n";
  }
  return text;
}

/// One object on a primary -> mirrors -> caches tree, clients bound to
/// the non-spare caches round-robin. Clients and caches share a metro
/// region: every client reaches every cache over `client_link` (so a
/// client that rebinds stays near), and everything else crosses the WAN.
void deploy_tree(const Workload& w, const TestbedOptions& opts,
                 const core::ReplicationPolicy& policy,
                 const sim::LinkSpec& client_link, bool streaming,
                 Deployment& d) {
  const Spec& spec = w.spec;
  SetupClock clock(d.setup);
  d.bed = std::make_unique<Testbed>(opts);
  Testbed& bed = *d.bed;
  if (streaming) {
    coherence::StreamingChecker::Options so;
    // Retries can complete a session's ops out of program order; with
    // buffered read clocks the checker re-checks RYW/MR in program order.
    so.buffer_clocks = true;
    bed.enable_streaming(d.model, so);
    bed.history().set_retain_events(false);
  }
  auto& primary = bed.add_primary(kObject, policy);
  for (std::size_t i = 0; i < w.pages.size(); ++i) {
    primary.seed(w.pages[i], w.contents[i % w.contents.size()]);
  }
  clock.charge(&SetupTimes::stores_s);
  // The primary comes up before its mirrors. If their membership joins
  // race it over a jittered WAN, a mirror can adopt a view without the
  // primary, re-parent onto another mirror and leave the primary with no
  // upstream traffic: the run then never converges.
  bed.settle();
  clock.charge(&SetupTimes::settle_s);
  std::vector<net::Address> mirrors;
  for (int i = 0; i < spec.stores_mirrors; ++i) {
    mirrors.push_back(
        bed.add_store(kObject, naming::StoreClass::kObjectInitiated, policy)
            .address());
  }
  clock.charge(&SetupTimes::stores_s);
  bed.settle();
  clock.charge(&SetupTimes::settle_s);
  std::vector<net::Address> caches;
  for (int i = 0; i < spec.stores_caches; ++i) {
    caches.push_back(bed.add_store(kObject, naming::StoreClass::kClientInitiated,
                                   policy, mirrors[i % mirrors.size()])
                         .address());
  }
  clock.charge(&SetupTimes::stores_s);
  bed.settle();
  clock.charge(&SetupTimes::settle_s);
  const int serving = spec.stores_caches - spec.spare_caches;
  for (int i = 0; i < spec.clients; ++i) {
    const net::Address cache = caches[static_cast<std::size_t>(i % serving)];
    auto& c = bed.add_client(kObject, d.session, cache);
    for (const net::Address& near : caches) {
      bed.net().set_link(c.address().node, near.node, client_link);
    }
    d.clients.push_back(&c);
  }
  clock.charge(&SetupTimes::clients_s);
  bed.settle();
  clock.charge(&SetupTimes::settle_s);
  d.objects = {kObject};
}

void deploy_sharded(const Workload& w, const TestbedOptions& opts,
                    const core::ReplicationPolicy& policy, Deployment& d) {
  const Spec& spec = w.spec;
  SetupClock clock(d.setup);
  d.bed = std::make_unique<Testbed>(opts);
  Testbed& bed = *d.bed;
  for (ShardId s = 0; s < static_cast<ShardId>(spec.shards); ++s) {
    const auto& primary = bed.add_shard_store(
        s, naming::StoreClass::kPermanent, policy, /*primary=*/true);
    const auto& secondary =
        bed.add_shard_store(s, naming::StoreClass::kObjectInitiated, policy);
    // A remote mirror: updates reach it well after the writer's ack is
    // back, so reads served there can miss committed writes.
    bed.net().set_link(primary.address().node, secondary.address().node,
                       link(100, 10));
  }
  for (ObjectId id = 1; id <= static_cast<ObjectId>(spec.objects); ++id) {
    d.objects.push_back(id);
  }
  clock.charge(&SetupTimes::stores_s);
  bed.place_objects(d.objects);
  clock.charge(&SetupTimes::place_s);
  for (const ObjectId id : d.objects) {
    bed.primary(id).seed(id, w.pages[0], w.contents[id % w.contents.size()]);
  }
  clock.charge(&SetupTimes::stores_s);
  bed.settle();
  clock.charge(&SetupTimes::settle_s);
  for (int i = 0; i < spec.clients; ++i) {
    d.clients.push_back(&bed.add_placed_client(d.session, d.model));
  }
  clock.charge(&SetupTimes::clients_s);
  bed.settle();
  clock.charge(&SetupTimes::settle_s);
}

}  // namespace

Deployment deploy(const Workload& w) {
  using coherence::ClientModel;
  using coherence::ObjectModel;
  const Spec& spec = w.spec;
  Deployment d;
  TestbedOptions opts;
  opts.seed = w.seed;
  core::ReplicationPolicy policy;  // PRAM, push, immediate, partial
  const auto all_sessions =
      ClientModel::kMonotonicWrites | ClientModel::kReadYourWrites |
      ClientModel::kMonotonicReads | ClientModel::kWritesFollowReads;
  const sim::LinkSpec metro = link(2, 1);

  // churn and soak: causal multi-master with every session guarantee,
  // membership on.
  const auto membership_tree = [&] {
    opts.wan = link(5, 2);
    opts.enable_membership = true;
    opts.membership_heartbeat = sim::SimDuration::millis(100);
    opts.failure_timeout = sim::SimDuration::millis(400);
    d.model = ObjectModel::kCausal;
    d.session = all_sessions;
    policy.model = d.model;
    policy.write_set = core::WriteSet::kMultiple;
    policy.object_outdate_reaction = core::OutdateReaction::kDemand;
  };

  if (spec.name == "fanout") {
    opts.wan = link(20, 10);
    d.model = ObjectModel::kCausal;
    policy.model = d.model;
    policy.write_set = core::WriteSet::kMultiple;
    deploy_tree(w, opts, policy, metro, /*streaming=*/false, d);
  } else if (spec.name == "churn") {
    membership_tree();
    // Clients wait up to 8 s (4 attempts): some ops park for seconds
    // behind a cache that is rejoining. With bench_scale's 300 ms x 2
    // attempts, 0.2-0.4% of the ops time out.
    opts.client_timeout = sim::SimDuration::seconds(2);
    opts.client_retries = 3;
    deploy_tree(w, opts, policy, metro, /*streaming=*/false, d);
    d.fault_script = churn_script(spec);
  } else if (spec.name == "many_objects") {
    opts.wan = link(20, 10);
    opts.shards = static_cast<std::uint32_t>(spec.shards);
    // Placed clients keep per-object write sequences that repeat across
    // objects; a shared History would conflate them.
    opts.record_history = false;
    d.model = ObjectModel::kPram;
    d.session = ClientModel::kReadYourWrites;
    policy.object_outdate_reaction = core::OutdateReaction::kDemand;
    deploy_sharded(w, opts, policy, d);
  } else {  // soak
    membership_tree();
    opts.client_timeout = sim::SimDuration::millis(600);
    opts.client_retries = 2;
    // The stability horizon is the only compactor.
    opts.log_compact_threshold = 0;
    deploy_tree(w, opts, policy, metro, /*streaming=*/true, d);
    d.fault_script = soak_script(spec);
  }
  return d;
}

}  // namespace globe::e2e
