// Testbed: assembles a complete deployment of one (or more) distributed
// Web objects on the simulated network.
//
// It owns the simulator, network, naming service, metrics, and history
// recorder, and provides builders matching the paper's layered store
// model (Figure 2): one permanent primary per object, optional extra
// permanent stores, object-initiated mirrors, client-initiated caches,
// and clients bound to any of them. Tests, benchmarks, and examples all
// deploy through this class.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "globe/coherence/history.hpp"
#include "globe/coherence/streaming.hpp"
#include "globe/fault/scenario.hpp"
#include "globe/membership/service.hpp"
#include "globe/metrics/staleness.hpp"
#include "globe/metrics/stats.hpp"
#include "globe/naming/service.hpp"
#include "globe/net/sim_transport.hpp"
#include "globe/net/windowed_multicast.hpp"
#include "globe/obs/flight_recorder.hpp"
#include "globe/obs/trace.hpp"
#include "globe/placement/service.hpp"
#include "globe/replication/client_binding.hpp"
#include "globe/replication/store_engine.hpp"
#include "globe/sim/network.hpp"
#include "globe/sim/simulator.hpp"

namespace globe::replication {

struct TestbedOptions {
  std::uint64_t seed = 1;
  sim::LinkSpec wan;  // default link between nodes
  bool record_history = true;
  /// Per-store write-log compaction threshold (0 = disabled).
  std::size_t log_compact_threshold = 4096;
  /// Dynamic replica membership: stores join an epoch-numbered
  /// per-object view, heartbeat, and react to view changes; clients
  /// watch the view and re-bind when their store leaves it.
  bool enable_membership = false;
  sim::SimDuration membership_heartbeat = sim::SimDuration::millis(100);
  sim::SimDuration failure_timeout = sim::SimDuration::millis(350);
  /// Request timeout/retries for client operations (0 = untimed). Fault
  /// scenarios need these: an operation sent into a partition must fail
  /// instead of pending forever.
  sim::SimDuration client_timeout{};
  int client_retries = 0;
  /// Windowed credit-based multicast on the fan-out lane: every endpoint
  /// runs through one shared net::WindowedMulticast and stores receive
  /// its backpressure events. False (the seed behaviour): datagrams hit
  /// the transport directly. Delivered state is byte-identical.
  bool windowed_multicast = false;
  net::WindowOptions window;
  /// Sharded deployment: > 0 stands up a placement server with an
  /// epoch-1 layout of this many shards. Stores are then added with
  /// add_shard_store(), objects distributed with place_objects(), and
  /// clients bound with add_placed_client() (they resolve stores through
  /// the cached layout instead of static addresses).
  std::uint32_t shards = 0;
};

/// Membership scope shared by every sharded store: one cluster-wide
/// member list the membership service projects into per-shard subgroup
/// views (StoreConfig::membership_scope).
inline constexpr std::uint64_t kShardMembershipScope = 0xC1A5'7E21ull;

class Testbed {
 public:
  explicit Testbed(TestbedOptions options = {});
  ~Testbed();

  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] sim::Network& net() { return net_; }
  [[nodiscard]] coherence::History& history() { return history_; }
  [[nodiscard]] metrics::MetricsSink& metrics() { return metrics_; }
  [[nodiscard]] metrics::StalenessOracle& oracle() { return oracle_; }
  [[nodiscard]] naming::NamingServer& naming() { return *naming_; }
  /// Valid only with TestbedOptions::enable_membership.
  [[nodiscard]] membership::MembershipService& membership() {
    return *membership_;
  }
  [[nodiscard]] bool membership_enabled() const {
    return membership_ != nullptr;
  }
  /// Non-null with TestbedOptions::windowed_multicast (window stats and
  /// queue-depth probes for tests/benchmarks).
  [[nodiscard]] net::WindowedMulticast* window() { return window_.get(); }

  /// Attaches an incremental StreamingChecker to the history recorder:
  /// events are verified as they are recorded and retired once the
  /// cluster's stability horizon passes them (bounded retained-event
  /// memory). Sessions of already-bound clients are registered, and
  /// clients added afterwards register automatically. Call before any
  /// client issues operations.
  coherence::StreamingChecker& enable_streaming(
      coherence::ObjectModel model,
      coherence::StreamingChecker::Options opts);
  coherence::StreamingChecker& enable_streaming(coherence::ObjectModel model) {
    return enable_streaming(model, coherence::StreamingChecker::Options{});
  }
  /// Non-null after enable_streaming().
  [[nodiscard]] coherence::StreamingChecker* streaming() {
    return streaming_.get();
  }

  /// Creates a node (an address space) and returns its id.
  NodeId add_node(std::string name = {});

  /// Transport factory binding endpoints on `node`.
  [[nodiscard]] core::TransportFactory factory(NodeId node);

  /// Creates the permanent primary store of `object` on a fresh node.
  StoreEngine& add_primary(ObjectId object, const core::ReplicationPolicy& policy,
                           std::string node_name = "server");

  /// Adds a non-primary store on a fresh node, subscribed to `upstream`
  /// (defaults to the object's primary).
  StoreEngine& add_store(ObjectId object, naming::StoreClass store_class,
                         const core::ReplicationPolicy& policy,
                         net::Address upstream = {},
                         std::string node_name = {});

  /// Adds a baseline (check-on-read or TTL) client-initiated cache.
  StoreEngine& add_baseline_cache(ObjectId object, CacheMode mode,
                                  sim::SimDuration ttl,
                                  const core::ReplicationPolicy& policy,
                                  net::Address upstream = {},
                                  std::string node_name = {});

  /// Binds a new client on a fresh node. `read_store` defaults to the
  /// object's primary; `write_store` defaults to the primary for
  /// single-master models and to `read_store` otherwise.
  ClientBinding& add_client(ObjectId object, coherence::ClientModel session,
                            net::Address read_store = {},
                            net::Address write_store = {},
                            std::string node_name = {});

  /// Co-locates a client on an existing node (e.g. next to its cache).
  ClientBinding& add_client_at(NodeId node, ObjectId object,
                               coherence::ClientModel session,
                               net::Address read_store,
                               net::Address write_store = {});

  // ---- sharded deployments (TestbedOptions::shards > 0) --------------

  /// Valid only when sharded.
  [[nodiscard]] placement::PlacementServer& placement() {
    return *placement_;
  }
  [[nodiscard]] bool sharded() const { return placement_ != nullptr; }

  /// Adds a store serving `shard` on a fresh node, registered as a
  /// placement contact. The store starts empty: place_objects() gives it
  /// its objects, under `policy`. The first store of each shard must be
  /// its primary (`primary = true`, permanent class); later stores host
  /// replicas subscribed to it. Sharded stores join the cluster
  /// membership scope tagged with their shard.
  StoreEngine& add_shard_store(ShardId shard,
                               naming::StoreClass store_class,
                               const core::ReplicationPolicy& policy,
                               bool primary = false,
                               std::string node_name = {});

  /// Places every object on its layout shard: a primary replica on the
  /// shard's primary store, secondary replicas on the shard's other
  /// stores (subscribed to the primary). Each replica gets the policy its
  /// store was added with; shard stores are Globe stores (no baseline
  /// cache modes).
  void place_objects(const std::vector<ObjectId>& objects);

  /// Binds a client that resolves every object's stores through the
  /// placement server (no static store addresses).
  ClientBinding& add_placed_client(
      coherence::ClientModel session,
      coherence::ObjectModel object_model = coherence::ObjectModel::kPram,
      std::string node_name = {});

  [[nodiscard]] StoreEngine& shard_primary(ShardId shard) {
    return *shard_primaries_.at(shard);
  }

  [[nodiscard]] StoreEngine& primary(ObjectId object) {
    return *primaries_.at(object);
  }
  [[nodiscard]] const std::vector<std::unique_ptr<StoreEngine>>& stores()
      const {
    return stores_;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<ClientBinding>>& clients()
      const {
    return clients_;
  }

  /// Runs the simulator to quiescence: all in-flight protocol work is
  /// drained, including repeated lazy-flush / pull rounds, so that even
  /// lazy and pull configurations converge. Periodic timers keep
  /// running afterwards (they are background events).
  void settle();

  /// Runs the simulator for a fixed span of virtual time (periodic
  /// timers fire normally).
  void run_for(sim::SimDuration d) { sim_.run_until(sim_.now() + d); }

  /// One synchronous lazy-flush / pull round on every store.
  void flush_propagation();

  /// True when every Globe-mode store of `object` holds a document equal
  /// to the primary's (convergence check).
  [[nodiscard]] bool converged(ObjectId object) const;

  /// Registers store contacts with the naming service under `name`.
  void publish(ObjectId object, const std::string& name);

  // ---- fault injection (driven by fault::ScenarioEngine) -------------

  /// Crash-stops store `index` (construction order) and cuts its node
  /// off the network: in-flight traffic to and from it is lost.
  void crash_store(std::size_t index);

  /// Reconnects the node and restarts the store; it rejoins the view
  /// and re-bootstraps via the snapshot + resync path.
  void recover_store(std::size_t index);

  /// Graceful departure of store `index`.
  void leave_store(std::size_t index);

  /// Cuts the network between the two groups of stores. Each store's
  /// currently-bound clients are co-partitioned with it; the well-known
  /// services (naming, membership) stay on the primary's side, so the
  /// minority side gets evicted from the view until the heal.
  void partition_stores(const std::vector<std::size_t>& side_a,
                        const std::vector<std::size_t>& side_b);

  /// Heals every scripted partition (crashed nodes stay down).
  void heal_partitions() { net_.heal_all(); }

  /// Flash-crowd join: `count` Globe caches under the first object's
  /// primary, with its policy.
  void join_stores(std::size_t count);

  // ---- observability (obs::Tracer + flight recorder) -----------------

  struct ObservabilityOptions {
    std::size_t trace_capacity = 1 << 16;
    std::uint64_t sample_every = 1;  // trace 1-in-N writes
    sim::SimDuration gauge_period = sim::SimDuration::millis(50);
    /// On a monitor trip, write an .obstrace dump (the spans and gauge
    /// rings from the preceding kTripDumpWindow) to this path. Empty = no
    /// file.
    std::string trip_dump_path;
  };
  /// Points retained per flight-recorder gauge.
  static constexpr std::size_t kGaugeRing = 512;
  /// Span of simulated time a monitor-trip dump covers.
  static constexpr sim::SimDuration kTripDumpWindow =
      sim::SimDuration::seconds(5);

  /// Puts the process tracer on the simulated clock, registers gauges
  /// over this testbed's components (lazy-park depths, write-log bytes,
  /// window pressure, view epochs, placement version, staleness) into a
  /// flight recorder sampled every gauge_period, and hooks monitor trips
  /// into the trace (annotation + optional window dump). The hooks are
  /// process-global and uninstalled by the destructor — one observed
  /// testbed at a time. Gauges aggregate over stores added later, too.
  void enable_observability(ObservabilityOptions opts);
  void enable_observability() { enable_observability(ObservabilityOptions{}); }

  /// Non-null after enable_observability().
  [[nodiscard]] obs::FlightRecorder* recorder() { return recorder_.get(); }

  /// Drains the tracer's derived accept -> k-th-subscriber propagation
  /// latencies into metrics() (propagation_first_us / propagation_last_us).
  obs::PropagationStats harvest_propagation();

 private:
  void register_observability_gauges();
  void on_monitor_trip(const std::string& monitor);
  StoreEngine& add_store_impl(StoreConfig cfg,
                              const std::vector<ObjectConfig>& objects,
                              std::string node_name);
  [[nodiscard]] std::vector<NodeId> side_nodes(
      const std::vector<std::size_t>& side) const;

  TestbedOptions options_;
  sim::Simulator sim_;
  sim::Network net_;
  std::unique_ptr<net::WindowedMulticast> window_;  // shared by all endpoints
  coherence::History history_;
  std::unique_ptr<coherence::StreamingChecker> streaming_;
  metrics::MetricsSink metrics_;
  metrics::StalenessOracle oracle_;
  std::map<NodeId, PortId> next_port_;
  std::unique_ptr<naming::NamingServer> naming_;
  std::unique_ptr<membership::MembershipService> membership_;
  std::unique_ptr<placement::PlacementServer> placement_;
  std::vector<NodeId> service_nodes_;  // naming + membership + placement
  std::map<ObjectId, StoreEngine*> primaries_;
  std::map<ShardId, StoreEngine*> shard_primaries_;
  /// A shard's stores in the order they were added (its primary first),
  /// each with the policy place_objects() gives its replicas.
  struct ShardStore {
    StoreEngine* store = nullptr;
    core::ReplicationPolicy policy;
  };
  std::map<ShardId, std::vector<ShardStore>> shard_stores_;
  std::vector<std::unique_ptr<StoreEngine>> stores_;
  std::vector<std::unique_ptr<ClientBinding>> clients_;
  StoreId next_store_id_ = 1;
  ClientId next_client_id_ = 1;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  std::unique_ptr<sim::PeriodicTimer> gauge_timer_;
  ObservabilityOptions obs_opts_;
  bool obs_enabled_ = false;
};

/// Adapter presenting a Testbed to the fault scenario engine.
class TestbedFaultHost final : public fault::FaultHost {
 public:
  explicit TestbedFaultHost(Testbed& bed) : bed_(bed) {}

  [[nodiscard]] std::size_t store_count() const override {
    return bed_.stores().size();
  }
  [[nodiscard]] bool store_alive(std::size_t index) const override {
    const auto& s = *bed_.stores().at(index);
    return s.alive() && !s.departed();
  }
  [[nodiscard]] bool store_is_primary(std::size_t index) const override {
    return bed_.stores().at(index)->config().is_primary;
  }
  [[nodiscard]] ShardId store_shard(std::size_t index) const override {
    return bed_.stores().at(index)->shard();
  }
  [[nodiscard]] bool store_hosts_object(std::size_t index,
                                        ObjectId object) const override {
    return bed_.stores().at(index)->has_object(object);
  }
  void crash_store(std::size_t index) override { bed_.crash_store(index); }
  void recover_store(std::size_t index) override {
    bed_.recover_store(index);
  }
  void leave_store(std::size_t index) override { bed_.leave_store(index); }
  void join_stores(std::size_t count) override { bed_.join_stores(count); }
  void partition(const std::vector<std::size_t>& side_a,
                 const std::vector<std::size_t>& side_b) override {
    bed_.partition_stores(side_a, side_b);
  }
  void heal() override { bed_.heal_partitions(); }

 private:
  Testbed& bed_;
};

}  // namespace globe::replication
