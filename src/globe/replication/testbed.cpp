#include "globe/replication/testbed.hpp"

#include <algorithm>
#include <fstream>

#include "globe/check/monitor.hpp"
#include "globe/obs/export.hpp"
#include "globe/util/assert.hpp"

namespace globe::replication {

Testbed::Testbed(TestbedOptions options)
    : options_(options), sim_(), net_(sim_, options.seed) {
  net_.set_default_link(options_.wan);
  if (options_.windowed_multicast) {
    window_ = std::make_unique<net::WindowedMulticast>(options_.window);
  }
  const NodeId naming_node = add_node("naming");
  naming_ = std::make_unique<naming::NamingServer>(factory(naming_node), &sim_);
  service_nodes_.push_back(naming_node);
  if (options_.enable_membership) {
    const NodeId membership_node = add_node("membership");
    membership::MembershipOptions mo;
    mo.heartbeat_period = options_.membership_heartbeat;
    mo.failure_timeout = options_.failure_timeout;
    mo.naming = naming_.get();
    mo.metrics = &metrics_;
    membership_ = std::make_unique<membership::MembershipService>(
        factory(membership_node), sim_, mo);
    service_nodes_.push_back(membership_node);
  }
  if (options_.shards > 0) {
    const NodeId placement_node = add_node("placement");
    placement_ = std::make_unique<placement::PlacementServer>(
        factory(placement_node), &sim_);
    placement::Layout layout;
    layout.epoch = 1;
    layout.shard_count = options_.shards;
    placement_->set_layout(layout);
    service_nodes_.push_back(placement_node);
  }
}

Testbed::~Testbed() {
  if (!obs_enabled_) return;
  // The tracer clock and trip observer are process-global and capture
  // this testbed; detach them before the members they reference die.
  gauge_timer_.reset();
  check::set_trip_observer(nullptr);
  obs::Tracer::instance().set_clock(nullptr);
  obs::Tracer::instance().disable();
}

void Testbed::enable_observability(ObservabilityOptions opts) {
  obs_opts_ = std::move(opts);
  obs_enabled_ = true;
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_clock([this] { return sim_.now().count_micros(); });
  obs::TracerOptions to;
  to.capacity = obs_opts_.trace_capacity;
  to.sample_every = obs_opts_.sample_every;
  tracer.enable(to);

  recorder_ = std::make_unique<obs::FlightRecorder>(kGaugeRing);
  register_observability_gauges();
  gauge_timer_ = std::make_unique<sim::PeriodicTimer>(
      sim_, obs_opts_.gauge_period,
      [this] { recorder_->sample(sim_.now().count_micros()); });
  gauge_timer_->start();

  check::set_trip_observer(
      [this](const check::TripReport& r) { on_monitor_trip(r.monitor); });
}

void Testbed::register_observability_gauges() {
  // Aggregates stay valid as stores join later (crashed stores keep
  // their engine object, so iterating stores_ is always safe).
  recorder_->register_gauge("stores.parked_total", [this] {
    double total = 0;
    for (const auto& s : stores_) total += s->parked_requests();
    return total;
  });
  recorder_->register_gauge("stores.log_bytes_total", [this] {
    double total = 0;
    for (const auto& s : stores_) {
      for (const ObjectId id : s->object_ids()) {
        total += static_cast<double>(s->write_log(id).retained_bytes());
      }
    }
    return total;
  });
  recorder_->register_gauge("checker.retained_events", [this] {
    return streaming_ != nullptr
               ? static_cast<double>(streaming_->retained_events())
               : 0.0;
  });
  recorder_->register_gauge("stores.view_epoch_max", [this] {
    double epoch = 0;
    for (const auto& s : stores_) {
      epoch = std::max(epoch, static_cast<double>(s->view_epoch()));
    }
    return epoch;
  });
  recorder_->register_gauge("stores.count", [this] {
    return static_cast<double>(stores_.size());
  });
  if (window_ != nullptr) {
    recorder_->register_gauge("window.credit_stalls", [this] {
      return static_cast<double>(window_->stats().credit_stalls);
    });
    recorder_->register_gauge("window.retransmits", [this] {
      return static_cast<double>(window_->stats().retransmits);
    });
    recorder_->register_gauge("window.dropped_payloads", [this] {
      return static_cast<double>(window_->stats().dropped_payloads);
    });
  }
  if (placement_ != nullptr) {
    recorder_->register_gauge("placement.version", [this] {
      return static_cast<double>(placement_->version());
    });
  }
  recorder_->register_gauge("metrics.stale_serves", [this] {
    return static_cast<double>(metrics_.stale_serves());
  });
  recorder_->register_gauge("metrics.staleness_seen", [this] {
    return static_cast<double>(metrics_.staleness_versions().count());
  });
  recorder_->register_gauge("metrics.flow_pauses", [this] {
    return static_cast<double>(metrics_.flow_pauses());
  });
}

void Testbed::on_monitor_trip(const std::string& monitor) {
  obs::annotate("trip:" + monitor);
  if (obs_opts_.trip_dump_path.empty()) return;
  // Dump the preceding window of spans + gauge rings next to the trip
  // report. Overwrite-on-trip: the last trip wins (each dump is a
  // complete, self-contained window).
  const std::int64_t since =
      sim_.now().count_micros() - kTripDumpWindow.count_micros();
  std::ofstream out(obs_opts_.trip_dump_path);
  if (!out) return;
  obs::write_dump(out, obs::Tracer::instance().snapshot(since),
                  recorder_ != nullptr ? recorder_->snapshot(since)
                                       : std::vector<obs::GaugeSeries>{});
}

coherence::StreamingChecker& Testbed::enable_streaming(
    coherence::ObjectModel model, coherence::StreamingChecker::Options opts) {
  streaming_ = std::make_unique<coherence::StreamingChecker>(model, opts);
  for (const auto& c : clients_) {
    streaming_->add_session({c->id(), c->session_models()});
  }
  history_.attach_streaming(streaming_.get());
  return *streaming_;
}

obs::PropagationStats Testbed::harvest_propagation() {
  return obs::Tracer::instance().drain_propagation(
      &metrics_.propagation_first_us(), &metrics_.propagation_last_us());
}

NodeId Testbed::add_node(std::string name) {
  const NodeId node = net_.add_node(std::move(name));
  next_port_[node] = 1;
  return node;
}

core::TransportFactory Testbed::factory(NodeId node) {
  core::TransportFactory base = [this, node](net::MessageHandler handler)
      -> std::unique_ptr<net::Transport> {
    const PortId port = next_port_.at(node)++;
    return std::make_unique<net::SimTransport>(
        net_, net::Address{node, port}, std::move(handler));
  };
  if (window_ == nullptr) return base;
  // Windowed runtime: every endpoint's shared-datagram lane goes through
  // the one host; plain/background traffic passes straight through.
  net::TransportFactoryFn wrapped =
      net::windowed_factory(*window_, std::move(base));
  return [wrapped = std::move(wrapped)](net::MessageHandler handler) {
    return wrapped(std::move(handler));
  };
}

StoreEngine& Testbed::add_store_impl(StoreConfig cfg,
                                     const std::vector<ObjectConfig>& objects,
                                     std::string node_name) {
  cfg.log_compact_threshold = options_.log_compact_threshold;
  if (membership_ != nullptr) {
    cfg.membership = membership_->address();
    cfg.membership_heartbeat = options_.membership_heartbeat;
  }
  cfg.flow = window_.get();  // null when not windowed
  const NodeId node = add_node(std::move(node_name));
  auto store = std::make_unique<StoreEngine>(
      factory(node), sim_, std::move(cfg), objects,
      options_.record_history ? &history_ : nullptr, &metrics_);
  StoreEngine& ref = *store;
  stores_.push_back(std::move(store));
  return ref;
}

StoreEngine& Testbed::add_primary(ObjectId object,
                                  const core::ReplicationPolicy& policy,
                                  std::string node_name) {
  GLOBE_ASSERT_MSG(primaries_.find(object) == primaries_.end(),
                   "object already has a primary");
  StoreConfig cfg;
  cfg.store_id = next_store_id_++;
  cfg.store_class = naming::StoreClass::kPermanent;
  cfg.is_primary = true;
  cfg.membership_scope = object;
  ObjectConfig oc;
  oc.object = object;
  oc.policy = policy;
  StoreEngine& ref =
      add_store_impl(std::move(cfg), {oc}, std::move(node_name));
  primaries_[object] = &ref;
  return ref;
}

StoreEngine& Testbed::add_store(ObjectId object,
                                naming::StoreClass store_class,
                                const core::ReplicationPolicy& policy,
                                net::Address upstream,
                                std::string node_name) {
  StoreConfig cfg;
  cfg.store_id = next_store_id_++;
  cfg.store_class = store_class;
  cfg.membership_scope = object;
  ObjectConfig oc;
  oc.object = object;
  oc.upstream = upstream.valid() ? upstream : primary(object).address();
  oc.policy = policy;
  if (node_name.empty()) {
    node_name = std::string(naming::to_string(store_class)) + "-" +
                std::to_string(cfg.store_id);
  }
  return add_store_impl(std::move(cfg), {oc}, std::move(node_name));
}

StoreEngine& Testbed::add_baseline_cache(ObjectId object, CacheMode mode,
                                         sim::SimDuration ttl,
                                         const core::ReplicationPolicy& policy,
                                         net::Address upstream,
                                         std::string node_name) {
  GLOBE_ASSERT(mode != CacheMode::kGlobe);
  StoreConfig cfg;
  cfg.store_id = next_store_id_++;
  cfg.store_class = naming::StoreClass::kClientInitiated;
  cfg.membership_scope = object;
  ObjectConfig oc;
  oc.object = object;
  oc.upstream = upstream.valid() ? upstream : primary(object).address();
  oc.policy = policy;
  oc.cache_mode = mode;
  oc.ttl = ttl;
  if (node_name.empty()) {
    node_name = std::string(to_string(mode)) + "-" +
                std::to_string(cfg.store_id);
  }
  return add_store_impl(std::move(cfg), {oc}, std::move(node_name));
}

ClientBinding& Testbed::add_client(ObjectId object,
                                   coherence::ClientModel session,
                                   net::Address read_store,
                                   net::Address write_store,
                                   std::string node_name) {
  if (node_name.empty()) {
    node_name = "client-" + std::to_string(next_client_id_);
  }
  const NodeId node = add_node(std::move(node_name));
  if (!read_store.valid()) read_store = primary(object).address();
  return add_client_at(node, object, session, read_store, write_store);
}

ClientBinding& Testbed::add_client_at(NodeId node, ObjectId object,
                                      coherence::ClientModel session,
                                      net::Address read_store,
                                      net::Address write_store) {
  BindOptions opts;
  opts.object = object;
  opts.client = next_client_id_++;
  opts.session = session;
  opts.read_store = read_store;
  opts.timeout = options_.client_timeout;
  opts.retries = options_.client_retries;
  if (membership_ != nullptr) {
    opts.membership = membership_->address();
    if (opts.timeout.count_micros() == 0) {
      // A membership-enabled deployment implies faults. Sessions
      // serialize their operations, so an UNTIMED request into a store
      // that crashes would wedge the whole session forever (queued ops
      // never drain, and a later rebind cannot unstick them) — default
      // to a generous timeout instead.
      opts.timeout = sim::SimDuration::seconds(1);
      opts.retries = std::max(opts.retries, 1);
    }
  }
  auto pit = primaries_.find(object);
  if (pit != primaries_.end()) {
    opts.object_model = pit->second->object_config(object).policy.model;
    const bool single_master = !coherence::multi_master(opts.object_model);
    opts.write_store = write_store.valid()
                           ? write_store
                           : (single_master ? pit->second->address()
                                            : read_store);
  } else if (write_store.valid()) {
    opts.write_store = write_store;
  }
  auto client = std::make_unique<ClientBinding>(
      factory(node), sim_, std::move(opts),
      options_.record_history ? &history_ : nullptr, &metrics_);
  ClientBinding& ref = *client;
  clients_.push_back(std::move(client));
  if (streaming_ != nullptr) {
    // Session specs must be registered before the client's first event.
    streaming_->add_session({ref.id(), ref.session_models()});
  }
  return ref;
}

StoreEngine& Testbed::add_shard_store(ShardId shard,
                                      naming::StoreClass store_class,
                                      const core::ReplicationPolicy& policy,
                                      bool primary, std::string node_name) {
  GLOBE_ASSERT_MSG(placement_ != nullptr,
                   "add_shard_store needs TestbedOptions::shards");
  GLOBE_ASSERT(shard < options_.shards);
  if (primary) {
    GLOBE_ASSERT_MSG(shard_primaries_.find(shard) == shard_primaries_.end(),
                     "shard already has a primary");
  } else {
    GLOBE_ASSERT_MSG(shard_primaries_.find(shard) != shard_primaries_.end(),
                     "add the shard's primary first");
  }
  StoreConfig cfg;
  cfg.store_id = next_store_id_++;
  cfg.store_class = primary ? naming::StoreClass::kPermanent : store_class;
  cfg.is_primary = primary;
  cfg.shard = shard;
  cfg.membership_scope = kShardMembershipScope;
  if (node_name.empty()) {
    node_name = "shard" + std::to_string(shard) + "-" +
                (primary ? std::string("primary")
                         : std::to_string(cfg.store_id));
  }
  StoreEngine& ref = add_store_impl(std::move(cfg), {}, std::move(node_name));
  shard_stores_[shard].push_back({&ref, policy});
  if (primary) shard_primaries_[shard] = &ref;
  placement_->register_contact(shard, ref.contact());
  return ref;
}

void Testbed::place_objects(const std::vector<ObjectId>& objects) {
  GLOBE_ASSERT_MSG(placement_ != nullptr,
                   "place_objects needs TestbedOptions::shards");
  for (const ObjectId object : objects) {
    const ShardId shard = placement_->layout().shard_of(object);
    auto sit = shard_stores_.find(shard);
    GLOBE_ASSERT_MSG(sit != shard_stores_.end(),
                     "object placed on a shard with no stores");
    StoreEngine* primary = shard_primaries_.at(shard);
    primaries_[object] = primary;
    // The primary comes first, so its replica exists before any
    // secondary subscribes to it.
    for (const ShardStore& s : sit->second) {
      ObjectConfig oc;
      oc.object = object;
      if (s.store != primary) oc.upstream = primary->address();
      oc.policy = s.policy;
      s.store->add_object(oc);
    }
  }
}

ClientBinding& Testbed::add_placed_client(coherence::ClientModel session,
                                          coherence::ObjectModel object_model,
                                          std::string node_name) {
  GLOBE_ASSERT_MSG(placement_ != nullptr,
                   "add_placed_client needs TestbedOptions::shards");
  if (node_name.empty()) {
    node_name = "client-" + std::to_string(next_client_id_);
  }
  const NodeId node = add_node(std::move(node_name));
  BindOptions opts;
  opts.client = next_client_id_++;
  opts.session = session;
  opts.object_model = object_model;
  opts.placement = placement_->address();
  opts.timeout = options_.client_timeout;
  opts.retries = options_.client_retries;
  if (opts.timeout.count_micros() == 0) {
    // Placed clients exist to be churned: an untimed request into a
    // crashed store would wedge the session's serialized queues.
    opts.timeout = sim::SimDuration::seconds(1);
    opts.retries = std::max(opts.retries, 1);
  }
  // No History: per-object write sequences repeat WriteIds across
  // objects, which a shared recorder would conflate.
  auto client = std::make_unique<ClientBinding>(factory(node), sim_,
                                                std::move(opts), nullptr,
                                                &metrics_);
  ClientBinding& ref = *client;
  clients_.push_back(std::move(client));
  return ref;
}

void Testbed::flush_propagation() {
  for (auto& s : stores_) s->finalize_propagation();
}

void Testbed::settle() {
  sim_.run();
  // Repeated flush rounds drain propagation chains (primary -> mirror
  // -> cache) even in lazy/pull modes.
  for (int round = 0; round < 8; ++round) {
    flush_propagation();
    sim_.run();
  }
}

bool Testbed::converged(ObjectId object) const {
  auto pit = primaries_.find(object);
  if (pit == primaries_.end()) return false;
  const StoreEngine* primary = pit->second;
  for (const auto& s : stores_) {
    if (!s->has_object(object)) continue;
    if (s->object_config(object).cache_mode != CacheMode::kGlobe) continue;
    // Crashed and departed stores are out of the replica set; every
    // store still in it — including ones that joined or recovered mid-
    // run — must be bootstrapped and equal to the primary.
    if (!s->alive() || s->departed()) continue;
    if (!s->ready(object)) return false;
    if (!(s->document(object) == primary->document(object))) return false;
  }
  return true;
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

void Testbed::crash_store(std::size_t index) {
  StoreEngine& s = *stores_.at(index);
  net_.set_node_down(s.address().node, true);
  s.crash();
}

void Testbed::recover_store(std::size_t index) {
  StoreEngine& s = *stores_.at(index);
  net_.set_node_down(s.address().node, false);
  s.recover();
}

void Testbed::leave_store(std::size_t index) { stores_.at(index)->leave(); }

std::vector<NodeId> Testbed::side_nodes(
    const std::vector<std::size_t>& side) const {
  std::vector<NodeId> nodes;
  for (const std::size_t index : side) {
    const StoreEngine& s = *stores_.at(index);
    nodes.push_back(s.address().node);
    // Clients are co-partitioned with the store they currently read
    // from: a real partition separates a site, not a single process.
    for (const auto& c : clients_) {
      if (c->read_store() == s.address()) {
        nodes.push_back(c->address().node);
      }
    }
  }
  return nodes;
}

void Testbed::partition_stores(const std::vector<std::size_t>& side_a,
                               const std::vector<std::size_t>& side_b) {
  const std::vector<NodeId> a = side_nodes(side_a);
  const std::vector<NodeId> b = side_nodes(side_b);
  const auto has_primary = [&](const std::vector<std::size_t>& side) {
    for (const std::size_t index : side) {
      if (stores_.at(index)->config().is_primary) return true;
    }
    return false;
  };
  // The well-known services stay reachable from the primary's side; the
  // other side loses them, so its stores miss heartbeats and get
  // evicted from the view until the heal re-admits them.
  const bool pa = has_primary(side_a);
  const bool pb = has_primary(side_b);
  if (pa && !pb) {
    net_.partition_groups(service_nodes_, b);
  } else if (pb && !pa) {
    net_.partition_groups(service_nodes_, a);
  }
  net_.partition_groups(a, b);
}

void Testbed::join_stores(std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    GLOBE_ASSERT_MSG(!primaries_.empty(), "join_stores needs a primary");
    const auto& [object, primary] = *primaries_.begin();
    add_store(object, naming::StoreClass::kClientInitiated,
              primary->object_config(object).policy);
  }
}

void Testbed::publish(ObjectId object, const std::string& name) {
  naming_->register_name(name, object);
  for (const auto& s : stores_) {
    if (s->has_object(object)) {
      naming_->register_contact(object, s->contact());
    }
  }
}

}  // namespace globe::replication
