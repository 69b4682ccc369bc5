#include "globe/replication/store_engine.hpp"

#include <algorithm>

#include "globe/check/monitor.hpp"
#include "globe/obs/trace.hpp"
#include "globe/util/assert.hpp"
#include "globe/util/log.hpp"

namespace globe::replication {

using core::AccessTransfer;
using core::CoherenceTransfer;
using core::OutdateReaction;
using core::Propagation;
using core::StoreScope;
using core::TransferInitiative;
using core::TransferInstant;

namespace {

// Lifecycle span for one write at this store. The trace id is derived
// from the WriteId, so spans join the write's trace even on paths that
// carried no context (lazy flush, anti-entropy); the parent links only
// when the calling thread's context belongs to the same trace (a batch
// may deliver records of several traces under one envelope).
void trace_write_span(obs::SpanKind kind, StoreId store, ObjectId object,
                      const web::WriteId& wid, std::uint64_t detail) {
  obs::Tracer& t = obs::Tracer::instance();
  if (!t.enabled()) return;
  const std::uint64_t trace = obs::trace_of(wid.client, wid.seq);
  if (!t.sampled(trace)) return;
  const obs::TraceContext ctx = obs::current_context();
  obs::Span s;
  s.kind = kind;
  s.trace_id = trace;
  s.parent_id = ctx.trace_id == trace ? ctx.span_id : 0;
  s.ts_us = t.now_us();
  s.actor = store;
  s.object = object;
  s.detail = detail;
  t.emit(s);
}

}  // namespace

// The engine side of one apply round. Per applied record: spans, the
// History event, a copy for each push target but its origin, and the ack
// of a write that waited for it. finish() then propagates the copies.
class StoreEngine::Applier final : public ApplySink {
 public:
  Applier(StoreEngine& engine, ObjectState& o) : e_(engine), o_(o) {}

  void applied(const web::WriteRecord& rec, bool logged) override {
    // The ordering authority releases the record into the total order.
    if (e_.config_.is_primary) {
      trace_write_span(obs::SpanKind::kOrder, e_.config_.store_id,
                       o_.cfg.object, rec.wid, rec.global_seq);
    }
    // Last-writer-wins may have rejected the record (not logged): the
    // state kept a newer version. Its writer is acked all the same, but
    // no application is recorded.
    if (logged) {
      trace_write_span(obs::SpanKind::kApply, e_.config_.store_id,
                       o_.cfg.object, rec.wid, rec.global_seq);
      if (e_.history_ != nullptr) {
        coherence::ApplyEvent ev;
        ev.at = e_.sim_.now();
        ev.store = e_.config_.store_id;
        ev.wid = rec.wid;
        ev.page = e_.history_->intern(rec.page);
        ev.global_seq = rec.global_seq;
        e_.history_->record_apply(ev, rec.deps);
      }
      ++o_.writes_applied;
      if (e_.metrics_ != nullptr) {
        e_.metrics_->record_shard_write(e_.config_.shard);
      }
      if (e_.topo_.pushes_beyond(o_.links, o_.cfg.policy,
                                 rec.transient_origin)) {
        forward_.push_back(rec);
      }
      logged_ = true;
    }
    const auto ack = o_.pending_write_acks.find(rec.wid);
    if (ack != o_.pending_write_acks.end()) {
      e_.ack_write(o_, ack->second.first, ack->second.second,
                   rec.global_seq);
      o_.pending_write_acks.erase(ack);
    }
  }

  void finish(const ApplyRound& round) {
    if (round.applied == 0) return;
    o_.demand_retry_budget = 100;  // progress: re-arm the retry budget
    e_.topo_.frontier_moved(o_.links, o_.cfg.object, advertises_clock(o_));
    if (round.compacted && e_.metrics_ != nullptr) {
      e_.metrics_->record_log_compaction();
    }
    e_.note_gaps(o_);
    e_.unpark_ready(o_);
    if (logged_) e_.propagate(o_, forward_);
  }

 private:
  StoreEngine& e_;
  ObjectState& o_;
  // Copies only of the records some push target other than their
  // origin will receive; the log owns every applied record.
  std::vector<web::WriteRecord> forward_;
  bool logged_ = false;
};

StoreEngine::StoreEngine(const TransportFactory& factory, sim::Simulator& sim,
                         StoreConfig config,
                         const std::vector<ObjectConfig>& objects,
                         coherence::History* history,
                         metrics::MetricsSink* metrics)
    : sim_(sim),
      config_(std::move(config)),
      topo_(config_.is_primary, config_.membership.valid()),
      history_(history),
      metrics_(metrics),
      follower_(config_.membership, config_.membership_scope, config_.shard,
                [this](const auto& previous, const auto& view) {
                  apply_view(previous, view);
                }),
      comm_(&sim, metrics) {
  comm_.open(factory,
             [this](const Address& from, const msg::EnvelopeView& env) {
               on_message(from, env);
             });
  GLOBE_ASSERT_MSG(
      !config_.membership.valid() || config_.membership_scope != 0,
      "a store with membership needs a membership scope");
  // The objects hosted from birth subscribe before the store joins
  // membership: the simulated network draws each send's jitter from one
  // shared RNG, so this order is part of every deterministic run.
  for (const ObjectConfig& cfg : objects) create_object(cfg);
  GLOBE_CHECK_HOOK(note_owner_context(this, config_.store_id, 0));
  configure_timers();
  start_membership();
}

StoreEngine::~StoreEngine() {
  // Drop the invariant monitors keyed on this engine and its object
  // states (each replica drops its own): a later allocation at the same
  // address starts clean.
  for (auto& [id, o] : objects_) check::release(o.get());
  check::release(this);
}

StoreEngine::ObjectState& StoreEngine::create_object(const ObjectConfig& cfg) {
  GLOBE_ASSERT_MSG(cfg.policy.validate().empty(),
                   "invalid replication policy");
  GLOBE_ASSERT_MSG(config_.is_primary != cfg.upstream.valid(),
                   "an object has an upstream exactly off the primary store");
  GLOBE_ASSERT_MSG(objects_.count(cfg.object) == 0,
                   "duplicate object id on one store");
  ReplicaConfig rc;
  rc.store = config_.store_id;
  rc.object = cfg.object;
  rc.model = cfg.policy.model;
  rc.primary = config_.is_primary;
  rc.enforces_model = enforces_model(cfg);
  rc.compact_threshold = config_.log_compact_threshold;
  auto state = std::make_unique<ObjectState>(cfg, rc);
  ObjectState& o = *state;
  objects_.emplace(cfg.object, std::move(state));
  // Trip reports for monitors keyed on this object state or its replica
  // carry the store id + view epoch stamp (refreshed on every view
  // adoption).
  GLOBE_CHECK_HOOK(note_owner_context(&o, config_.store_id, view_epoch()));
  GLOBE_CHECK_HOOK(
      note_owner_context(&o.replica, config_.store_id, view_epoch()));

  note_puller(o);
  if (config_.is_primary || o.cfg.cache_mode != CacheMode::kGlobe) {
    o.ready = true;
  } else {
    subscribe_to_upstream(o);
  }
  return o;
}

void StoreEngine::add_object(const ObjectConfig& cfg) {
  arm_timers(timer_needs(create_object(cfg)));
}

std::vector<ObjectId> StoreEngine::object_ids() const {
  std::vector<ObjectId> ids;
  ids.reserve(objects_.size());
  for (const auto& [id, o] : objects_) ids.push_back(id);
  return ids;
}

StoreEngine::ObjectState* StoreEngine::find_object(ObjectId id) const {
  auto it = objects_.find(id);
  return it == objects_.end() ? nullptr : it->second.get();
}

StoreEngine::ObjectState& StoreEngine::obj(ObjectId id) const {
  ObjectState* o = find_object(id);
  GLOBE_ASSERT_MSG(o != nullptr, "unknown object id");
  return *o;
}

StoreEngine::ObjectState& StoreEngine::only() const {
  GLOBE_ASSERT_MSG(objects_.size() == 1,
                   "one-object accessor on a store not hosting one object");
  return *objects_.begin()->second;
}

const web::WebDocument& StoreEngine::document(ObjectId id) const {
  return obj(id).replica.document();
}

const coherence::VectorClock& StoreEngine::applied_clock(ObjectId id) const {
  return obj(id).replica.applied_clock();
}

std::uint64_t StoreEngine::applied_gseq(ObjectId id) const {
  return obj(id).replica.applied_gseq();
}

bool StoreEngine::ready(ObjectId id) const { return obj(id).ready; }

const WriteLog& StoreEngine::write_log(ObjectId id) const {
  return obj(id).replica.log();
}

template <typename F>
std::uint64_t StoreEngine::sum_objects(F count) const {
  std::uint64_t n = 0;
  for (const auto& [id, o] : objects_) n += count(*o);
  return n;
}

std::size_t StoreEngine::parked_requests() const {
  return sum_objects([](const ObjectState& o) { return o.parked.size(); });
}

std::uint64_t StoreEngine::writes_applied() const {
  return sum_objects([](const ObjectState& o) { return o.writes_applied; });
}

StoreEngine::TimerNeeds StoreEngine::timer_needs(const ObjectState& o) const {
  TimerNeeds need;
  const auto& p = o.cfg.policy;
  if (o.cfg.cache_mode != CacheMode::kGlobe) return need;
  // Lazy push flush timer: any store that may propagate data.
  if (p.initiative == TransferInitiative::kPush &&
      p.instant == TransferInstant::kLazy) {
    need.lazy = p.lazy_period;
  }
  // Pull poll timer: non-primary Globe stores poll their upstream.
  if (p.initiative == TransferInitiative::kPull && !config_.is_primary) {
    need.pull = p.lazy_period;
  }
  if (advertises_clock(o)) {
    need.beat = p.instant == TransferInstant::kLazy
                    ? p.lazy_period
                    : sim::SimDuration::millis(500);
  }
  return need;
}

void StoreEngine::configure_timers() {
  lazy_timer_.reset();
  pull_timer_.reset();
  heartbeat_timer_.reset();
  TimerNeeds all;
  const auto take_min = [](std::optional<sim::SimDuration>& slot,
                           std::optional<sim::SimDuration> d) {
    if (d.has_value() && (!slot.has_value() || *d < *slot)) slot = d;
  };
  for (const auto& [id, op] : objects_) {
    const TimerNeeds need = timer_needs(*op);
    take_min(all.lazy, need.lazy);
    take_min(all.pull, need.pull);
    take_min(all.beat, need.beat);
  }
  arm_timers(all);
}

void StoreEngine::arm_timers(const TimerNeeds& need) {
  const auto arm = [this](std::optional<sim::PeriodicTimer>& timer,
                          std::optional<sim::SimDuration> period,
                          std::function<void()> tick) {
    if (!period.has_value() ||
        (timer.has_value() && timer->period() <= *period)) {
      return;
    }
    timer.emplace(sim_, *period, std::move(tick));
    timer->start();
  };
  arm(lazy_timer_, need.lazy, [this] { flush_lazy_all(); });
  arm(pull_timer_, need.pull, [this] { pull_all(); });
  arm(heartbeat_timer_, need.beat, [this] { send_clock_beacons(); });
}

bool StoreEngine::update_policy(const core::ReplicationPolicy& policy) {
  return update_policy(only(), policy);
}

bool StoreEngine::update_policy(ObjectState& o,
                                const core::ReplicationPolicy& policy) {
  if (policy.model != o.cfg.policy.model) return false;
  if (!policy.validate().empty()) return false;
  if (policy == o.cfg.policy) return true;

  // Drain anything queued under the old parameters, then switch.
  service_flow_events();
  flush_lazy(o);
  o.cfg.policy = policy;
  note_puller(o);
  configure_timers();
  topo_.set_lanes(o.links, o.cfg.object, advertises_clock(o));

  // Propagate the strategy change through the object (downstream).
  for (const Address& to : o.links.subscribers) {
    comm_.send_with(to, msg::MsgType::kPolicyUpdate, o.cfg.object,
                    [&](util::Writer& w) { policy.encode(w); });
  }
  return true;
}

bool StoreEngine::enforces_model(const ObjectConfig& cfg) const {
  switch (cfg.policy.store_scope) {
    case StoreScope::kPermanent:
      return config_.store_class == naming::StoreClass::kPermanent;
    case StoreScope::kPermanentAndObject:
      return config_.store_class != naming::StoreClass::kClientInitiated;
    case StoreScope::kAll:
      return true;
  }
  return true;
}

bool StoreEngine::accepts_writes(const ObjectState& o) const {
  return coherence::multi_master(o.cfg.policy.model) || config_.is_primary;
}

void StoreEngine::finalize_propagation() {
  // One synchronous flush/pull so Testbed::settle() can drain in-flight
  // coherence state; the periodic timers keep running (they are
  // background events and never block quiescence on their own).
  if (!alive_ || departed_) return;
  pull_all();
  flush_lazy_all();
}

void StoreEngine::pull_all() {
  for (const ObjectId id : pullers_) pull_from_upstream(obj(id));
}

void StoreEngine::note_puller(const ObjectState& o) {
  if (timer_needs(o).pull.has_value()) {
    pullers_.insert(o.cfg.object);
  } else {
    pullers_.erase(o.cfg.object);
  }
}

naming::ContactPoint StoreEngine::contact() const {
  naming::ContactPoint c;
  c.address = comm_.local_address();
  c.store_class = config_.store_class;
  c.store_id = config_.store_id;
  c.is_primary = config_.is_primary;
  return c;
}

void StoreEngine::seed(const std::string& page, const std::string& content,
                       const std::string& mime) {
  seed(only().cfg.object, page, content, mime);
}

void StoreEngine::seed(ObjectId id, const std::string& page,
                       const std::string& content, const std::string& mime) {
  ObjectState& o = obj(id);
  Applier a(*this, o);
  a.finish(o.replica.seed(page, content, mime, sim_.now().count_micros(), a));
}

// ---------------------------------------------------------------------
// Message dispatch
// ---------------------------------------------------------------------

void StoreEngine::on_message(const Address& from,
                             const msg::EnvelopeView& env) {
  // A crash-stopped or departed store processes nothing; the network
  // layer usually drops its traffic already (node down), this guards the
  // co-located and loopback paths.
  if (!alive_ || departed_) return;

  // Membership traffic names the scope, not a hosted object: one view
  // message fans out to the whole object table. So does a Notify, whose
  // entries name their objects.
  switch (env.type) {
    case msg::MsgType::kViewDelta:
      follower_.on_delta(membership::ViewDelta::decode(env.body), comm_);
      return;
    case msg::MsgType::kStabilityHorizon:
      handle_stability_horizon(env);
      return;
    case msg::MsgType::kNotify:
      handle_notify(from, env);
      return;
    default:
      break;
  }

  ObjectState* o = find_object(env.object);
  if (o == nullptr) {
    // Not our object (anymore): tell invoking clients so they re-resolve
    // placement and rebind; drop coherence traffic (stale fan-out).
    if (env.type == msg::MsgType::kInvokeRequest) {
      InvokeReply rep;
      rep.ok = false;
      rep.error = "unknown object";
      rep.store = config_.store_id;
      comm_.reply_with(from, msg::MsgType::kInvokeReply, env.object,
                       env.request_id, [&](util::Writer& w) { rep.encode(w); });
    }
    return;
  }
  if (metrics_ != nullptr) {
    metrics_->record_shard_bytes(config_.shard, env.body.size());
  }
  switch (env.type) {
    case msg::MsgType::kInvokeRequest:
      handle_client_request(*o, from, env.request_id,
                            ClientRequest::decode(env.body));
      return;
    case msg::MsgType::kWriteForward:
      handle_write_forward(*o, from, env);
      return;
    case msg::MsgType::kUpdate:
      handle_update(*o, from, env);
      return;
    case msg::MsgType::kSnapshot:
      apply_state_transfer(*o, StateTransfer::decode_view(env.body));
      prune_stale_edge(*o, from);
      return;
    case msg::MsgType::kInvalidate:
      handle_invalidate(*o, from, env);
      return;
    case msg::MsgType::kFetchRequest:
      handle_fetch_request(*o, from, env);
      return;
    case msg::MsgType::kSubscribe:
      handle_subscribe(*o, from, env);
      return;
    case msg::MsgType::kUnsubscribe:
      UnsubscribeMsg::decode(env.body);
      if (topo_.drop(o->links, o->cfg.object, from)) {
        o->lazy_queues.erase(addr_key(from));
      }
      return;
    case msg::MsgType::kAntiEntropyRequest:
      handle_anti_entropy(*o, from, env);
      return;
    case msg::MsgType::kSnapshotDeltaRequest:
      serve_snapshot_delta(*o, from, env.request_id,
                           SnapshotDeltaRequest::decode(env.body),
                           /*defer_budget=*/100);
      return;
    case msg::MsgType::kPolicyUpdate: {
      util::Reader r{env.body};
      update_policy(*o, core::ReplicationPolicy::decode(r));
      return;
    }
    default:
      GLOBE_LOG_ERROR("store", "store %u: unexpected message type %s",
                      config_.store_id, msg::to_string(env.type));
  }
}

void StoreEngine::reply_invoke(ObjectState& o, const Address& to,
                               std::uint64_t request_id,
                               const InvokeReply& rep) {
  comm_.reply_with(
      to, msg::MsgType::kInvokeReply, o.cfg.object, request_id,
      [&](util::Writer& w) { rep.encode(w); }, rep.encoded_size_bound());
}

void StoreEngine::handle_client_request(ObjectState& o, const Address& from,
                                        std::uint64_t request_id,
                                        ClientRequest req) {
  if (!o.ready) {
    o.parked.push_back(Parked{from, request_id, std::move(req)});
    return;
  }
  if (req.inv.writes()) {
    if (accepts_writes(o)) {
      accept_write(o, from, request_id, std::move(req));
    } else {
      // Relay towards the accepting store; it replies to the origin.
      WriteForward fwd;
      fwd.origin = from;
      fwd.origin_request_id = request_id;
      fwd.request = std::move(req);
      comm_.send_with(o.links.upstream, msg::MsgType::kWriteForward,
                      o.cfg.object, [&](util::Writer& w) { fwd.encode(w); });
    }
    return;
  }
  serve_read(o, from, request_id, req);
}

void StoreEngine::handle_write_forward(ObjectState& o, const Address& /*from*/,
                                       const msg::EnvelopeView& env) {
  if (accepts_writes(o)) {
    WriteForward fwd = WriteForward::decode(env.body);
    accept_write(o, fwd.origin, fwd.origin_request_id,
                 std::move(fwd.request));
  } else {
    // Relay the encoded body as-is; no need to decode it here.
    comm_.send_with(o.links.upstream, msg::MsgType::kWriteForward,
                    o.cfg.object, [&](util::Writer& w) { w.raw(env.body); });
  }
}

// ---------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------

void StoreEngine::accept_write(ObjectState& o, const Address& reply_to,
                               std::uint64_t request_id, ClientRequest req) {
  trace_write_span(obs::SpanKind::kStoreAccept, config_.store_id,
                   o.cfg.object, req.wid, 0);
  web::WriteRecord rec = o.replica.semantics().to_record(req.inv);
  rec.wid = req.wid;
  rec.deps = req.deps;
  rec.ordered = req.ordered;
  rec.issued_at_us = req.issued_at_us;
  Applier a(*this, o);
  const Accepted acc = o.replica.accept(std::move(rec), a);
  a.finish(acc.round);
  if (acc.admission == Admission::kBuffered) {
    // Ack once the record is finally applied (Applier::applied).
    o.pending_write_acks[req.wid] = {reply_to, request_id};
    note_gaps(o);
    if (!config_.is_primary &&
        o.cfg.policy.object_outdate_reaction == OutdateReaction::kDemand) {
      demand_fetch(o);
    }
    return;
  }
  // Idempotent/ignored writes still succeed from the client's view
  // (FIFO model: "the request is simply ignored").
  ack_write(o, reply_to, request_id,
            acc.admission == Admission::kApplied ? acc.global_seq : 0);
}

void StoreEngine::ack_write(ObjectState& o, const Address& to,
                            std::uint64_t request_id,
                            std::uint64_t global_seq) {
  InvokeReply rep;
  rep.ok = true;
  rep.global_seq = global_seq != 0 ? global_seq : o.replica.applied_gseq();
  rep.store_clock = o.replica.applied_clock();
  rep.store = config_.store_id;
  reply_invoke(o, to, request_id, rep);
}

void StoreEngine::record_snapshot_event(ObjectState& o) {
  if (history_ == nullptr) return;
  coherence::ApplyEvent e;
  e.at = sim_.now();
  e.store = config_.store_id;
  e.global_seq = o.replica.applied_gseq();
  e.from_snapshot = true;
  history_->record_apply(e, o.replica.applied_clock());
}

void StoreEngine::note_gaps(ObjectState& o) {
  o.outdated = o.replica.outdated();
  if (o.outdated) {
    outdated_.insert(o.cfg.object);
  } else {
    outdated_.erase(o.cfg.object);
  }
}

// ---------------------------------------------------------------------
// Read path
// ---------------------------------------------------------------------

bool StoreEngine::requirement_satisfied(const ObjectState& o,
                                        const ClientRequest& req) {
  return o.replica.applied_clock().dominates(req.min_clock) &&
         o.replica.applied_gseq() >= req.min_global_seq;
}

bool StoreEngine::needs_page_fetch(const ObjectState& o,
                                   const ClientRequest& req) {
  if (req.inv.method != msg::Method::kGetPage) return false;
  util::Reader args{util::BytesView(req.inv.args)};
  return o.replica.page_invalid(args.str());
}

InvokeReply StoreEngine::make_read_reply(ObjectState& o,
                                         const ClientRequest& req) {
  InvokeReply rep;
  if (o.cfg.policy.access_transfer == AccessTransfer::kFull &&
      req.inv.method == msg::Method::kGetPage) {
    // Access transfer type "full": the whole document travels with the
    // access (Table 1), regardless of how little the client asked for.
    // The page travels only inside it.
    util::Reader args{util::BytesView(req.inv.args)};
    const std::string page = args.str();
    rep.ok = o.replica.document().has(page);
    if (!rep.ok) rep.error = core::page_not_found(page);
    rep.document = o.replica.document().snapshot();
  } else {
    core::InvokeResult res = o.replica.semantics().execute_read(req.inv);
    rep.ok = res.ok;
    rep.error = std::move(res.error);
    rep.value = std::move(res.value);
  }
  rep.global_seq = o.replica.applied_gseq();
  rep.store_clock = o.replica.applied_clock();
  rep.store = config_.store_id;
  if (metrics_ != nullptr) {
    metrics_->record_shard_read(config_.shard);
    if (o.outdated) metrics_->record_stale_serve();
  }
  return rep;
}

void StoreEngine::serve_read(ObjectState& o, const Address& from,
                             std::uint64_t request_id,
                             const ClientRequest& req) {
  if (o.cfg.cache_mode != CacheMode::kGlobe) {
    serve_read_baseline(o, from, request_id, req);
    return;
  }

  const bool satisfied = requirement_satisfied(o, req);
  const bool invalid = needs_page_fetch(o, req);
  if (satisfied && !invalid) {
    reply_invoke(o, from, request_id, make_read_reply(o, req));
    return;
  }

  // The store cannot serve this read coherently yet: apply the outdate
  // reaction (Section 3.3): wait for propagation, or demand an update.
  if (invalid ||
      o.cfg.policy.client_outdate_reaction == OutdateReaction::kDemand) {
    if (metrics_ != nullptr) metrics_->record_session_demand();
    std::vector<std::string> pages;
    if (invalid &&
        o.cfg.policy.access_transfer == AccessTransfer::kPartial) {
      util::Reader args{util::BytesView(req.inv.args)};
      pages.push_back(args.str());
    }
    o.parked.push_back(Parked{from, request_id, req});
    demand_fetch(o, std::move(pages));
  } else {
    if (metrics_ != nullptr) metrics_->record_session_wait();
    o.parked.push_back(Parked{from, request_id, req});
  }
}

void StoreEngine::unpark_ready(ObjectState& o) {
  if (o.parked.empty() || o.unparking) return;
  o.unparking = true;
  std::vector<Parked> waiting = std::move(o.parked);
  o.parked.clear();
  for (Parked& p : waiting) {
    if (!o.ready) {
      o.parked.push_back(std::move(p));
      continue;
    }
    if (p.request.inv.writes()) {
      handle_client_request(o, p.from, p.request_id, std::move(p.request));
      continue;
    }
    const bool satisfied = requirement_satisfied(o, p.request);
    const bool invalid = needs_page_fetch(o, p.request);
    if (satisfied && !invalid) {
      reply_invoke(o, p.from, p.request_id, make_read_reply(o, p.request));
    } else {
      o.parked.push_back(std::move(p));
    }
  }
  o.unparking = false;
  // Unsatisfied demand-mode reads must eventually retry: their update may
  // not have reached our upstream when we last fetched. The budget bounds
  // the loop when the awaited write never arrives.
  if (!o.parked.empty() && !o.fetch_in_flight &&
      o.cfg.policy.client_outdate_reaction == OutdateReaction::kDemand &&
      !config_.is_primary && o.demand_retry_budget > 0) {
    --o.demand_retry_budget;
    sim_.schedule_after(sim::SimDuration::millis(25), [this, &o] {
      if (!o.parked.empty()) demand_fetch(o);
    });
  }
}

// ---------------------------------------------------------------------
// Baseline Web cache protocols (Section 1)
// ---------------------------------------------------------------------

void StoreEngine::serve_read_baseline(ObjectState& o, const Address& from,
                                      std::uint64_t request_id,
                                      ClientRequest req) {
  if (req.inv.method != msg::Method::kGetPage) {
    reply_invoke(o, from, request_id, make_read_reply(o, req));
    return;
  }
  util::Reader args{util::BytesView(req.inv.args)};
  const std::string page = args.str();
  const bool ttl = o.cfg.cache_mode == CacheMode::kTtl;
  if (ttl) {
    const auto id = o.replica.page_table().find(page);
    if (id.has_value() && *id < o.fetched_at.size() &&
        o.fetched_at[*id].has_value() && o.replica.document().has(page) &&
        sim_.now() - *o.fetched_at[*id] < o.cfg.ttl) {
      reply_invoke(o, from, request_id, make_read_reply(o, req));
      return;
    }
  }
  // Check-on-read validates the copy it holds (If-Modified-Since); an
  // expired TTL copy asks for the latest one.
  FetchRequest fetch;
  fetch.validate_only = true;
  fetch.pages.push_back(page);
  if (!ttl) {
    const auto current = o.replica.document().get(page);
    fetch.have_lamport = current ? current->lamport : 0;
  }
  comm_.request_with(
      o.links.upstream, msg::MsgType::kFetchRequest, o.cfg.object,
      [&](util::Writer& w) { fetch.encode(w); },
      [this, &o, from, request_id, page, ttl, req = std::move(req)](
          bool ok, const Address&, const msg::EnvelopeView& env) mutable {
        if (ok) {
          // The baselines keep no log and no orderer: records (none when
          // not modified) go straight to the document, each page stamped
          // with its fetch time.
          const FetchReply::View rep = FetchReply::decode_view(env.body);
          for (const web::WriteRecord& rec : rep.records) {
            o.replica.apply_fetched(rec);
            stamp_fetched(o, rec.page);
          }
          if (ttl) stamp_fetched(o, page);  // a missing page too
        }
        reply_invoke(o, from, request_id, make_read_reply(o, req));
      });
}

void StoreEngine::stamp_fetched(ObjectState& o, const std::string& page) {
  const web::PageId id = o.replica.hold_page(page);
  if (id >= o.fetched_at.size()) o.fetched_at.resize(id + 1);
  std::optional<sim::SimTime>& stamp = o.fetched_at[id];
  if (stamp.has_value()) o.replica.release_page(id);  // already held
  stamp = sim_.now();
}

// ---------------------------------------------------------------------
// Propagation
// ---------------------------------------------------------------------

void StoreEngine::propagate(ObjectState& o,
                            const std::vector<web::WriteRecord>& recs) {
  if (o.cfg.policy.initiative == TransferInitiative::kPull) {
    return;  // downstream stores poll; nothing is pushed
  }
  service_flow_events();

  // Per-record exclusion: never reflect a record straight back to the
  // neighbour it arrived from (it may still need to travel to every
  // other neighbour, e.g. a buffered client write draining after an
  // upstream update must still flow upstream). Batches are consecutive
  // same-origin runs so dropping one preserves the apply order of the
  // remaining records, and a run is encoded only when some target
  // receives it: a leaf cache whose one target is the upstream a record
  // came from builds nothing.
  // Only materialize what this store's propagation mode consumes:
  // partial updates splice the encoded bytes, invalidations read the
  // page list, notification/full transfers use the batch as a marker.
  const web::BatchNeeds needs{
      .wire = o.cfg.policy.propagation == Propagation::kUpdate &&
              o.cfg.policy.coherence_transfer == CoherenceTransfer::kPartial,
      .pages = o.cfg.policy.propagation == Propagation::kInvalidate};
  std::vector<web::RecordBatchPtr> batches;
  for (std::size_t i = 0; i < recs.size();) {
    std::size_t j = i + 1;
    while (j < recs.size() &&
           recs[j].transient_origin == recs[i].transient_origin) {
      ++j;
    }
    if (topo_.pushes_beyond(o.links, o.cfg.policy,
                            recs[i].transient_origin)) {
      batches.push_back(std::make_shared<const web::RecordBatch>(
          std::span(recs).subspan(i, j - i), recs[i].transient_origin,
          needs));
    }
    i = j;
  }
  if (batches.empty()) return;

  // Immediate pushes group destinations whose batch set is identical
  // (the common case: everyone but the record's origin receives
  // everything) so each group can travel as ONE shared wire datagram.
  const bool lazy = o.cfg.policy.instant == TransferInstant::kLazy;
  std::vector<std::pair<std::vector<web::RecordBatchPtr>, std::vector<Address>>>
      groups;
  for (const Address& t : topo_.push_targets(o.links, o.cfg.policy)) {
    const std::uint64_t tkey = addr_key(t);
    std::vector<web::RecordBatchPtr> out;
    out.reserve(batches.size());
    for (const web::RecordBatchPtr& b : batches) {
      if (b->origin() != tkey) out.push_back(b);
    }
    if (out.empty()) continue;
    const FlowDisposition fd =
        lazy ? FlowDisposition::kPark : flow_disposition(o, tkey);
    if (fd == FlowDisposition::kSkip) continue;  // dropped under deadline
    if (fd == FlowDisposition::kPark) {
      // Lazy mode, or a windowed channel under backpressure: park the
      // shared batches; resume (or the lazy timer) flushes them in order.
      auto& queue = o.lazy_queues[tkey];
      queue.insert(queue.end(), std::make_move_iterator(out.begin()),
                   std::make_move_iterator(out.end()));
      lazy_dirty_.insert(o.cfg.object);
    } else {
      bool grouped = false;
      for (auto& g : groups) {
        if (g.first == out) {
          g.second.push_back(t);
          grouped = true;
          break;
        }
      }
      if (!grouped) groups.emplace_back(std::move(out), std::vector{t});
    }
  }
  for (auto& g : groups) send_coherence(o, g.second, g.first);
}

void StoreEngine::send_coherence(ObjectState& o,
                                 const std::vector<Address>& to,
                                 std::span<const web::RecordBatchPtr> batches) {
  if (to.empty()) return;
  const auto& p = o.cfg.policy;
  if (p.propagation == Propagation::kInvalidate) {
    InvalidateMsg m;
    std::set<std::string> pages;
    for (const web::RecordBatchPtr& b : batches) {
      pages.insert(b->pages().begin(), b->pages().end());
    }
    m.pages.assign(pages.begin(), pages.end());
    m.known_clock = o.replica.applied_clock();
    m.known_gseq = o.replica.applied_gseq();
    comm_.multicast_with(to, msg::MsgType::kInvalidate, o.cfg.object,
                         [&](util::Writer& w) { m.encode(w); });
    return;
  }
  switch (p.coherence_transfer) {
    case CoherenceTransfer::kNotification:
      comm_.multicast_with(to, msg::MsgType::kNotify, kStoreScope,
                           [&](util::Writer& w) {
                             encode_clock_list(w, 0, 0, {o.cfg.object});
                           });
      return;
    case CoherenceTransfer::kPartial: {
      // Splice the pre-encoded shared batches straight into the wire
      // buffer: the record payloads were serialized once, no matter how
      // many subscribers this update reaches.
      comm_.multicast_with(to, msg::MsgType::kUpdate, o.cfg.object,
                           [&](util::Writer& w) {
                             UpdateMsg::encode_batches(
                                 w, batches, o.replica.applied_clock(),
                                 o.replica.applied_gseq());
                           });
      return;
    }
    case CoherenceTransfer::kFull: {
      const StateTransfer st = o.replica.state_transfer();
      comm_.multicast_with(to, msg::MsgType::kSnapshot, o.cfg.object,
                           [&](util::Writer& w) { st.encode(w); });
      return;
    }
  }
}

void StoreEngine::flush_lazy_all() {
  service_flow_events();
  // A flush that backpressure still parks marks its object again.
  const std::vector<ObjectId> dirty(lazy_dirty_.begin(), lazy_dirty_.end());
  for (const ObjectId id : dirty) flush_lazy(obj(id));
}

void StoreEngine::flush_lazy(ObjectState& o) {
  if (lazy_dirty_.erase(o.cfg.object) == 0) return;
  auto queues = std::move(o.lazy_queues);
  o.lazy_queues.clear();
  // Notification and full transfers carry no per-record data: a queued
  // target with an empty batch list still gets its (aggregated) message.
  const bool data_free =
      o.cfg.policy.propagation == Propagation::kUpdate &&
      o.cfg.policy.coherence_transfer != CoherenceTransfer::kPartial;
  for (auto& [key, batches] : queues) {
    if (topo_.paused(key)) {
      // Still under transport backpressure: keep the segment parked
      // (resume or the deadline in flow_disposition settles it later).
      auto& back = o.lazy_queues[key];
      back.insert(back.end(), std::make_move_iterator(batches.begin()),
                  std::make_move_iterator(batches.end()));
      lazy_dirty_.insert(o.cfg.object);
      continue;
    }
    if (batches.empty() && !data_free) continue;
    send_coherence(o, {key_addr(key)}, batches);
  }
}

void StoreEngine::service_flow_events() {
  if (config_.flow == nullptr) return;
  for (const net::FlowControl::Event& ev :
       config_.flow->poll_events(address())) {
    const std::uint64_t key = addr_key(ev.peer);
    if (ev.what == net::FlowControl::PeerEvent::kPaused) {
      topo_.pause(key);
      if (metrics_ != nullptr) metrics_->record_flow_pause();
      continue;
    }
    topo_.resume(key);
    if (metrics_ != nullptr) metrics_->record_flow_resume();
    // The channel drained below its low watermark: everything parked for
    // this peer can go out now, in its original order. The channel is
    // per endpoint pair, so every hosted object's queue for it drains.
    for (auto& [id, op] : objects_) {
      ObjectState& o = *op;
      auto it = o.lazy_queues.find(key);
      if (it != o.lazy_queues.end() && !it->second.empty()) {
        auto batches = std::move(it->second);
        o.lazy_queues.erase(it);
        send_coherence(o, {ev.peer}, batches);
      }
    }
  }
}

StoreEngine::FlowDisposition StoreEngine::flow_disposition(
    ObjectState& o, std::uint64_t key) {
  if (!topo_.paused(key)) return FlowDisposition::kSend;
  const auto queued = o.lazy_queues.find(key);
  const std::size_t depth =
      queued == o.lazy_queues.end() ? 0 : queued->second.size();
  GLOBE_CHECK_HOOK(on_parked_batches(&o, config_.store_id, key, depth,
                                     kFlowPausedBatchesLimit));
  if (topo_.park(key, depth)) return FlowDisposition::kPark;
  const Address peer = key_addr(key);
  forget_peer(peer);
  config_.flow->reset_peer(address(), peer);
  if (metrics_ != nullptr) metrics_->record_flow_eviction();
  return FlowDisposition::kSkip;
}

void StoreEngine::forget_peer(const Address& peer) {
  for (auto& [id, op] : objects_) {
    topo_.unsubscribe(op->links, peer);
    op->lazy_queues.erase(addr_key(peer));
  }
  topo_.forget_peer(peer);
}

void StoreEngine::pull_from_upstream(ObjectState& o) {
  if (coherence::multi_master(o.cfg.policy.model)) {
    // Anti-entropy exchange: offer my clock; receive missing records and
    // learn what the upstream is missing so I can push it back.
    AntiEntropyRequest reqmsg;
    reqmsg.have_clock = o.replica.applied_clock();
    reqmsg.have_gseq = o.replica.applied_gseq();
    comm_.request_with(
        o.links.upstream, msg::MsgType::kAntiEntropyRequest, o.cfg.object,
        [&](util::Writer& w) { reqmsg.encode(w); },
        [this, &o](bool ok, const Address& from,
                   const msg::EnvelopeView& env) {
          if (!ok) return;
          AntiEntropyReply rep = AntiEntropyReply::decode(env.body);
          // Push back what the responder is missing: it may never send
          // a request of its own, so only this reaches it once it is
          // behind our compaction horizon.
          const PeerRecords back = o.replica.records_for_peer(
              rep.responder_clock, rep.responder_gseq);
          if (!back.records.empty()) {
            comm_.send_with(from, msg::MsgType::kUpdate, o.cfg.object,
                            [&](util::Writer& w) {
                              UpdateMsg::encode_fields(
                                  w, back.records, o.replica.applied_clock(),
                                  o.replica.applied_gseq());
                            });
          }
          Applier a(*this, o);
          a.finish(
              o.replica.receive(std::move(rep.records), addr_key(from), a));
          if (topo_.may_fold(o.links, from)) {
            o.replica.fold_below_upstream(rep.responder_clock,
                                          rep.responder_gseq);
          }
        });
    return;
  }
  FetchRequest fetch = o.replica.fetch_request();
  fetch.want_full =
      o.cfg.policy.coherence_transfer == CoherenceTransfer::kFull;
  comm_.request_with(o.links.upstream, msg::MsgType::kFetchRequest,
                     o.cfg.object,
                     [&](util::Writer& w) { fetch.encode(w); },
                     [this, &o](bool ok, const Address& from,
                                const msg::EnvelopeView& env) {
                       if (!ok) return;
                       apply_fetch_reply(o, from,
                                         FetchReply::decode_view(env.body));
                     });
}

void StoreEngine::demand_fetch(ObjectState& o,
                               std::vector<std::string> pages) {
  if (o.fetch_in_flight || config_.is_primary) return;
  o.fetch_in_flight = true;
  FetchRequest fetch = o.replica.fetch_request();
  fetch.pages = std::move(pages);
  fetch.want_full =
      o.cfg.policy.coherence_transfer == CoherenceTransfer::kFull ||
      (fetch.pages.empty() &&
       o.cfg.policy.access_transfer == AccessTransfer::kFull &&
       o.cfg.policy.propagation == Propagation::kInvalidate);
  // Demand-updates must survive lossy links (Section 4.2: they are the
  // retransmission mechanism), so the request itself carries a timeout
  // and retries.
  comm_.request_with(o.links.upstream, msg::MsgType::kFetchRequest,
                     o.cfg.object,
                     [&](util::Writer& w) { fetch.encode(w); },
                     [this, &o](bool ok, const Address& from,
                                const msg::EnvelopeView& env) {
                       o.fetch_in_flight = false;
                       if (!ok) {
                         retry_demand_later(o);
                         return;
                       }
                       apply_fetch_reply(o, from,
                                         FetchReply::decode_view(env.body));
                     },
                     sim::SimDuration::millis(250), /*retries=*/4);
}

void StoreEngine::demand_if_outdated(ObjectState& o) {
  if (o.outdated &&
      o.cfg.policy.object_outdate_reaction == OutdateReaction::kDemand) {
    demand_fetch(o);
  }
}

void StoreEngine::retry_demand_later(ObjectState& o) {
  if (o.demand_retry_budget <= 0 || (!o.outdated && o.parked.empty())) {
    return;
  }
  --o.demand_retry_budget;
  sim_.schedule_after(sim::SimDuration::millis(50),
                      [this, &o] { demand_fetch(o); });
}

void StoreEngine::apply_fetch_reply(ObjectState& o, const Address& from,
                                    FetchReply::View reply) {
  if (reply.not_modified) return;
  if (reply.need_snapshot) {
    // Cutover deferred: ship our page summary (or floor) and receive
    // only what we are missing.
    request_snapshot_delta(o);
    return;
  }
  if (reply.state.has_value()) {
    apply_state_transfer(o, *reply.state);
    return;
  }
  o.replica.hear_of(reply.clock, reply.gseq);
  Applier a(*this, o);
  a.finish(o.replica.receive(std::move(reply.records),
                             addr_key(o.links.upstream), a));
  if (topo_.may_fold(o.links, from)) {
    o.replica.fold_below_upstream(reply.clock, reply.gseq);
  }
  note_gaps(o);
  if (o.outdated &&
      o.cfg.policy.object_outdate_reaction == OutdateReaction::kDemand &&
      o.demand_retry_budget > 0) {
    // Our fetch did not close every gap (e.g. the missing record had not
    // yet reached our upstream either): retry shortly.
    --o.demand_retry_budget;
    sim_.schedule_after(sim::SimDuration::millis(25), [this, &o] {
      if (o.outdated) demand_fetch(o);
    });
  }
}

void StoreEngine::subscribe_to_upstream(ObjectState& o) {
  if (!o.links.upstream.valid()) return;
  SubscribeMsg sub;
  sub.subscriber = comm_.local_address();
  // Under dynamic membership the upstream may be crashed or partitioned
  // away; the request then times out and is re-attempted (bounded), so a
  // joining or recovering store eventually bootstraps once the network
  // allows. Without membership the static topology is assumed healthy
  // and the request is untimed (the seed behaviour).
  const bool timed = config_.membership.valid();
  const bool resubscribe = o.ready;
  if (resubscribe) ++resubscribes_;
  // A re-subscriber already holds state (view re-parenting, rejoin after
  // eviction, crash recovery): it ships what it has and receives only the
  // difference, instead of the whole document.
  if (resubscribe) {
    sub.want_delta = true;
    sub.delta_req = o.replica.delta_request(addr_key(o.links.upstream));
  }
  const Address to = o.links.upstream;
  comm_.request_with(
      to, msg::MsgType::kSubscribe, o.cfg.object,
      [&](util::Writer& w) { sub.encode(w); },
      [this, &o, resubscribe, to](bool ok, const Address&,
                                  const msg::EnvelopeView& env) {
        if (!ok) {
          if (o.subscribe_retry_budget > 0 && alive_ && !departed_) {
            --o.subscribe_retry_budget;
            sim_.schedule_after(sim::SimDuration::millis(500), [this, &o] {
              if (alive_ && !departed_) subscribe_to_upstream(o);
            });
          }
          return;
        }
        o.subscribe_retry_budget = 50;
        // A fresh store bootstraps from the ack. A re-subscriber already
        // holds state: the transfer (full or page-granular) merges
        // forward-only, and a resync round closes
        // whatever it could not prove (e.g. multi-master divergence where
        // neither clock dominates).
        apply_state_transfer(o, StateTransfer::decode_view(env.body),
                             /*bootstrap=*/!resubscribe);
        if (resubscribe) {
          resync(o);
        } else if (o.links.upstream != to) {
          // A view re-parented the object while it bootstrapped, and
          // apply_view re-subscribes only a ready object: subscribe where
          // the upstream points now.
          subscribe_to_upstream(o);
        }
      },
      timed ? sim::SimDuration::millis(250) : sim::SimDuration(0),
      timed ? 4 : 0);
}

// ---------------------------------------------------------------------
// Membership & lifecycle
// ---------------------------------------------------------------------

void StoreEngine::start_membership() {
  if (!config_.membership.valid() || departed_) return;
  join_membership();
  membership_timer_.emplace(sim_, config_.membership_heartbeat,
                            [this] { send_membership_heartbeat(); });
  membership_timer_->start();
}

void StoreEngine::fill_applied(membership::MemberAnnounce& ann) const {
  bool first = true;
  for (const auto& [id, op] : objects_) {
    const ObjectReplica& r = op->replica;
    if (first) {
      ann.applied = r.applied_clock();
      ann.applied_gseq = r.applied_gseq();
      first = false;
    } else {
      ann.applied.floor_with(r.applied_clock());
      ann.applied_gseq = std::min(ann.applied_gseq, r.applied_gseq());
    }
  }
  ann.has_applied = !first;
}

void StoreEngine::handle_stability_horizon(const msg::EnvelopeView& env) {
  const membership::HorizonMsg h = membership::HorizonMsg::decode(env.body);
  // The floor only advances. A stale or reordered broadcast is a no-op,
  // so the collectors below run once per actual advance.
  coherence::VectorClock merged = horizon_clock_;
  merged.merge(h.clock);
  bool advanced = false;
  if (!(merged == horizon_clock_)) {
    horizon_clock_ = std::move(merged);
    advanced = true;
  }
  if (h.gseq > horizon_gseq_) {
    horizon_gseq_ = h.gseq;
    advanced = true;
  }
  if (!advanced) return;

  std::uint64_t tombstones = 0;
  for (auto& [id, op] : objects_) {
    const HorizonCollection c =
        op->replica.collect_below(horizon_clock_, horizon_gseq_);
    if (c.records > 0 && metrics_ != nullptr) {
      metrics_->record_log_compaction();
    }
    tombstones += c.tombstones;
  }
  if (metrics_ != nullptr && tombstones > 0) {
    metrics_->record_tombstones_collected(tombstones);
  }
  if (history_ != nullptr) {
    const std::size_t retired =
        history_->note_horizon(horizon_clock_, horizon_gseq_);
    if (metrics_ != nullptr && retired > 0) {
      metrics_->record_events_retired(retired);
    }
  }
}

void StoreEngine::join_membership() {
  membership::MemberAnnounce ann;
  ann.contact = contact();
  ann.shard = config_.shard;
  fill_applied(ann);
  comm_.request_with(
      config_.membership, msg::MsgType::kMembershipJoin,
      config_.membership_scope,
      [&](util::Writer& w) { ann.encode(w); },
      [this](bool ok, const Address&, const msg::EnvelopeView& env) {
        if (!ok) return;  // heartbeats re-admit us once reachable
        follower_.on_view(membership::ViewMsg::decode(env.body).view);
      },
      sim::SimDuration::millis(250), /*retries=*/3);
}

void StoreEngine::send_membership_heartbeat() {
  membership::MemberAnnounce ann;
  ann.contact = contact();
  ann.shard = config_.shard;
  fill_applied(ann);
  comm_.send_with_background(config_.membership,
                             msg::MsgType::kMembershipHeartbeat,
                             config_.membership_scope,
                             [&](util::Writer& w) { ann.encode(w); });
}

void StoreEngine::apply_view(const membership::View& previous,
                             const membership::View& view) {
  const std::vector<Address> departed = topo_.apply_view(previous, view);
  GLOBE_CHECK_HOOK(on_view_adopt(this, "store", config_.store_id, view.epoch));
  GLOBE_CHECK_HOOK(note_owner_context(this, config_.store_id, view.epoch));
  // A departed peer stops receiving fan-out at once, for every object
  // this store hosts: the view covers the whole shard endpoint.
  for (const Address& peer : departed) forget_peer(peer);
  for (auto& [id, op] : objects_) {
    ObjectState& o = *op;
    GLOBE_CHECK_HOOK(note_owner_context(&o, config_.store_id, view.epoch));
    GLOBE_CHECK_HOOK(
        note_owner_context(&o.replica, config_.store_id, view.epoch));
    if (o.cfg.cache_mode == CacheMode::kGlobe &&
        topo_.reparent(o.links, view, address()) && o.ready) {
      subscribe_to_upstream(o);
    }
  }
}

void StoreEngine::resync(ObjectState& o) {
  if (config_.is_primary || !o.ready || !alive_ || departed_) return;
  o.demand_retry_budget = 100;  // re-arm: a re-subscribe is fresh progress
  if (coherence::multi_master(o.cfg.policy.model)) {
    // One anti-entropy exchange heals both directions with the upstream;
    // records received re-propagate to our own subscribers as usual.
    pull_from_upstream(o);
  } else {
    demand_fetch(o);
  }
}

void StoreEngine::crash() {
  if (!alive_) return;
  alive_ = false;
  // Timers and volatile protocol state die with the process; document,
  // write log, clocks survive (a warm disk).
  go_quiet();
  for (auto& [id, op] : objects_) {
    ObjectState& o = *op;
    o.lazy_queues.clear();
    o.fetch_in_flight = false;
    o.unparking = false;
  }
  lazy_dirty_.clear();
  follower_.forget_fetch();
  beacon_expect_.clear();  // re-anchor on every sender after recovery
}

void StoreEngine::recover() {
  if (alive_ || departed_) return;
  alive_ = true;
  for (auto& [id, op] : objects_) {
    op->subscribe_retry_budget = 50;
    op->demand_retry_budget = 100;
  }
  configure_timers();
  start_membership();
  for (auto& [id, op] : objects_) {
    ObjectState& o = *op;
    if (!config_.is_primary && o.cfg.cache_mode == CacheMode::kGlobe) {
      // Bootstrap through the cached-snapshot path; the ready flag is
      // still set from before the crash, so this runs as a re-subscribe
      // (forward-only snapshot merge + resync round).
      subscribe_to_upstream(o);
    }
  }
}

void StoreEngine::leave() {
  if (departed_ || !alive_) return;
  flush_lazy_all();  // drain what we still owe downstream
  if (config_.membership.valid()) {
    membership::LeaveMsg m;
    m.address = address();
    comm_.send_with(config_.membership, msg::MsgType::kMembershipLeave,
                    config_.membership_scope,
                    [&](util::Writer& w) { m.encode(w); });
  }
  departed_ = true;
  go_quiet();
}

void StoreEngine::go_quiet() {
  lazy_timer_.reset();
  pull_timer_.reset();
  heartbeat_timer_.reset();
  membership_timer_.reset();
  for (auto& [id, op] : objects_) {
    op->parked.clear();
    op->pending_write_acks.clear();
  }
}

// ---------------------------------------------------------------------
// Inter-store message handlers
// ---------------------------------------------------------------------

void StoreEngine::handle_update(ObjectState& o, const Address& from,
                                const msg::EnvelopeView& env) {
  UpdateMsg m = UpdateMsg::decode(env.body);
  o.replica.hear_of(m.sender_clock, m.sender_gseq);
  Applier a(*this, o);
  a.finish(o.replica.receive(std::move(m.records), addr_key(from), a));
  if (topo_.may_fold(o.links, from)) {
    o.replica.fold_below_upstream(m.sender_clock, m.sender_gseq);
  }
  note_gaps(o);
  demand_if_outdated(o);
  prune_stale_edge(o, from);
}

void StoreEngine::prune_stale_edge(const ObjectState& o, const Address& from) {
  if (Topology::linked(o.links, from)) return;
  comm_.send_with(from, msg::MsgType::kUnsubscribe, o.cfg.object,
                  [](util::Writer&) {});
}

void StoreEngine::apply_state_transfer(ObjectState& o,
                                       const StateTransfer::View& st,
                                       bool bootstrap) {
  const std::uint64_t upstream = addr_key(o.links.upstream);
  if (!o.replica.adopt(st, bootstrap, upstream)) return;
  topo_.frontier_moved(o.links, o.cfg.object, advertises_clock(o));
  record_snapshot_event(o);
  if (bootstrap) o.ready = true;
  Applier a(*this, o);
  a.finish(o.replica.release(upstream, a));
  // Forward the (new) state downstream in full-transfer mode.
  if (o.cfg.policy.coherence_transfer == CoherenceTransfer::kFull &&
      o.cfg.policy.initiative == TransferInitiative::kPush &&
      !o.links.subscribers.empty()) {
    if (o.cfg.policy.instant == TransferInstant::kLazy) {
      lazy_dirty_.insert(o.cfg.object);
      // Mark each target; the body is the snapshot at flush time.
      for (const Address& t : o.links.subscribers) o.lazy_queues[addr_key(t)];
    } else {
      send_coherence(o, o.links.subscribers, {});
    }
  }
  note_gaps(o);
  unpark_ready(o);
}

void StoreEngine::handle_invalidate(ObjectState& o, const Address& from,
                                    const msg::EnvelopeView& env) {
  InvalidateMsg m = InvalidateMsg::decode(env.body);
  // Same duplicate suppression as handle_notify: excluding the sender
  // stops a two-store cycle, but a longer propagation cycle still loops
  // unless no-news invalidations are dropped. Anything here is news if
  // it invalidates a page that was still valid or advances the frontier.
  bool news = o.replica.invalidate(m.pages);
  news |= o.replica.note_frontier(m.known_clock, m.known_gseq);
  note_gaps(o);
  if (news) {
    // Forward invalidations downstream (re-serialized from the borrowed
    // body; one shared datagram for the whole fan-out).
    auto forward = Topology::downstream(o.links, from);
    comm_.multicast_with({forward.begin(), forward.end()},
                         msg::MsgType::kInvalidate, o.cfg.object,
                         [&](util::Writer& w) { w.raw(env.body); });
  }
  if (o.cfg.policy.object_outdate_reaction == OutdateReaction::kDemand) {
    std::vector<std::string> pages = m.pages;
    if (o.cfg.policy.access_transfer == AccessTransfer::kFull) pages.clear();
    demand_fetch(o, std::move(pages));
  }
  prune_stale_edge(o, from);
}

void StoreEngine::handle_notify(const Address& from,
                                const msg::EnvelopeView& env) {
  if (metrics_ != nullptr) {
    metrics_->record_shard_bytes(config_.shard, env.body.size());
  }
  const NotifyMsg m = NotifyMsg::decode(env.body);
  if (m.want_full) {
    send_full_clock_list(from);
    return;
  }
  const std::uint64_t key = addr_key(from);
  const bool beacon = m.tick != 0 && !m.full;
  if (m.full) {
    // Anchor on the sender's tick sequence. The list covers every tick
    // up to its stamp; a late reply never moves the anchor back.
    std::uint64_t& next = beacon_expect_[key];
    next = std::max(next, m.tick + 1);
  } else if (beacon) {
    auto it = beacon_expect_.find(key);
    if (it != beacon_expect_.end() && it->second == m.tick) {
      ++it->second;
    } else if (it == beacon_expect_.end() || m.tick > it->second) {
      // No anchor, or a tick went missing (a lost beacon, a partition,
      // our own crash): the entries below still count, but only a full
      // list proves nothing else was missed. A tick below the anchor is
      // a late datagram (the full list overtook it on an unordered
      // link): the anchor already covers it.
      if (it != beacon_expect_.end()) beacon_expect_.erase(it);
      ++full_list_requests_;
      NotifyMsg ask;
      ask.want_full = true;
      comm_.send_with_background(from, msg::MsgType::kNotify, kStoreScope,
                                 [&](util::Writer& w) { ask.encode(w); });
    }
  }

  // Forward only news (entries that advance our known frontier), and
  // never back to the sender. An entry that taught us nothing was
  // already propagated when we first learned its frontier, so dropping
  // the duplicate loses no information. Views re-parent only upward, so
  // they cannot wire two stores as each other's upstream, but a store
  // can still hear one frontier twice: from its new parent, and from an
  // old one that missed the re-parent, until this store's kUnsubscribe
  // reaches it (prune_stale_edge).
  std::vector<ObjectState*> hosted;
  std::map<std::uint64_t, std::vector<std::size_t>> news_for;  // entry indexes
  for (std::size_t i = 0; i < m.entries.size(); ++i) {
    const NotifyMsg::Entry& e = m.entries[i];
    ObjectState* o = find_object(e.object);
    if (o == nullptr) continue;  // not hosted (anymore)
    hosted.push_back(o);
    const bool news = o->replica.note_frontier(e.clock, e.gseq);
    note_gaps(*o);
    if (!news) continue;
    for (const Address& to : Topology::downstream(o->links, from)) {
      news_for[addr_key(to)].push_back(i);
    }
  }
  // Peers owed the same news share one unsequenced Notify, sent at once.
  std::map<std::vector<std::size_t>, std::vector<Address>> groups;
  for (auto& [peer, entries] : news_for) {
    groups[std::move(entries)].push_back(key_addr(peer));
  }
  for (const auto& [entries, to] : groups) {
    comm_.multicast_with(to, msg::MsgType::kNotify, kStoreScope,
                         [&](util::Writer& w) {
                           NotifyMsg::encode_head(w, 0, 0, entries.size());
                           for (const std::size_t i : entries) {
                             const NotifyMsg::Entry& e = m.entries[i];
                             NotifyMsg::encode_entry(w, e.object, e.clock,
                                                     e.gseq);
                           }
                         });
  }

  for (ObjectState* o : hosted) {
    demand_if_outdated(*o);
    prune_stale_edge(*o, from);
  }
  if (!beacon) return;
  // The per-tick retry: every object fed by this sender that is still
  // behind demands again (a no-op while its fetch is in flight).
  std::vector<ObjectState*> behind;
  for (const ObjectId id : outdated_) {
    ObjectState& o = obj(id);
    if (o.links.upstream == from &&
        o.cfg.policy.object_outdate_reaction == OutdateReaction::kDemand) {
      behind.push_back(&o);
    }
  }
  for (ObjectState* o : behind) demand_fetch(*o);
}

bool StoreEngine::advertises_clock(const ObjectState& o) {
  return o.cfg.policy.initiative == TransferInitiative::kPush &&
         o.cfg.policy.object_outdate_reaction == OutdateReaction::kDemand &&
         o.cfg.cache_mode == CacheMode::kGlobe;
}

void StoreEngine::encode_clock_list(util::Writer& w, std::uint64_t tick,
                                    std::uint8_t flags,
                                    const std::vector<ObjectId>& objects) const {
  NotifyMsg::encode_head(w, tick, flags, objects.size());
  for (const ObjectId id : objects) {
    const ObjectReplica& r = obj(id).replica;
    NotifyMsg::encode_entry(w, id, r.applied_clock(), r.applied_gseq());
  }
}

void StoreEngine::send_clock_beacons() {
  ++beacon_tick_;
  // Lanes with the same list share one encode (a mirror's caches
  // usually do).
  for (const auto& [moved, to] : topo_.take_beacons()) {
    comm_.multicast_with(to, msg::MsgType::kNotify, kStoreScope,
                         [&](util::Writer& w) {
                           encode_clock_list(w, beacon_tick_, 0, moved);
                         },
                         /*background=*/true);
  }
}

void StoreEngine::send_full_clock_list(const Address& to) {
  comm_.send_with_background(to, msg::MsgType::kNotify, kStoreScope,
                             [&](util::Writer& w) {
                               encode_clock_list(w, beacon_tick_,
                                                 NotifyMsg::kFull,
                                                 topo_.lane(to));
                             });
}

void StoreEngine::handle_fetch_request(ObjectState& o, const Address& from,
                                       const msg::EnvelopeView& env) {
  const FetchReply rep =
      o.replica.answer_fetch(FetchRequest::decode(env.body));
  // A requester behind the log's compaction horizon cuts over to the
  // page-granular round trip; the cutover counter is the compaction
  // policy's cost signal.
  if (rep.need_snapshot && metrics_ != nullptr) {
    metrics_->record_snapshot_cutover();
  }
  comm_.reply_with(from, msg::MsgType::kFetchReply, o.cfg.object,
                   env.request_id, [&](util::Writer& w) { rep.encode(w); });
}

void StoreEngine::handle_subscribe(ObjectState& o, const Address& from,
                                   const msg::EnvelopeView& env) {
  SubscribeMsg m = SubscribeMsg::decode(env.body);
  if (topo_.subscribe(o.links, o.cfg.object, m.subscriber,
                      advertises_clock(o)) &&
      config_.flow != nullptr) {
    // A fresh subscriber's windowed channel restarts clean alongside the
    // state transfer below.
    config_.flow->reset_peer(address(), m.subscriber);
  }
  const StateTransfer st =
      serve_state(o, m.want_delta ? &m.delta_req : nullptr);
  comm_.reply_with(from, msg::MsgType::kSubscribeAck, o.cfg.object,
                   env.request_id, [&](util::Writer& w) { st.encode(w); });
}

void StoreEngine::serve_snapshot_delta(ObjectState& o, const Address& from,
                                       std::uint64_t request_id,
                                       SnapshotDeltaRequest req,
                                       int defer_budget) {
  // Same gating as a client read: a store still bootstrapping must not
  // hand out its (empty or partial) document. Re-attempt once state
  // arrives; the budget bounds the loop if bootstrap never completes.
  if (!o.ready && defer_budget > 0) {
    sim_.schedule_after(
        sim::SimDuration::millis(25),
        [this, &o, from, request_id, req = std::move(req),
         defer_budget]() mutable {
          if (!alive_ || departed_) return;
          serve_snapshot_delta(o, from, request_id, std::move(req),
                               defer_budget - 1);
        });
    return;
  }
  // A document fetch is a read: count a stale serve as the invoke path
  // (make_read_reply) does, so delta-mode clients don't vanish from the
  // staleness accounting.
  if (metrics_ != nullptr && o.outdated) metrics_->record_stale_serve();
  const StateTransfer st = serve_state(o, &req);
  comm_.reply_with(from, msg::MsgType::kSnapshotDeltaReply, o.cfg.object,
                   request_id, [&](util::Writer& w) { st.encode(w); });
}

StateTransfer StoreEngine::serve_state(ObjectState& o,
                                       const SnapshotDeltaRequest* req) {
  web::DeltaStats stats;
  StateTransfer st = o.replica.state_transfer(req, &stats);
  if (metrics_ == nullptr) return st;
  if (st.full) {
    metrics_->record_full_snapshot();
  } else {
    // content_bytes approximates what the full transfer would have
    // cost, without forcing a full encode just for accounting.
    metrics_->record_delta_snapshot(stats.pages_shipped + stats.drops_shipped,
                                    st.delta.size(),
                                    o.replica.document().content_bytes());
  }
  return st;
}

void StoreEngine::request_snapshot_delta(ObjectState& o) {
  if (o.fetch_in_flight || config_.is_primary) return;
  o.fetch_in_flight = true;
  const SnapshotDeltaRequest req =
      o.replica.delta_request(addr_key(o.links.upstream));
  comm_.request_with(
      o.links.upstream, msg::MsgType::kSnapshotDeltaRequest, o.cfg.object,
      [&](util::Writer& w) { req.encode(w); },
      [this, &o](bool ok, const Address&, const msg::EnvelopeView& env) {
        o.fetch_in_flight = false;
        if (!ok) {
          // The cutover that got us here still needs to complete.
          retry_demand_later(o);
          return;
        }
        apply_state_transfer(o, StateTransfer::decode_view(env.body));
        note_gaps(o);
        unpark_ready(o);
      },
      sim::SimDuration::millis(250), /*retries=*/4);
}

void StoreEngine::handle_anti_entropy(ObjectState& o, const Address& from,
                                      const msg::EnvelopeView& env) {
  const AntiEntropyRequest m = AntiEntropyRequest::decode(env.body);
  AntiEntropyReply rep;
  rep.responder_clock = o.replica.applied_clock();
  rep.responder_gseq = o.replica.applied_gseq();
  PeerRecords peer = o.replica.records_for_peer(m.have_clock, m.have_gseq);
  if (peer.cutover && metrics_ != nullptr) metrics_->record_snapshot_cutover();
  rep.records = std::move(peer.records);
  comm_.reply_with(from, msg::MsgType::kAntiEntropyReply, o.cfg.object,
                   env.request_id, [&](util::Writer& w) { rep.encode(w); });
}

util::Buffer store_state_digest(const StoreEngine& s, bool mask_wall_clock) {
  const std::vector<ObjectId> ids = s.object_ids();
  GLOBE_ASSERT_MSG(ids.size() == 1, "digest of a store not hosting one object");
  return store_state_digest(s, ids.front(), mask_wall_clock);
}

util::Buffer store_state_digest(const StoreEngine& s, ObjectId object,
                                bool mask_wall_clock) {
  const WriteLog& log = s.write_log(object);
  util::Writer w;
  if (mask_wall_clock) {
    std::vector<web::WriteRecord> records(log.retained().begin(),
                                          log.retained().end());
    for (web::WriteRecord& rec : records) rec.issued_at_us = 0;
    web::encode_records(w, records);
  } else {
    web::encode_records(w, log.retained());
  }
  w.bytes(util::BytesView(s.document(object).encode_snapshot(mask_wall_clock)));
  w.varint(s.applied_gseq(object));
  s.applied_clock(object).encode(w);
  return w.take();
}

}  // namespace globe::replication
