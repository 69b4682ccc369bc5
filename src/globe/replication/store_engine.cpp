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
using coherence::ObjectModel;

namespace {

[[nodiscard]] std::uint64_t addr_key(const Address& a) {
  return (static_cast<std::uint64_t>(a.node) << 16) | a.port;
}

[[nodiscard]] Address key_addr(std::uint64_t key) {
  Address a;
  a.node = static_cast<NodeId>(key >> 16);
  a.port = static_cast<PortId>(key & 0xFFFF);
  return a;
}

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

StoreEngine::StoreEngine(const TransportFactory& factory, sim::Simulator& sim,
                         StoreConfig config,
                         const std::vector<ObjectConfig>& objects,
                         coherence::History* history,
                         metrics::MetricsSink* metrics)
    : sim_(sim),
      config_(std::move(config)),
      traffic_(metrics),
      comm_(factory, &sim, &traffic_),
      history_(history),
      metrics_(metrics) {
  GLOBE_ASSERT_MSG(
      !config_.membership.valid() || config_.membership_scope != 0,
      "a store with membership needs a membership scope");
  comm_.set_delivery_handler(
      [this](const Address& from, const msg::EnvelopeView& env) {
        on_message(from, env);
      });
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
  // states: a later allocation at the same address starts clean.
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
  auto state = std::make_unique<ObjectState>();
  ObjectState& o = *state;
  o.cfg = cfg;
  objects_.emplace(cfg.object, std::move(state));
  // Trip reports for monitors keyed on this object state carry the
  // store id + view epoch stamp (refreshed on every view adoption).
  GLOBE_CHECK_HOOK(note_owner_context(&o, config_.store_id, view_epoch_));

  o.orderer = enforces_model(o) ? make_orderer(o.cfg.policy.model)
              : o.cfg.policy.model == ObjectModel::kEventual
                  ? make_orderer(ObjectModel::kEventual)
                  : std::make_unique<FifoOrderer>();

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

StoreEngine::ObjectState* StoreEngine::find_object(ObjectId id) {
  auto it = objects_.find(id);
  return it == objects_.end() ? nullptr : it->second.get();
}

const StoreEngine::ObjectState* StoreEngine::find_object(ObjectId id) const {
  auto it = objects_.find(id);
  return it == objects_.end() ? nullptr : it->second.get();
}

StoreEngine::ObjectState& StoreEngine::obj(ObjectId id) {
  ObjectState* o = find_object(id);
  GLOBE_ASSERT_MSG(o != nullptr, "unknown object id");
  return *o;
}

const StoreEngine::ObjectState& StoreEngine::obj(ObjectId id) const {
  const ObjectState* o = find_object(id);
  GLOBE_ASSERT_MSG(o != nullptr, "unknown object id");
  return *o;
}

StoreEngine::ObjectState& StoreEngine::only() {
  GLOBE_ASSERT_MSG(objects_.size() == 1,
                   "one-object accessor on a store not hosting one object");
  return *objects_.begin()->second;
}

const StoreEngine::ObjectState& StoreEngine::only() const {
  GLOBE_ASSERT_MSG(objects_.size() == 1,
                   "one-object accessor on a store not hosting one object");
  return *objects_.begin()->second;
}

const web::WebDocument& StoreEngine::document(ObjectId id) const {
  return obj(id).semantics.document();
}

const coherence::VectorClock& StoreEngine::applied_clock(ObjectId id) const {
  return obj(id).applied_clock;
}

std::uint64_t StoreEngine::applied_gseq(ObjectId id) const {
  return obj(id).applied_gseq;
}

std::size_t StoreEngine::subscriber_count(ObjectId id) const {
  return obj(id).subscribers.size();
}

bool StoreEngine::ready(ObjectId id) const { return obj(id).ready; }

const WriteLog& StoreEngine::write_log(ObjectId id) const {
  return obj(id).log;
}

std::size_t StoreEngine::parked_requests() const {
  std::size_t n = 0;
  for (const auto& [id, o] : objects_) n += o->parked.size();
  return n;
}

std::uint64_t StoreEngine::reads_served() const {
  std::uint64_t n = 0;
  for (const auto& [id, o] : objects_) n += o->reads_served;
  return n;
}

std::uint64_t StoreEngine::writes_applied() const {
  std::uint64_t n = 0;
  for (const auto& [id, o] : objects_) n += o->writes_applied;
  return n;
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
  arm(pull_timer_, need.pull, [this] {
    for (auto& [id, op] : objects_) {
      if (timer_needs(*op).pull.has_value()) pull_from_upstream(*op);
    }
  });
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
  flush_lazy(o);
  o.cfg.policy = policy;
  configure_timers();
  update_beacon_lanes(o);

  // Propagate the strategy change through the object (downstream).
  for (const Subscriber& s : o.subscribers) {
    comm_.send_with(s.address, msg::MsgType::kPolicyUpdate, o.cfg.object,
                    [&](util::Writer& w) { policy.encode(w); });
  }
  return true;
}

void StoreEngine::handle_policy_update(ObjectState& o, const Address& /*from*/,
                                       const msg::EnvelopeView& env) {
  util::Reader r{env.body};
  const auto policy = core::ReplicationPolicy::decode(r);
  update_policy(o, policy);
}

bool StoreEngine::enforces_model(const ObjectState& o) const {
  switch (o.cfg.policy.store_scope) {
    case StoreScope::kPermanent:
      return config_.store_class == naming::StoreClass::kPermanent;
    case StoreScope::kPermanentAndObject:
      return config_.store_class != naming::StoreClass::kClientInitiated;
    case StoreScope::kAll:
      return true;
  }
  return true;
}

bool StoreEngine::multi_master(const ObjectState& o) {
  return o.cfg.policy.model == ObjectModel::kCausal ||
         o.cfg.policy.model == ObjectModel::kEventual;
}

bool StoreEngine::accepts_writes(const ObjectState& o) const {
  if (multi_master(o)) return true;
  return config_.is_primary;
}

void StoreEngine::finalize_propagation() {
  // One synchronous flush/pull so Testbed::settle() can drain in-flight
  // coherence state; the periodic timers keep running (they are
  // background events and never block quiescence on their own).
  if (!alive_ || departed_) return;
  for (auto& [id, op] : objects_) {
    if (timer_needs(*op).pull.has_value()) pull_from_upstream(*op);
  }
  flush_lazy_all();
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
  GLOBE_ASSERT_MSG(config_.is_primary, "seed() is a primary-store operation");
  web::WriteRecord rec;
  rec.wid = coherence::WriteId{0, o.applied_clock.get(0) + 1};
  rec.op = web::WriteOp::kPut;
  rec.page = page;
  rec.content = content;
  rec.mime = mime;
  rec.issued_at_us = sim_.now().count_micros();
  rec.lamport = ++o.lamport;
  std::vector<web::WriteRecord> ready;
  if (o.cfg.policy.model == ObjectModel::kSequential) {
    rec.global_seq = o.next_gseq + 1;
  }
  o.orderer->admit(std::move(rec), ready);
  apply_ready(o, std::move(ready));
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
      handle_view_delta(env);
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
    case msg::MsgType::kAntiEntropyRequest:
      handle_anti_entropy(*o, from, env);
      return;
    case msg::MsgType::kSnapshotDeltaRequest:
      handle_snapshot_delta_request(*o, from, env);
      return;
    case msg::MsgType::kPolicyUpdate:
      handle_policy_update(*o, from, env);
      return;
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
    park(o, from, request_id, std::move(req));
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
      comm_.send(o.cfg.upstream, msg::MsgType::kWriteForward, o.cfg.object,
                 fwd.encode());
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
    comm_.send_with(o.cfg.upstream, msg::MsgType::kWriteForward, o.cfg.object,
                    [&](util::Writer& w) { w.raw(env.body); });
  }
}

// ---------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------

void StoreEngine::accept_write(ObjectState& o, const Address& reply_to,
                               std::uint64_t request_id, ClientRequest req) {
  trace_write_span(obs::SpanKind::kStoreAccept, config_.store_id,
                   o.cfg.object, req.wid, 0);
  web::WriteRecord rec = o.semantics.to_record(req.inv);
  rec.wid = req.wid;
  rec.deps = req.deps;
  rec.ordered = req.ordered;
  rec.issued_at_us = req.issued_at_us;
  o.lamport = std::max(o.lamport, o.applied_clock.total()) + 1;
  rec.lamport = o.lamport;
  if (o.cfg.policy.model == ObjectModel::kSequential) {
    GLOBE_ASSERT_MSG(config_.is_primary,
                     "sequential writes are accepted only at the primary");
    rec.global_seq = o.next_gseq + 1;
  }

  std::vector<web::WriteRecord> ready;
  Admission adm;
  if (rec.ordered && o.cfg.policy.model == ObjectModel::kEventual) {
    // Locally accepted ordered writes advance the SAME monotonic-writes
    // cursor as remote ones (admit_remote): a client that rebinds to
    // another store mid-session leaves a seq gap here, and the filter
    // must know which of its writes this store already carries.
    std::vector<web::WriteRecord> gated;
    adm = mw_gate(o, gated).admit(std::move(rec), gated);
    for (auto& g : gated) {
      if (g.wid == req.wid) rec = g;  // keep the stamped copy for the ack
      o.orderer->admit(std::move(g), ready);
    }
  } else {
    adm = o.orderer->admit(rec, ready);
  }
  switch (adm) {
    case Admission::kApplied:
      apply_ready(o, std::move(ready));
      // record_apply acked if it was registered; ack directly otherwise.
      {
        InvokeReply rep;
        rep.ok = true;
        rep.wid = req.wid;
        rep.global_seq =
            rec.global_seq != 0 ? rec.global_seq : o.applied_gseq;
        rep.store_clock = o.applied_clock;
        rep.store = config_.store_id;
        reply_invoke(o, reply_to, request_id, rep);
      }
      return;
    case Admission::kBuffered:
      // Ack once the record is finally applied.
      o.pending_write_acks[req.wid] = {reply_to, request_id};
      note_gaps(o);
      if (!config_.is_primary &&
          o.cfg.policy.object_outdate_reaction == OutdateReaction::kDemand) {
        demand_fetch(o);
      }
      return;
    case Admission::kDuplicate:
    case Admission::kSuperseded: {
      // Idempotent/ignored writes still succeed from the client's view
      // (FIFO model: "the request is simply ignored").
      InvokeReply rep;
      rep.ok = true;
      rep.wid = req.wid;
      rep.global_seq = o.applied_gseq;
      rep.store_clock = o.applied_clock;
      rep.store = config_.store_id;
      reply_invoke(o, reply_to, request_id, rep);
      return;
    }
  }
}

void StoreEngine::record_snapshot_event(ObjectState& o) {
  if (history_ == nullptr) return;
  coherence::ApplyEvent e;
  e.at = sim_.now();
  e.store = config_.store_id;
  e.deps = o.applied_clock;
  e.global_seq = o.applied_gseq;
  e.from_snapshot = true;
  history_->record_apply(std::move(e));
}

void StoreEngine::record_apply(ObjectState& o, const web::WriteRecord& rec,
                               bool changed) {
  if (history_ != nullptr && changed) {
    coherence::ApplyEvent e;
    e.at = sim_.now();
    e.store = config_.store_id;
    e.wid = rec.wid;
    e.page = history_->intern(rec.page);
    e.deps = rec.deps;
    e.global_seq = rec.global_seq;
    history_->record_apply(std::move(e));
  }
  auto ack = o.pending_write_acks.find(rec.wid);
  if (ack != o.pending_write_acks.end()) {
    InvokeReply rep;
    rep.ok = true;
    rep.wid = rec.wid;
    rep.global_seq = rec.global_seq != 0 ? rec.global_seq : o.applied_gseq;
    rep.store_clock = o.applied_clock;
    rep.store = config_.store_id;
    reply_invoke(o, ack->second.first, ack->second.second, rep);
    o.pending_write_acks.erase(ack);
  }
}

void StoreEngine::apply_ready(ObjectState& o,
                              std::vector<web::WriteRecord> ready) {
  if (ready.empty()) return;
  // The log owns each applied record; `forward` copies only the records
  // some push target other than their origin will receive.
  std::vector<web::WriteRecord> forward;
  bool logged = false;
  for (web::WriteRecord& rec : ready) {
    // The primary stamps the total-order position at apply time for the
    // primary-ordered models (sequential records were stamped earlier).
    if (config_.is_primary && rec.global_seq == 0 && !multi_master(o)) {
      rec.global_seq = o.next_gseq + 1;
    }
    if (rec.global_seq > o.next_gseq) o.next_gseq = rec.global_seq;
    // The ordering authority releases the record into the total order.
    if (config_.is_primary) {
      trace_write_span(obs::SpanKind::kOrder, config_.store_id, o.cfg.object,
                       rec.wid, rec.global_seq);
    }

    // State application. Multi-master models need convergent conflict
    // resolution: last-writer-wins with a Lamport clock. For the causal
    // model the Lamport order refines the causal order (the clock is
    // advanced on every receive), so LWW picks a causally-consistent
    // winner among concurrent writes and every replica converges.
    const bool is_eventual = o.cfg.policy.model == ObjectModel::kEventual;
    const bool is_causal = o.cfg.policy.model == ObjectModel::kCausal;
    bool changed = true;
    if (is_eventual || is_causal) {
      changed = o.semantics.apply_lww(rec);
    } else {
      o.semantics.apply(rec);
    }
    // Deletes must propagate even when the page was already absent.
    changed = changed || rec.op == web::WriteOp::kDelete;
    o.applied_clock.observe(rec.wid);
    advance_gseq(o, rec.global_seq);
    if (rec.ordered) {
      GLOBE_CHECK_HOOK(on_writer_apply(&o, config_.store_id, o.cfg.object,
                                       rec.wid.client, rec.wid.seq));
    }
    o.lamport = std::max(o.lamport, rec.lamport);
    o.invalid_pages.erase(rec.page);

    // Causal records are logged and propagated even when LWW rejected
    // their content: other replicas need their WiDs for dependency
    // coverage. Eventual losers are dropped (the winner suffices).
    if (changed || !is_eventual) {
      const web::WriteRecord& entry = o.log.append(std::move(rec));
      trace_write_span(obs::SpanKind::kApply, config_.store_id, o.cfg.object,
                       entry.wid, entry.global_seq);
      record_apply(o, entry, /*changed=*/true);
      ++o.writes_applied;
      if (metrics_ != nullptr) metrics_->record_shard_write(config_.shard);
      if (pushes_beyond(o, entry.transient_origin)) forward.push_back(entry);
      logged = true;
    } else {
      // Last-writer-wins rejected the record: the state kept a newer
      // version. Ack the writer but record no application.
      record_apply(o, rec, /*changed=*/false);
    }
  }
  o.demand_retry_budget = 100;  // progress: re-arm the retry budget
  mark_frontier_moved(o);
  maybe_compact(o);
  note_gaps(o);
  unpark_ready(o);
  if (logged) propagate(o, forward);
}

void StoreEngine::advance_gseq(ObjectState& o, std::uint64_t gseq) {
  const bool sequential = o.cfg.policy.model == ObjectModel::kSequential;
  if (gseq <= o.applied_gseq || (sequential && gseq != o.applied_gseq + 1)) {
    return;
  }
  o.applied_gseq = gseq;
  GLOBE_CHECK_HOOK(on_gseq_apply(&o, config_.store_id, o.cfg.object,
                                 sequential, o.applied_gseq));
}

void StoreEngine::maybe_compact(ObjectState& o) {
  bool compacted = false;
  const std::size_t threshold = config_.log_compact_threshold;
  if (threshold != 0 && o.log.size() > threshold) {
    // Fold the oldest half into the base clock; requesters behind the
    // horizon fall back to a snapshot cutover (handle_fetch_request /
    // handle_anti_entropy check can_serve()).
    o.log.compact(threshold / 2);
    compacted = true;
  }
  const std::size_t budget = config_.log_compact_bytes;
  if (budget != 0 && o.log.retained_bytes() > budget) {
    // Byte-budget policy: bound the retained payload regardless of
    // record count (a handful of huge pages can dwarf thousands of
    // small ones). Compact down to half the budget to amortize.
    o.log.compact_to_bytes(budget / 2);
    compacted = true;
  }
  if (compacted && metrics_ != nullptr) metrics_->record_log_compaction();
}

void StoreEngine::note_gaps(ObjectState& o) {
  o.outdated = o.orderer->has_gaps() ||
               !o.applied_clock.dominates(o.known_clock) ||
               o.applied_gseq < o.known_gseq;
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
  return o.applied_clock.dominates(req.min_clock) &&
         o.applied_gseq >= req.min_global_seq;
}

bool StoreEngine::needs_page_fetch(const ObjectState& o,
                                   const ClientRequest& req) {
  if (req.inv.method != msg::Method::kGetPage) return false;
  util::Reader args{util::BytesView(req.inv.args)};
  const std::string page = args.str();
  return o.invalid_pages.count(page) > 0;
}

InvokeReply StoreEngine::make_read_reply(ObjectState& o,
                                         const ClientRequest& req) {
  core::InvokeResult res = o.semantics.execute_read(req.inv);
  InvokeReply rep;
  rep.ok = res.ok;
  rep.error = std::move(res.error);
  rep.value = std::move(res.value);
  if (o.cfg.policy.access_transfer == AccessTransfer::kFull &&
      req.inv.method == msg::Method::kGetPage) {
    // Access transfer type "full": the whole document travels with the
    // access (Table 1), regardless of how little the client asked for.
    rep.document = o.semantics.snapshot();
  }
  rep.global_seq = o.applied_gseq;
  rep.store_clock = o.applied_clock;
  rep.store = config_.store_id;
  ++o.reads_served;
  if (metrics_ != nullptr) {
    metrics_->record_shard_read(config_.shard);
    if (o.outdated) metrics_->record_stale_serve();
  }
  return rep;
}

void StoreEngine::serve_read(ObjectState& o, const Address& from,
                             std::uint64_t request_id,
                             const ClientRequest& req) {
  if (o.cfg.cache_mode == CacheMode::kCheckOnRead) {
    serve_read_check_on_read(o, from, request_id, req);
    return;
  }
  if (o.cfg.cache_mode == CacheMode::kTtl) {
    serve_read_ttl(o, from, request_id, req);
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
    park(o, from, request_id, req);
    demand_fetch(o, std::move(pages));
  } else {
    if (metrics_ != nullptr) metrics_->record_session_wait();
    park(o, from, request_id, req);
  }
}

void StoreEngine::park(ObjectState& o, const Address& from,
                       std::uint64_t request_id, ClientRequest req) {
  o.parked.push_back(Parked{from, request_id, std::move(req)});
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

void StoreEngine::serve_read_check_on_read(ObjectState& o, const Address& from,
                                           std::uint64_t request_id,
                                           ClientRequest req) {
  if (req.inv.method != msg::Method::kGetPage) {
    reply_invoke(o, from, request_id, make_read_reply(o, req));
    return;
  }
  util::Reader args{util::BytesView(req.inv.args)};
  const std::string page = args.str();
  const auto current = o.semantics.document().get(page);

  FetchRequest fetch;
  fetch.validate_only = true;
  fetch.pages.push_back(page);
  fetch.have_lamport = current ? current->lamport : 0;
  comm_.request_with(
      o.cfg.upstream, msg::MsgType::kFetchRequest, o.cfg.object,
      [&](util::Writer& w) { fetch.encode(w); },
      [this, &o, from, request_id, req = std::move(req)](
          bool ok, const Address&, const msg::EnvelopeView& env) mutable {
        if (ok) {
          const FetchReply::View rep = FetchReply::decode_view(env.body);
          if (!rep.not_modified) apply_fetched_records(o, rep.records);
        }
        reply_invoke(o, from, request_id, make_read_reply(o, req));
      });
}

void StoreEngine::serve_read_ttl(ObjectState& o, const Address& from,
                                 std::uint64_t request_id, ClientRequest req) {
  if (req.inv.method != msg::Method::kGetPage) {
    reply_invoke(o, from, request_id, make_read_reply(o, req));
    return;
  }
  util::Reader args{util::BytesView(req.inv.args)};
  const std::string page = args.str();
  const auto it = o.fetched_at.find(page);
  const bool fresh = o.semantics.document().has(page) &&
                     it != o.fetched_at.end() &&
                     sim_.now() - it->second < o.cfg.ttl;
  if (fresh) {
    reply_invoke(o, from, request_id, make_read_reply(o, req));
    return;
  }
  FetchRequest fetch;
  fetch.validate_only = true;  // "give me the latest copy of this page"
  fetch.pages.push_back(page);
  fetch.have_lamport = 0;
  comm_.request_with(
      o.cfg.upstream, msg::MsgType::kFetchRequest, o.cfg.object,
      [&](util::Writer& w) { fetch.encode(w); },
      [this, &o, from, request_id, page,
       req = std::move(req)](bool ok, const Address&,
                             const msg::EnvelopeView& env) mutable {
        if (ok) {
          apply_fetched_records(o, FetchReply::decode_view(env.body).records);
          o.fetched_at[page] = sim_.now();  // also stamps a missing page
        }
        reply_invoke(o, from, request_id, make_read_reply(o, req));
      });
}

void StoreEngine::apply_fetched_records(
    ObjectState& o, const std::vector<web::WriteRecord>& recs) {
  for (const web::WriteRecord& rec : recs) {
    o.semantics.apply(rec);
    o.applied_clock.observe(rec.wid);
    advance_gseq(o, rec.global_seq);
    o.fetched_at[rec.page] = sim_.now();
  }
}

// ---------------------------------------------------------------------
// Propagation
// ---------------------------------------------------------------------

bool StoreEngine::pushes_upstream(const ObjectState& o) const {
  return multi_master(o) && !config_.is_primary;
}

bool StoreEngine::pushes_beyond(const ObjectState& o,
                                std::uint64_t origin) const {
  if (o.cfg.policy.initiative == TransferInitiative::kPull) return false;
  for (const Subscriber& s : o.subscribers) {
    if (addr_key(s.address) != origin) return true;
  }
  return pushes_upstream(o) && addr_key(o.cfg.upstream) != origin;
}

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
    if (pushes_beyond(o, recs[i].transient_origin)) {
      batches.push_back(std::make_shared<const web::RecordBatch>(
          std::span(recs).subspan(i, j - i), recs[i].transient_origin,
          needs));
    }
    i = j;
  }
  if (batches.empty()) return;
  std::vector<Address> targets;
  targets.reserve(o.subscribers.size() + 1);
  for (const Subscriber& s : o.subscribers) targets.push_back(s.address);
  if (pushes_upstream(o)) targets.push_back(o.cfg.upstream);

  // Immediate pushes group destinations whose batch set is identical
  // (the common case: everyone but the record's origin receives
  // everything) so each group can travel as ONE shared wire datagram.
  const bool lazy = o.cfg.policy.instant == TransferInstant::kLazy;
  std::vector<std::pair<std::vector<web::RecordBatchPtr>, std::vector<Address>>>
      groups;
  for (const Address& t : targets) {
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
      o.lazy_dirty = true;
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
    m.known_clock = o.applied_clock;
    m.known_gseq = o.applied_gseq;
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
                             UpdateMsg::encode_batches(w, batches,
                                                       o.applied_clock,
                                                       o.applied_gseq);
                           });
      return;
    }
    case CoherenceTransfer::kFull: {
      const StateTransfer st = full_state(o);
      comm_.multicast_with(to, msg::MsgType::kSnapshot, o.cfg.object,
                           [&](util::Writer& w) { st.encode(w); });
      return;
    }
  }
}

void StoreEngine::flush_lazy_all() {
  for (auto& [id, op] : objects_) flush_lazy(*op);
}

void StoreEngine::flush_lazy(ObjectState& o) {
  service_flow_events();
  if (!o.lazy_dirty) return;
  o.lazy_dirty = false;
  auto queues = std::move(o.lazy_queues);
  o.lazy_queues.clear();
  // Notification and full transfers carry no per-record data: a queued
  // target with an empty batch list still gets its (aggregated) message.
  const bool data_free =
      o.cfg.policy.propagation == Propagation::kUpdate &&
      o.cfg.policy.coherence_transfer != CoherenceTransfer::kPartial;
  for (auto& [key, batches] : queues) {
    if (paused_peers_.count(key) != 0) {
      // Still under transport backpressure: keep the segment parked
      // (resume or the deadline in flow_disposition settles it later).
      auto& back = o.lazy_queues[key];
      back.insert(back.end(), std::make_move_iterator(batches.begin()),
                  std::make_move_iterator(batches.end()));
      o.lazy_dirty = true;
      continue;
    }
    if (batches.empty() && !data_free) continue;
    send_coherence(o, {key_addr(key)}, batches);
  }
}

bool StoreEngine::service_flow_events() {
  if (config_.flow == nullptr) return false;
  bool dropped = false;
  for (const net::FlowControl::Event& ev :
       config_.flow->poll_events(address())) {
    const std::uint64_t key = addr_key(ev.peer);
    switch (ev.what) {
      case net::FlowControl::PeerEvent::kPaused:
        paused_peers_.insert(key);
        if (metrics_ != nullptr) metrics_->record_flow_pause();
        break;
      case net::FlowControl::PeerEvent::kResumed: {
        paused_peers_.erase(key);
        paused_rounds_.erase(key);
        if (metrics_ != nullptr) metrics_->record_flow_resume();
        // The channel drained below its low watermark: everything parked
        // for this peer can go out now, in its original order. The
        // channel is per endpoint pair, so every hosted object's queue
        // for it drains.
        for (auto& [id, op] : objects_) {
          ObjectState& o = *op;
          auto it = o.lazy_queues.find(key);
          if (it != o.lazy_queues.end() && !it->second.empty()) {
            auto batches = std::move(it->second);
            o.lazy_queues.erase(it);
            send_coherence(o, {ev.peer}, batches);
          }
        }
        break;
      }
      case net::FlowControl::PeerEvent::kEvicted:
        drop_flow_peer(key);
        if (metrics_ != nullptr) metrics_->record_flow_eviction();
        dropped = true;
        break;
    }
  }
  return dropped;
}

StoreEngine::FlowDisposition StoreEngine::flow_disposition(
    ObjectState& o, std::uint64_t key) {
  if (paused_peers_.count(key) == 0) return FlowDisposition::kSend;
  const std::size_t rounds = ++paused_rounds_[key];
  const auto queued = o.lazy_queues.find(key);
  const std::size_t depth =
      queued == o.lazy_queues.end() ? 0 : queued->second.size();
  GLOBE_CHECK_HOOK(on_parked_batches(&o, config_.store_id, key, depth,
                                     kFlowPausedBatchesLimit));
  const bool hopeless = (config_.flow_paused_rounds_limit != 0 &&
                         rounds > config_.flow_paused_rounds_limit) ||
                        depth >= kFlowPausedBatchesLimit;
  if (hopeless) {
    drop_flow_peer(key);
    if (metrics_ != nullptr) metrics_->record_flow_eviction();
    return FlowDisposition::kSkip;
  }
  return FlowDisposition::kPark;
}

void StoreEngine::drop_flow_peer(std::uint64_t key) {
  const Address peer = key_addr(key);
  for (auto& [id, op] : objects_) {
    std::erase_if(op->subscribers,
                  [&](const Subscriber& s) { return s.address == peer; });
    op->lazy_queues.erase(key);
  }
  beacon_lanes_.erase(key);
  paused_peers_.erase(key);
  paused_rounds_.erase(key);
  if (config_.flow != nullptr) config_.flow->reset_peer(address(), peer);
}

void StoreEngine::pull_from_upstream(ObjectState& o) {
  if (multi_master(o)) {
    // Anti-entropy exchange: offer my clock; receive missing records and
    // learn what the upstream is missing so I can push it back.
    AntiEntropyRequest reqmsg;
    reqmsg.have_clock = o.applied_clock;
    reqmsg.have_gseq = o.applied_gseq;
    comm_.request_with(
        o.cfg.upstream, msg::MsgType::kAntiEntropyRequest, o.cfg.object,
        [&](util::Writer& w) { reqmsg.encode(w); },
        [this, &o](bool ok, const Address& from,
                   const msg::EnvelopeView& env) {
          if (!ok) return;
          AntiEntropyReply rep = AntiEntropyReply::decode(env.body);
          // Push back records the responder is missing — an indexed
          // delta, not a log scan. If the responder is behind *our*
          // compaction horizon, a delta can no longer reach it (and it
          // may never request from us): push the current state as
          // records instead. State-records LWW-merge commutatively at
          // the peer, which converges even when both sides compacted
          // past each other (a restore-snapshot would apply in neither
          // direction there).
          std::vector<web::WriteRecord> for_peer =
              o.log.can_serve(rep.responder_clock, rep.responder_gseq)
                  ? o.log.records_since(rep.responder_clock,
                                        rep.responder_gseq)
                  : state_as_records(o);
          if (!for_peer.empty()) {
            comm_.send_with(from, msg::MsgType::kUpdate, o.cfg.object,
                            [&](util::Writer& w) {
                              UpdateMsg::encode_fields(w, for_peer,
                                                       o.applied_clock,
                                                       o.applied_gseq);
                            });
          }
          std::vector<web::WriteRecord> ready;
          admit_remote(o, std::move(rep.records), addr_key(from), ready);
          apply_ready(o, std::move(ready));
        });
    return;
  }
  FetchRequest fetch;
  fetch.have_clock = o.applied_clock;
  fetch.have_gseq = fetch_gseq_floor(o);
  GLOBE_CHECK_HOOK(on_fetch_floor(
      &o, config_.store_id, o.cfg.object,
      o.cfg.policy.model == ObjectModel::kSequential, fetch.have_gseq));
  fetch.want_full =
      o.cfg.policy.coherence_transfer == CoherenceTransfer::kFull;
  comm_.request_with(o.cfg.upstream, msg::MsgType::kFetchRequest,
                     o.cfg.object,
                     [&](util::Writer& w) { fetch.encode(w); },
                     [this, &o](bool ok, const Address&,
                                const msg::EnvelopeView& env) {
                       if (!ok) return;
                       apply_fetch_reply(o, FetchReply::decode_view(env.body));
                     });
}

void StoreEngine::demand_fetch(ObjectState& o,
                               std::vector<std::string> pages) {
  if (o.fetch_in_flight || config_.is_primary) return;
  o.fetch_in_flight = true;
  FetchRequest fetch;
  fetch.have_clock = o.applied_clock;
  fetch.have_gseq = fetch_gseq_floor(o);
  GLOBE_CHECK_HOOK(on_fetch_floor(
      &o, config_.store_id, o.cfg.object,
      o.cfg.policy.model == ObjectModel::kSequential, fetch.have_gseq));
  fetch.pages = std::move(pages);
  fetch.want_full =
      o.cfg.policy.coherence_transfer == CoherenceTransfer::kFull ||
      (fetch.pages.empty() &&
       o.cfg.policy.access_transfer == AccessTransfer::kFull &&
       o.cfg.policy.propagation == Propagation::kInvalidate);
  // Demand-updates must survive lossy links (Section 4.2: they are the
  // retransmission mechanism), so the request itself carries a timeout
  // and retries.
  comm_.request_with(o.cfg.upstream, msg::MsgType::kFetchRequest,
                     o.cfg.object,
                     [&](util::Writer& w) { fetch.encode(w); },
                     [this, &o](bool ok, const Address&,
                                const msg::EnvelopeView& env) {
                       o.fetch_in_flight = false;
                       if (!ok) {
                         if (o.demand_retry_budget > 0 &&
                             (o.outdated || !o.parked.empty())) {
                           --o.demand_retry_budget;
                           sim_.schedule_after(sim::SimDuration::millis(50),
                                               [this, &o] { demand_fetch(o); });
                         }
                         return;
                       }
                       apply_fetch_reply(o, FetchReply::decode_view(env.body));
                     },
                     sim::SimDuration::millis(250), /*retries=*/4);
}

void StoreEngine::apply_fetch_reply(ObjectState& o, FetchReply::View reply) {
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
  std::vector<web::WriteRecord> ready;
  admit_remote(o, std::move(reply.records), addr_key(o.cfg.upstream), ready);
  o.known_clock.merge(reply.clock);
  o.known_gseq = std::max(o.known_gseq, reply.gseq);
  apply_ready(o, std::move(ready));
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
  if (!o.cfg.upstream.valid()) return;
  SubscribeMsg sub;
  sub.subscriber = comm_.local_address();
  sub.store_id = config_.store_id;
  sub.store_class = static_cast<std::uint8_t>(config_.store_class);
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
    sub.delta_req = make_delta_request(o, o.cfg.upstream);
  }
  comm_.request_with(
      o.cfg.upstream, msg::MsgType::kSubscribe, o.cfg.object,
      [&](util::Writer& w) { sub.encode(w); },
      [this, &o, resubscribe](bool ok, const Address&,
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
        if (resubscribe) resync(o);
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
    if (first) {
      ann.applied = op->applied_clock;
      ann.applied_gseq = op->applied_gseq;
      first = false;
    } else {
      ann.applied.floor_with(op->applied_clock);
      ann.applied_gseq = std::min(ann.applied_gseq, op->applied_gseq);
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
    ObjectState& o = *op;
    if (o.log.compact_below(horizon_clock_, horizon_gseq_) > 0 &&
        metrics_ != nullptr) {
      metrics_->record_log_compaction();
    }
    tombstones +=
        o.semantics.document().collect_tombstones(horizon_clock_);
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
        apply_view(membership::ViewMsg::decode(env.body).view);
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

void StoreEngine::apply_view(const membership::View& view) {
  if (view.object != config_.membership_scope ||
      view.shard != config_.shard || view.epoch <= view_epoch_) {
    return;
  }
  // A member that stayed in the view sees every epoch in sequence
  // (reliable FIFO delivery); a jump means WE missed view changes —
  // evicted during a partition and just re-admitted, most likely — so
  // our upstream may have dropped us as a subscriber.
  const bool jumped = view_epoch_ != 0 && view.epoch > view_epoch_ + 1;
  view_epoch_ = view.epoch;
  GLOBE_CHECK_HOOK(on_view_adopt(this, "store", config_.store_id, view.epoch));
  GLOBE_CHECK_HOOK(note_owner_context(this, config_.store_id, view.epoch));
  // The bindings are unused when the hook compiles out (unchecked builds).
  for ([[maybe_unused]] auto& [id, op] : objects_) {
    GLOBE_CHECK_HOOK(note_owner_context(op.get(), config_.store_id,
                                        view.epoch));
  }
  view_ = view;  // the base the next ViewDelta diff applies onto

  // Members of the PREVIOUS view that the new view lacks have left the
  // replica set (eviction, crash, graceful leave): they stop receiving
  // fan-out immediately — for every object this store hosts, since the
  // view covers the whole shard endpoint, not one object. Subscribers
  // absent from both views are kept — a just-joined store can subscribe
  // before the view catches up, and stores running without membership
  // still subscribe the static way.
  const auto left = [&](const Address& a) {
    if (view.contains(a)) return false;
    for (const Address& m : last_view_members_) {
      if (m == a) return true;
    }
    return false;
  };
  for (auto& [id, op] : objects_) {
    ObjectState& o = *op;
    std::erase_if(o.subscribers,
                  [&](const Subscriber& s) { return left(s.address); });
    for (auto it = o.lazy_queues.begin(); it != o.lazy_queues.end();) {
      it = left(key_addr(it->first)) ? o.lazy_queues.erase(it)
                                     : std::next(it);
    }
  }
  for (auto it = beacon_lanes_.begin(); it != beacon_lanes_.end();) {
    it = left(key_addr(it->first)) ? beacon_lanes_.erase(it) : std::next(it);
  }
  for (auto it = paused_peers_.begin(); it != paused_peers_.end();) {
    it = left(key_addr(*it)) ? paused_peers_.erase(it) : std::next(it);
  }
  for (auto it = paused_rounds_.begin(); it != paused_rounds_.end();) {
    it = left(key_addr(it->first)) ? paused_rounds_.erase(it) : std::next(it);
  }
  last_view_members_.clear();
  for (const auto& m : view.members) last_view_members_.push_back(m.address);

  for (auto& [id, op] : objects_) {
    ObjectState& o = *op;
    if (config_.is_primary || o.cfg.cache_mode != CacheMode::kGlobe) {
      continue;
    }
    bool need_resubscribe = jumped;
    if (!view.contains(o.cfg.upstream)) {
      // Our propagation parent left the view (crash, leave, eviction):
      // re-parent onto the best surviving member.
      const naming::ContactPoint* next =
          membership::choose_upstream(view, address());
      if (next != nullptr) {
        o.cfg.upstream = next->address;
        need_resubscribe = true;
      }
    }
    if (need_resubscribe && o.ready) {
      subscribe_to_upstream(o);
    } else if (jumped) {
      resync(o);
    }
  }
}

void StoreEngine::handle_view_delta(const msg::EnvelopeView& env) {
  const membership::ViewDelta d = membership::ViewDelta::decode(env.body);
  if (d.object != config_.membership_scope || d.shard != config_.shard ||
      d.epoch <= view_epoch_) {
    return;
  }
  membership::View next;
  if (d.try_apply(view_, view_epoch_, &next)) {
    apply_view(next);
    return;
  }
  // Epoch gap (we missed deltas — evicted during a partition, or the
  // datagram was lost): re-anchor on the full view. apply_view then sees
  // the jump and resyncs.
  fetch_full_view();
}

void StoreEngine::fetch_full_view() {
  if (!config_.membership.valid() || view_fetch_in_flight_) return;
  // One fetch at a time: a churn burst delivers several gapped deltas
  // inside one round trip, and each would otherwise trigger its own
  // full-view request — the amplification deltas exist to avoid.
  view_fetch_in_flight_ = true;
  membership::ViewFetchMsg req;
  req.shard = config_.shard;
  comm_.request_with(
      config_.membership, msg::MsgType::kViewFetchRequest,
      config_.membership_scope,
      [&](util::Writer& w) { req.encode(w); },
      [this](bool ok, const Address&, const msg::EnvelopeView& env) {
        view_fetch_in_flight_ = false;
        if (!ok) return;  // the next broadcast (or heartbeat) retries
        apply_view(membership::ViewMsg::decode(env.body).view);
      },
      sim::SimDuration::millis(250), /*retries=*/2);
}

void StoreEngine::resync(ObjectState& o) {
  if (config_.is_primary || !o.ready || !alive_ || departed_) return;
  o.demand_retry_budget = 100;  // re-arm: a view event is fresh progress
  if (multi_master(o)) {
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
  lazy_timer_.reset();
  pull_timer_.reset();
  heartbeat_timer_.reset();
  membership_timer_.reset();
  for (auto& [id, op] : objects_) {
    ObjectState& o = *op;
    o.parked.clear();
    o.pending_write_acks.clear();
    o.lazy_queues.clear();
    o.lazy_dirty = false;
    o.fetch_in_flight = false;
    o.unparking = false;
  }
  view_fetch_in_flight_ = false;
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

Orderer& StoreEngine::mw_gate(ObjectState& o,
                              std::vector<web::WriteRecord>& unwedged) {
  if (o.mw_filter == nullptr) {
    o.mw_filter = std::make_unique<PramOrderer>();
    // Seed the per-writer cursors with what this store already carries
    // (bootstrap snapshots included): a fresh filter starting at zero
    // would buffer the first ordered record forever, waiting for
    // predecessors a snapshot covered and nobody will resend.
    std::vector<web::WriteRecord> none;
    o.mw_filter->reset_to(o.applied_clock, o.applied_gseq, none);
  }
  // The cursors must never trail the applied clock afterwards either:
  // an ordered writer's record can reach the document AROUND the gate —
  // a snapshot-cutover state record carries no `ordered` bit, so it is
  // admitted ungated — and peers never resend writes our clock already
  // covers. A cursor stuck behind the clock would then buffer every
  // later record of that writer forever (a permanent post-partition
  // wedge: the gap it waits on is already applied). Records the sync
  // unwedges surface through `unwedged` and must be admitted onward.
  o.mw_filter->reset_to(o.applied_clock, o.applied_gseq, unwedged);
  return *o.mw_filter;
}

void StoreEngine::admit_remote(ObjectState& o,
                               std::vector<web::WriteRecord> recs,
                               std::uint64_t origin_key,
                               std::vector<web::WriteRecord>& ready) {
  for (auto& rec : recs) {
    rec.transient_origin = origin_key;
    if (rec.ordered && o.cfg.policy.model == ObjectModel::kEventual) {
      // Monotonic-writes clients need per-writer order even under
      // eventual coherence; gate through a PRAM filter first. EVERY
      // remote ingestion path (push update, anti-entropy reply, fetch
      // reply) must share this gate: if one path bypassed it, the
      // filter's per-writer cursor would never advance for records that
      // arrived the other way, and later ordered records would buffer
      // forever (a permanent post-partition wedge).
      std::vector<web::WriteRecord> gated;
      mw_gate(o, gated).admit(std::move(rec), gated);
      for (auto& g : gated) o.orderer->admit(std::move(g), ready);
    } else {
      o.orderer->admit(std::move(rec), ready);
    }
  }
}

void StoreEngine::handle_update(ObjectState& o, const Address& from,
                                const msg::EnvelopeView& env) {
  UpdateMsg m = UpdateMsg::decode(env.body);
  o.known_clock.merge(m.sender_clock);
  o.known_gseq = std::max(o.known_gseq, m.sender_gseq);

  std::vector<web::WriteRecord> ready;
  admit_remote(o, std::move(m.records), addr_key(from), ready);
  apply_ready(o, std::move(ready));
  note_gaps(o);
  if (o.outdated &&
      o.cfg.policy.object_outdate_reaction == OutdateReaction::kDemand &&
      !config_.is_primary) {
    demand_fetch(o);
  }
}

void StoreEngine::apply_state_transfer(ObjectState& o,
                                       const StateTransfer::View& st,
                                       bool bootstrap) {
  // Only move forward: a transfer that proves nothing new is skipped
  // (the resync round closes the rest).
  const bool newer = st.clock.dominates(o.applied_clock) &&
                     (st.clock != o.applied_clock || st.gseq > o.applied_gseq);
  if (!bootstrap && !newer && !(st.gseq > o.applied_gseq)) return;
  // A page delta yields the same document as restoring the sender's
  // full snapshot.
  st.adopt_into(o.semantics.document());
  // Lineage must snapshot the document version BEFORE the released
  // records below flush into the document: after that we no longer
  // byte-mirror the sender and a later floor request would wrongly claim
  // we do.
  note_transfer_lineage(o, st.source, st.version);
  o.applied_clock.merge(st.clock);
  o.applied_gseq = std::max(o.applied_gseq, st.gseq);
  mark_frontier_moved(o);
  GLOBE_CHECK_HOOK(
      on_state_adoption(&o, config_.store_id, o.cfg.object, o.applied_gseq));
  if (!bootstrap) {
    // A bootstrap keeps its heard-of frontier, so the first Notify
    // carrying it is still news and reaches stores that subscribed below
    // this one while it had no state; and it keeps invalidations that
    // overtook the subscribe ack.
    o.known_clock.merge(st.clock);
    o.known_gseq = std::max(o.known_gseq, st.gseq);
    o.invalid_pages.clear();
  }
  // The records the transfer covered were never appended to our log:
  // requesters below this horizon must get a snapshot cutover from us,
  // never a delta with a hole in it.
  o.log.note_snapshot(st.clock, st.gseq,
                      o.cfg.policy.model == ObjectModel::kSequential);
  record_snapshot_event(o);
  if (bootstrap) o.ready = true;
  std::vector<web::WriteRecord> ready;
  o.orderer->reset_to(o.applied_clock, o.applied_gseq, ready);
  if (o.mw_filter != nullptr) {
    // The monotonic-writes cursor moves with the transfer too, or
    // records above its horizon would wait forever for records it
    // already covers.
    std::vector<web::WriteRecord> gated;
    o.mw_filter->reset_to(o.applied_clock, o.applied_gseq, gated);
    for (auto& g : gated) o.orderer->admit(std::move(g), ready);
  }
  for (auto& rec : ready) rec.transient_origin = addr_key(o.cfg.upstream);
  apply_ready(o, std::move(ready));
  // Forward the (new) state downstream in full-transfer mode.
  if (o.cfg.policy.coherence_transfer == CoherenceTransfer::kFull &&
      o.cfg.policy.initiative == TransferInitiative::kPush &&
      !o.subscribers.empty()) {
    if (o.cfg.policy.instant == TransferInstant::kLazy) {
      o.lazy_dirty = true;
      for (const Subscriber& s : o.subscribers) {
        o.lazy_queues[addr_key(s.address)];  // mark target; body is snapshot
      }
    } else {
      std::vector<Address> targets;
      targets.reserve(o.subscribers.size());
      for (const Subscriber& s : o.subscribers) targets.push_back(s.address);
      send_coherence(o, targets, {});
    }
  }
  note_gaps(o);
  unpark_ready(o);
}

void StoreEngine::note_transfer_lineage(ObjectState& o, StoreId source,
                                        std::uint64_t version) {
  o.snap_source = source;
  o.snap_source_addr = o.cfg.upstream;
  o.snap_source_version = version;
  o.snap_doc_version = o.semantics.document().version();
}

void StoreEngine::handle_invalidate(ObjectState& o, const Address& from,
                                    const msg::EnvelopeView& env) {
  InvalidateMsg m = InvalidateMsg::decode(env.body);
  // Same duplicate suppression as handle_notify: excluding the sender
  // stops a two-store cycle, but a longer propagation cycle still loops
  // unless no-news invalidations are dropped. Anything here is news if
  // it invalidates a page that was still valid or advances the frontier.
  bool news = false;
  for (const auto& p : m.pages) news |= o.invalid_pages.insert(p).second;
  news |= note_frontier(o, m.known_clock, m.known_gseq);
  if (news) {
    // Forward invalidations downstream (re-serialized from the borrowed
    // body; one shared datagram for the whole fan-out).
    std::vector<Address> forward;
    for (const Subscriber& s : o.subscribers) {
      if (s.address != from) forward.push_back(s.address);
    }
    comm_.multicast_with(forward, msg::MsgType::kInvalidate, o.cfg.object,
                         [&](util::Writer& w) { w.raw(env.body); });
  }
  if (o.cfg.policy.object_outdate_reaction == OutdateReaction::kDemand) {
    std::vector<std::string> pages = m.pages;
    if (o.cfg.policy.access_transfer == AccessTransfer::kFull) pages.clear();
    demand_fetch(o, std::move(pages));
  }
}

bool StoreEngine::note_frontier(ObjectState& o,
                                const coherence::VectorClock& clock,
                                std::uint64_t gseq) {
  const bool news =
      gseq > o.known_gseq || !o.known_clock.dominates(clock);
  o.known_clock.merge(clock);
  o.known_gseq = std::max(o.known_gseq, gseq);
  note_gaps(o);
  return news;
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
  // never back to the sender. View-driven re-parenting can transiently
  // wire two mirrors as each other's subscriber; an unconditional
  // re-broadcast then circulates the same frontier around that cycle
  // forever, each hop re-amplifying it into its whole fan-out. An entry
  // that taught us nothing was already propagated when we first learned
  // its frontier, so dropping the duplicate loses no information.
  std::vector<ObjectState*> hosted;
  std::map<std::uint64_t, std::vector<std::size_t>> news_for;  // entry indexes
  for (std::size_t i = 0; i < m.entries.size(); ++i) {
    const NotifyMsg::Entry& e = m.entries[i];
    ObjectState* o = find_object(e.object);
    if (o == nullptr) continue;  // not hosted (anymore)
    hosted.push_back(o);
    if (!note_frontier(*o, e.clock, e.gseq)) continue;
    for (const Subscriber& s : o->subscribers) {
      if (s.address != from) news_for[addr_key(s.address)].push_back(i);
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
    if (o->outdated &&
        o->cfg.policy.object_outdate_reaction == OutdateReaction::kDemand) {
      demand_fetch(*o);
    }
  }
  if (!beacon) return;
  // The per-tick retry: every object fed by this sender that is still
  // behind demands again (a no-op while its fetch is in flight).
  std::vector<ObjectState*> behind;
  for (const ObjectId id : outdated_) {
    ObjectState& o = obj(id);
    if (o.cfg.upstream == from &&
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

void StoreEngine::mark_frontier_moved(ObjectState& o) {
  if (!o.subscribers.empty() && advertises_clock(o)) {
    beacon_dirty_.insert(o.cfg.object);
  }
}

void StoreEngine::update_beacon_lanes(ObjectState& o) {
  const bool on = advertises_clock(o);
  // A subscriber already anchored on this lane learns the object's
  // current frontier from the next beacon, not when it next moves.
  if (on) mark_frontier_moved(o);
  for (const Subscriber& s : o.subscribers) {
    const std::uint64_t key = addr_key(s.address);
    if (on) {
      beacon_lanes_[key].insert(o.cfg.object);
      continue;
    }
    auto lane = beacon_lanes_.find(key);
    if (lane == beacon_lanes_.end()) continue;
    lane->second.erase(o.cfg.object);
    if (lane->second.empty()) beacon_lanes_.erase(lane);
  }
}

void StoreEngine::encode_clock_list(util::Writer& w, std::uint64_t tick,
                                    std::uint8_t flags,
                                    const std::vector<ObjectId>& objects) const {
  NotifyMsg::encode_head(w, tick, flags, objects.size());
  for (const ObjectId id : objects) {
    const ObjectState& o = obj(id);
    NotifyMsg::encode_entry(w, id, o.applied_clock, o.applied_gseq);
  }
}

void StoreEngine::send_clock_beacons() {
  ++beacon_tick_;
  // Each lane lists the moved objects it subscribes to; lanes with the
  // same list share one encode (a mirror's caches usually do).
  std::map<std::vector<ObjectId>, std::vector<Address>> groups;
  for (const auto& [peer, objects] : beacon_lanes_) {
    std::vector<ObjectId> moved;
    for (const ObjectId id : beacon_dirty_) {
      if (objects.count(id) != 0) moved.push_back(id);
    }
    groups[std::move(moved)].push_back(key_addr(peer));
  }
  beacon_dirty_.clear();
  for (const auto& [moved, to] : groups) {
    comm_.multicast_with(to, msg::MsgType::kNotify, kStoreScope,
                         [&](util::Writer& w) {
                           encode_clock_list(w, beacon_tick_, 0, moved);
                         },
                         /*background=*/true);
  }
}

void StoreEngine::send_full_clock_list(const Address& to) {
  std::vector<ObjectId> objects;
  const auto lane = beacon_lanes_.find(addr_key(to));
  if (lane != beacon_lanes_.end()) {
    objects.assign(lane->second.begin(), lane->second.end());
  }
  comm_.send_with_background(to, msg::MsgType::kNotify, kStoreScope,
                             [&](util::Writer& w) {
                               encode_clock_list(w, beacon_tick_,
                                                 NotifyMsg::kFull, objects);
                             });
}

std::vector<web::WriteRecord> StoreEngine::state_as_records(
    const ObjectState& o) {
  // The whole document expressed as one LWW state record per page (the
  // page's last writer, total-order position, and Lamport stamp travel
  // with it). Used when a peer is behind the log's compaction horizon:
  // unlike a restore-snapshot, these merge commutatively through the
  // peer's orderer. Pages deleted before compaction travel as delete
  // records reconstructed from the document's tombstones, so a peer
  // still holding the stale page drops it instead of resurrecting it —
  // this closes the tombstone-less LWW caveat (docs/perf.md).
  const web::WebDocument& doc = o.semantics.document();
  std::vector<web::WriteRecord> out;
  const auto pages = doc.page_names();
  out.reserve(pages.size() + doc.tombstones().size());
  for (const auto& page : pages) out.push_back(record_for_page(o, page));
  for (const auto& [page, t] : doc.tombstones()) {
    if (!t.writer.valid()) continue;  // deletion of unknown identity
    web::WriteRecord rec;
    rec.op = web::WriteOp::kDelete;
    rec.page = page;
    rec.wid = t.writer;
    rec.lamport = t.lamport;
    rec.global_seq = t.global_seq;
    rec.issued_at_us = t.deleted_at_us;
    out.push_back(std::move(rec));
  }
  return out;
}

web::WriteRecord StoreEngine::record_for_page(const ObjectState& o,
                                              const std::string& page) {
  const auto p = o.semantics.document().get(page);
  web::WriteRecord rec;
  rec.page = page;
  if (!p) {
    rec.op = web::WriteOp::kDelete;
    return rec;
  }
  rec.op = web::WriteOp::kPut;
  rec.content = p->content;
  rec.mime = p->mime;
  rec.wid = p->last_writer;
  rec.global_seq = p->global_seq;
  rec.lamport = p->lamport;
  rec.issued_at_us = p->updated_at_us;
  return rec;
}

void StoreEngine::handle_fetch_request(ObjectState& o, const Address& from,
                                       const msg::EnvelopeView& env) {
  FetchRequest m = FetchRequest::decode(env.body);
  FetchReply rep;
  rep.clock = o.applied_clock;
  rep.gseq = o.applied_gseq;

  if (m.validate_only) {
    GLOBE_ASSERT_MSG(!m.pages.empty(), "validate requires a page");
    const auto p = o.semantics.document().get(m.pages.front());
    if (p && m.have_lamport != 0 && p->lamport == m.have_lamport) {
      rep.not_modified = true;
    } else if (p) {
      rep.records.push_back(record_for_page(o, m.pages.front()));
    }
    // Page absent: empty records; the cache serves not-found.
  } else if (m.want_full) {
    // The policy's full coherence transfer: routine traffic, counted
    // neither as a cutover nor as a full snapshot.
    rep.state = full_state(o);
  } else if (!o.log.can_serve(m.have_clock, m.have_gseq,
                              o.cfg.policy.model ==
                                  ObjectModel::kSequential)) {
    // Behind the log's compaction horizon, a delta can no longer be
    // computed: defer the cutover to the page-granular round trip. The
    // cutover counter is the compaction policy's cost signal.
    if (metrics_ != nullptr) metrics_->record_snapshot_cutover();
    rep.need_snapshot = true;
  } else {
    rep.records = o.log.records_since(m.have_clock, m.have_gseq, m.pages);
  }
  comm_.reply_with(from, msg::MsgType::kFetchReply, o.cfg.object,
                   env.request_id, [&](util::Writer& w) { rep.encode(w); });
}

void StoreEngine::handle_subscribe(ObjectState& o, const Address& from,
                                   const msg::EnvelopeView& env) {
  SubscribeMsg m = SubscribeMsg::decode(env.body);
  auto it = std::find_if(o.subscribers.begin(), o.subscribers.end(),
                         [&](const Subscriber& s) {
                           return s.address == m.subscriber;
                         });
  if (advertises_clock(o)) {
    beacon_lanes_[addr_key(m.subscriber)].insert(o.cfg.object);
  }
  if (it == o.subscribers.end()) {
    o.subscribers.push_back(Subscriber{m.subscriber, m.store_id});
    if (config_.flow != nullptr) {
      // Fresh subscription: clear any stale backpressure verdict (the
      // subscriber may be re-joining after an eviction) so its windowed
      // channel restarts clean alongside the state transfer below.
      config_.flow->reset_peer(address(), m.subscriber);
      const std::uint64_t key = addr_key(m.subscriber);
      paused_peers_.erase(key);
      paused_rounds_.erase(key);
    }
  }
  const StateTransfer st =
      make_state_transfer(o, m.want_delta ? &m.delta_req : nullptr);
  comm_.reply_with(from, msg::MsgType::kSubscribeAck, o.cfg.object,
                   env.request_id, [&](util::Writer& w) { st.encode(w); });
}

void StoreEngine::handle_snapshot_delta_request(ObjectState& o,
                                                const Address& from,
                                                const msg::EnvelopeView& env) {
  serve_snapshot_delta(o, from, env.request_id,
                       SnapshotDeltaRequest::decode(env.body),
                       /*defer_budget=*/100);
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
  // A document fetch is a read: keep the serving counters in step with
  // the invoke path (make_read_reply) so delta-mode clients don't
  // vanish from the read/staleness accounting.
  ++o.reads_served;
  if (metrics_ != nullptr && o.outdated) metrics_->record_stale_serve();
  const StateTransfer st = make_state_transfer(o, &req);
  comm_.reply_with(from, msg::MsgType::kSnapshotDeltaReply, o.cfg.object,
                   request_id, [&](util::Writer& w) { st.encode(w); });
}

SnapshotDeltaRequest StoreEngine::make_delta_request(const ObjectState& o,
                                                     const Address& target) {
  SnapshotDeltaRequest req;
  const web::WebDocument& doc = o.semantics.document();
  if (o.snap_source != kInvalidStore && target == o.snap_source_addr &&
      doc.version() == o.snap_doc_version) {
    // The document has not mutated since the last transfer from this
    // lineage: a bare version floor replaces the page summary.
    req.mode = SnapshotDeltaRequest::Mode::kFloor;
    req.floor_source = o.snap_source;
    req.floor_version = o.snap_source_version;
  } else {
    req.mode = SnapshotDeltaRequest::Mode::kSummary;
    req.have = doc.summarize();
  }
  return req;
}

StateTransfer StoreEngine::full_state(const ObjectState& o) const {
  StateTransfer st;
  st.snapshot = o.semantics.snapshot();
  st.clock = o.applied_clock;
  st.gseq = o.applied_gseq;
  st.source = config_.store_id;
  st.version = o.semantics.document().version();
  return st;
}

StateTransfer StoreEngine::make_state_transfer(
    ObjectState& o, const SnapshotDeltaRequest* req) {
  const web::WebDocument& doc = o.semantics.document();
  bool serve_delta = req != nullptr;
  if (serve_delta && req->mode == SnapshotDeltaRequest::Mode::kFloor &&
      (req->floor_source != config_.store_id ||
       !doc.can_delta_since(req->floor_version))) {
    // The floor names another lineage or predates the tombstone
    // horizon: which deletions the requester missed can no longer be
    // proven — fall back to the full snapshot, mirroring the
    // note_snapshot horizon rule.
    serve_delta = false;
  }
  if (req != nullptr && req->mode == SnapshotDeltaRequest::Mode::kFloor) {
    GLOBE_CHECK_HOOK(on_delta_serve(&o, config_.store_id, o.cfg.object,
                                    req->floor_version,
                                    doc.tombstone_horizon(), doc.version(),
                                    /*refused=*/!serve_delta));
  }
  if (!serve_delta) {
    if (metrics_ != nullptr) metrics_->record_full_snapshot();
    return full_state(o);
  }
  StateTransfer st;
  st.full = false;
  st.clock = o.applied_clock;
  st.gseq = o.applied_gseq;
  st.source = config_.store_id;
  st.version = doc.version();
  web::DeltaStats stats;
  st.delta = req->mode == SnapshotDeltaRequest::Mode::kFloor
                 ? doc.encode_delta_since(req->floor_version, &stats)
                 : doc.encode_delta(req->have, &stats);
  if (metrics_ != nullptr) {
    // content_bytes approximates what the full transfer would have
    // cost, without forcing a full encode just for accounting.
    metrics_->record_delta_snapshot(stats.pages_shipped + stats.drops_shipped,
                                    st.delta.size(), doc.content_bytes());
  }
  return st;
}

void StoreEngine::request_snapshot_delta(ObjectState& o) {
  if (o.fetch_in_flight || config_.is_primary) return;
  o.fetch_in_flight = true;
  const SnapshotDeltaRequest req = make_delta_request(o, o.cfg.upstream);
  comm_.request_with(
      o.cfg.upstream, msg::MsgType::kSnapshotDeltaRequest, o.cfg.object,
      [&](util::Writer& w) { req.encode(w); },
      [this, &o](bool ok, const Address&, const msg::EnvelopeView& env) {
        o.fetch_in_flight = false;
        if (!ok) {
          // Same retry discipline as demand_fetch: the cutover that got
          // us here still needs to complete.
          if (o.demand_retry_budget > 0 && (o.outdated || !o.parked.empty())) {
            --o.demand_retry_budget;
            sim_.schedule_after(sim::SimDuration::millis(50),
                                [this, &o] { demand_fetch(o); });
          }
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
  AntiEntropyRequest m = AntiEntropyRequest::decode(env.body);
  AntiEntropyReply rep;
  rep.responder_clock = o.applied_clock;
  rep.responder_gseq = o.applied_gseq;
  // Anti-entropy runs under multi-master models, whose gseq floors are
  // not contiguous — only clock domination proves the peer is past the
  // compaction horizon (can_serve's gseq shortcut stays off). The
  // records_since gseq filter below is safe because multi-master
  // records are never sequenced (global_seq == 0); it only bites for
  // totally-ordered records the peer genuinely holds.
  if (!o.log.can_serve(m.have_clock, m.have_gseq)) {
    // Peer is behind the compaction horizon: send the current state as
    // records. They merge through the peer's normal orderer/LWW path,
    // which converges even when both peers compacted past each other —
    // a restore-snapshot would apply in neither direction there.
    if (metrics_ != nullptr) metrics_->record_snapshot_cutover();
    rep.records = state_as_records(o);
  } else {
    // Indexed delta honoring the peer's total-order floor — gossip no
    // longer resends totally-ordered records the peer already holds.
    rep.records = o.log.records_since(m.have_clock, m.have_gseq);
  }
  comm_.reply_with(from, msg::MsgType::kAntiEntropyReply, o.cfg.object,
                   env.request_id, [&](util::Writer& w) { rep.encode(w); });
}

namespace {
util::Buffer digest_from(const WriteLog& log,
                         const web::WebDocument& doc, std::uint64_t gseq,
                         const coherence::VectorClock& clock,
                         bool mask_wall_clock) {
  util::Writer w;
  if (mask_wall_clock) {
    std::vector<web::WriteRecord> records(log.retained().begin(),
                                          log.retained().end());
    for (web::WriteRecord& rec : records) rec.issued_at_us = 0;
    web::encode_records(w, records);
  } else {
    web::encode_records(w, log.retained());
  }
  w.bytes(util::BytesView(doc.encode_snapshot(mask_wall_clock)));
  w.varint(gseq);
  clock.encode(w);
  return w.take();
}
}  // namespace

util::Buffer store_state_digest(const StoreEngine& s, bool mask_wall_clock) {
  return digest_from(s.write_log(), s.document(), s.applied_gseq(),
                     s.applied_clock(), mask_wall_clock);
}

util::Buffer store_state_digest(const StoreEngine& s, ObjectId object,
                                bool mask_wall_clock) {
  return digest_from(s.write_log(object), s.document(object),
                     s.applied_gseq(object), s.applied_clock(object),
                     mask_wall_clock);
}

}  // namespace globe::replication
