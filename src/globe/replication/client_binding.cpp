#include "globe/replication/client_binding.hpp"

#include "globe/check/monitor.hpp"
#include "globe/obs/trace.hpp"
#include "globe/util/assert.hpp"

namespace globe::replication {

using coherence::ObjectModel;

ClientBinding::ClientBinding(const TransportFactory& factory,
                             sim::Simulator& sim, BindOptions options,
                             coherence::History* history,
                             metrics::MetricsSink* metrics)
    : sim_(sim),
      options_(std::move(options)),
      history_(history),
      metrics_(metrics),
      follower_(options_.membership, options_.object, 0,
                [this](const auto&, const auto& view) {
                  on_view_change(view);
                }),
      comm_(&sim, metrics) {
  // A binding that watches the object's replica view receives the
  // membership service's pushes, every epoch as a ViewDelta diff, and
  // follows them; it re-resolves its stores when one of them leaves the
  // view.
  core::CommunicationObject::DeliveryHandler on_view;
  if (options_.membership.valid()) {
    on_view = [this](const Address&, const msg::EnvelopeView& env) {
      if (env.type == msg::MsgType::kViewDelta) {
        follower_.on_delta(membership::ViewDelta::decode(env.body), comm_);
      }
    };
  }
  comm_.open(factory, std::move(on_view));
  GLOBE_ASSERT_MSG(options_.read_store.valid() || options_.placement.valid(),
                   "bind requires a read store or a placement server");
  // The default session holds the static addresses from here on
  // (possibly invalid; placement resolution then fills them on first
  // use).
  Session& def = session(options_.object);
  def.read_store = options_.read_store;
  def.write_store = options_.write_store.valid() ? options_.write_store
                                                 : options_.read_store;
  if (options_.placement.valid()) {
    placement_ = std::make_unique<placement::PlacementCache>(
        factory, &sim, options_.placement);
    placement_->start();
  }
  if (options_.membership.valid()) announce_watch(/*subscribe=*/true);
}

ClientBinding::Session& ClientBinding::session(ObjectId object) {
  auto it = sessions_.find(object);
  if (it == sessions_.end()) {
    auto s = std::make_unique<Session>();
    s->object = object;
    it = sessions_.emplace(object, std::move(s)).first;
  }
  return *it->second;
}

void ClientBinding::resolve(Session& s, std::function<void()> then) {
  if (placement_ == nullptr) {
    then();
    return;
  }
  if (s.read_store.valid() && placement_->fresh() &&
      s.resolved_version == placement_->version()) {
    then();
    return;
  }
  placement_->ensure([this, &s, then = std::move(then)](bool ok) {
    if (ok) apply_resolution(s);
    then();
  });
}

void ClientBinding::apply_resolution(Session& s) {
  const auto res = placement_->resolve(s.object);
  if (!res.has_value() || res->contacts.empty()) return;
  s.resolved_version = res->version;
  const naming::ContactPoint* read = naming::choose_read_contact(
      res->contacts, kPreferredReadLayer,
      naming::contact_spread(s.object, options_.client));
  const naming::ContactPoint* write = naming::choose_write_contact(
      res->contacts, coherence::multi_master(options_.object_model), read);
  const Address old_read = s.read_store;
  const Address old_write = s.write_store;
  if (read != nullptr) s.read_store = read->address;
  if (write != nullptr) s.write_store = write->address;
  if (old_read.valid() &&
      (s.read_store != old_read || s.write_store != old_write)) {
    // A layout-epoch (or contact-table) change moved this session onto
    // different stores; the session filter keeps its state, so the
    // guarantees travel to the new store and park there until it
    // catches up.
    ++rebinds_;
    if (metrics_ != nullptr) metrics_->record_shard_rebind(res->shard);
  }
}

ClientBinding::~ClientBinding() {
  // Best-effort: take this endpoint off the service's watcher list so
  // long-lived deployments do not broadcast views to dead clients.
  if (options_.membership.valid()) announce_watch(/*subscribe=*/false);
  for (auto& [id, s] : sessions_) check::release(s.get());
  check::release(this);
}

void ClientBinding::announce_watch(bool subscribe) {
  membership::WatchMsg watch;
  watch.watcher = comm_.local_address();
  watch.subscribe = subscribe;
  comm_.send_with(options_.membership, msg::MsgType::kMembershipWatch,
                  options_.object,
                  [&](util::Writer& w) { watch.encode(w); });
}

void ClientBinding::on_operation_failed(Session& s) {
  // A timed-out operation is churn evidence. The watch registration is
  // a one-shot datagram, so a loss (or a service that was unreachable
  // at bind time) would otherwise silently disable rebinding forever —
  // re-announce it whenever the session observes a failure.
  if (options_.membership.valid()) announce_watch(/*subscribe=*/true);
  // A placement-routed session re-resolves on its next operation: the
  // shard's contacts may have moved under us.
  if (placement_ != nullptr) s.resolved_version = 0;
}

void ClientBinding::on_view_change(const membership::View& view) {
  GLOBE_CHECK_HOOK(
      on_view_adopt(this, "client", options_.client, view.epoch));
  if (view.members.empty()) return;
  Session& s = default_session();
  if (!view.contains(s.read_store)) {
    // The store serving our reads is gone from the view: re-bind onto a
    // surviving store of the preferred layer. The session filter keeps
    // its state, so monotonic-reads / read-your-writes requirements
    // travel to the new store and park there until it catches up.
    const naming::ContactPoint* read = naming::choose_read_contact(
        view.members, kPreferredReadLayer,
        naming::contact_spread(options_.object, options_.client));
    if (read != nullptr) {
      s.read_store = read->address;
      ++rebinds_;
    }
  }
  if (!view.contains(s.write_store)) {
    const bool multi_master = coherence::multi_master(options_.object_model);
    const naming::ContactPoint* write = naming::choose_write_contact(
        view.members, multi_master, view.find(s.read_store));
    if (write != nullptr) {
      s.write_store = write->address;
      ++rebinds_;
    } else if (multi_master) {
      s.write_store = s.read_store;
      ++rebinds_;
    }
  }
}

bool ClientBinding::wants(ClientModel m) const {
  if (!coherence::has(options_.session, m)) return false;
  return !coherence::subsumes(options_.object_model, m);
}

void ClientBinding::read(ObjectId object, const std::string& page,
                         ReadHandler cb) {
  Session& s = session(object);
  resolve(s, [this, &s, page, cb = std::move(cb)]() mutable {
    read_impl(s, page, std::move(cb));
  });
}

void ClientBinding::read_impl(Session& s, const std::string& page,
                              ReadHandler cb) {
  if (options_.object_model == ObjectModel::kSequential &&
      s.pending_writes > 0) {
    // Program order: the read's floor must cover the in-flight writes;
    // defer it until their total-order positions are known.
    s.deferred_reads.push_back(
        [this, &s, page, cb = std::move(cb)]() mutable {
          read_impl(s, page, std::move(cb));
        });
    return;
  }
  if (s.read_inflight) {
    // A session is a serial construct: the monotonic-reads floor of the
    // NEXT read must include what this one observes, so overlapping
    // reads of one session would race their own guarantee. Reads queue
    // behind the in-flight read (writes serialize separately).
    s.queued_reads.push_back([this, &s, page, cb = std::move(cb)]() mutable {
      read_impl(s, page, std::move(cb));
    });
    return;
  }
  s.read_inflight = true;
  const std::uint64_t op_index = ++op_index_;
  ClientRequest req;
  req.inv = msg::Invocation::get_page(page);

  // Session requirements the serving store must satisfy before replying.
  if (wants(ClientModel::kReadYourWrites) && s.write_seq > 0) {
    req.min_clock.advance(options_.client, s.write_seq);
  }
  if (wants(ClientModel::kMonotonicReads)) {
    req.min_clock.merge(s.read_set);
  }
  if (options_.object_model == ObjectModel::kSequential) {
    req.min_global_seq = s.max_gseq_seen;
  }

  const util::SimTime issued = sim_.now();
  comm_.request_with(
      s.read_store, msg::MsgType::kInvokeRequest, s.object,
      [&](util::Writer& w) { req.encode(w); },
      [this, &s, cb = std::move(cb), page, issued, op_index](
          bool ok, const Address&, const msg::EnvelopeView& env) {
        ReadResult res;
        res.issued_at = issued;
        res.completed_at = sim_.now();
        if (!ok) {
          res.error = "request timed out";
          on_operation_failed(s);
          cb(std::move(res));
          next_queued_read(s);
          return;
        }
        InvokeReply::View rep = InvokeReply::decode_view(env.body);
        res.ok = rep.ok;
        res.error = std::move(rep.error);
        res.store = rep.store;
        res.store_global_seq = rep.global_seq;
        res.store_clock = rep.store_clock;
        if (!rep.ok && res.error == "unknown object" &&
            placement_ != nullptr) {
          // The store no longer hosts this object (rebalance moved it):
          // drop the resolution so the next operation re-resolves
          // through a fresh layout.
          placement_->invalidate();
          s.resolved_version = 0;
        }
        if (rep.ok && !rep.document.empty()) {
          // Access transfer full: the page travels only inside the
          // document, which must hold it.
          std::optional<web::Page> p =
              web::WebDocument::find_in_snapshot(rep.document, page);
          if (!p.has_value()) {
            throw util::CodecError("read reply's document lacks the page");
          }
          res.content = std::move(p->content);
          res.mime = std::move(p->mime);
          res.writer = p->last_writer;
        } else if (rep.ok) {
          util::Reader r{rep.value};
          core::PageReadValue v = core::PageReadValue::decode(r);
          res.content = std::move(v.content);
          res.mime = std::move(v.mime);
          res.writer = v.writer;
        }
        // Update session state from what this read observed.
        s.read_set.merge(rep.store_clock);
        if (rep.global_seq > s.max_gseq_seen) s.max_gseq_seen = rep.global_seq;
        GLOBE_CHECK_HOOK(on_session_floors(&s, options_.client, s.object,
                                           s.write_seq, s.read_set.total(),
                                           s.max_gseq_seen));

        if (history_ != nullptr) {
          coherence::ReadEvent e;
          e.at = res.completed_at;
          e.client_op_index = op_index;
          e.client = options_.client;
          e.store = rep.store;
          e.page = history_->intern(page);
          e.store_global_seq = rep.global_seq;
          history_->record_read(e, rep.store_clock);
        }
        if (metrics_ != nullptr) {
          metrics_->record_read_latency_us(
              static_cast<double>((res.completed_at - issued).count_micros()));
        }
        cb(std::move(res));
        next_queued_read(s);
      },
      options_.timeout, options_.retries);
}

void ClientBinding::next_queued_read(Session& s) {
  s.read_inflight = false;
  if (s.queued_reads.empty()) return;
  auto next = std::move(s.queued_reads.front());
  s.queued_reads.erase(s.queued_reads.begin());
  next();
}

void ClientBinding::send_write(Session& s, msg::Invocation inv,
                               WriteHandler cb) {
  const std::uint64_t op_index = ++op_index_;
  ClientRequest req;
  req.inv = std::move(inv);
  req.wid = coherence::WriteId{options_.client, ++s.write_seq};
  req.issued_at_us = sim_.now().count_micros();
  ++s.pending_writes;

  // Dependencies the stores must order this write after.
  if (options_.object_model == ObjectModel::kCausal) {
    req.deps = s.read_set;
    req.deps.advance(options_.client, s.write_seq - 1);
    req.deps.set(options_.client,
                 s.write_seq - 1);  // own previous write, exactly
  } else if (wants(ClientModel::kWritesFollowReads)) {
    req.deps = s.read_set;
  }
  req.ordered = wants(ClientModel::kMonotonicWrites);

  // One write on the wire at a time. Timed-out requests retransmit, and
  // an old write's retransmission must never overtake a newer write of
  // the same session (it would invert the client's program order at the
  // accepting store); serializing the sends preserves per-writer order
  // through any combination of loss, retry, and partition.
  if (s.write_inflight) {
    s.queued_writes.push_back([this, &s, req = std::move(req), op_index,
                               cb = std::move(cb)]() mutable {
      transmit_write(s, std::move(req), op_index, std::move(cb));
    });
    return;
  }
  s.write_inflight = true;
  transmit_write(s, std::move(req), op_index, std::move(cb));
}

void ClientBinding::transmit_write(Session& s, ClientRequest req,
                                   std::uint64_t op_index, WriteHandler cb) {
  const util::SimTime issued = util::SimTime(req.issued_at_us);
  const coherence::WriteId wid = req.wid;
  const std::string page = [&] {
    util::Reader r{util::BytesView(req.inv.args)};
    return r.str();
  }();

  // Trace root: the client.write span. Its context rides the request
  // envelope (the store's wire.deliver/accept spans chain to it); the
  // span itself is emitted at completion, when the duration is known.
  obs::TraceContext trace_ctx;
  std::int64_t trace_start_us = 0;
  {
    obs::Tracer& tracer = obs::Tracer::instance();
    if (tracer.enabled()) {
      const std::uint64_t trace = obs::trace_of(options_.client, wid.seq);
      if (tracer.sampled(trace)) {
        trace_ctx = obs::TraceContext{trace, tracer.new_span_id()};
        trace_start_us = tracer.now_us();
      }
    }
  }
  const obs::ContextScope trace_scope(trace_ctx);

  comm_.request_with(
      s.write_store, msg::MsgType::kInvokeRequest, s.object,
      [&](util::Writer& w) { req.encode(w); },
      [this, &s, cb = std::move(cb), issued, op_index, wid, page,
       trace_ctx, trace_start_us](bool ok, const Address&,
                                  const msg::EnvelopeView& env) {
        WriteResult res;
        res.issued_at = issued;
        res.completed_at = sim_.now();
        res.wid = wid;
        --s.pending_writes;
        if (trace_ctx.valid() && obs::tracing_enabled()) {
          obs::Tracer& tracer = obs::Tracer::instance();
          const std::int64_t end_us = tracer.now_us();
          obs::Span root;
          root.kind = obs::SpanKind::kClientWrite;
          root.trace_id = trace_ctx.trace_id;
          root.span_id = trace_ctx.span_id;
          root.ts_us = trace_start_us;
          root.dur_us = end_us - trace_start_us;
          root.actor = options_.client;
          root.object = s.object;
          if (!ok) root.set_label("timeout");
          tracer.emit(root);
          if (ok) {
            // Instant ack span, parented to the reply's wire.deliver
            // span (the comm layer installed it around this callback).
            obs::Span ack;
            ack.kind = obs::SpanKind::kAck;
            ack.trace_id = trace_ctx.trace_id;
            const obs::TraceContext cur = obs::current_context();
            ack.parent_id = cur.trace_id == trace_ctx.trace_id
                                ? cur.span_id
                                : trace_ctx.span_id;
            ack.ts_us = end_us;
            ack.actor = options_.client;
            ack.object = s.object;
            tracer.emit(ack);
          }
        }
        if (!ok) {
          res.error = "request timed out";
          on_operation_failed(s);
          cb(std::move(res));
          next_queued_write(s);
          flush_deferred_reads(s);
          return;
        }
        InvokeReply::View rep = InvokeReply::decode_view(env.body);
        res.ok = rep.ok;
        res.error = std::move(rep.error);
        res.global_seq = rep.global_seq;
        res.store = rep.store;
        if (!rep.ok && res.error == "unknown object" &&
            placement_ != nullptr) {
          placement_->invalidate();
          s.resolved_version = 0;
        }
        if (rep.global_seq > s.max_gseq_seen) s.max_gseq_seen = rep.global_seq;
        // A client sees its own writes: fold them into the read set used
        // for causal dependencies of later operations.
        s.read_set.observe(wid);
        GLOBE_CHECK_HOOK(on_session_floors(&s, options_.client, s.object,
                                           s.write_seq, s.read_set.total(),
                                           s.max_gseq_seen));

        if (history_ != nullptr) {
          coherence::WriteEvent e;
          e.at = res.completed_at;
          e.client_op_index = op_index;
          e.client = options_.client;
          e.wid = wid;
          e.page = history_->intern(page);
          e.global_seq = rep.global_seq;
          history_->record_write(e);
        }
        if (metrics_ != nullptr) {
          metrics_->record_write_latency_us(
              static_cast<double>((res.completed_at - issued).count_micros()));
        }
        cb(std::move(res));
        next_queued_write(s);
        flush_deferred_reads(s);
      },
      options_.timeout, options_.retries);
}

void ClientBinding::next_queued_write(Session& s) {
  if (s.queued_writes.empty()) {
    s.write_inflight = false;
    return;
  }
  auto next = std::move(s.queued_writes.front());
  s.queued_writes.erase(s.queued_writes.begin());
  next();
}

void ClientBinding::flush_deferred_reads(Session& s) {
  if (s.pending_writes > 0 || s.deferred_reads.empty()) return;
  auto pending = std::move(s.deferred_reads);
  s.deferred_reads.clear();
  for (auto& fn : pending) fn();
}

void ClientBinding::write(ObjectId object, const std::string& page,
                          const std::string& content, WriteHandler cb,
                          const std::string& mime) {
  Session& s = session(object);
  resolve(s, [this, &s, page, content, mime, cb = std::move(cb)]() mutable {
    send_write(s, msg::Invocation::put_page(page, content, mime),
               std::move(cb));
  });
}

void ClientBinding::remove(ObjectId object, const std::string& page,
                           WriteHandler cb) {
  Session& s = session(object);
  resolve(s, [this, &s, page, cb = std::move(cb)]() mutable {
    send_write(s, msg::Invocation::delete_page(page), std::move(cb));
  });
}

void ClientBinding::get_document(ObjectId object, DocumentHandler cb) {
  Session& s = session(object);
  resolve(s, [this, &s, cb = std::move(cb)]() mutable {
    get_document_delta(s, std::move(cb));
  });
}

void ClientBinding::get_document_delta(Session& s, DocumentHandler cb) {
  // Fetch-miss restore through the delta-snapshot path: ship the cached
  // document's page summary (or a bare floor while the cache mirrors the
  // bound store's lineage) and receive only the pages that changed.
  SnapshotDeltaRequest req;
  if (s.doc_source != kInvalidStore && s.doc_source_addr == s.read_store) {
    // The cache is only ever mutated by these transfers, so while the
    // binding is unchanged the last version is an exact floor.
    req.mode = SnapshotDeltaRequest::Mode::kFloor;
    req.floor_source = s.doc_source;
    req.floor_version = s.doc_source_version;
  } else {
    req.mode = SnapshotDeltaRequest::Mode::kSummary;
    req.have = s.doc_cache.summarize();
  }
  comm_.request_with(
      s.read_store, msg::MsgType::kSnapshotDeltaRequest, s.object,
      [&](util::Writer& w) { req.encode(w); },
      [this, &s, cb = std::move(cb)](bool ok, const Address&,
                                     const msg::EnvelopeView& env) {
        DocumentResult res;
        if (!ok) {
          res.error = "request timed out";
          on_operation_failed(s);
          cb(std::move(res));
          return;
        }
        const StateTransfer::View st = StateTransfer::decode_view(env.body);
        st.adopt_into(s.doc_cache);
        s.doc_source = st.source;
        s.doc_source_addr = s.read_store;
        s.doc_source_version = st.version;
        s.read_set.merge(st.clock);
        res.ok = true;
        res.store = st.source;
        res.document = s.doc_cache;
        cb(std::move(res));
      },
      options_.timeout, options_.retries);
}

}  // namespace globe::replication
