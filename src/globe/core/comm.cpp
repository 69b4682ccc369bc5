#include "globe/core/comm.hpp"

#include "globe/util/assert.hpp"
#include "globe/util/log.hpp"

namespace globe::core {

CommunicationObject::CommunicationObject(sim::Simulator* sim,
                                         metrics::MetricsSink* metrics)
    : sim_(sim), metrics_(metrics) {}

void CommunicationObject::open(const TransportFactory& factory,
                               DeliveryHandler handler) {
  GLOBE_ASSERT_MSG(transport_ == nullptr, "communication object opened twice");
  deliver_ = std::move(handler);
  binding_.store(true);
  std::unique_ptr<net::Transport> transport =
      factory([this](const Address& from, util::BytesView payload) {
        on_message(from, payload);
      });
  GLOBE_ASSERT(transport != nullptr);
  transport_ = std::move(transport);
  std::vector<std::pair<Address, Buffer>> early;
  {
    const std::lock_guard<std::mutex> lock(early_mu_);
    binding_.store(false);
    early.swap(early_);
  }
  for (const auto& [from, wire] : early) {
    on_message(from, util::BytesView(wire));
  }
}

std::uint64_t CommunicationObject::start_request(
    const Address& to, MsgType type, std::uint64_t request_id, Buffer wire,
    ReplyHandler handler, sim::SimDuration timeout, int retries) {
  PendingRequest req;
  req.to = to;
  req.type = type;
  req.handler = std::move(handler);
  req.timeout = timeout;
  req.retries_left = retries;
  // Only retryable requests keep a copy of the wire for retransmission;
  // untimed and timeout-only requests move their buffer straight to the
  // transport.
  if (timeout.count_micros() > 0 && retries > 0) req.wire = wire;
  Buffer first = std::move(wire);
  pending_.emplace(request_id, std::move(req));
  transmit(to, type, std::move(first));
  if (timeout.count_micros() > 0) {
    GLOBE_ASSERT_MSG(sim_ != nullptr,
                     "request timeouts require a simulator clock");
    arm_timer(request_id);
  }
  return request_id;
}

void CommunicationObject::transmit(const Address& to, MsgType type,
                                   Buffer wire) {
  count(type, wire.size());
  transport_->send(to, std::move(wire));
}

obs::TraceContext CommunicationObject::note_wire_send(MsgType type,
                                                      ObjectId object) {
  obs::TraceContext ctx = obs::current_context();
  if (!ctx.valid()) return ctx;
  obs::Tracer& tracer = obs::Tracer::instance();
  obs::Span s;
  s.kind = obs::SpanKind::kWireSend;
  s.trace_id = ctx.trace_id;
  s.parent_id = ctx.span_id;
  s.ts_us = tracer.now_us();
  s.actor = transport_->local_address().node;
  s.object = object;
  s.set_label(msg::to_string(type));
  ctx.span_id = tracer.emit(s);
  return ctx;
}

void CommunicationObject::on_message(const Address& from,
                                     util::BytesView payload) {
  if (binding_.load(std::memory_order_acquire)) {
    const std::lock_guard<std::mutex> lock(early_mu_);
    if (binding_.load(std::memory_order_relaxed)) {
      early_.emplace_back(from, util::to_buffer(payload));
      return;
    }
  }
  const EnvelopeView env = EnvelopeView::decode(payload);
  // Install the carried context around the handler: a wire.deliver span
  // per datagram (duplicate multicast frames are already deduped below
  // this layer, so retransmits never reach here twice), then every span
  // or forwarded message the handler produces chains to it implicitly.
  obs::TraceContext deliver_ctx;
  if (env.trace.valid() && obs::tracing_enabled()) {
    obs::Tracer& tracer = obs::Tracer::instance();
    obs::Span s;
    s.kind = obs::SpanKind::kWireDeliver;
    s.trace_id = env.trace.trace_id;
    s.parent_id = env.trace.span_id;
    s.ts_us = tracer.now_us();
    s.actor = transport_->local_address().node;
    s.object = env.object;
    s.detail = payload.size();
    s.set_label(msg::to_string(env.type));
    deliver_ctx.trace_id = env.trace.trace_id;
    deliver_ctx.span_id = tracer.emit(s);
  }
  const obs::ContextScope scope(deliver_ctx);
  if (env.request_id != 0 && msg::is_reply(env.type)) {
    auto it = pending_.find(env.request_id);
    if (it == pending_.end()) return;  // late duplicate after timeout
    PendingRequest req = std::move(it->second);
    pending_.erase(it);
    if (sim_ != nullptr && req.timer != 0) sim_->cancel(req.timer);
    req.handler(true, from, env);
    return;
  }
  if (deliver_) deliver_(from, env);
}

void CommunicationObject::arm_timer(std::uint64_t request_id) {
  auto it = pending_.find(request_id);
  GLOBE_ASSERT(it != pending_.end());
  it->second.timer = sim_->schedule_after(
      it->second.timeout, [this, request_id] { on_timeout(request_id); });
}

void CommunicationObject::on_timeout(std::uint64_t request_id) {
  auto it = pending_.find(request_id);
  if (it == pending_.end()) return;  // reply won the race
  PendingRequest& req = it->second;
  if (req.retries_left > 0) {
    --req.retries_left;
    transmit(req.to, req.type, req.wire);
    arm_timer(request_id);
    return;
  }
  PendingRequest done = std::move(it->second);
  pending_.erase(it);
  done.handler(false, done.to, EnvelopeView{});
}

}  // namespace globe::core
