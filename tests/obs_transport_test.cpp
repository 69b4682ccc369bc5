// Trace-context propagation across all three transports: the simulated
// Network, the threaded LoopbackRouter, and real sockets (UDP fast path
// plus the TCP bulk lane). Also the two retransmission paths: a comm
// request retry resends the stored wire (no second wire.send span), and
// a duplicated windowed DATA frame is deduped below the comm layer (no
// second wire.deliver span).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "globe/core/comm.hpp"
#include "globe/net/framing.hpp"
#include "globe/net/loopback.hpp"
#include "globe/net/sim_transport.hpp"
#include "globe/net/socket_transport.hpp"
#include "globe/net/windowed_multicast.hpp"
#include "globe/obs/trace.hpp"
#include "globe/sim/network.hpp"
#include "globe/util/buffer.hpp"

namespace globe::core {
namespace {

using util::to_buffer;
using util::to_string;

/// A body encoder that writes `s` as it is.
auto body(std::string s) {
  return [s = std::move(s)](util::Writer& w) { w.raw(to_buffer(s)); };
}

/// Enables the process tracer for one test body and always restores the
/// disabled state (the tracer is a process singleton).
struct ScopedTracer {
  explicit ScopedTracer(std::uint64_t sample_every = 1) {
    obs::Tracer::instance().enable(obs::TracerOptions{1 << 12, sample_every});
  }
  ~ScopedTracer() {
    obs::Tracer::instance().disable();
    obs::Tracer::instance().set_clock(nullptr);
  }
};

std::size_t count_kind(const std::vector<obs::Span>& spans, obs::SpanKind kind,
                       std::uint32_t actor) {
  std::size_t n = 0;
  for (const obs::Span& s : spans) {
    if (s.kind == kind && s.actor == actor) ++n;
  }
  return n;
}

/// Thread-safe capture of delivered envelopes plus the context the comm
/// layer installed around the handler.
struct EnvSink {
  std::mutex mu;
  std::vector<msg::Envelope> got;
  std::vector<obs::TraceContext> handler_ctx;

  CommunicationObject::DeliveryHandler handler() {
    return [this](const net::Address&, const msg::EnvelopeView& env) {
      std::lock_guard lock(mu);
      got.push_back(env.to_owned());
      handler_ctx.push_back(obs::current_context());
    };
  }
  std::size_t count() {
    std::lock_guard lock(mu);
    return got.size();
  }
};

template <typename F>
bool wait_for(F done, std::chrono::milliseconds limit =
                          std::chrono::milliseconds(5000)) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

// ---------------------------------------------------------------------
// Simulated network
// ---------------------------------------------------------------------

class ObsSimCommTest : public ::testing::Test {
 protected:
  ObsSimCommTest() : net(sim, 1) {
    node_a = net.add_node("a");
    node_b = net.add_node("b");
  }

  TransportFactory factory(NodeId node) {
    return [this, node](net::MessageHandler handler)
               -> std::unique_ptr<net::Transport> {
      const PortId port = next_port[node]++;
      return std::make_unique<net::SimTransport>(
          net, net::Address{node, port}, std::move(handler));
    };
  }

  sim::Simulator sim;
  sim::Network net;
  std::map<NodeId, PortId> next_port{{0, 1}, {1, 1}};
  NodeId node_a = 0, node_b = 0;
};

TEST_F(ObsSimCommTest, TracedSendCarriesContextOverSimNetwork) {
  ScopedTracer tracer;
  EnvSink sink;
  CommunicationObject a(&sim);
  a.open(factory(node_a), {});
  CommunicationObject b(&sim);
  b.open(factory(node_b), sink.handler());

  {
    const obs::ContextScope scope(obs::TraceContext{42, 7});
    a.send_with(b.local_address(), msg::MsgType::kUpdate, 5, body("body"));
  }
  sim.run();

  ASSERT_EQ(sink.count(), 1u);
  const msg::Envelope& env = sink.got[0];
  EXPECT_EQ(env.trace.trace_id, 42u);
  EXPECT_NE(env.trace.span_id, 0u);
  EXPECT_NE(env.trace.span_id, 7u);  // replaced by the wire.send span
  EXPECT_EQ(to_string(util::BytesView(env.body)), "body");
  // The handler ran under the delivered context.
  EXPECT_EQ(sink.handler_ctx[0].trace_id, 42u);

  const std::vector<obs::Span> spans = obs::Tracer::instance().snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].kind, obs::SpanKind::kWireSend);
  EXPECT_EQ(spans[0].trace_id, 42u);
  EXPECT_EQ(spans[0].parent_id, 7u);
  EXPECT_EQ(spans[0].actor, node_a);
  EXPECT_STREQ(spans[0].label, "Update");
  EXPECT_EQ(spans[1].kind, obs::SpanKind::kWireDeliver);
  EXPECT_EQ(spans[1].parent_id, env.trace.span_id);
  EXPECT_EQ(spans[1].actor, node_b);
  EXPECT_GT(spans[1].detail, 0u);  // datagram byte count
}

TEST_F(ObsSimCommTest, UntracedSendHasInvalidContextAndNoSpans) {
  ScopedTracer tracer;
  EnvSink sink;
  CommunicationObject a(&sim);
  a.open(factory(node_a), {});
  CommunicationObject b(&sim);
  b.open(factory(node_b), sink.handler());

  a.send_with(b.local_address(), msg::MsgType::kUpdate, 5, body("x"));
  sim.run();

  ASSERT_EQ(sink.count(), 1u);
  EXPECT_FALSE(sink.got[0].trace.valid());
  EXPECT_FALSE(sink.handler_ctx[0].valid());
  EXPECT_EQ(obs::Tracer::instance().size(), 0u);
}

TEST_F(ObsSimCommTest, DisabledTracerNeverStampsTheWire) {
  ASSERT_FALSE(obs::tracing_enabled());
  EnvSink sink;
  CommunicationObject a(&sim);
  a.open(factory(node_a), {});
  CommunicationObject b(&sim);
  b.open(factory(node_b), sink.handler());

  {
    // A stale context may linger on the thread; a disabled tracer must
    // still produce the 3-field header.
    const obs::ContextScope scope(obs::TraceContext{42, 7});
    a.send_with(b.local_address(), msg::MsgType::kUpdate, 5, body("x"));
  }
  sim.run();

  ASSERT_EQ(sink.count(), 1u);
  EXPECT_FALSE(sink.got[0].trace.valid());
}

/// Drops the first plain send, passes everything afterwards: the comm
/// retry path must resend the STORED wire (same bytes, no new
/// wire.send span), not re-encode.
class DropFirstTransport final : public net::Transport {
 public:
  explicit DropFirstTransport(std::unique_ptr<net::Transport> inner)
      : inner_(std::move(inner)) {}

  void send(const net::Address& to, util::Buffer payload) override {
    if (!dropped_) {
      dropped_ = true;
      return;
    }
    inner_->send(to, std::move(payload));
  }
  [[nodiscard]] net::Address local_address() const override {
    return inner_->local_address();
  }

 private:
  std::unique_ptr<net::Transport> inner_;
  bool dropped_ = false;
};

TEST_F(ObsSimCommTest, RequestRetryDoesNotDuplicateWireSendSpan) {
  ScopedTracer tracer;
  TransportFactory lossy = [this](net::MessageHandler handler) {
    return std::make_unique<DropFirstTransport>(factory(node_a)(
        std::move(handler)));
  };
  CommunicationObject a(&sim);
  a.open(lossy, {});
  CommunicationObject b(&sim);
  b.open(factory(node_b),
         [&b](const net::Address& from, const msg::EnvelopeView& env) {
           b.reply_with(from, msg::MsgType::kInvokeReply, env.object,
                        env.request_id,
                        [](util::Writer& w) { w.raw(to_buffer("ok")); });
         });

  std::optional<bool> reply_ok;
  obs::TraceContext reply_ctx;
  {
    const obs::ContextScope scope(obs::TraceContext{42, 7});
    a.request_with(
        b.local_address(), msg::MsgType::kInvokeRequest, 5, body("req"),
        [&](bool ok, const net::Address&, const msg::EnvelopeView&) {
          reply_ok = ok;
          reply_ctx = obs::current_context();
        },
        sim::SimDuration::millis(50), 3);
  }
  sim.run();

  ASSERT_TRUE(reply_ok.has_value());
  EXPECT_TRUE(*reply_ok);  // the retry got through
  EXPECT_EQ(reply_ctx.trace_id, 42u);  // reply handler joined the trace

  const std::vector<obs::Span> spans = obs::Tracer::instance().snapshot();
  // Exactly one send+deliver per direction: the dropped first attempt
  // was resent from the stored wire, never re-encoded.
  EXPECT_EQ(count_kind(spans, obs::SpanKind::kWireSend, node_a), 1u);
  EXPECT_EQ(count_kind(spans, obs::SpanKind::kWireDeliver, node_b), 1u);
  EXPECT_EQ(count_kind(spans, obs::SpanKind::kWireSend, node_b), 1u);
  EXPECT_EQ(count_kind(spans, obs::SpanKind::kWireDeliver, node_a), 1u);
}

// ---------------------------------------------------------------------
// Threaded loopback
// ---------------------------------------------------------------------

TEST(ObsLoopbackComm, TracedSendCarriesContextOverLoopback) {
  ScopedTracer tracer;
  net::LoopbackRouter router;
  auto factory = [&router](net::Address at) -> TransportFactory {
    return [&router, at](net::MessageHandler handler)
               -> std::unique_ptr<net::Transport> {
      return std::make_unique<net::LoopbackTransport>(router, at,
                                                      std::move(handler));
    };
  };
  EnvSink sink;
  CommunicationObject a(nullptr);
  a.open(factory({0, 1}), {});
  CommunicationObject b(nullptr);
  b.open(factory({1, 1}), sink.handler());

  {
    const obs::ContextScope scope(obs::TraceContext{42, 7});
    a.send_with(b.local_address(), msg::MsgType::kUpdate, 5, body("ping"));
  }
  router.drain();

  ASSERT_EQ(sink.count(), 1u);
  EXPECT_EQ(sink.got[0].trace.trace_id, 42u);
  // The dispatcher thread ran the handler under the delivered context.
  EXPECT_EQ(sink.handler_ctx[0].trace_id, 42u);

  const std::vector<obs::Span> spans = obs::Tracer::instance().snapshot();
  EXPECT_EQ(count_kind(spans, obs::SpanKind::kWireSend, 0), 1u);
  EXPECT_EQ(count_kind(spans, obs::SpanKind::kWireDeliver, 1), 1u);
}

// ---------------------------------------------------------------------
// Real sockets: UDP fast path and the TCP bulk lane
// ---------------------------------------------------------------------

#define SKIP_IF_NO_SOCKETS(host)                                   \
  do {                                                             \
    if (!(host).ok()) {                                            \
      GTEST_SKIP() << "sockets unavailable in this environment";   \
    }                                                              \
  } while (0)

TEST(ObsSocketComm, ContextSurvivesUdpAndTcpBulkLane) {
  net::SocketHost host_a, host_b;
  SKIP_IF_NO_SOCKETS(host_a);
  SKIP_IF_NO_SOCKETS(host_b);
  host_a.add_route(2, {"127.0.0.1", host_b.udp_port(), host_b.tcp_port()});
  host_b.add_route(1, {"127.0.0.1", host_a.udp_port(), host_a.tcp_port()});

  ScopedTracer tracer;
  TransportFactory fa = [&host_a](net::MessageHandler h) {
    return host_a.create_transport({1, 5}, std::move(h));
  };
  TransportFactory fb = [&host_b](net::MessageHandler h) {
    return host_b.create_transport({2, 5}, std::move(h));
  };
  EnvSink sink;
  CommunicationObject a(nullptr);
  a.open(fa, {});
  CommunicationObject b(nullptr);
  b.open(fb, sink.handler());

  // Small body -> UDP; a body past max_datagram (56 KiB) -> TCP bulk.
  const std::string bulk(80 * 1024, 'x');
  {
    const obs::ContextScope scope(obs::TraceContext{42, 7});
    a.send_with(b.local_address(), msg::MsgType::kUpdate, 5, body("small"));
    a.send_with(b.local_address(), msg::MsgType::kSnapshot, 5, body(bulk));
  }
  ASSERT_TRUE(wait_for([&] { return sink.count() == 2; }));
  EXPECT_GE(host_a.stats().tcp_sent, 1u);

  {
    std::lock_guard lock(sink.mu);
    for (const msg::Envelope& env : sink.got) {
      EXPECT_EQ(env.trace.trace_id, 42u);
      EXPECT_NE(env.trace.span_id, 0u);
    }
    for (const obs::TraceContext& ctx : sink.handler_ctx) {
      EXPECT_EQ(ctx.trace_id, 42u);
    }
    // The bulk body crossed the TCP lane intact, context and all.
    bool saw_bulk = false;
    for (const msg::Envelope& env : sink.got) {
      if (env.body.size() == bulk.size()) saw_bulk = true;
    }
    EXPECT_TRUE(saw_bulk);
  }

  const std::vector<obs::Span> spans = obs::Tracer::instance().snapshot();
  EXPECT_EQ(count_kind(spans, obs::SpanKind::kWireSend, 1), 2u);
  EXPECT_EQ(count_kind(spans, obs::SpanKind::kWireDeliver, 2), 2u);
}

// ---------------------------------------------------------------------
// Windowed multicast: duplicated frames are deduped below the comm
// layer, so a retransmit never yields a second wire.deliver span.
// ---------------------------------------------------------------------

/// Sends every windowed DATA frame twice: a deterministic stand-in for
/// a retransmission racing its own ack.
class DuplicatingTransport final : public net::Transport {
 public:
  explicit DuplicatingTransport(std::unique_ptr<net::Transport> inner)
      : inner_(std::move(inner)) {}

  void send_shared(const net::Address& to,
                   util::SharedBuffer payload) override {
    const bool data =
        !payload->empty() &&
        static_cast<std::uint8_t>((*payload)[0]) == net::kDataFrameKind;
    if (data) inner_->send_shared(to, payload);
    inner_->send_shared(to, std::move(payload));
  }
  [[nodiscard]] net::Address local_address() const override {
    return inner_->local_address();
  }

 private:
  std::unique_ptr<net::Transport> inner_;
};

TEST(ObsWindowedComm, DuplicateDataFrameYieldsOneDeliverSpan) {
  ScopedTracer tracer;
  net::WindowedMulticast host{net::WindowOptions{}};
  net::LoopbackRouter router;

  net::TransportFactoryFn inner_a = [&router](net::MessageHandler h)
      -> std::unique_ptr<net::Transport> {
    return std::make_unique<DuplicatingTransport>(
        std::make_unique<net::LoopbackTransport>(router, net::Address{0, 1},
                                                 std::move(h)));
  };
  net::TransportFactoryFn inner_b = [&router](net::MessageHandler h)
      -> std::unique_ptr<net::Transport> {
    return std::make_unique<net::LoopbackTransport>(router, net::Address{1, 1},
                                                    std::move(h));
  };
  EnvSink sink;
  CommunicationObject a(nullptr);
  a.open(net::windowed_factory(host, std::move(inner_a)), {});
  CommunicationObject b(nullptr);
  b.open(net::windowed_factory(host, std::move(inner_b)), sink.handler());

  {
    // The shared-datagram fan-out lane is the windowed one; plain sends
    // pass through unwindowed.
    const obs::ContextScope scope(obs::TraceContext{42, 7});
    a.multicast_with(std::vector<net::Address>{b.local_address()},
                     msg::MsgType::kUpdate, 5, [](util::Writer& w) {
                       w.raw(util::BytesView(to_buffer("once")));
                     });
  }
  router.drain();
  ASSERT_TRUE(wait_for([&] { return sink.count() >= 1; }));
  router.drain();

  EXPECT_EQ(sink.count(), 1u);  // second copy deduped at the receiver
  EXPECT_GE(host.stats().duplicate_frames, 1u);
  EXPECT_EQ(sink.got[0].trace.trace_id, 42u);

  const std::vector<obs::Span> spans = obs::Tracer::instance().snapshot();
  EXPECT_EQ(count_kind(spans, obs::SpanKind::kWireSend, 0), 1u);
  EXPECT_EQ(count_kind(spans, obs::SpanKind::kWireDeliver, 1), 1u);
}

}  // namespace
}  // namespace globe::core
