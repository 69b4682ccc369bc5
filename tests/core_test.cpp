// Tests for the core object model: communication object (point-to-point
// send, request/reply correlation, timeouts/retries, multicast), the Web
// semantics object, and replication policies.
#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "globe/core/comm.hpp"
#include "globe/core/policy.hpp"
#include "globe/core/semantics.hpp"
#include "globe/net/sim_transport.hpp"
#include "globe/sim/network.hpp"

namespace globe::core {
namespace {

/// A body encoder that writes `s` as it is.
auto body(std::string s) {
  return [s = std::move(s)](util::Writer& w) { w.raw(util::to_buffer(s)); };
}

class CommTest : public ::testing::Test {
 protected:
  CommTest() : net(sim, 1) {
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

TEST_F(CommTest, OneWaySendDelivers) {
  CommunicationObject a(&sim);
  a.open(factory(node_a), {});
  std::optional<msg::Envelope> got;
  CommunicationObject b(&sim);
  b.open(factory(node_b),
         [&](const net::Address&, const msg::EnvelopeView& env) {
           got = env.to_owned();
         });

  a.send_with(b.local_address(), msg::MsgType::kUpdate, 42, body("payload"));
  sim.run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, msg::MsgType::kUpdate);
  EXPECT_EQ(got->object, 42u);
  EXPECT_EQ(got->request_id, 0u);
}

TEST_F(CommTest, DatagramDeliveredDuringTheBindReachesTheHandler) {
  // A transport may deliver as soon as it binds, before the factory
  // returns (a socket host's receive thread does). The handler is in
  // place first; the datagram reaches it once the endpoint exists, so
  // the handler can already answer.
  CommunicationObject a(&sim);
  std::optional<msg::Envelope> answer;
  a.open(factory(node_a),
         [&](const net::Address&, const msg::EnvelopeView& env) {
           answer = env.to_owned();
         });
  msg::Envelope early;
  early.type = msg::MsgType::kUpdate;
  early.object = 7;
  early.body = util::to_buffer("early");
  const util::Buffer wire = early.encode();

  std::optional<msg::Envelope> got;
  CommunicationObject b(&sim);
  b.open(
      [&](net::MessageHandler deliver) {
        auto transport = factory(node_b)(deliver);
        deliver(a.local_address(), util::BytesView(wire));
        return transport;
      },
      [&](const net::Address& from, const msg::EnvelopeView& env) {
        got = env.to_owned();
        b.send_with(from, msg::MsgType::kNotify, env.object, body("seen"));
      });
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->object, 7u);
  EXPECT_EQ(util::to_string(util::BytesView(got->body)), "early");
  sim.run();
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(answer->type, msg::MsgType::kNotify);
}

TEST_F(CommTest, RequestReplyCorrelation) {
  CommunicationObject a(&sim);
  a.open(factory(node_a), {});
  CommunicationObject b(&sim);
  b.open(factory(node_b),
         [&](const net::Address& from, const msg::EnvelopeView& env) {
           b.reply_with(from, msg::MsgType::kFetchReply, env.object,
                        env.request_id, [](util::Writer& w) {
                          w.raw(util::to_buffer("answer"));
                        });
         });

  std::optional<std::string> answer;
  a.request_with(
      b.local_address(), msg::MsgType::kFetchRequest, 1, body("question"),
      [&](bool ok, const net::Address&, const msg::EnvelopeView& env) {
        if (ok) answer = util::to_string(env.body);
      });
  sim.run();
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(*answer, "answer");
  EXPECT_EQ(a.pending_requests(), 0u);
}

TEST_F(CommTest, ConcurrentRequestsKeepTheirHandlers) {
  CommunicationObject a(&sim);
  a.open(factory(node_a), {});
  CommunicationObject b(&sim);
  b.open(factory(node_b),
         [&](const net::Address& from, const msg::EnvelopeView& env) {
           b.reply_with(from, msg::MsgType::kFetchReply, env.object,
                        env.request_id,
                        [&](util::Writer& w) { w.raw(env.body); });  // echo
         });

  std::vector<std::string> answers(3);
  for (int i = 0; i < 3; ++i) {
    a.request_with(b.local_address(), msg::MsgType::kFetchRequest, 1,
                   body("q" + std::to_string(i)),
                   [&answers, i](bool ok, const net::Address&, const msg::EnvelopeView& env) {
                     if (ok) {
                       answers[i] = util::to_string(env.body);
                     }
                   });
  }
  sim.run();
  EXPECT_EQ(answers, (std::vector<std::string>{"q0", "q1", "q2"}));
}

TEST_F(CommTest, TimeoutFiresWhenNoReply) {
  CommunicationObject a(&sim);
  a.open(factory(node_a), {});
  CommunicationObject b(&sim);
  // b never replies.
  b.open(factory(node_b),
         [](const net::Address&, const msg::EnvelopeView&) {});

  bool failed = false;
  a.request_with(b.local_address(), msg::MsgType::kFetchRequest, 1, body(""),
                 [&](bool ok, const net::Address&, const msg::EnvelopeView&) {
                   failed = !ok;
                 },
                 sim::SimDuration::millis(100));
  sim.run();
  EXPECT_TRUE(failed);
  EXPECT_EQ(a.pending_requests(), 0u);
}

TEST_F(CommTest, RetriesSucceedAfterTransientPartition) {
  CommunicationObject a(&sim);
  a.open(factory(node_a), {});
  CommunicationObject b(&sim);
  b.open(factory(node_b),
         [&](const net::Address& from, const msg::EnvelopeView& env) {
           b.reply_with(from, msg::MsgType::kFetchReply, env.object,
                        env.request_id, [](util::Writer&) {});
         });

  net.partition(node_a, node_b);
  std::optional<bool> outcome;
  a.request_with(b.local_address(), msg::MsgType::kFetchRequest, 1, body(""),
                 [&](bool ok, const net::Address&, const msg::EnvelopeView&) {
                   outcome = ok;
                 },
                 sim::SimDuration::millis(100), /*retries=*/3);
  // Heal while retries are still pending.
  sim.schedule_after(sim::SimDuration::millis(150),
                     [&] { net.heal_all(); });
  sim.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_TRUE(*outcome);
}

TEST_F(CommTest, LateReplyAfterTimeoutIsIgnored) {
  CommunicationObject a(&sim);
  a.open(factory(node_a), {});
  CommunicationObject b(&sim);
  b.open(factory(node_b),
         [&](const net::Address& from, const msg::EnvelopeView& env) {
           // Reply very late. (Copy the header fields out: the view's body
           // borrows the receive buffer and must not outlive the handler.)
           sim.schedule_after(
               sim::SimDuration::millis(500),
               [&b, from, object = env.object, request_id = env.request_id] {
                 b.reply_with(from, msg::MsgType::kFetchReply, object,
                              request_id, [](util::Writer&) {});
               });
         });

  int calls = 0;
  a.request_with(b.local_address(), msg::MsgType::kFetchRequest, 1, body(""),
                 [&](bool, const net::Address&, const msg::EnvelopeView&) { ++calls; },
                 sim::SimDuration::millis(100));
  sim.run();
  EXPECT_EQ(calls, 1);  // the timeout only; late reply dropped
}

TEST_F(CommTest, MulticastReachesAllTargets) {
  CommunicationObject sender(&sim);
  sender.open(factory(node_a), {});
  int received = 0;
  std::vector<std::unique_ptr<CommunicationObject>> receivers;
  std::vector<net::Address> targets;
  for (int i = 0; i < 4; ++i) {
    auto r = std::make_unique<CommunicationObject>(&sim);
    r->open(factory(node_b),
            [&received](const net::Address&, const msg::EnvelopeView&) {
              ++received;
            });
    targets.push_back(r->local_address());
    receivers.push_back(std::move(r));
  }
  sender.multicast_with(targets, msg::MsgType::kUpdate, 1,
                        [](util::Writer& w) { w.str("fanout"); });
  sim.run();
  EXPECT_EQ(received, 4);
}

TEST_F(CommTest, MetricsSinkSeesOutboundBytes) {
  metrics::MetricsSink sink;
  CommunicationObject a(&sim, &sink);
  a.open(factory(node_a), {});
  a.send_with({node_b, 1}, msg::MsgType::kUpdate, 1, body("12345"));
  EXPECT_EQ(sink.total_traffic().messages, 1u);
  EXPECT_GT(sink.total_traffic().bytes, 5u);  // envelope overhead + payload
}

// ---- Web semantics object -------------------------------------------

TEST(WebSemantics, GetPageExecutesAgainstDocument) {
  WebSemanticsObject sem;
  web::WriteRecord rec;
  rec.wid = {1, 1};
  rec.page = "index.html";
  rec.content = "<p>hello</p>";
  rec.global_seq = 7;
  sem.apply(rec);

  const auto res = sem.execute_read(msg::Invocation::get_page("index.html"));
  ASSERT_TRUE(res.ok);
  util::Reader r{util::BytesView(res.value)};
  const auto v = PageReadValue::decode(r);
  EXPECT_EQ(v.content, "<p>hello</p>");
  EXPECT_EQ(v.writer, (coherence::WriteId{1, 1}));
  // Content, mime and writer, nothing else: the reply carries the
  // store's gseq, and no reader wants the page's own.
  EXPECT_TRUE(r.at_end());
}

TEST(WebSemantics, MissingPageReturnsError) {
  WebSemanticsObject sem;
  const auto res = sem.execute_read(msg::Invocation::get_page("nope"));
  EXPECT_FALSE(res.ok);
  EXPECT_FALSE(res.error.empty());
}

TEST(WebSemantics, ListPages) {
  WebSemanticsObject sem;
  for (const char* p : {"a.html", "b.html"}) {
    web::WriteRecord rec;
    rec.wid = {1, 1};
    rec.page = p;
    rec.content = "x";
    sem.apply(rec);
  }
  const auto res = sem.execute_read(msg::Invocation::list_pages());
  ASSERT_TRUE(res.ok);
  util::Reader r{util::BytesView(res.value)};
  EXPECT_EQ(r.varint(), 2u);
  EXPECT_EQ(r.str(), "a.html");
  EXPECT_EQ(r.str(), "b.html");
}

TEST(WebSemantics, ToRecordTranslatesPut) {
  WebSemanticsObject sem;
  const auto rec =
      sem.to_record(msg::Invocation::put_page("p", "content", "text/plain"));
  EXPECT_EQ(rec.op, web::WriteOp::kPut);
  EXPECT_EQ(rec.page, "p");
  EXPECT_EQ(rec.content, "content");
  EXPECT_EQ(rec.mime, "text/plain");
}

TEST(WebSemantics, ToRecordTranslatesDelete) {
  WebSemanticsObject sem;
  const auto rec = sem.to_record(msg::Invocation::delete_page("p"));
  EXPECT_EQ(rec.op, web::WriteOp::kDelete);
  EXPECT_EQ(rec.page, "p");
}

TEST(WebSemantics, SnapshotRestoreMatchesDocument) {
  WebSemanticsObject a;
  web::WriteRecord rec;
  rec.wid = {2, 9};
  rec.page = "p";
  rec.content = "v";
  a.apply(rec);

  WebSemanticsObject b;
  b.restore(util::view_of(a.snapshot()));
  EXPECT_EQ(b.document(), a.document());
}

}  // namespace
}  // namespace globe::core
