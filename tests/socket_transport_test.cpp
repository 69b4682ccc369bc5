// SocketTransport: real UDP datagrams (scatter-gather fast path) with
// the TCP bulk lane for oversized frames. Tests bind to 127.0.0.1 with
// kernel-assigned ports and skip when the environment forbids sockets.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "globe/msg/envelope.hpp"
#include "globe/net/socket_transport.hpp"
#include "globe/net/windowed_multicast.hpp"
#include "globe/replication/store_engine.hpp"

namespace globe::net {
namespace {

using util::to_buffer;
using util::to_string;

#define SKIP_IF_NO_SOCKETS(host)                                   \
  do {                                                             \
    if (!(host).ok()) {                                            \
      GTEST_SKIP() << "sockets unavailable in this environment";   \
    }                                                              \
  } while (0)

/// Connects two hosts' routing tables (both directions).
void link(SocketHost& a, NodeId node_a, SocketHost& b, NodeId node_b) {
  a.add_route(node_b, {"127.0.0.1", b.udp_port(), b.tcp_port()});
  b.add_route(node_a, {"127.0.0.1", a.udp_port(), a.tcp_port()});
}

/// Spin-waits (with sleep) until `done` or the deadline passes.
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

struct Sink {
  std::mutex mu;
  std::vector<std::string> got;
  std::vector<Address> from;

  MessageHandler handler() {
    return [this](const Address& f, BytesView payload) {
      std::lock_guard lock(mu);
      got.push_back(to_string(payload));
      from.push_back(f);
    };
  }
  std::size_t count() {
    std::lock_guard lock(mu);
    return got.size();
  }
};

TEST(SocketTransport, UdpRoundTripBetweenProcessesWorthOfHosts) {
  SocketHost host_a, host_b;
  SKIP_IF_NO_SOCKETS(host_a);
  SKIP_IF_NO_SOCKETS(host_b);
  link(host_a, 1, host_b, 2);

  Sink sink;
  auto rx = host_b.create_transport({2, 5}, sink.handler());
  Sink unused;
  auto tx = host_a.create_transport({1, 5}, unused.handler());

  tx->send({2, 5}, to_buffer("over-udp"));
  tx->send_shared({2, 5},
                  std::make_shared<const Buffer>(to_buffer("shared-udp")));
  tx->send_background({2, 5}, to_buffer("beacon"));
  ASSERT_TRUE(wait_for([&] { return sink.count() == 3; }));
  {
    std::lock_guard lock(sink.mu);
    EXPECT_EQ(sink.got[0], "over-udp");
    EXPECT_EQ(sink.got[1], "shared-udp");
    EXPECT_EQ(sink.got[2], "beacon");
    for (const Address& f : sink.from) EXPECT_EQ(f, (Address{1, 5}));
  }
  EXPECT_GE(host_a.stats().udp_sent, 3u);
  EXPECT_EQ(host_a.stats().tcp_sent, 0u);
}

TEST(SocketTransport, OversizedFrameFallsBackToTcp) {
  SocketHost host_a, host_b;
  SKIP_IF_NO_SOCKETS(host_a);
  SKIP_IF_NO_SOCKETS(host_b);
  link(host_a, 1, host_b, 2);

  Sink sink;
  auto rx = host_b.create_transport({2, 1}, sink.handler());
  Sink unused;
  auto tx = host_a.create_transport({1, 1}, unused.handler());

  // Far above max_datagram: a state-transfer-sized payload.
  std::string big(300 * 1024, 'S');
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + (i % 26));
  }
  tx->send({2, 1}, to_buffer(big));
  ASSERT_TRUE(wait_for([&] { return sink.count() == 1; }));
  {
    std::lock_guard lock(sink.mu);
    EXPECT_EQ(sink.got[0], big);  // reassembled byte-identically
  }
  EXPECT_GE(host_a.stats().tcp_sent, 1u);
  EXPECT_GE(host_b.stats().tcp_received, 1u);
}

TEST(SocketTransport, DemultiplexesManyEndpointsPerHost) {
  SocketHost host_a, host_b;
  SKIP_IF_NO_SOCKETS(host_a);
  SKIP_IF_NO_SOCKETS(host_b);
  link(host_a, 1, host_b, 2);

  Sink s1, s2;
  auto rx1 = host_b.create_transport({2, 1}, s1.handler());
  auto rx2 = host_b.create_transport({2, 2}, s2.handler());
  Sink unused;
  auto tx = host_a.create_transport({1, 1}, unused.handler());

  tx->send({2, 1}, to_buffer("for-one"));
  tx->send({2, 2}, to_buffer("for-two"));
  ASSERT_TRUE(wait_for([&] { return s1.count() + s2.count() == 2; }));
  EXPECT_EQ(s1.got, (std::vector<std::string>{"for-one"}));
  EXPECT_EQ(s2.got, (std::vector<std::string>{"for-two"}));
}

TEST(SocketTransport, CountsUnroutableAndUnknownEndpoints) {
  SocketHost host_a, host_b;
  SKIP_IF_NO_SOCKETS(host_a);
  SKIP_IF_NO_SOCKETS(host_b);
  link(host_a, 1, host_b, 2);

  Sink unused;
  auto tx = host_a.create_transport({1, 1}, unused.handler());
  tx->send({99, 1}, to_buffer("no-route"));  // node 99 has no route
  EXPECT_EQ(host_a.stats().unroutable, 1u);

  tx->send({2, 42}, to_buffer("no-endpoint"));  // routed, nothing bound
  ASSERT_TRUE(
      wait_for([&] { return host_b.stats().unknown_endpoint == 1u; }));
  EXPECT_EQ(host_b.stats().udp_received, 1u);
}

TEST(SocketTransport, WindowedMulticastRunsOverUdp) {
  // The full stack the multi-process example uses: windowed flow control
  // over real UDP sockets within one process.
  SocketHost host_a, host_b;
  SKIP_IF_NO_SOCKETS(host_a);
  SKIP_IF_NO_SOCKETS(host_b);
  link(host_a, 1, host_b, 2);

  WindowOptions wopts;
  wopts.window_size = 4;
  WindowedMulticast window(wopts);

  Sink sink;
  TransportFactoryFn rx_inner = [&](MessageHandler h) {
    return host_b.create_transport({2, 1}, std::move(h));
  };
  auto rx = windowed_factory(window, std::move(rx_inner))(sink.handler());

  Sink unused;
  TransportFactoryFn tx_inner = [&](MessageHandler h) {
    return host_a.create_transport({1, 1}, std::move(h));
  };
  auto tx = windowed_factory(window, std::move(tx_inner))(unused.handler());

  for (int i = 0; i < 50; ++i) {
    tx->send_shared({2, 1}, std::make_shared<const Buffer>(
                                to_buffer("w" + std::to_string(i))));
  }
  // Loopback UDP rarely drops, but the windowed layer tolerates it if
  // it does: tick until everything lands.
  ASSERT_TRUE(wait_for([&] {
    window.tick({1, 1});
    return sink.count() == 50;
  }));
  {
    std::lock_guard lock(sink.mu);
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(sink.got[static_cast<std::size_t>(i)],
                "w" + std::to_string(i));
    }
  }
}

/// State a receive handler uses, freed right after its endpoint dies.
struct Probe {
  std::atomic<bool> inside{false};
  std::uint64_t hits = 0;

  MessageHandler handler() {
    return [this](const Address&, BytesView) {
      inside.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++hits;
      inside.store(false);
    };
  }
};

/// Floods {2, 1} from host_a while `make_rx` binds it on host_b, then
/// destroys the endpoint mid-delivery and frees the handler's state.
/// Destruction must wait the delivery out: before it did, the receive
/// thread was still inside the handler, writing to the freed probe.
template <typename MakeRx>
void race_delivery_against_destruction(SocketHost& host_a, MakeRx make_rx) {
  Sink unused;
  auto tx = host_a.create_transport({1, 1}, unused.handler());
  std::atomic<bool> stop{false};
  std::thread flood([&] {
    while (!stop.load()) {
      tx->send({2, 1}, to_buffer("x"));
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  for (int round = 0; round < 20; ++round) {
    auto probe = std::make_unique<Probe>();
    std::unique_ptr<Transport> rx = make_rx(probe->handler());
    if (!wait_for([&] { return probe->inside.load(); })) {
      ADD_FAILURE() << "no delivery reached round " << round;
      break;  // still join the flood thread below
    }
    rx.reset();
    EXPECT_FALSE(probe->inside.load()) << "round " << round;
    probe.reset();
  }
  stop.store(true);
  flood.join();
}

TEST(SocketTransport, DestroyingAnEndpointWaitsOutItsDeliveries) {
  SocketHost host_a, host_b;
  SKIP_IF_NO_SOCKETS(host_a);
  SKIP_IF_NO_SOCKETS(host_b);
  link(host_a, 1, host_b, 2);
  race_delivery_against_destruction(host_a, [&](MessageHandler h) {
    return host_b.create_transport({2, 1}, std::move(h));
  });

  // The same race through windowed_factory's tap, the stack the
  // multi-process example tears down: the tap must never reach a
  // destroyed WindowedTransport.
  WindowedMulticast window(WindowOptions{});
  race_delivery_against_destruction(host_a, [&](MessageHandler h) {
    TransportFactoryFn inner = [&](MessageHandler tap) {
      return host_b.create_transport({2, 1}, std::move(tap));
    };
    return windowed_factory(window, std::move(inner))(std::move(h));
  });
}

/// One kUpdate datagram for object 1, as an upstream store pushes it.
Buffer update_datagram() {
  web::WriteRecord rec;
  rec.wid = coherence::WriteId{5, 1};
  rec.page = "p.html";
  rec.content = "flood";
  util::Writer w;
  msg::Envelope::encode_header(w, msg::MsgType::kUpdate, 1, 0);
  replication::UpdateMsg::encode_fields(w, {rec}, coherence::VectorClock{}, 0);
  return w.take();
}

TEST(SocketTransport, DestroyingAStoreWaitsOutItsDeliveries) {
  // A StoreEngine on a socket endpoint handles each datagram on the
  // receive thread. Destroying it mid-flood must release the endpoint,
  // waiting out the delivery in flight, before it frees the object
  // table that delivery reads. Each round binds a fresh port and the
  // flood follows it only once the engine is built, so no delivery
  // races the constructor.
  SocketHost host_a, host_b;
  SKIP_IF_NO_SOCKETS(host_a);
  SKIP_IF_NO_SOCKETS(host_b);
  link(host_a, 1, host_b, 2);
  const Buffer update = update_datagram();
  Sink unused;
  auto tx = host_a.create_transport({1, 1}, unused.handler());
  std::atomic<PortId> target{0};  // 0: hold fire
  std::atomic<bool> stop{false};
  std::thread flood([&] {
    while (!stop.load()) {
      const PortId port = target.load();
      if (port != 0) tx->send({2, port}, update);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  sim::Simulator sim;  // timers only: deliveries come from the socket
  replication::StoreConfig cfg;
  cfg.store_id = 1;
  cfg.is_primary = true;
  replication::ObjectConfig object;
  object.object = 1;
  for (int round = 0; round < 20; ++round) {
    const auto port = static_cast<PortId>(round + 1);
    std::atomic<bool> inside{false};
    std::atomic<int> delivered{0};
    core::TransportFactory factory = [&](MessageHandler deliver) {
      return host_b.create_transport(
          {2, port}, [&, deliver = std::move(deliver)](const Address& from,
                                                       BytesView payload) {
            inside.store(true);
            // Hold the delivery open so destruction lands inside it.
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            deliver(from, payload);
            delivered.fetch_add(1);
            inside.store(false);
          });
    };
    auto store = std::make_unique<replication::StoreEngine>(
        factory, sim, cfg, std::vector<replication::ObjectConfig>{object});
    (void)host_b.stats();  // publishes the built engine to the receive loop
    target.store(port);
    if (!wait_for([&] { return delivered.load() > 0 && inside.load(); })) {
      ADD_FAILURE() << "no delivery reached round " << round;
      target.store(0);
      break;  // still join the flood thread below
    }
    store.reset();
    target.store(0);
    EXPECT_FALSE(inside.load()) << "round " << round;
  }
  stop.store(true);
  flood.join();
}

TEST(SocketTransport, HandlerMayDestroyItsOwnEndpoint) {
  SocketHost host_a, host_b;
  SKIP_IF_NO_SOCKETS(host_a);
  SKIP_IF_NO_SOCKETS(host_b);
  link(host_a, 1, host_b, 2);

  std::mutex mu;
  std::unique_ptr<Transport> rx;
  {
    std::lock_guard lock(mu);
    rx = host_b.create_transport({2, 1}, [&](const Address&, BytesView) {
      std::lock_guard inner(mu);
      rx.reset();  // unbinds from inside its own delivery: must not wait
    });
  }
  Sink unused;
  auto tx = host_a.create_transport({1, 1}, unused.handler());
  ASSERT_TRUE(wait_for([&] {
    tx->send({2, 1}, to_buffer("bye"));
    std::lock_guard lock(mu);
    return rx == nullptr;
  }));
}

}  // namespace
}  // namespace globe::net
