// Tests for the networked naming and location service.
#include <gtest/gtest.h>

#include <optional>

#include "globe/naming/service.hpp"
#include "globe/net/sim_transport.hpp"
#include "globe/sim/network.hpp"

namespace globe::naming {
namespace {

class NamingTest : public ::testing::Test {
 protected:
  NamingTest() : net(sim, 1) {
    server_node = net.add_node("naming");
    client_node = net.add_node("client");
    server.emplace(factory(server_node), &sim);
    client.emplace(factory(client_node), &sim, server->address());
  }

  core::TransportFactory factory(NodeId node) {
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
  NodeId server_node, client_node;
  std::optional<NamingServer> server;
  std::optional<NamingClient> client;
};

TEST_F(NamingTest, RegisterAndLookupOverNetwork) {
  bool registered = false;
  client->register_name("conference/icdcs98", 42,
                        [&](bool ok) { registered = ok; });
  sim.run();
  EXPECT_TRUE(registered);

  std::optional<ObjectId> found;
  client->lookup("conference/icdcs98",
                 [&](bool ok, ObjectId id) { found = ok ? id : 0; });
  sim.run();
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, 42u);
}

TEST_F(NamingTest, RequestDeliveredWhileTheServerBindsIsServed) {
  // Record a real register request on its way into a server...
  util::Buffer request;
  NamingServer tapped(
      [&](net::MessageHandler deliver) {
        return factory(server_node)(
            [&request, deliver](const net::Address& from,
                                util::BytesView payload) {
              request = util::to_buffer(payload);
              deliver(from, payload);
            });
      },
      &sim);
  NamingClient writer(factory(client_node), &sim, tapped.address());
  writer.register_name("early", 42, [](bool) {});
  sim.run();
  ASSERT_EQ(tapped.lookup("early"), 42u);

  // ...then hand it to a fresh server from inside its bind, before the
  // factory returns, as a socket host's receive thread may. The server
  // registers the name, and its reply leaves once the endpoint exists.
  const std::uint64_t sent = net.stats().messages_sent;
  NamingServer early(
      [&](net::MessageHandler deliver) {
        auto transport = factory(server_node)(deliver);
        deliver(net::Address{client_node, 77}, util::BytesView(request));
        return transport;
      },
      &sim);
  EXPECT_EQ(early.lookup("early"), 42u);
  EXPECT_EQ(net.stats().messages_sent, sent + 1);  // the reply
}

TEST_F(NamingTest, LookupUnknownNameFails) {
  std::optional<bool> ok;
  client->lookup("missing", [&](bool found, ObjectId) { ok = found; });
  sim.run();
  ASSERT_TRUE(ok.has_value());
  EXPECT_FALSE(*ok);
}

TEST_F(NamingTest, RegisterAndLocateContacts) {
  ContactPoint c1;
  c1.address = {5, 1};
  c1.store_class = StoreClass::kPermanent;
  c1.store_id = 1;
  c1.is_primary = true;
  ContactPoint c2;
  c2.address = {6, 1};
  c2.store_class = StoreClass::kClientInitiated;
  c2.store_id = 2;

  client->register_contact(42, c1, [](bool) {});
  client->register_contact(42, c2, [](bool) {});
  sim.run();

  std::optional<std::vector<ContactPoint>> contacts;
  client->locate(42, [&](bool ok, std::vector<ContactPoint> c) {
    if (ok) contacts = std::move(c);
  });
  sim.run();
  ASSERT_TRUE(contacts.has_value());
  ASSERT_EQ(contacts->size(), 2u);
  EXPECT_EQ((*contacts)[0], c1);
  EXPECT_EQ((*contacts)[1], c2);
}

TEST_F(NamingTest, ReRegisteringContactUpdatesInPlace) {
  ContactPoint c;
  c.address = {5, 1};
  c.store_class = StoreClass::kPermanent;
  server->register_contact(42, c);
  c.is_primary = true;
  server->register_contact(42, c);  // same address, updated fields
  const auto found = server->locate(42);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_TRUE(found[0].is_primary);
}

TEST_F(NamingTest, UnregisterContactRemoves) {
  ContactPoint c;
  c.address = {5, 1};
  server->register_contact(42, c);
  server->unregister_contact(42, {5, 1});
  EXPECT_TRUE(server->locate(42).empty());
}

// The locate ops are register and locate. Any other is refused: no
// reply, and the contacts stay as they were.
TEST_F(NamingTest, UnknownLocateOpIsRefused) {
  ContactPoint c;
  c.address = {5, 1};
  server->register_contact(42, c);
  core::CommunicationObject raw(&sim);
  raw.open(factory(client_node),
           [](const net::Address&, const msg::EnvelopeView&) {});
  std::optional<bool> answered;
  raw.request_with(
      server->address(), msg::MsgType::kLocateRequest, 42,
      [&](util::Writer& w) {
        w.u8(2);  // not a locate op
        net::encode_address(w, c.address);
      },
      [&](bool ok, const net::Address&, const msg::EnvelopeView&) {
        answered = ok;
      },
      sim::SimDuration::millis(100));
  sim.run();
  ASSERT_TRUE(answered.has_value());
  EXPECT_FALSE(*answered);
  EXPECT_EQ(server->locate(42).size(), 1u);
}

TEST_F(NamingTest, LocateUnknownObjectReturnsEmpty) {
  std::optional<bool> ok;
  client->locate(999, [&](bool found, std::vector<ContactPoint>) {
    ok = found;
  });
  sim.run();
  ASSERT_TRUE(ok.has_value());
  EXPECT_FALSE(*ok);
}

TEST_F(NamingTest, DirectServerApi) {
  server->register_name("a", 1);
  server->register_name("b", 2);
  EXPECT_EQ(server->lookup("a"), 1u);
  EXPECT_EQ(server->lookup("b"), 2u);
  EXPECT_EQ(server->lookup("c"), 0u);
}

TEST(ContactPointTest, CodecRoundTrip) {
  ContactPoint c;
  c.address = {9, 7};
  c.store_class = StoreClass::kObjectInitiated;
  c.store_id = 3;
  c.is_primary = false;
  util::Writer w;
  c.encode(w);
  util::Reader r{util::BytesView(w.view())};
  EXPECT_EQ(ContactPoint::decode(r), c);
}

TEST(StoreClassTest, Names) {
  EXPECT_STREQ(to_string(StoreClass::kPermanent), "permanent");
  EXPECT_STREQ(to_string(StoreClass::kObjectInitiated), "object-initiated");
  EXPECT_STREQ(to_string(StoreClass::kClientInitiated), "client-initiated");
}

}  // namespace
}  // namespace globe::naming
