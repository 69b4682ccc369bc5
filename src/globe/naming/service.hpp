// Naming and location service.
//
// Globe separates naming (human name -> object handle) from location
// (object handle -> contact addresses). This module provides both as a
// networked service: a NamingServer bound to a well-known address, and a
// NamingClient used by runtimes to register stores and by clients to
// bind to objects. Both operate over the standard envelope protocol, so
// they run on any transport.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "globe/core/comm.hpp"
#include "globe/naming/contact.hpp"

namespace globe::naming {

using core::CommunicationObject;
using core::TransportFactory;
using net::Address;

/// Server side: owns the name and location tables.
class NamingServer {
 public:
  NamingServer(const TransportFactory& factory, sim::Simulator* sim);

  [[nodiscard]] Address address() const { return comm_.local_address(); }

  // Direct (in-process) access, used by local setups and tests.
  void register_name(const std::string& name, ObjectId object);
  [[nodiscard]] ObjectId lookup(const std::string& name) const;  // 0 if absent
  void register_contact(ObjectId object, const ContactPoint& contact);
  void unregister_contact(ObjectId object, const Address& addr);
  [[nodiscard]] std::vector<ContactPoint> locate(ObjectId object) const;

 private:
  void on_message(const Address& from, const msg::EnvelopeView& env);

  CommunicationObject comm_;
  std::map<std::string, ObjectId> names_;
  std::map<ObjectId, std::vector<ContactPoint>> contacts_;
};

/// Client side: issues naming/location requests over the network.
class NamingClient {
 public:
  NamingClient(const TransportFactory& factory, sim::Simulator* sim,
               Address server)
      : comm_(sim), server_(server) {
    comm_.open(factory, {});  // receives replies only
  }

  using LookupHandler = std::function<void(bool ok, ObjectId object)>;
  using LocateHandler =
      std::function<void(bool ok, std::vector<ContactPoint> contacts)>;
  using AckHandler = std::function<void(bool ok)>;

  void register_name(const std::string& name, ObjectId object, AckHandler cb);
  void lookup(const std::string& name, LookupHandler cb);
  void register_contact(ObjectId object, const ContactPoint& contact,
                        AckHandler cb);
  void locate(ObjectId object, LocateHandler cb);

 private:
  CommunicationObject comm_;
  Address server_;
};

}  // namespace globe::naming
