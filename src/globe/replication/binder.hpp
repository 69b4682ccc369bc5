// Binder: the paper's binding step (Section 2).
//
// "In order for a process to invoke an object's method, it must first
//  bind to that object by contacting it at one of the object's contact
//  points. Binding results in an interface belonging to the object being
//  placed in the client's address space, along with an implementation of
//  that interface."
//
// The Binder resolves a symbolic name through the naming service, asks
// the location service for the object's contact points, picks a read
// store following the layered-store preference (client-initiated, then
// object-initiated, then permanent — Section 3.1: "It is generally up to
// the client to decide to which replica he will bind") and the primary
// as write store, and instantiates the client local object.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "globe/naming/service.hpp"
#include "globe/replication/client_binding.hpp"

namespace globe::replication {

/// Client-side binding preferences.
struct BindRequest {
  ClientId client = 1;
  coherence::ClientModel session = coherence::ClientModel::kNone;
  /// Object-based model of the target object; determines whether writes
  /// are routed to the primary. (A full system would advertise this via
  /// the location service; the caller supplies it here.)
  coherence::ObjectModel object_model = coherence::ObjectModel::kPram;
  sim::SimDuration timeout{};
  int retries = 0;
};

class Binder {
 public:
  Binder(core::TransportFactory factory, sim::Simulator& sim,
         net::Address naming_server)
      : factory_(std::move(factory)),
        sim_(sim),
        naming_(factory_, &sim, naming_server) {}

  using BindHandler =
      std::function<void(bool ok, std::unique_ptr<ClientBinding> binding)>;

  /// Resolves `name` and binds. The handler receives the new client
  /// local object (nullptr on failure: unknown name or no contacts).
  void bind(const std::string& name, BindRequest request, BindHandler done) {
    naming_.lookup(name, [this, request = std::move(request),
                          done = std::move(done)](bool ok,
                                                  ObjectId object) mutable {
      if (!ok) {
        done(false, nullptr);
        return;
      }
      naming_.locate(object, [this, object, request = std::move(request),
                              done = std::move(done)](
                                 bool found,
                                 std::vector<naming::ContactPoint> contacts) {
        if (!found || contacts.empty()) {
          done(false, nullptr);
          return;
        }
        done(true, make_binding(object, request, contacts));
      });
    });
  }

 private:
  // Contact selection lives in naming/contact.hpp, so that view-change
  // rebinding (ClientBinding) resolves contacts exactly like the bind.
  std::unique_ptr<ClientBinding> make_binding(
      ObjectId object, const BindRequest& request,
      const std::vector<naming::ContactPoint>& contacts) {
    const auto* read =
        naming::choose_read_contact(contacts, kPreferredReadLayer,
                                    naming::contact_spread(object,
                                                           request.client));
    const auto* write = naming::choose_write_contact(
        contacts, coherence::multi_master(request.object_model), read);
    if (read == nullptr) return nullptr;
    BindOptions opts;
    opts.object = object;
    opts.client = request.client;
    opts.session = request.session;
    opts.object_model = request.object_model;
    opts.read_store = read->address;
    opts.write_store = write != nullptr ? write->address : read->address;
    opts.timeout = request.timeout;
    opts.retries = request.retries;
    return std::make_unique<ClientBinding>(factory_, sim_, std::move(opts));
  }

  core::TransportFactory factory_;
  sim::Simulator& sim_;
  naming::NamingClient naming_;
};

}  // namespace globe::replication
