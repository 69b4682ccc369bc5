// Placement service: object -> shard -> ordered contact list.
//
// Layered on naming/: where the NamingServer maps one ObjectId to its
// contact list, the PlacementServer maps the whole object space through
// an epoch-numbered shard Layout (rendezvous hashing + pinned-object
// overrides) to per-shard contact tables. Clients and stores resolve
// object -> shard -> contacts deterministically; a PlacementCache holds
// the full layout + contact tables locally, so after one fetch every
// resolution is a local computation. Watchers receive a version push
// whenever the layout or a shard's contacts change and invalidate their
// cache, re-fetching lazily on the next resolution — the layout-epoch
// invalidation protocol the client binding relies on.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "globe/core/comm.hpp"
#include "globe/naming/contact.hpp"
#include "globe/placement/layout.hpp"

namespace globe::placement {

using core::CommunicationObject;
using core::TransportFactory;
using naming::ContactPoint;
using net::Address;

/// One resolved object: which shard serves it, under which placement
/// state version, and the shard's ordered contact list.
struct Resolution {
  std::uint64_t version = 0;      // placement-state version (layout+contacts)
  std::uint64_t layout_epoch = 0;
  ShardId shard = 0;
  std::vector<ContactPoint> contacts;
};

/// The placement state: its version (bumped on every layout or contact
/// change), the layout, and each shard's ordered contacts. The server
/// owns one and a kPlacementFetchReply carries it; a cache holds a copy.
struct PlacementState {
  std::uint64_t version = 0;
  Layout layout;
  std::map<ShardId, std::vector<ContactPoint>> contacts;

  /// `object`'s shard under this state and that shard's contacts.
  [[nodiscard]] Resolution resolve(ObjectId object) const {
    Resolution res;
    res.version = version;
    res.layout_epoch = layout.epoch;
    res.shard = layout.shard_of(object);
    if (auto it = contacts.find(res.shard); it != contacts.end()) {
      res.contacts = it->second;
    }
    return res;
  }

  void encode(util::Writer& w) const {
    w.varint(version);
    layout.encode(w);
    w.varint(contacts.size());
    for (const auto& [shard, list] : contacts) {
      w.varint(shard);
      w.varint(list.size());
      for (const auto& c : list) c.encode(w);
    }
  }

  static PlacementState decode(util::BytesView wire) {
    util::Reader r(wire);
    PlacementState s;
    s.version = r.varint();
    s.layout = Layout::decode(r);
    const std::uint64_t shards = r.count(2);  // a shard id and a count
    for (std::uint64_t i = 0; i < shards; ++i) {
      auto& list = s.contacts[r.varint32()];
      const std::uint64_t n = r.count(ContactPoint::kMinEncodedBytes);
      list.reserve(n);
      for (std::uint64_t j = 0; j < n; ++j) {
        list.push_back(ContactPoint::decode(r));
      }
    }
    r.expect_end();
    return s;
  }
};

/// Server side: owns the layout and the per-shard contact tables.
class PlacementServer {
 public:
  PlacementServer(const TransportFactory& factory, sim::Simulator* sim);
  ~PlacementServer();

  [[nodiscard]] Address address() const { return comm_.local_address(); }

  /// Installs a new layout (epoch must advance) and notifies watchers.
  void set_layout(Layout layout);
  [[nodiscard]] const Layout& layout() const { return state_.layout; }

  /// Placement-state version: bumped on every layout or contact change.
  [[nodiscard]] std::uint64_t version() const { return state_.version; }

  void register_contact(ShardId shard, const ContactPoint& contact);
  void unregister_contact(ShardId shard, const Address& addr);

  [[nodiscard]] Resolution resolve(ObjectId object) const {
    return state_.resolve(object);
  }

 private:
  void on_message(const Address& from, const msg::EnvelopeView& env);
  void notify_watchers();

  CommunicationObject comm_;
  PlacementState state_{1, {}, {}};  // version 1: no layout, no contacts
  std::vector<Address> watchers_;
};

/// Client side: caches the full placement state (layout + contact
/// tables) and resolves locally. `ensure` refreshes the cache when it is
/// empty or has been invalidated by a version push from the server.
class PlacementCache {
 public:
  using EnsureHandler = std::function<void(bool ok)>;

  PlacementCache(const TransportFactory& factory, sim::Simulator* sim,
                 Address server);
  ~PlacementCache();

  [[nodiscard]] Address address() const { return comm_.local_address(); }

  /// Subscribes to invalidation pushes and performs the initial fetch.
  void start();

  /// Version of the cached state; 0 until the first fetch completes.
  [[nodiscard]] std::uint64_t version() const { return state_.version; }
  [[nodiscard]] bool fresh() const { return version() != 0 && !stale_; }
  [[nodiscard]] const Layout& layout() const { return state_.layout; }

  /// Local resolution from the cached state; nullopt before the first
  /// fetch. Stale state still resolves (callers rebind on failure).
  [[nodiscard]] std::optional<Resolution> resolve(ObjectId object) const {
    if (version() == 0) return std::nullopt;
    return state_.resolve(object);
  }

  /// Invokes `cb(true)` once the cache is fresh, fetching if necessary.
  void ensure(EnsureHandler cb);

  /// Drops freshness; the next ensure() re-fetches.
  void invalidate();

  [[nodiscard]] std::uint64_t refreshes() const { return refreshes_; }
  [[nodiscard]] std::uint64_t invalidations() const { return invalidations_; }

 private:
  void on_message(const Address& from, const msg::EnvelopeView& env);
  void fetch();

  CommunicationObject comm_;
  Address server_;
  PlacementState state_;
  bool stale_ = true;
  bool fetch_in_flight_ = false;
  std::uint64_t refreshes_ = 0;
  std::uint64_t invalidations_ = 0;
  std::vector<EnsureHandler> waiters_;
};

}  // namespace globe::placement
