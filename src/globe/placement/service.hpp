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

/// Server side: owns the layout and the per-shard contact tables.
class PlacementServer {
 public:
  PlacementServer(const TransportFactory& factory, sim::Simulator* sim);
  ~PlacementServer();

  [[nodiscard]] Address address() const { return comm_.local_address(); }

  /// Installs a new layout (epoch must advance) and notifies watchers.
  void set_layout(Layout layout);
  [[nodiscard]] const Layout& layout() const { return layout_; }

  /// Placement-state version: bumped on every layout or contact change.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  void register_contact(ShardId shard, const ContactPoint& contact);
  void unregister_contact(ShardId shard, const Address& addr);
  [[nodiscard]] std::vector<ContactPoint> shard_contacts(ShardId shard) const;

  [[nodiscard]] Resolution resolve(ObjectId object) const;

 private:
  void on_message(const Address& from, const msg::EnvelopeView& env);
  void encode_state(util::Writer& w) const;
  void notify_watchers();

  CommunicationObject comm_;
  Layout layout_;
  std::map<ShardId, std::vector<ContactPoint>> contacts_;
  std::uint64_t version_ = 1;
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
  [[nodiscard]] std::uint64_t version() const { return version_; }
  [[nodiscard]] bool fresh() const { return version_ != 0 && !stale_; }
  [[nodiscard]] const Layout& layout() const { return layout_; }

  /// Local resolution from the cached state; nullopt before the first
  /// fetch. Stale state still resolves (callers rebind on failure).
  [[nodiscard]] std::optional<Resolution> resolve(ObjectId object) const;

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
  Layout layout_;
  std::map<ShardId, std::vector<ContactPoint>> contacts_;
  std::uint64_t version_ = 0;
  bool stale_ = true;
  bool fetch_in_flight_ = false;
  std::uint64_t refreshes_ = 0;
  std::uint64_t invalidations_ = 0;
  std::vector<EnsureHandler> waiters_;
};

}  // namespace globe::placement
