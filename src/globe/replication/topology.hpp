// Topology: the propagation graph of one store, with no I/O.
//
// The paper gives every Web object its own propagation graph over the
// store layers of Figure 2: permanent stores, then object-initiated,
// then client-initiated ones. This is that graph as one store sees it:
// each hosted object's upstream and subscribers, and the clock beacon
// lane and flow-control pause of each subscriber peer (a peer's channel
// is shared by every object it subscribes to).
//
// It takes views, subscribes, unsubscribes and flow-control drops. It
// answers where a record is pushed, which objects re-subscribe after a
// view, whether a push came over an edge the store holds, and whether
// an object may fold on its upstream's frontier. Like
// ObjectReplica it sends nothing and depends on no comm, sim, metrics or
// obs: the StoreEngine turns its answers into sends, so the re-parent
// rule and the peer bookkeeping can be tested over views alone.
//
// An object's own edges (Links) live in the engine's per-object state,
// so hosting an object adds no node to a store-wide table.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <ranges>
#include <set>
#include <vector>

#include "globe/core/policy.hpp"
#include "globe/membership/view.hpp"
#include "globe/net/address.hpp"

namespace globe::replication {

/// A peer's key in the per-peer tables: its address packed into one
/// integer, which orders like the address.
[[nodiscard]] inline std::uint64_t addr_key(const net::Address& a) {
  return (static_cast<std::uint64_t>(a.node) << 16) | a.port;
}

[[nodiscard]] inline net::Address key_addr(std::uint64_t key) {
  net::Address a;
  a.node = static_cast<NodeId>(key >> 16);
  a.port = static_cast<PortId>(key & 0xFFFF);
  return a;
}

/// Propagation rounds a subscriber may stay paused before it is dropped.
inline constexpr std::size_t kFlowPausedRoundsLimit = 64;
/// Batches parked for one paused subscriber before it is dropped.
inline constexpr std::size_t kFlowPausedBatchesLimit = 4096;

class Topology {
 public:
  /// One hosted object's edges. Only the Topology changes them.
  struct Links {
    net::Address upstream;  // propagation parent; invalid on the primary
    std::vector<net::Address> subscribers;  // in subscribe order
  };

  /// `primary`: the store is the primary, whose objects have no
  /// upstream. `membership`: views may re-parent the store's objects.
  Topology(bool primary, bool membership)
      : primary_(primary), membership_(membership) {}

  // ---- inputs ----

  /// The store adopted `view` after `previous` (its ViewFollower's
  /// handover). Returns the members of `previous` that `view` lacks. The
  /// caller then forgets each departed peer (unsubscribe from every
  /// object, forget_peer) and asks reparent() of each object.
  std::vector<net::Address> apply_view(const membership::View& previous,
                                       const membership::View& view);
  /// The per-object half of the adopted `view`: when `l`'s upstream left
  /// it, re-parents `l` by membership::choose_upstream as `self` (a store
  /// only ever re-parents upward). True when the object must
  /// re-subscribe: its upstream changed, or the store missed epochs
  /// (evicted and re-admitted, most likely), so an upstream may have
  /// dropped it.
  bool reparent(Links& l, const membership::View& view,
                const net::Address& self) const;
  /// `peer` subscribes to `l`'s object `id`; `beacons`: the object
  /// advertises its clock on the peer's lane. True for a new subscriber,
  /// whose pause verdict is cleared: it may be re-joining after an
  /// eviction, and its channel restarts clean.
  bool subscribe(Links& l, ObjectId id, const net::Address& peer,
                 bool beacons);
  /// The two halves of removing a peer: from one object's subscribers,
  /// and its beacon lane and pause verdict.
  void unsubscribe(Links& l, const net::Address& peer) {
    std::erase(l.subscribers, peer);
  }
  void forget_peer(const net::Address& peer);
  /// `peer` asked to leave `l`'s object `id` (kUnsubscribe): it leaves
  /// the subscribers and the object leaves its beacon lane; a peer left
  /// with no object on its lane loses the lane and its pause verdict, as
  /// in forget_peer. False, changing nothing, when `peer` is no
  /// subscriber (say, the object's own upstream, whose push-back
  /// overtook this store's subscribe).
  bool drop(Links& l, ObjectId id, const net::Address& peer);
  /// Lists `l`'s object `id` on the beacon lane of each of its
  /// subscribers, and in the next beacon, or (`on` false) takes it off.
  void set_lanes(const Links& l, ObjectId id, bool on);
  /// The applied frontier of `l`'s object `id` moved. When the object
  /// advertises its clock (`beacons`) to a subscriber, the next beacon
  /// lists it.
  void frontier_moved(const Links& l, ObjectId id, bool beacons) {
    if (beacons && !l.subscribers.empty()) moved_.insert(id);
  }
  /// One beacon per lane, listing the objects on it whose frontier moved
  /// since the last call; lanes with the same list share one group.
  [[nodiscard]] std::map<std::vector<ObjectId>, std::vector<net::Address>>
  take_beacons();
  /// Flow control: a peer's channel crossed its high watermark, or
  /// drained back (the one place a pause verdict is cleared).
  void pause(std::uint64_t key) { paused_.try_emplace(key, 0); }
  void resume(std::uint64_t key) { paused_.erase(key); }
  /// One more propagation round parks `depth` batches for the paused
  /// peer `key`. False once the peer is past either deadline
  /// (kFlowPausedRoundsLimit, kFlowPausedBatchesLimit): the caller drops
  /// it.
  [[nodiscard]] bool park(std::uint64_t key, std::size_t depth);

  // ---- answers ----

  [[nodiscard]] bool paused(std::uint64_t key) const {
    return paused_.count(key) != 0;
  }
  /// True when `peer` is an end of one of `l`'s edges: the upstream or a
  /// subscriber. A push from any other peer came over an edge only the
  /// pusher still holds (it missed this store re-parenting away), and
  /// the store answers it with kUnsubscribe.
  [[nodiscard]] static bool linked(const Links& l, const net::Address& peer) {
    return peer == l.upstream ||
           std::ranges::find(l.subscribers, peer) != l.subscribers.end();
  }
  // The per-record and per-frontier queries are defined here, so the
  // engine's apply loop can inline them.
  /// True when a non-primary multi-master object pushes to its upstream.
  [[nodiscard]] bool pushes_upstream(const core::ReplicationPolicy& p) const {
    return !primary_ && coherence::multi_master(p.model);
  }
  /// True when a record that arrived from `origin` (0 = local) has a
  /// push target to travel on to. Allocates nothing.
  [[nodiscard]] bool pushes_beyond(const Links& l,
                                   const core::ReplicationPolicy& p,
                                   std::uint64_t origin) const {
    if (p.initiative == core::TransferInitiative::kPull) return false;
    for (const net::Address& s : l.subscribers) {
      if (addr_key(s) != origin) return true;
    }
    return pushes_upstream(p) && addr_key(l.upstream) != origin;
  }
  /// The push targets: the subscribers, then the upstream when the
  /// object pushes upstream.
  [[nodiscard]] std::vector<net::Address> push_targets(
      const Links& l, const core::ReplicationPolicy& p) const;
  /// Where news that `from` sent goes on to: the subscribers but
  /// `from`, in subscribe order. A view; allocates nothing.
  [[nodiscard]] static auto downstream(const Links& l,
                                       const net::Address& from) {
    return l.subscribers | std::views::filter([from](const net::Address& s) {
             return s != from;
           });
  }
  /// True when a frontier `from` sent lets `l`'s object fold its log.
  /// The log's readers are the subscribers (fetch, anti-entropy) and the
  /// upstream (the push-back). With no subscriber at this moment, a
  /// record the upstream holds has no reader left here. Under membership
  /// a view can re-parent the object onto an upstream that lacks what
  /// the old one held without passing it on: such a store folds on the
  /// stability horizon only.
  [[nodiscard]] bool may_fold(const Links& l, const net::Address& from) const {
    return !membership_ && l.subscribers.empty() && from == l.upstream;
  }
  /// The objects on `peer`'s beacon lane.
  [[nodiscard]] std::vector<ObjectId> lane(const net::Address& peer) const;

 private:
  bool primary_;
  bool membership_;
  bool jumped_ = false;  // the adopted view skipped epochs
  // Per subscriber peer: the hosted objects it subscribes to that
  // advertise their clock. The objects whose frontier moved since the
  // last beacon.
  std::map<std::uint64_t, std::set<ObjectId>> lanes_;
  std::set<ObjectId> moved_;
  // Per paused peer: the propagation rounds parked for it.
  std::map<std::uint64_t, std::size_t> paused_;
};

}  // namespace globe::replication
