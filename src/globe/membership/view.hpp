// Replica views: epoch-numbered per-object membership.
//
// The paper binds clients to a fixed per-object replica set; this module
// makes that set dynamic. A View is the membership service's statement of
// which stores currently carry one distributed object, stamped with a
// monotonically increasing epoch. Every change — join, graceful leave,
// failure eviction, re-admission after a partition heals — produces a new
// epoch, broadcast to the members and to watching clients. The
// replication layer subscribes to these views: stores drop evicted
// subscribers and re-resolve their propagation parent, clients re-bind
// their read/write stores (see docs/scenarios.md).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "globe/coherence/vector_clock.hpp"
#include "globe/naming/contact.hpp"
#include "globe/net/address.hpp"
#include "globe/util/buffer.hpp"
#include "globe/util/ids.hpp"

namespace globe::membership {

/// One replica subgroup's membership at one epoch. Members are the
/// alive stores only: evicted and departed stores are simply absent.
///
/// `object` names the membership scope: a single object in the original
/// per-object mode, or a whole cluster of stores in sharded mode. In
/// sharded mode the scope's one member list is projected into per-shard
/// subgroup views (Derecho-style), and `shard` says which projection
/// this view is; each shard's epoch advances independently.
struct View {
  ObjectId object = 0;  // membership scope (object id or cluster id)
  ShardId shard = 0;    // subgroup within the scope (0 in legacy mode)
  std::uint64_t epoch = 0;
  std::vector<naming::ContactPoint> members;

  [[nodiscard]] bool contains(const net::Address& addr) const {
    return find(addr) != nullptr;
  }

  [[nodiscard]] const naming::ContactPoint* find(
      const net::Address& addr) const {
    for (const auto& m : members) {
      if (m.address == addr) return &m;
    }
    return nullptr;
  }

  [[nodiscard]] const naming::ContactPoint* primary() const {
    for (const auto& m : members) {
      if (m.is_primary) return &m;
    }
    return nullptr;
  }

  void encode(util::Writer& w) const {
    w.varint(object);
    w.varint(shard);
    w.varint(epoch);
    w.varint(members.size());
    for (const auto& m : members) m.encode(w);
  }

  static View decode(util::Reader& r) {
    View v;
    v.object = r.varint();
    v.shard = r.varint32();
    v.epoch = r.varint();
    const std::uint64_t n = r.count(naming::ContactPoint::kMinEncodedBytes);
    v.members.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      v.members.push_back(naming::ContactPoint::decode(r));
    }
    return v;
  }

  friend bool operator==(const View&, const View&) = default;
};

/// Picks the propagation parent for `self` out of a view: the primary if
/// it is in the view; otherwise the most permanent member strictly above
/// `self` (a lower store class, or the same class and a lower store id),
/// the store most likely to hold the longest history. Null when `self`
/// is not in the view or no member is above it: the store then keeps its
/// upstream. A store only ever re-parents upward, so the parent relation
/// follows the store layers and cannot form a cycle.
[[nodiscard]] inline const naming::ContactPoint* choose_upstream(
    const View& view, const net::Address& self) {
  for (const auto& m : view.members) {
    if (m.is_primary && m.address != self) return &m;
  }
  const naming::ContactPoint* me = view.find(self);
  if (me == nullptr) return nullptr;
  const auto rank = [](const naming::ContactPoint& c) {
    return std::pair{static_cast<std::uint8_t>(c.store_class), c.store_id};
  };
  const naming::ContactPoint* best = nullptr;
  for (const auto& m : view.members) {
    if (rank(m) < rank(*me) && (best == nullptr || rank(m) < rank(*best))) {
      best = &m;
    }
  }
  return best;
}

/// kViewDelta body: one epoch step expressed as a diff — the members that
/// joined and the addresses that left since the previous epoch — instead
/// of the full membership list. At high replica counts this removes the
/// O(members) amplification of broadcasting every view change to every
/// member and watcher. A receiver applies the delta onto its cached view
/// when the epoch is contiguous; on a gap (it missed deltas) it fetches
/// the full view with kViewFetchRequest (ViewFollower, follower.hpp).
struct ViewDelta {
  ObjectId object = 0;  // membership scope
  ShardId shard = 0;    // subgroup the diff applies to
  std::uint64_t epoch = 0;  // the epoch AFTER this change
  std::vector<naming::ContactPoint> joined;
  std::vector<net::Address> left;

  /// Applies this diff onto `base` (the receiver's cached previous
  /// view), producing the members of `epoch`.
  void apply_to(View& base) const {
    for (const net::Address& a : left) {
      std::erase_if(base.members, [&](const naming::ContactPoint& m) {
        return m.address == a;
      });
    }
    for (const naming::ContactPoint& c : joined) {
      if (!base.contains(c.address)) base.members.push_back(c);
    }
    base.object = object;
    base.shard = shard;
    base.epoch = epoch;
  }

  void encode(util::Writer& w) const {
    w.varint(object);
    w.varint(shard);
    w.varint(epoch);
    w.varint(joined.size());
    for (const auto& c : joined) c.encode(w);
    w.varint(left.size());
    for (const auto& a : left) net::encode_address(w, a);
  }

  static ViewDelta decode(util::BytesView wire) {
    util::Reader r(wire);
    ViewDelta d;
    d.object = r.varint();
    d.shard = r.varint32();
    d.epoch = r.varint();
    const std::uint64_t nj = r.count(naming::ContactPoint::kMinEncodedBytes);
    d.joined.reserve(nj);
    for (std::uint64_t i = 0; i < nj; ++i) {
      d.joined.push_back(naming::ContactPoint::decode(r));
    }
    const std::uint64_t nl = r.count(net::kMinAddressBytes);
    d.left.reserve(nl);
    for (std::uint64_t i = 0; i < nl; ++i) {
      d.left.push_back(net::decode_address(r));
    }
    r.expect_end();
    return d;
  }
};

// ---------------------------------------------------------------------
// Wire bodies of the membership protocol (envelope types 24..28, 33,
// 34 and 41).
// ---------------------------------------------------------------------

/// kMembershipJoin / kMembershipHeartbeat body: the sender's contact
/// point. A heartbeat from a store that is not in the view (evicted
/// during a partition, now heard from again) is treated as a join, which
/// is what re-admits replicas automatically after a heal.
struct MemberAnnounce {
  naming::ContactPoint contact;
  ShardId shard = 0;  // subgroup the announcing store serves

  // Stability-horizon piggyback: the announcing store's minimum applied
  // state across the objects it hosts (element-wise min clock, min
  // global seq). The membership service records it, and its next
  // failure-detector sweep folds it into the cluster-wide GC floor it
  // broadcasts as kStabilityHorizon.
  // `has_applied` is false for stores hosting no replicated object yet —
  // they carry no data and must not stall the floor.
  bool has_applied = false;
  coherence::VectorClock applied;
  std::uint64_t applied_gseq = 0;

  void encode(util::Writer& w) const {
    contact.encode(w);
    w.varint(shard);
    w.boolean(has_applied);
    applied.encode(w);
    w.varint(applied_gseq);
  }

  static MemberAnnounce decode(util::BytesView wire) {
    util::Reader r(wire);
    MemberAnnounce m;
    m.contact = naming::ContactPoint::decode(r);
    m.shard = r.varint32();
    m.has_applied = r.boolean();
    m.applied = coherence::VectorClock::decode(r);
    m.applied_gseq = r.varint();
    r.expect_end();
    return m;
  }
};

/// kStabilityHorizon body: the scope-wide GC floor — the element-wise
/// minimum applied clock and minimum applied global seq over every live
/// member that hosts data. Everything at or below this floor has been
/// applied cluster-wide, so write-log entries can compact past it,
/// tombstones for covered deletes can be collected, and the streaming
/// checker can retire buffered events. The floor only ever advances;
/// receivers must treat a regressing announcement as stale.
struct HorizonMsg {
  coherence::VectorClock clock;
  std::uint64_t gseq = 0;

  void encode(util::Writer& w) const {
    clock.encode(w);
    w.varint(gseq);
  }

  static HorizonMsg decode(util::BytesView wire) {
    util::Reader r(wire);
    HorizonMsg m;
    m.clock = coherence::VectorClock::decode(r);
    m.gseq = r.varint();
    r.expect_end();
    return m;
  }
};

/// kMembershipLeave body: graceful departure of an endpoint.
struct LeaveMsg {
  net::Address address;

  void encode(util::Writer& w) const { net::encode_address(w, address); }

  static LeaveMsg decode(util::BytesView wire) {
    util::Reader r(wire);
    LeaveMsg m;
    m.address = net::decode_address(r);
    r.expect_end();
    return m;
  }
};

/// kMembershipWatch body: a client endpoint subscribing to (or, with
/// subscribe=false, unsubscribing from) view-change pushes.
struct WatchMsg {
  net::Address watcher;
  ShardId shard = 0;  // subgroup whose view changes the watcher wants
  bool subscribe = true;

  void encode(util::Writer& w) const {
    net::encode_address(w, watcher);
    w.varint(shard);
    w.boolean(subscribe);
  }

  static WatchMsg decode(util::BytesView wire) {
    util::Reader r(wire);
    WatchMsg m;
    m.watcher = net::decode_address(r);
    m.shard = r.varint32();
    m.subscribe = r.boolean();
    r.expect_end();
    return m;
  }
};

/// kViewFetchRequest body: which subgroup's full view to fetch.
struct ViewFetchMsg {
  ShardId shard = 0;

  void encode(util::Writer& w) const { w.varint(shard); }

  static ViewFetchMsg decode(util::BytesView wire) {
    ViewFetchMsg m;
    util::Reader r(wire);
    m.shard = r.varint32();
    r.expect_end();
    return m;
  }
};

/// kMembershipJoinAck / kViewFetchReply body: the view itself.
struct ViewMsg {
  View view;

  void encode(util::Writer& w) const { view.encode(w); }

  static ViewMsg decode(util::BytesView wire) {
    util::Reader r(wire);
    ViewMsg m;
    m.view = View::decode(r);
    r.expect_end();
    return m;
  }
};

}  // namespace globe::membership
