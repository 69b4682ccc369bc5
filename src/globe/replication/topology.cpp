#include "globe/replication/topology.hpp"

#include <algorithm>

namespace globe::replication {

std::vector<net::Address> Topology::apply_view(
    const membership::View& previous, const membership::View& view) {
  // A member that stayed in the view sees every epoch in sequence
  // (reliable FIFO delivery); a jump means this store missed some.
  jumped_ = previous.epoch != 0 && view.epoch > previous.epoch + 1;
  // Members of the previous view that this one lacks have left the
  // replica set (eviction, crash, graceful leave). A peer absent from
  // both views stays: a just-joined store can subscribe before the view
  // catches up, and stores without membership subscribe the static way.
  // Every member applies every view, so the diff must cost O(members):
  // a diff keeps the members that stay in order (ViewDelta::apply_to),
  // so a walk meets them in step, and only one out of step is looked up.
  std::vector<net::Address> departed;
  std::size_t next = 0;
  for (const naming::ContactPoint& m : previous.members) {
    if (next < view.members.size() && view.members[next].address == m.address) {
      ++next;
    } else if (!view.contains(m.address)) {
      departed.push_back(m.address);
    }
  }
  return departed;
}

bool Topology::reparent(Links& l, const membership::View& view,
                        const net::Address& self) const {
  if (primary_) return false;
  if (view.contains(l.upstream)) return jumped_;
  const naming::ContactPoint* next = membership::choose_upstream(view, self);
  if (next == nullptr) return jumped_;
  l.upstream = next->address;
  return true;
}

bool Topology::subscribe(Links& l, ObjectId id, const net::Address& peer,
                         bool beacons) {
  const std::uint64_t key = addr_key(peer);
  if (beacons) lanes_[key].insert(id);
  if (std::ranges::find(l.subscribers, peer) != l.subscribers.end()) {
    return false;
  }
  l.subscribers.push_back(peer);
  resume(key);
  return true;
}

void Topology::forget_peer(const net::Address& peer) {
  lanes_.erase(addr_key(peer));
  resume(addr_key(peer));
}

bool Topology::drop(Links& l, ObjectId id, const net::Address& peer) {
  if (std::erase(l.subscribers, peer) == 0) return false;
  const auto lane = lanes_.find(addr_key(peer));
  if (lane != lanes_.end() && lane->second.erase(id) != 0 &&
      lane->second.empty()) {
    forget_peer(peer);
  }
  return true;
}

void Topology::set_lanes(const Links& l, ObjectId id, bool on) {
  // A subscriber already anchored on a lane learns the object's current
  // frontier from the next beacon, not when it next moves.
  frontier_moved(l, id, on);
  for (const net::Address& s : l.subscribers) {
    if (on) {
      lanes_[addr_key(s)].insert(id);
    } else if (auto lane = lanes_.find(addr_key(s)); lane != lanes_.end()) {
      lane->second.erase(id);
      if (lane->second.empty()) lanes_.erase(lane);
    }
  }
}

bool Topology::park(std::uint64_t key, std::size_t depth) {
  const std::size_t rounds = ++paused_.at(key);
  return rounds <= kFlowPausedRoundsLimit && depth < kFlowPausedBatchesLimit;
}

std::vector<net::Address> Topology::push_targets(
    const Links& l, const core::ReplicationPolicy& p) const {
  std::vector<net::Address> targets;
  targets.reserve(l.subscribers.size() + 1);
  targets.assign(l.subscribers.begin(), l.subscribers.end());
  if (pushes_upstream(p)) targets.push_back(l.upstream);
  return targets;
}

std::vector<ObjectId> Topology::lane(const net::Address& peer) const {
  const auto it = lanes_.find(addr_key(peer));
  if (it == lanes_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

std::map<std::vector<ObjectId>, std::vector<net::Address>>
Topology::take_beacons() {
  std::map<std::vector<ObjectId>, std::vector<net::Address>> groups;
  for (const auto& [peer, objects] : lanes_) {
    std::vector<ObjectId> listed;
    for (const ObjectId id : moved_) {
      if (objects.count(id) != 0) listed.push_back(id);
    }
    groups[std::move(listed)].push_back(key_addr(peer));
  }
  moved_.clear();
  return groups;
}

}  // namespace globe::replication
