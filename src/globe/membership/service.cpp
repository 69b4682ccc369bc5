#include "globe/membership/service.hpp"

#include <algorithm>

#include "globe/check/monitor.hpp"
#include "globe/util/log.hpp"

namespace globe::membership {

MembershipService::MembershipService(const TransportFactory& factory,
                                     sim::Simulator& sim,
                                     MembershipOptions options)
    : sim_(sim),
      options_(options),
      comm_(&sim),
      sweep_timer_(sim, options_.heartbeat_period, [this] { sweep(); }) {
  comm_.open(factory,
             [this](const Address& from, const msg::EnvelopeView& env) {
               on_message(from, env);
             });
  sweep_timer_.start();
}

MembershipService::~MembershipService() {
  check::release(this);
}

std::uint64_t MembershipService::shard_epoch(ObjectId scope,
                                             ShardId shard) const {
  auto it = scopes_.find(scope);
  if (it == scopes_.end()) return 0;
  auto sit = it->second.shards.find(shard);
  return sit == it->second.shards.end() ? 0 : sit->second.epoch;
}

std::size_t MembershipService::watcher_count(ObjectId object,
                                             ShardId shard) const {
  auto it = watchers_.find({object, shard});
  return it == watchers_.end() ? 0 : it->second.size();
}

View MembershipService::snapshot_view(ObjectId scope, ShardId shard) const {
  View v;
  v.object = scope;
  v.shard = shard;
  auto it = scopes_.find(scope);
  if (it == scopes_.end()) return v;
  auto sit = it->second.shards.find(shard);
  if (sit == it->second.shards.end()) return v;
  v.epoch = sit->second.epoch;
  for (const MemberState& m : it->second.members) {
    if (m.shard == shard) v.members.push_back(m.contact);
  }
  return v;
}

void MembershipService::admit(ObjectId scope, const MemberAnnounce& announce,
                              bool* added) {
  ScopeState& state = scopes_[scope];
  const naming::ContactPoint& contact = announce.contact;
  auto it = std::find_if(state.members.begin(), state.members.end(),
                         [&](const MemberState& m) {
                           return m.contact.address == contact.address;
                         });
  if (it != state.members.end()) {
    it->contact = contact;
    it->last_heard = now();
    if (announce.has_applied) {
      it->has_applied = true;
      it->applied = announce.applied;
      it->applied_gseq = announce.applied_gseq;
    }
    *added = false;
    return;
  }
  state.members.push_back(MemberState{.contact = contact,
                                      .shard = announce.shard,
                                      .last_heard = now(),
                                      .has_applied = announce.has_applied,
                                      .applied = announce.applied,
                                      .applied_gseq = announce.applied_gseq});
  ++state.shards[announce.shard].epoch;
  if (options_.naming != nullptr) {
    options_.naming->register_contact(scope, contact);
  }
  *added = true;
}

HorizonMsg MembershipService::stability_horizon(ObjectId scope) const {
  HorizonMsg h;
  auto it = scopes_.find(scope);
  if (it == scopes_.end()) return h;
  h.clock = it->second.horizon;
  h.gseq = it->second.horizon_gseq;
  return h;
}

void MembershipService::update_horizon(ObjectId scope, ScopeState& state) {
  // Candidate floor: element-wise min applied clock (and min gseq) over
  // the data-carrying members that are still live. A member silent past
  // the failure timeout is excluded even if not (yet) evicted — notably
  // the eviction-exempt primary — so one crashed store cannot freeze GC
  // for the whole cluster.
  bool any = false;
  coherence::VectorClock candidate;
  std::uint64_t candidate_gseq = 0;
  for (const MemberState& m : state.members) {
    if (!m.has_applied) continue;
    if (now() - m.last_heard > options_.failure_timeout) continue;
    if (!any) {
      candidate = m.applied;
      candidate_gseq = m.applied_gseq;
      any = true;
    } else {
      candidate.floor_with(m.applied);
      candidate_gseq = std::min(candidate_gseq, m.applied_gseq);
    }
  }
  if (!any) return;

  // The floor is monotonic: merge, never replace, so a stale or partial
  // announcement (a fresh joiner that has not applied yet reports
  // has_applied with an empty clock) can stall but not regress it.
  coherence::VectorClock merged = state.horizon;
  merged.merge(candidate);
  bool advanced = false;
  if (!(merged == state.horizon)) {
    state.horizon = std::move(merged);
    advanced = true;
  }
  if (candidate_gseq > state.horizon_gseq) {
    state.horizon_gseq = candidate_gseq;
    advanced = true;
  }
  if (!advanced) return;
  ++stats_.horizon_advances;
  if (options_.metrics != nullptr) {
    options_.metrics->record_horizon_advance();
  }
  HorizonMsg h;
  h.clock = state.horizon;
  h.gseq = state.horizon_gseq;
  std::vector<Address> targets;
  targets.reserve(state.members.size());
  for (const MemberState& m : state.members) {
    targets.push_back(m.contact.address);
  }
  comm_.multicast_with(targets, msg::MsgType::kStabilityHorizon, scope,
                       [&](util::Writer& w) { h.encode(w); });
}

void MembershipService::remove(ObjectId scope, const Address& addr,
                               bool evicted) {
  auto it = scopes_.find(scope);
  if (it == scopes_.end()) return;
  auto& members = it->second.members;
  auto mit = std::find_if(members.begin(), members.end(),
                          [&](const MemberState& m) {
                            return m.contact.address == addr;
                          });
  if (mit == members.end()) return;
  const ShardId shard = mit->shard;
  members.erase(mit);
  ++it->second.shards[shard].epoch;
  if (options_.naming != nullptr) {
    options_.naming->unregister_contact(scope, addr);
  }
  if (evicted) {
    ++stats_.evictions;
  } else {
    ++stats_.leaves;
  }
  broadcast(scope, shard);
}

void MembershipService::sweep() {
  for (auto& [scope, state] : scopes_) {
    // Collect the silent members per shard: each affected shard gets one
    // epoch bump and one broadcast for the whole batch, and untouched
    // shards get neither — hot-shard churn cannot stall cold shards.
    std::map<ShardId, std::vector<Address>> dead;
    for (const MemberState& m : state.members) {
      if (m.contact.is_primary) continue;  // exempt from eviction
      if (now() - m.last_heard > options_.failure_timeout) {
        dead[m.shard].push_back(m.contact.address);
      }
    }
    for (const auto& [shard, addrs] : dead) {
      auto& members = state.members;
      for (const Address& addr : addrs) {
        std::erase_if(members, [&](const MemberState& m) {
          return m.contact.address == addr;
        });
        if (options_.naming != nullptr) {
          options_.naming->unregister_contact(scope, addr);
        }
        ++stats_.evictions;
      }
      ++state.shards[shard].epoch;
      broadcast(scope, shard);
    }
    // The one aggregation of the floor per period, after the evictions
    // (and timeouts that have not evicted yet, e.g. a crashed primary)
    // that can unblock it. Heartbeats only fold into `members`.
    update_horizon(scope, state);
  }
}

void MembershipService::broadcast(ObjectId scope, ShardId shard,
                                  const Address* exclude) {
  ++stats_.view_changes;
  if (options_.metrics != nullptr) {
    options_.metrics->record_shard_view_change(shard);
  }
  const View v = snapshot_view(scope, shard);
  GLOBE_CHECK_HOOK(on_view_publish(this, scope, shard, v.epoch));
  std::vector<Address> targets;
  for (const auto& m : v.members) {
    if (exclude != nullptr && m.address == *exclude) continue;
    targets.push_back(m.address);
  }
  auto wit = watchers_.find({scope, shard});
  if (wit != watchers_.end()) {
    targets.insert(targets.end(), wit->second.begin(), wit->second.end());
  }

  // Diff broadcast: epoch + joined/left instead of the full member list.
  // Every epoch bump is followed by exactly one broadcast, so this is
  // the diff from the previous epoch's; a group's first broadcast diffs
  // against the empty epoch-0 view.
  ShardGroup& group = scopes_[scope].shards[shard];
  ViewDelta d;
  d.object = scope;
  d.shard = shard;
  d.epoch = v.epoch;
  for (const auto& m : v.members) {
    bool had = false;
    for (const auto& prev : group.broadcast_members) {
      if (prev.address == m.address) {
        had = true;
        break;
      }
    }
    if (!had) d.joined.push_back(m);
  }
  for (const auto& prev : group.broadcast_members) {
    if (!v.contains(prev.address)) d.left.push_back(prev.address);
  }
  ++stats_.delta_broadcasts;
  comm_.multicast_with(targets, msg::MsgType::kViewDelta, scope,
                       [&](util::Writer& w) { d.encode(w); });
  group.broadcast_members = v.members;
}

void MembershipService::on_message(const Address& from,
                                   const msg::EnvelopeView& env) {
  switch (env.type) {
    case msg::MsgType::kMembershipJoin: {
      const MemberAnnounce m = MemberAnnounce::decode(env.body);
      bool added = false;
      admit(env.object, m, &added);
      if (added) {
        ++stats_.joins;
        broadcast(env.object, m.shard, &m.contact.address);
      }
      const View v = snapshot_view(env.object, m.shard);
      comm_.reply_with(from, msg::MsgType::kMembershipJoinAck, env.object,
                       env.request_id, [&](util::Writer& w) { v.encode(w); });
      return;
    }
    case msg::MsgType::kMembershipHeartbeat: {
      const MemberAnnounce m = MemberAnnounce::decode(env.body);
      bool added = false;
      admit(env.object, m, &added);
      if (added) {
        // Heard from a store the view does not contain: it was evicted
        // during a partition (or crashed and recovered) and is back.
        ++stats_.rejoins;
        broadcast(env.object, m.shard);
      }
      // admit() recorded the applied-state piggyback; the next sweep
      // folds it into the scope's GC floor.
      return;
    }
    case msg::MsgType::kMembershipLeave: {
      const LeaveMsg m = LeaveMsg::decode(env.body);
      remove(env.object, m.address, /*evicted=*/false);
      return;
    }
    case msg::MsgType::kViewFetchRequest: {
      // A receiver with an epoch gap (it missed delta broadcasts, e.g.
      // across a partition) re-anchors on the full view.
      ++stats_.view_fetches;
      const ViewFetchMsg m = ViewFetchMsg::decode(env.body);
      const View v = snapshot_view(env.object, m.shard);
      comm_.reply_with(from, msg::MsgType::kViewFetchReply, env.object,
                       env.request_id, [&](util::Writer& w) { v.encode(w); });
      return;
    }
    case msg::MsgType::kMembershipWatch: {
      const WatchMsg m = WatchMsg::decode(env.body);
      auto& list = watchers_[{env.object, m.shard}];
      if (!m.subscribe) {
        std::erase(list, m.watcher);
        return;
      }
      if (std::find(list.begin(), list.end(), m.watcher) == list.end()) {
        list.push_back(m.watcher);
      }
      return;
    }
    default:
      GLOBE_LOG_ERROR("membership", "unexpected message type %s",
                      msg::to_string(env.type));
  }
}

}  // namespace globe::membership
