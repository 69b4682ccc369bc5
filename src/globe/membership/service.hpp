// Membership service: dynamic replica sets as a first-class subsystem.
//
// The service owns one epoch-numbered View per object (view.hpp) and
// runs the join/leave/evict protocol over the standard envelope
// transport, so it works on any runtime:
//
//   * stores join when they come up and heartbeat periodically;
//   * a graceful leave removes the member immediately;
//   * a heartbeat-based failure detector evicts members that have gone
//     silent (crash or partition) after `failure_timeout`;
//   * a heartbeat from an evicted member re-admits it — this is what
//     heals membership automatically after a partition, with no
//     operator action;
//   * every change bumps the epoch and broadcasts a kViewDelta (the diff
//     from the previous epoch) to the surviving members and to watching
//     clients; a receiver with an epoch gap fetches the full view;
//   * heartbeats piggyback each store's applied clock, and each sweep
//     folds them into the scope's stability horizon (the GC floor),
//     multicasting it when it moved.
//
// The service keeps the naming/location service consistent: joins
// register the store's contact point, leaves and evictions unregister it
// — evicted stores disappear from resolution instead of lingering as
// stale contacts.
//
// Sharded deployments use the same machinery with one twist: all stores
// of a cluster join ONE scope (the envelope object id), each announcing
// the shard it serves. The scope keeps a single member list and a single
// heartbeat stream, but projects per-shard subgroup views out of it
// (Derecho-style): each shard has its own epoch and its own broadcast
// fan-out, so churn in a hot shard bumps and broadcasts only that
// shard's view — cold shards never hear about it.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "globe/core/comm.hpp"
#include "globe/membership/view.hpp"
#include "globe/metrics/stats.hpp"
#include "globe/naming/service.hpp"
#include "globe/sim/simulator.hpp"

namespace globe::membership {

using core::CommunicationObject;
using core::TransportFactory;
using net::Address;

struct MembershipOptions {
  /// Failure-detector sweep period (also the expected member heartbeat
  /// cadence and the stability horizon's aggregation cadence).
  sim::SimDuration heartbeat_period = sim::SimDuration::millis(100);
  /// A member silent for longer than this is evicted, except the
  /// permanent primary: it is the paper's persistence root, and evicting
  /// it would leave the object headless for single-master models.
  sim::SimDuration failure_timeout = sim::SimDuration::millis(350);
  /// When set, joins/leaves/evictions keep the location tables in sync.
  naming::NamingServer* naming = nullptr;
  /// When set, per-shard view changes feed the shard rollups.
  metrics::MetricsSink* metrics = nullptr;
};

/// Aggregate protocol counters (tests / benchmarks).
struct MembershipStats {
  std::uint64_t joins = 0;
  std::uint64_t rejoins = 0;  // heartbeat re-admissions after eviction
  std::uint64_t leaves = 0;
  std::uint64_t evictions = 0;
  std::uint64_t view_changes = 0;
  std::uint64_t delta_broadcasts = 0;  // view changes sent as diffs
  std::uint64_t view_fetches = 0;      // full-view fetches (epoch gaps)
  std::uint64_t horizon_advances = 0;  // stability-horizon floor moves
};

class MembershipService {
 public:
  /// `sim` drives the failure-detector sweep, which is also the only
  /// place the stability horizon is aggregated and sent.
  MembershipService(const TransportFactory& factory, sim::Simulator& sim,
                    MembershipOptions options = {});
  ~MembershipService();

  MembershipService(const MembershipService&) = delete;
  MembershipService& operator=(const MembershipService&) = delete;

  [[nodiscard]] Address address() const { return comm_.local_address(); }

  /// Current view of an object (epoch 0 / empty when nobody joined).
  /// Legacy single-object deployments live entirely in shard 0.
  [[nodiscard]] View current_view(ObjectId object) const {
    return snapshot_view(object, 0);
  }
  [[nodiscard]] std::uint64_t epoch(ObjectId object) const {
    return shard_epoch(object, 0);
  }
  /// Per-shard subgroup projections of one scope's member list.
  [[nodiscard]] View shard_view(ObjectId scope, ShardId shard) const {
    return snapshot_view(scope, shard);
  }
  [[nodiscard]] std::uint64_t shard_epoch(ObjectId scope, ShardId shard) const;
  [[nodiscard]] const MembershipStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t watcher_count(ObjectId object,
                                          ShardId shard = 0) const;

  /// The scope's current stability horizon: the element-wise minimum
  /// applied clock (and minimum applied global seq) over every live,
  /// data-carrying member, as of the last failure-detector sweep.
  /// Heartbeats only record each member's applied state; the sweep
  /// folds them, so the floor lags the freshest heartbeat by at most one
  /// `heartbeat_period`, which delays GC but never makes it unsafe.
  /// Members silent past `failure_timeout` are excluded even before
  /// eviction — including the eviction-exempt primary — so one crashed
  /// store cannot freeze GC cluster-wide. Monotonic: only ever advances.
  [[nodiscard]] HorizonMsg stability_horizon(ObjectId scope) const;

 private:
  struct MemberState {
    naming::ContactPoint contact;
    ShardId shard = 0;
    util::SimTime last_heard{};
    // Latest stability-horizon piggyback from this member (view.hpp
    // MemberAnnounce): false until the store reports hosting data.
    bool has_applied = false;
    coherence::VectorClock applied;
    std::uint64_t applied_gseq = 0;
  };
  /// Per-shard epoch + broadcast bookkeeping. The member list itself is
  /// scope-wide (one heartbeat stream, one failure detector); these are
  /// the independently-advancing subgroup projections of it.
  struct ShardGroup {
    std::uint64_t epoch = 0;
    // Members as of the last broadcast, for computing ViewDelta diffs;
    // empty (the epoch-0 view) until the first broadcast.
    std::vector<naming::ContactPoint> broadcast_members;
  };
  struct ScopeState {
    std::vector<MemberState> members;
    std::map<ShardId, ShardGroup> shards;
    // Scope-wide stability horizon (monotonic GC floor).
    coherence::VectorClock horizon;
    std::uint64_t horizon_gseq = 0;
  };

  void on_message(const Address& from, const msg::EnvelopeView& env);
  void admit(ObjectId scope, const MemberAnnounce& announce, bool* added);
  void remove(ObjectId scope, const Address& addr, bool evicted);
  void sweep();
  /// Re-aggregates `scope`'s stability horizon from its live members and
  /// multicasts kStabilityHorizon to them when the floor advanced. Only
  /// `sweep()` calls it: at most one aggregation and one kStabilityHorizon
  /// per scope per heartbeat period, however many members heartbeat.
  void update_horizon(ObjectId scope, ScopeState& state);
  /// `exclude` suppresses the broadcast to one member — a fresh joiner
  /// whose join ack already carries the full view.
  void broadcast(ObjectId scope, ShardId shard,
                 const Address* exclude = nullptr);
  [[nodiscard]] View snapshot_view(ObjectId scope, ShardId shard) const;
  [[nodiscard]] util::SimTime now() const { return sim_.now(); }

  sim::Simulator& sim_;
  MembershipOptions options_;
  CommunicationObject comm_;
  std::map<ObjectId, ScopeState> scopes_;
  std::map<std::pair<ObjectId, ShardId>, std::vector<Address>> watchers_;
  sim::PeriodicTimer sweep_timer_;
  MembershipStats stats_;
};

}  // namespace globe::membership
