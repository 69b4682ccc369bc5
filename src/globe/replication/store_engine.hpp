// Store engine: the replication + control object of a store replica.
//
// One StoreEngine embodies a store from Figure 2 (permanent,
// object-initiated, or client-initiated). It is the paper's replication
// object and control object fused for one store role:
//
//   * it receives encoded client invocations (control object duty),
//   * decides how they interact with the coherence protocol
//     (replication object duty) under the object's ReplicationPolicy,
//   * drives the semantics object (the Web document) and the
//     communication object.
//
// Every coherence model and every Table 1 parameter value runs through
// this one engine. Two parts of it do no I/O: the receive path is the
// per-object ObjectReplica (object_replica.hpp: document, write log,
// orderers, clocks), and the propagation graph is the store's Topology
// (topology.hpp: upstreams, subscribers, beacon lanes, flow pauses). A
// ViewFollower (membership/follower.hpp) holds the last view. The engine
// turns their answers into sends, History events, spans and metrics,
// plus a handful of policy branches. This mirrors the paper's
// observation that "the replication objects all have the same
// interface ... however, the internals differ".
//
// A store hosts MANY distributed objects: the engine keeps a table of
// per-object states (replica, topology links, lazy queues, parked
// reads) keyed by ObjectId, and every per-object wire message carries
// the object key in its envelope, so one communication endpoint, one
// timer set, one clock-beacon lane per subscriber peer and one
// membership heartbeat stream serve the whole table. The table holds
// exactly the objects the store is given: the constructor creates the
// ones it hosts from birth (one, in a single-object deployment), and
// add_object() places the rest. A sharded store starts empty, gets every
// object placement assigns to its shard, and joins membership under one
// cluster-wide scope (StoreConfig::membership_scope) with its shard tag.
// StoreConfig holds only store-wide settings; ObjectConfig holds the
// per-object ones.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "globe/coherence/history.hpp"
#include "globe/core/comm.hpp"
#include "globe/core/policy.hpp"
#include "globe/membership/follower.hpp"
#include "globe/metrics/stats.hpp"
#include "globe/naming/contact.hpp"
#include "globe/net/flow.hpp"
#include "globe/replication/object_replica.hpp"
#include "globe/replication/protocol.hpp"
#include "globe/replication/topology.hpp"
#include "globe/sim/simulator.hpp"
#include "globe/web/record_batch.hpp"

namespace globe::replication {

using core::CommunicationObject;
using core::ReplicationPolicy;
using core::TransportFactory;
using net::Address;

/// How a client-initiated store keeps itself coherent. kGlobe subscribes
/// to the object's propagation graph (the paper's approach); the other
/// two are the baseline Web cache protocols from Section 1.
enum class CacheMode : std::uint8_t {
  kGlobe = 0,
  kCheckOnRead = 1,  // validate with upstream on every read
  kTtl = 2,          // serve until an expiration time, then refetch
};

[[nodiscard]] inline const char* to_string(CacheMode m) {
  switch (m) {
    case CacheMode::kGlobe: return "globe";
    case CacheMode::kCheckOnRead: return "check-on-read";
    case CacheMode::kTtl: return "ttl";
  }
  return "?";
}

/// Per-object replication parameters: everything that may differ between
/// two objects hosted by the same store. Store-wide settings (role,
/// compaction budgets, membership, flow control) live in StoreConfig.
/// An object on the primary store is the object's primary replica and
/// has no upstream; on any other store it has one.
struct ObjectConfig {
  ObjectId object = 1;
  /// The propagation parent the object starts with; invalid on the
  /// primary store. Views may re-parent it (StoreEngine::upstream()).
  Address upstream;
  ReplicationPolicy policy;
  CacheMode cache_mode = CacheMode::kGlobe;
  sim::SimDuration ttl = sim::SimDuration::seconds(60);
};

/// Store-wide settings. The objects a store hosts come with their own
/// ObjectConfig, through the constructor or add_object().
struct StoreConfig {
  StoreId store_id = 0;
  naming::StoreClass store_class = naming::StoreClass::kPermanent;
  /// The store's role. A primary store hosts the primary replica of
  /// every object it is given, and its contact point says so from birth,
  /// before it hosts anything: membership exempts it from eviction and
  /// clients send single-master writes to it.
  bool is_primary = false;
  /// Write-log compaction: when the retained log exceeds this many
  /// records, the oldest half is folded into the log's base clock and
  /// requesters behind the horizon get a snapshot cutover instead of a
  /// delta. 0 disables compaction.
  std::size_t log_compact_threshold = 4096;
  /// Membership service endpoint; invalid = membership disabled. When
  /// set, the store joins its replica view at construction, heartbeats
  /// periodically, and reacts to epoch-numbered view changes (drops
  /// evicted subscribers, re-resolves upstreams, resyncs).
  Address membership;
  sim::SimDuration membership_heartbeat = sim::SimDuration::millis(100);
  /// Membership scope this store joins; must be set when `membership`
  /// is. A single-object store joins its object's replica group (the
  /// scope is the object id). Sharded deployments set one cluster-wide
  /// scope for every store and tag the join with `shard`; the membership
  /// service projects per-shard subgroup views out of the single
  /// scope-wide member list, and this engine applies the view of its own
  /// shard to every hosted object. A multi-object engine with membership
  /// enabled must use a cluster scope (per-object scopes would need one
  /// join per object, defeating the single heartbeat stream).
  std::uint64_t membership_scope = 0;
  /// The shard this store serves; every hosted object belongs to it.
  /// Shard 0 is the legacy single-shard deployment.
  ShardId shard = 0;
  /// Flow-control surface of a windowed transport (net/flow.hpp); null =
  /// no transport backpressure, every peer is always writable. When set,
  /// the engine polls it before every propagation round: updates for
  /// paused subscribers park in the lazy queues instead of flooding the
  /// transport, resume flushes them, and a subscriber that stays paused
  /// past either deadline (kFlowPausedRoundsLimit,
  /// kFlowPausedBatchesLimit) is dropped: its subscription, beacon lane
  /// and parked batches go, and its channel is reset. Nothing tells the
  /// peer. It re-subscribes only when a view change it missed (an
  /// eviction and re-admission) or its own recovery makes it; a dropped
  /// peer that stays in the view stays orphaned (ROADMAP item 2, F4).
  net::FlowControl* flow = nullptr;
};

class StoreEngine {
 public:
  /// `objects` are the objects the store hosts from birth (possibly
  /// none); add_object() places more later.
  StoreEngine(const TransportFactory& factory, sim::Simulator& sim,
              StoreConfig config, const std::vector<ObjectConfig>& objects,
              coherence::History* history = nullptr,
              metrics::MetricsSink* metrics = nullptr);
  ~StoreEngine();

  StoreEngine(const StoreEngine&) = delete;
  StoreEngine& operator=(const StoreEngine&) = delete;

  [[nodiscard]] Address address() const { return comm_.local_address(); }
  [[nodiscard]] const StoreConfig& config() const { return config_; }
  [[nodiscard]] StoreId id() const { return config_.store_id; }
  [[nodiscard]] ShardId shard() const { return config_.shard; }

  // ---- multi-object hosting ----

  /// Adds another distributed object to this store's table. The object
  /// gets its own replication state (document, log, orderer, clocks,
  /// subscribers) but shares the engine's endpoint, timers, flow state
  /// and membership stream. Asserts on a duplicate id.
  void add_object(const ObjectConfig& cfg);
  [[nodiscard]] bool has_object(ObjectId id) const {
    return objects_.count(id) != 0;
  }
  [[nodiscard]] std::vector<ObjectId> object_ids() const;

  /// Local state inspection (tests / examples). The parameterless forms
  /// read the store's only object and assert that it hosts exactly one.
  /// object_config() is the live configuration but for the upstream:
  /// policy switches update it, and upstream() is the live parent.
  [[nodiscard]] const ObjectConfig& object_config() const {
    return only().cfg;
  }
  [[nodiscard]] const ObjectConfig& object_config(ObjectId id) const {
    return obj(id).cfg;
  }
  [[nodiscard]] const Address& upstream() const {
    return only().links.upstream;
  }
  [[nodiscard]] const web::WebDocument& document() const {
    return only().replica.document();
  }
  [[nodiscard]] const web::WebDocument& document(ObjectId id) const;
  [[nodiscard]] const coherence::VectorClock& applied_clock() const {
    return only().replica.applied_clock();
  }
  [[nodiscard]] const coherence::VectorClock& applied_clock(ObjectId id) const;
  [[nodiscard]] std::uint64_t applied_gseq() const {
    return only().replica.applied_gseq();
  }
  [[nodiscard]] std::uint64_t applied_gseq(ObjectId id) const;
  [[nodiscard]] bool outdated() const { return only().outdated; }
  [[nodiscard]] std::size_t parked_requests() const;
  [[nodiscard]] std::size_t subscriber_count() const {
    return only().links.subscribers.size();
  }
  [[nodiscard]] std::size_t subscriber_count(ObjectId id) const;
  [[nodiscard]] bool ready() const { return only().ready; }
  [[nodiscard]] bool ready(ObjectId id) const;
  /// Lifecycle state (fault injection / membership).
  [[nodiscard]] bool alive() const { return alive_; }
  [[nodiscard]] bool departed() const { return departed_; }
  /// Epoch of the last replica view this store applied (0 = none yet).
  [[nodiscard]] std::uint64_t view_epoch() const {
    return follower_.view().epoch;
  }
  /// Times this store re-subscribed to an upstream after the initial
  /// bootstrap (view-driven re-parenting, post-eviction re-admission,
  /// crash recovery), summed over every hosted object.
  [[nodiscard]] std::uint64_t resubscribes() const { return resubscribes_; }
  /// Times this store asked an upstream for its full clock list: it had
  /// no anchor on that sender's beacon sequence, or a tick went missing.
  [[nodiscard]] std::uint64_t full_list_requests() const {
    return full_list_requests_;
  }

  /// Seeds initial content directly (primary only; used to set up the
  /// document before clients bind, like uploading files to a Web server).
  /// The page-only form seeds the store's only object.
  void seed(const std::string& page, const std::string& content,
            const std::string& mime = "text/html");
  void seed(ObjectId id, const std::string& page, const std::string& content,
            const std::string& mime = "text/html");

  /// This store's contact point for the location service.
  [[nodiscard]] naming::ContactPoint contact() const;

  /// Stops periodic timers and performs one final lazy flush / pull so
  /// in-flight coherence state drains. Used by Testbed::settle() to let
  /// the simulation reach quiescence.
  void finalize_propagation();

  // ---- dynamic membership / fault lifecycle ----

  /// Crash-stops the store: timers stop, volatile protocol state
  /// (parked requests, pending acks, lazy queues) is lost; the documents
  /// and write logs survive (a warm disk). Callers that model a real
  /// crash also cut the node off the network (sim::Network::
  /// set_node_down) so in-flight traffic is lost.
  void crash();

  /// Restarts a crashed store: timers resume, the store rejoins its
  /// replica view, and non-primary objects re-subscribe to their
  /// upstream — bootstrapping via the cached-snapshot transfer and
  /// closing any remaining gap with a resync round.
  void recover();

  /// Graceful departure: drains the lazy queues, announces the leave to
  /// the membership service (evicting this store from the view and from
  /// naming resolution), and goes quiet. Downstream subscribers
  /// re-parent when the view change reaches them.
  void leave();

  /// Replaces the implementation parameters of the only object's
  /// strategy at runtime and propagates the change to every downstream
  /// store (Section 3.2.2: standardized interfaces make strategies
  /// dynamically replaceable; Section 5 names self-adaptive policies as
  /// future work). The coherence model itself cannot change (the orderer
  /// state is model-specific); returns false and leaves the store
  /// untouched if the new policy is invalid or alters the model.
  bool update_policy(const core::ReplicationPolicy& policy);

  /// Writes applied, summed over every hosted object (the adaptive
  /// policy's load signal).
  [[nodiscard]] std::uint64_t writes_applied() const;

  /// The applied-record log with its delta indexes (tests / benches).
  [[nodiscard]] const WriteLog& write_log() const {
    return only().replica.log();
  }
  [[nodiscard]] const WriteLog& write_log(ObjectId id) const;

 private:
  struct Parked {
    Address from;
    std::uint64_t request_id = 0;
    ClientRequest request;
  };

  /// ONE hosted object: its configuration, its replica (the I/O-free
  /// receive path), its edges in the store's Topology, and the I/O state
  /// around them. Engine-wide state (endpoint, timers, the Topology,
  /// lifecycle flags) lives on the StoreEngine. Heap-allocated and never
  /// removed, so callbacks may capture stable pointers.
  struct ObjectState {
    ObjectState(const ObjectConfig& c, const ReplicaConfig& r)
        : cfg(c), replica(r), links{c.upstream, {}} {}
    ObjectConfig cfg;
    ObjectReplica replica;
    Topology::Links links;
    // Per-target lazy segments: shared, immutable, pre-encoded batches.
    // N subscribers hold N pointers to one encode, not N record copies.
    // An object with queued segments is in the engine's lazy_dirty_.
    std::map<std::uint64_t, std::vector<web::RecordBatchPtr>> lazy_queues;

    std::vector<Parked> parked;
    // Writes buffered by the orderer whose client still awaits an ack.
    std::map<coherence::WriteId, std::pair<Address, std::uint64_t>>
        pending_write_acks;
    // TTL bookkeeping: each page's last fetch, by the replica's page id;
    // a stamp holds its id.
    std::vector<std::optional<sim::SimTime>> fetched_at;
    bool outdated = false;  // the replica's verdict at the last note_gaps
    bool fetch_in_flight = false;
    bool ready = false;
    bool unparking = false;  // reentrancy guard for unpark_ready()
    // Bounds re-subscription attempts when the upstream is unreachable
    // (each attempt itself carries a timeout + retries).
    int subscribe_retry_budget = 50;
    // Bounds demand-fetch retry loops when a required write never
    // arrives (the request then effectively degrades to wait).
    int demand_retry_budget = 100;

    std::uint64_t writes_applied = 0;
  };

  // Const lookups hand out mutable states: the table owns them by pointer.
  [[nodiscard]] ObjectState* find_object(ObjectId id) const;
  [[nodiscard]] ObjectState& obj(ObjectId id) const;
  /// The store's only object (the one-object accessors); asserts that
  /// the table holds exactly one.
  [[nodiscard]] ObjectState& only() const;
  /// The sum of `count(object state)` over the table.
  template <typename F>
  [[nodiscard]] std::uint64_t sum_objects(F count) const;
  ObjectState& create_object(const ObjectConfig& cfg);
  /// The engine side of one apply round: ObjectReplica's sink.
  class Applier;

  // ---- message dispatch ----
  void on_message(const Address& from, const msg::EnvelopeView& env);
  void handle_client_request(ObjectState& o, const Address& from,
                             std::uint64_t request_id, ClientRequest req);
  void handle_write_forward(ObjectState& o, const Address& from,
                            const msg::EnvelopeView& env);
  void handle_update(ObjectState& o, const Address& from,
                     const msg::EnvelopeView& env);
  void handle_invalidate(ObjectState& o, const Address& from,
                         const msg::EnvelopeView& env);
  /// kNotify (store scope): sequences a clock beacon on the sender's
  /// lane, answers a full-list request, and merges every entry into its
  /// object's heard-of frontier; news goes on downstream, outdated
  /// objects demand.
  void handle_notify(const Address& from, const msg::EnvelopeView& env);
  void handle_fetch_request(ObjectState& o, const Address& from,
                            const msg::EnvelopeView& env);
  void handle_subscribe(ObjectState& o, const Address& from,
                        const msg::EnvelopeView& env);
  void handle_anti_entropy(ObjectState& o, const Address& from,
                           const msg::EnvelopeView& env);
  /// Gated service of one delta request: parks (bounded re-schedule)
  /// while the store bootstraps, counts the read, replies StateTransfer.
  void serve_snapshot_delta(ObjectState& o, const Address& from,
                            std::uint64_t request_id, SnapshotDeltaRequest req,
                            int defer_budget);

  // ---- write path ----
  [[nodiscard]] bool accepts_writes(const ObjectState& o) const;
  void accept_write(ObjectState& o, const Address& reply_to,
                    std::uint64_t request_id, ClientRequest req);
  /// Acknowledges a write to its client: at `global_seq`, or at the
  /// applied gseq when that is 0.
  void ack_write(ObjectState& o, const Address& to, std::uint64_t request_id,
                 std::uint64_t global_seq);
  /// Records the replica's outdated verdict (o.outdated, outdated_).
  void note_gaps(ObjectState& o);

  // ---- read path ----
  void serve_read(ObjectState& o, const Address& from,
                  std::uint64_t request_id, const ClientRequest& req);
  [[nodiscard]] static bool requirement_satisfied(const ObjectState& o,
                                                  const ClientRequest& req);
  [[nodiscard]] static bool needs_page_fetch(const ObjectState& o,
                                             const ClientRequest& req);
  void unpark_ready(ObjectState& o);
  /// Check-on-read validates the cached page with the upstream on every
  /// read; TTL serves it until it expires, then fetches the latest.
  void serve_read_baseline(ObjectState& o, const Address& from,
                           std::uint64_t request_id, ClientRequest req);
  /// Stamps `page` as fetched now (the TTL bookkeeping).
  void stamp_fetched(ObjectState& o, const std::string& page);

  // ---- propagation ----
  /// Pushes `recs` to the push targets, each record to every target but
  /// the neighbour it arrived from.
  void propagate(ObjectState& o, const std::vector<web::WriteRecord>& recs);
  /// Sends ONE coherence message (invalidation, notification, update
  /// records or full state, as the policy's propagation and coherence
  /// transfer decide) to every destination in `to`. The body is encoded
  /// once and the datagram shared by reference. A single destination
  /// takes the same shared lane, so a windowed transport flow-controls
  /// all coherence data.
  void send_coherence(ObjectState& o, const std::vector<Address>& to,
                      std::span<const web::RecordBatchPtr> batches);
  /// Sends `o`'s queued lazy segments, unless backpressure still parks
  /// them. Drain the flow events first.
  void flush_lazy(ObjectState& o);
  /// The lazy tick: drains the flow events once, then flushes every
  /// object with queued segments, in ObjectId order.
  void flush_lazy_all();
  /// Drains config_.flow's pause/resume events (no-op when flow is
  /// null). Called from the propagation paths, i.e. always on the thread
  /// that owns this engine.
  void service_flow_events();
  /// What to do with an immediate update for `key` under transport
  /// backpressure: a peer past a deadline is dropped on the spot (kSkip).
  enum class FlowDisposition { kSend, kPark, kSkip };
  FlowDisposition flow_disposition(ObjectState& o, std::uint64_t key);
  /// The one peer removal (a view departure, a flow drop): the peer
  /// leaves every hosted object's subscribers and lazy queues, and its
  /// beacon lane and pause verdict go.
  void forget_peer(const Address& peer);
  void pull_from_upstream(ObjectState& o);
  /// One pull round for every object that polls its upstream.
  void pull_all();
  /// Files `o` in pullers_ by what its policy asks for now.
  void note_puller(const ObjectState& o);

  // ---- clock beacon lane ----
  // With push + demand reaction, a subscriber that lost the *last*
  // pushes of a burst would never learn it is behind (gap detection
  // needs a later message). A periodic beacon carrying the sender's
  // frontier closes that window: this is what makes reliability a side
  // effect of the coherence model over lossy transports (Section 4.2).
  // One Notify per subscriber peer per tick lists only the objects on
  // its lane whose frontier moved, so its cost follows writes.
  [[nodiscard]] static bool advertises_clock(const ObjectState& o);
  /// The heartbeat tick: one sequenced beacon per lane.
  void send_clock_beacons();
  /// Answers a want_full request: every object `to` subscribes to here,
  /// stamped with the current tick.
  void send_full_clock_list(const Address& to);
  /// Encodes a kNotify body listing the current frontier of `objects`.
  void encode_clock_list(util::Writer& w, std::uint64_t tick,
                         std::uint8_t flags,
                         const std::vector<ObjectId>& objects) const;

  /// The timers one object needs, at its own periods (unset = none).
  struct TimerNeeds {
    std::optional<sim::SimDuration> lazy;
    std::optional<sim::SimDuration> pull;
    std::optional<sim::SimDuration> beat;
  };
  [[nodiscard]] TimerNeeds timer_needs(const ObjectState& o) const;
  /// Rebuilds the timer set from the whole object table (construction,
  /// policy change, recovery): each timer runs at the minimum period any
  /// hosted object asks for, and its tick visits every object that
  /// qualifies.
  void configure_timers();
  /// Starts the timers `need` lacks, and restarts at the shorter period
  /// any that ticks slower than `need` asks; leaves the rest running.
  /// add_object's path, so placing N objects costs O(N).
  void arm_timers(const TimerNeeds& need);
  void demand_fetch(ObjectState& o, std::vector<std::string> pages = {});
  /// Demands an update for an outdated object whose policy says so.
  void demand_if_outdated(ObjectState& o);
  /// After a failed fetch: demands again in 50 ms while the object is
  /// behind or reads are parked, within the retry budget.
  void retry_demand_later(ObjectState& o);
  void apply_fetch_reply(ObjectState& o, const Address& from,
                         FetchReply::View reply);
  void subscribe_to_upstream(ObjectState& o);
  bool update_policy(ObjectState& o, const core::ReplicationPolicy& policy);

  // ---- delta snapshots ----
  /// ObjectReplica::state_transfer for a subscriber or a delta request,
  /// counted as a delta or a full snapshot.
  [[nodiscard]] StateTransfer serve_state(ObjectState& o,
                                          const SnapshotDeltaRequest* req);
  /// Follow-up to a FetchReply::need_snapshot cutover: request the delta
  /// from the upstream and apply it.
  void request_snapshot_delta(ObjectState& o);
  /// The one adoption path for document state, whichever message carried
  /// it: the replica adopts (ObjectReplica::adopt), the History records
  /// it, what it unblocks applies, and full-transfer mode forwards it
  /// downstream. A `bootstrap` (a fresh store's first subscribe ack)
  /// always adopts and makes the object ready.
  void apply_state_transfer(ObjectState& o, const StateTransfer::View& st,
                            bool bootstrap = false);

  // ---- membership ----
  /// Stops every timer and drops parked reads and pending acks (crash,
  /// leave).
  void go_quiet();
  void start_membership();
  void join_membership();
  void send_membership_heartbeat();
  /// Fills the announce's stability-horizon piggyback: the element-wise
  /// minimum applied clock (and minimum applied gseq) over every hosted
  /// object — the most conservative state this store can vouch for.
  void fill_applied(membership::MemberAnnounce& ann) const;
  /// kStabilityHorizon from the membership service: adopts the new GC
  /// floor (monotonic; stale rebroadcasts are ignored) and runs the
  /// three horizon-keyed collectors — write-log compaction, tombstone
  /// collection, and streaming-checker event retirement.
  void handle_stability_horizon(const msg::EnvelopeView& env);
  /// The follower adopted `view` after `previous`: forgets the departed
  /// peers, and re-subscribes each object the Topology re-parents (every
  /// object, when the store missed epochs).
  void apply_view(const membership::View& previous,
                  const membership::View& view);
  /// One catch-up round after a re-subscribe: anti-entropy for
  /// multi-master objects, a demand fetch otherwise.
  void resync(ObjectState& o);

  // ---- helpers ----
  [[nodiscard]] bool enforces_model(const ObjectConfig& cfg) const;
  void record_snapshot_event(ObjectState& o);
  [[nodiscard]] InvokeReply make_read_reply(ObjectState& o,
                                            const ClientRequest& req);
  void reply_invoke(ObjectState& o, const Address& to,
                    std::uint64_t request_id, const InvokeReply& rep);

  sim::Simulator& sim_;
  StoreConfig config_;

  // The object table. Entries are never removed.
  std::map<ObjectId, std::unique_ptr<ObjectState>> objects_;
  // Subscribers' beacon lanes and flow pauses.
  Topology topo_;
  // The objects the timer ticks visit: those with queued lazy segments
  // (or a lazy full/notify transfer to send), and those that poll their
  // upstream. A tick costs what has work, not what is hosted.
  std::set<ObjectId> lazy_dirty_;
  std::set<ObjectId> pullers_;
  std::optional<sim::PeriodicTimer> lazy_timer_;
  std::optional<sim::PeriodicTimer> pull_timer_;
  std::optional<sim::PeriodicTimer> heartbeat_timer_;
  std::optional<sim::PeriodicTimer> membership_timer_;

  // Clock beacon lane, sender side: the tick number (the Topology holds
  // the lanes and what moved). It survives a crash, as the lanes do.
  std::uint64_t beacon_tick_ = 0;
  // Receiver side: per upstream (address key), the next tick expected.
  // No entry = no anchor: the next beacon asks for the full list, and so
  // does every later one until a full list arrives.
  std::map<std::uint64_t, std::uint64_t> beacon_expect_;
  std::uint64_t full_list_requests_ = 0;
  // Objects whose applied frontier trails the known one (note_gaps):
  // each beacon re-demands its sender's, without a table scan.
  std::set<ObjectId> outdated_;

  bool alive_ = true;      // false while crash-stopped
  bool departed_ = false;  // true after a graceful leave
  // Last adopted stability horizon (the cluster-wide GC floor); only
  // ever advances, so a reordered broadcast cannot re-run collectors.
  coherence::VectorClock horizon_clock_;
  std::uint64_t horizon_gseq_ = 0;
  std::uint64_t resubscribes_ = 0;

  coherence::History* history_;
  metrics::MetricsSink* metrics_;
  // The store's subgroup view (epoch 0 while membership is off). It
  // fetches over comm_, so it must outlive the endpoint.
  membership::ViewFollower follower_;

  // Declared last, so it is destroyed first: releasing the endpoint waits
  // out deliveries in flight on a threaded transport (a socket receive
  // loop) before anything they use is freed.
  CommunicationObject comm_;
};

/// Serialized delivered state of one hosted object of a store: the
/// retained log records in apply order, the document (oracle-encoded,
/// bypassing the snapshot cache), and the applied gseq/clock. The
/// fan-out equivalence test and the bench_scale gate compare these
/// digests to prove two propagation configurations delivered
/// byte-identical records. The two-argument form digests the store's
/// only object.
///
/// `mask_wall_clock` zeroes the issue/update timestamps embedded in
/// records and pages. Two runs that differ only in how the transport
/// schedules datagrams (e.g. windowed/coalesced vs one-send-per-payload)
/// advance simulated time differently, which shifts those stamps at the
/// *source* — every replica still receives them byte-identically. Gates
/// comparing across transports mask them; gates comparing propagation
/// strategies over the same transport keep the default.
[[nodiscard]] util::Buffer store_state_digest(const StoreEngine& s,
                                              bool mask_wall_clock = false);
[[nodiscard]] util::Buffer store_state_digest(const StoreEngine& s,
                                              ObjectId object,
                                              bool mask_wall_clock);

}  // namespace globe::replication
