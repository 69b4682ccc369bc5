// Object replica: the I/O-free receive path of one hosted object.
//
// "The replication objects all have the same interface ... however, the
// internals differ" (Section 4.2). This is those internals for one
// object at one store: the document, the write log, the model's orderer
// and the monotonic-writes filter, the applied and heard-of frontiers,
// page validity, and the lineage of the last state transfer. Every way
// a record reaches the store ends in the same admission and the same
// apply loop here:
//
//   * records, tagged with the neighbour they came from: a local accept,
//     a seed, a push, a fetch reply or an anti-entropy reply;
//   * a state transfer (adopt, then release what its cursors unblock);
//   * a notified frontier;
//   * a stability horizon;
//   * an upstream frontier, while no subscriber reads the log and the
//     upstream cannot change.
//
// It sends nothing, reads no clock and records nothing: every applied
// record goes to an ApplySink, in apply order, and the StoreEngine turns
// that into acks, History events, spans, metrics and propagation. What
// a peer lacks (records or a state transfer) is answered by queries.
// Nothing here depends on comm, sim, metrics or obs, so two replicas
// can be driven against each other in a unit test.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "globe/coherence/models.hpp"
#include "globe/coherence/vector_clock.hpp"
#include "globe/core/semantics.hpp"
#include "globe/replication/orderer.hpp"
#include "globe/replication/protocol.hpp"
#include "globe/replication/write_log.hpp"

namespace globe::replication {

/// What fixes a replica's behaviour; none of it changes after creation.
struct ReplicaConfig {
  StoreId store = kInvalidStore;
  ObjectId object = 0;
  coherence::ObjectModel model = coherence::ObjectModel::kPram;
  /// The primary replica: the ordering authority that stamps global
  /// sequence numbers.
  bool primary = false;
  /// False at a store class the policy's store scope leaves out: it
  /// keeps FIFO order (eventual stays eventual) instead of the model's.
  bool enforces_model = true;
  /// When the retained log exceeds this many records, the oldest half is
  /// folded into the log's base clock. 0 disables compaction.
  std::size_t compact_threshold = 4096;
};

/// Receives every record a replica applies, in apply order. `logged` is
/// false for an eventual-model record that last-writer-wins rejected:
/// the document kept a newer version and the log did not take it. The
/// reference is valid only for the duration of the call.
class ApplySink {
 public:
  virtual void applied(const web::WriteRecord& rec, bool logged) = 0;

 protected:
  ~ApplySink() = default;
};

/// What one input applied.
struct ApplyRound {
  std::size_t applied = 0;  // records released and applied (logged or not)
  bool compacted = false;   // the count threshold folded the log
};

/// The outcome of a locally accepted write.
struct Accepted {
  Admission admission = Admission::kApplied;
  /// The total-order position stamped on the write before admission
  /// (0 when none was: the ack then reports the applied gseq).
  std::uint64_t global_seq = 0;
  ApplyRound round;
};

/// The records a peer at some clock lacks.
struct PeerRecords {
  std::vector<web::WriteRecord> records;
  /// The peer is behind the log's compaction horizon: `records` is the
  /// whole document as state records instead of a log delta.
  bool cutover = false;
};

/// What a stability horizon collected.
struct HorizonCollection {
  std::size_t records = 0;     // log records folded into the base clock
  std::uint64_t tombstones = 0;
};

class ObjectReplica {
 public:
  explicit ObjectReplica(const ReplicaConfig& config);
  /// Drops the invariant monitors keyed on this replica: a later one at
  /// the same address starts clean.
  ~ObjectReplica();

  ObjectReplica(const ObjectReplica&) = delete;
  ObjectReplica& operator=(const ObjectReplica&) = delete;

  // ---- inputs ----

  /// A write a client sent to this store: stamps its Lamport clock (and
  /// its total-order position on the sequential model), admits it and
  /// applies what the admission releases. `rec` carries the client's
  /// write id, dependencies and ordered flag.
  Accepted accept(web::WriteRecord rec, ApplySink& sink);

  /// Initial content written by the primary itself (writer 0).
  ApplyRound seed(const std::string& page, const std::string& content,
                  const std::string& mime, std::int64_t issued_at_us,
                  ApplySink& sink);

  /// Records from another store, tagged with `origin` (the neighbour's
  /// address key, carried as WriteRecord::transient_origin so they are
  /// never pushed straight back to it).
  ApplyRound receive(std::vector<web::WriteRecord> recs, std::uint64_t origin,
                     ApplySink& sink);

  /// Adopts a state transfer when it moves the replica forward (or
  /// always, for a `bootstrap`): the document, clocks and log horizon,
  /// and, unless bootstrapping, the heard-of frontier and page validity.
  /// `source_key` names the sender for the next delta request's lineage.
  /// Returns false when the transfer proved nothing newer and was
  /// skipped. Follow an adoption with release().
  bool adopt(const StateTransfer::View& st, bool bootstrap,
             std::uint64_t source_key);

  /// Re-seeds the orderer and the monotonic-writes cursors at the
  /// applied state and applies what they release, tagged with `origin`.
  ApplyRound release(std::uint64_t origin, ApplySink& sink);

  /// Merges a frontier a message carried (an update's sender clock, a
  /// fetch reply's clock) into the heard-of one.
  void hear_of(const coherence::VectorClock& clock, std::uint64_t gseq);

  /// hear_of a notified frontier, returning whether it was news (a
  /// notify or an invalidation forwards only news).
  bool note_frontier(const coherence::VectorClock& clock, std::uint64_t gseq);

  /// Marks `pages` invalid until a record for them is applied; returns
  /// whether any was still valid.
  bool invalidate(const std::vector<std::string>& pages);

  /// Applies a baseline cache's fetched record straight to the document
  /// (the baseline protocols keep no log and no orderer).
  void apply_fetched(const web::WriteRecord& rec);

  /// Stability-horizon garbage collection: folds the log prefix every
  /// live replica has applied and drops tombstones the horizon covers.
  HorizonCollection collect_below(const coherence::VectorClock& clock,
                                  std::uint64_t gseq);

  /// A frontier the upstream showed it holds (an update's sender clock, a
  /// fetch or anti-entropy reply's clock), heard while no subscriber
  /// reads this log and while the upstream cannot change: folds the log
  /// prefix it covers. A delta for that upstream never carries a record
  /// its frontier covers. A reader that appears later bootstraps from a
  /// state transfer, or gets cutover state records. Returns how many
  /// records were folded.
  std::size_t fold_below_upstream(const coherence::VectorClock& clock,
                                  std::uint64_t gseq);

  // ---- outputs ----

  /// Whether the replica trails what it has heard of: the orderer holds
  /// gaps, or the heard-of frontier is ahead of the applied one.
  [[nodiscard]] bool outdated() const;

  /// What a peer at (`have`, `have_gseq`) lacks, for the anti-entropy
  /// reply and the push-back: a log delta, or, when the peer is behind
  /// the compaction horizon, the whole document as state records in
  /// writer order (client, then seq), deletes included.
  [[nodiscard]] PeerRecords records_for_peer(
      const coherence::VectorClock& have, std::uint64_t have_gseq) const;

  /// The answer to a fetch request. need_snapshot is set when the
  /// requester is behind the compaction horizon.
  [[nodiscard]] FetchReply answer_fetch(const FetchRequest& req) const;

  /// A fetch request for everything this replica lacks: the applied
  /// clock and the total-order floor it may claim.
  [[nodiscard]] FetchRequest fetch_request() const;

  /// The replica's state for a peer: page-granular against `req` when
  /// one is given and can be served (a floor from another lineage or
  /// below the tombstone horizon cannot), the whole cached snapshot
  /// otherwise. `stats`, when given, receives the delta's counts.
  [[nodiscard]] StateTransfer state_transfer(
      const SnapshotDeltaRequest* req = nullptr,
      web::DeltaStats* stats = nullptr) const;

  /// The cheapest exact delta request to send to `target_key`: the
  /// version floor of the last transfer when it came from there and the
  /// document has not mutated since, the page-stamp summary otherwise.
  [[nodiscard]] SnapshotDeltaRequest delta_request(
      std::uint64_t target_key) const;

  // ---- state ----

  [[nodiscard]] const core::WebSemanticsObject& semantics() const {
    return semantics_;
  }
  [[nodiscard]] const web::WebDocument& document() const {
    return semantics_.document();
  }
  [[nodiscard]] const WriteLog& log() const { return log_; }
  [[nodiscard]] const coherence::VectorClock& applied_clock() const {
    return applied_clock_;
  }
  [[nodiscard]] std::uint64_t applied_gseq() const { return applied_gseq_; }
  [[nodiscard]] bool page_invalid(const std::string& page) const;

  /// The replica's page table: the document's, which its log and page
  /// flags share.
  [[nodiscard]] const web::PageTable& page_table() const {
    return document().page_table();
  }
  /// Holds `page`'s id for a per-page table the caller keeps beside the
  /// replica (the engine's TTL stamps), so the id is not reused while
  /// the caller's slot names it; release_page gives the hold back.
  web::PageId hold_page(const std::string& page);
  void release_page(web::PageId id);

 private:
  [[nodiscard]] bool sequential() const;
  /// The one admission: an ordered write under the eventual model passes
  /// the monotonic-writes filter first, every record then the orderer.
  Admission admit(web::WriteRecord rec, std::vector<web::WriteRecord>& ready);
  /// The monotonic-writes filter, its cursors synced to the applied
  /// clock; records the sync unwedges are appended to `unwedged`.
  Orderer& mw_gate(std::vector<web::WriteRecord>& unwedged);
  ApplyRound apply(std::vector<web::WriteRecord> ready, ApplySink& sink);
  /// Raises the applied gseq, except that a sequential replica never
  /// advertises a floor with holes behind it (WriteLog::can_serve
  /// trusts that floor).
  void advance_gseq(std::uint64_t gseq);
  /// Clears the invalid flag of `id`, if set, and gives back its hold.
  void clear_invalid(web::PageId id);
  [[nodiscard]] web::WriteRecord record_for_page(const std::string& page) const;
  [[nodiscard]] std::vector<web::WriteRecord> state_as_records() const;

  ReplicaConfig config_;
  core::WebSemanticsObject semantics_;
  std::unique_ptr<Orderer> orderer_;
  std::unique_ptr<Orderer> mw_filter_;  // per-writer order for MW clients
  WriteLog log_;  // applied records, in apply order, with delta indexes

  coherence::VectorClock applied_clock_;
  coherence::VectorClock known_clock_;  // heard of via notify/invalidate
  std::uint64_t applied_gseq_ = 0;
  std::uint64_t known_gseq_ = 0;
  std::uint64_t next_gseq_ = 0;  // primary only: total-order counter
  std::uint64_t lamport_ = 0;

  // Invalid flags by page id; a set flag holds its id.
  std::vector<bool> invalid_pages_;
  // Lineage of the last adopted state transfer: who sent it (store id
  // and address key), at which document version, and our own document
  // version right after adopting. While ours is unchanged, the next
  // delta request can be a bare floor instead of a page summary.
  StoreId snap_source_ = kInvalidStore;
  std::uint64_t snap_source_key_ = 0;
  std::uint64_t snap_source_version_ = 0;
  std::uint64_t snap_doc_version_ = 0;
};

}  // namespace globe::replication
