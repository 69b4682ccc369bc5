#include "globe/replication/object_replica.hpp"

#include <algorithm>

#include "globe/check/monitor.hpp"
#include "globe/util/assert.hpp"

namespace globe::replication {

using coherence::ObjectModel;

ObjectReplica::ObjectReplica(const ReplicaConfig& config)
    : config_(config), log_(semantics_.document().page_table()) {
  orderer_ = config_.enforces_model ? make_orderer(config_.model)
             : config_.model == ObjectModel::kEventual
                 ? make_orderer(ObjectModel::kEventual)
                 : std::make_unique<FifoOrderer>();
}

ObjectReplica::~ObjectReplica() { check::release(this); }

bool ObjectReplica::sequential() const {
  return config_.model == ObjectModel::kSequential;
}

// ---------------------------------------------------------------------
// Admission and apply
// ---------------------------------------------------------------------

Orderer& ObjectReplica::mw_gate(std::vector<web::WriteRecord>& unwedged) {
  if (mw_filter_ == nullptr) {
    mw_filter_ = std::make_unique<PramOrderer>();
    // Seed the per-writer cursors with what this store already carries
    // (bootstrap snapshots included): a fresh filter starting at zero
    // would buffer the first ordered record forever, waiting for
    // predecessors a snapshot covered and nobody will resend.
    std::vector<web::WriteRecord> none;
    mw_filter_->reset_to(applied_clock_, applied_gseq_, none);
  }
  // The cursors must never trail the applied clock afterwards either:
  // an ordered writer's record can reach the document AROUND the gate —
  // a snapshot-cutover state record carries no `ordered` bit, so it is
  // admitted ungated — and peers never resend writes our clock already
  // covers. A cursor stuck behind the clock would then buffer every
  // later record of that writer forever (a permanent post-partition
  // wedge: the gap it waits on is already applied). Records the sync
  // unwedges surface through `unwedged` and must be admitted onward.
  mw_filter_->reset_to(applied_clock_, applied_gseq_, unwedged);
  return *mw_filter_;
}

Admission ObjectReplica::admit(web::WriteRecord rec,
                               std::vector<web::WriteRecord>& ready) {
  if (!rec.ordered || config_.model != ObjectModel::kEventual) {
    return orderer_->admit(std::move(rec), ready);
  }
  // Monotonic-writes clients need per-writer order even under eventual
  // coherence: a PRAM filter gates their records first. Every source
  // shares this gate, local accepts included (a client that rebinds
  // mid-session leaves a seq gap here): if one path bypassed it, the
  // filter's cursor would never advance for records that arrived the
  // other way, and later ordered records would buffer forever.
  std::vector<web::WriteRecord> gated;
  const Admission adm = mw_gate(gated).admit(std::move(rec), gated);
  for (web::WriteRecord& g : gated) orderer_->admit(std::move(g), ready);
  return adm;
}

ApplyRound ObjectReplica::apply(std::vector<web::WriteRecord> ready,
                                ApplySink& sink) {
  ApplyRound round;
  if (ready.empty()) return round;
  const bool eventual = config_.model == ObjectModel::kEventual;
  web::WebDocument& doc = semantics_.document();
  web::PageTable& names = doc.page_table();
  for (web::WriteRecord& rec : ready) {
    // The primary stamps the total-order position at apply time for the
    // primary-ordered models (sequential records were stamped earlier).
    if (config_.primary && rec.global_seq == 0 &&
        !coherence::multi_master(config_.model)) {
      rec.global_seq = next_gseq_ + 1;
    }
    next_gseq_ = std::max(next_gseq_, rec.global_seq);

    // The record's one page-name lookup: the document, the invalid
    // flags and the log all index by this id, held until the record is
    // through.
    const web::PageId page = names.acquire(rec.page);

    // Multi-master models need convergent conflict resolution:
    // last-writer-wins with a Lamport clock. For the causal model the
    // Lamport order refines the causal order (the clock is advanced on
    // every receive), so LWW picks a causally-consistent winner among
    // concurrent writes and every replica converges.
    bool changed = true;
    if (coherence::multi_master(config_.model)) {
      changed = doc.apply_lww(rec, page);
    } else {
      doc.apply(rec, page);
    }
    // Deletes must propagate even when the page was already absent.
    changed = changed || rec.op == web::WriteOp::kDelete;
    applied_clock_.observe(rec.wid);
    advance_gseq(rec.global_seq);
    if (rec.ordered) {
      GLOBE_CHECK_HOOK(on_writer_apply(this, config_.store, config_.object,
                                       rec.wid.client, rec.wid.seq));
    }
    lamport_ = std::max(lamport_, rec.lamport);
    clear_invalid(page);

    // Causal records are logged and propagated even when LWW rejected
    // their content: other replicas need their WiDs for dependency
    // coverage. Eventual losers are dropped (the winner suffices).
    if (changed || !eventual) {
      sink.applied(log_.append(std::move(rec), page), /*logged=*/true);
    } else {
      sink.applied(rec, /*logged=*/false);
    }
    names.release(page);
  }
  round.applied = ready.size();
  const std::size_t threshold = config_.compact_threshold;
  if (threshold != 0 && log_.size() > threshold) {
    // Fold the oldest half into the base clock; requesters behind the
    // horizon get a cutover (answer_fetch, records_for_peer).
    log_.compact(threshold / 2);
    round.compacted = true;
  }
  return round;
}

void ObjectReplica::advance_gseq(std::uint64_t gseq) {
  if (gseq <= applied_gseq_ || (sequential() && gseq != applied_gseq_ + 1)) {
    return;
  }
  applied_gseq_ = gseq;
  GLOBE_CHECK_HOOK(on_gseq_apply(this, config_.store, config_.object,
                                 sequential(), applied_gseq_));
}

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

Accepted ObjectReplica::accept(web::WriteRecord rec, ApplySink& sink) {
  lamport_ = std::max(lamport_, applied_clock_.total()) + 1;
  rec.lamport = lamport_;
  if (sequential()) {
    GLOBE_ASSERT_MSG(config_.primary,
                     "sequential writes are accepted only at the primary");
    rec.global_seq = next_gseq_ + 1;
  }
  Accepted out;
  out.global_seq = rec.global_seq;
  std::vector<web::WriteRecord> ready;
  out.admission = admit(std::move(rec), ready);
  out.round = apply(std::move(ready), sink);
  return out;
}

ApplyRound ObjectReplica::seed(const std::string& page,
                               const std::string& content,
                               const std::string& mime,
                               std::int64_t issued_at_us, ApplySink& sink) {
  GLOBE_ASSERT_MSG(config_.primary, "seed() is a primary-store operation");
  web::WriteRecord rec;
  rec.wid = coherence::WriteId{0, applied_clock_.get(0) + 1};
  rec.op = web::WriteOp::kPut;
  rec.page = page;
  rec.content = content;
  rec.mime = mime;
  rec.issued_at_us = issued_at_us;
  rec.lamport = ++lamport_;
  if (sequential()) rec.global_seq = next_gseq_ + 1;
  std::vector<web::WriteRecord> ready;
  admit(std::move(rec), ready);
  return apply(std::move(ready), sink);
}

ApplyRound ObjectReplica::receive(std::vector<web::WriteRecord> recs,
                                  std::uint64_t origin, ApplySink& sink) {
  std::vector<web::WriteRecord> ready;
  for (web::WriteRecord& rec : recs) {
    rec.transient_origin = origin;
    admit(std::move(rec), ready);
  }
  return apply(std::move(ready), sink);
}

bool ObjectReplica::adopt(const StateTransfer::View& st, bool bootstrap,
                          std::uint64_t source_key) {
  // Only move forward: a transfer that proves nothing new is skipped
  // (the caller's resync round closes the rest).
  const bool newer = st.clock.dominates(applied_clock_) &&
                     (st.clock != applied_clock_ || st.gseq > applied_gseq_);
  if (!bootstrap && !newer && !(st.gseq > applied_gseq_)) return false;
  // A page delta yields the same document as restoring the sender's
  // full snapshot.
  st.adopt_into(semantics_.document());
  // Lineage must snapshot the document version BEFORE release() flushes
  // buffered records into the document: after that we no longer
  // byte-mirror the sender and a later floor request would wrongly
  // claim we do.
  snap_source_ = st.source;
  snap_source_key_ = source_key;
  snap_source_version_ = st.version;
  snap_doc_version_ = semantics_.document().version();
  applied_clock_.merge(st.clock);
  applied_gseq_ = std::max(applied_gseq_, st.gseq);
  GLOBE_CHECK_HOOK(
      on_state_adoption(this, config_.store, config_.object, applied_gseq_));
  if (!bootstrap) {
    // A bootstrap keeps its heard-of frontier, so the first Notify
    // carrying it is still news and reaches stores that subscribed below
    // this one while it had no state; and it keeps invalidations that
    // overtook the subscribe ack.
    known_clock_.merge(st.clock);
    known_gseq_ = std::max(known_gseq_, st.gseq);
    for (web::PageId id = 0; id < invalid_pages_.size(); ++id) {
      clear_invalid(id);
    }
    invalid_pages_.clear();
  }
  // The records the transfer covered were never appended to our log:
  // requesters below this horizon must get a cutover from us, never a
  // delta with a hole in it.
  log_.note_snapshot(st.clock, st.gseq, sequential());
  return true;
}

ApplyRound ObjectReplica::release(std::uint64_t origin, ApplySink& sink) {
  std::vector<web::WriteRecord> ready;
  orderer_->reset_to(applied_clock_, applied_gseq_, ready);
  if (mw_filter_ != nullptr) {
    // The monotonic-writes cursors move with the state too, or records
    // above them would wait forever for records it already covers.
    std::vector<web::WriteRecord> gated;
    mw_filter_->reset_to(applied_clock_, applied_gseq_, gated);
    for (web::WriteRecord& g : gated) orderer_->admit(std::move(g), ready);
  }
  for (web::WriteRecord& rec : ready) rec.transient_origin = origin;
  return apply(std::move(ready), sink);
}

bool ObjectReplica::note_frontier(const coherence::VectorClock& clock,
                                  std::uint64_t gseq) {
  const bool news = gseq > known_gseq_ || !known_clock_.dominates(clock);
  hear_of(clock, gseq);
  return news;
}

void ObjectReplica::hear_of(const coherence::VectorClock& clock,
                            std::uint64_t gseq) {
  known_clock_.merge(clock);
  known_gseq_ = std::max(known_gseq_, gseq);
}

bool ObjectReplica::invalidate(const std::vector<std::string>& pages) {
  web::PageTable& names = semantics_.document().page_table();
  bool news = false;
  for (const std::string& p : pages) {
    // A new name is held at once by its flag below.
    const web::PageId id = names.intern(p);
    if (id >= invalid_pages_.size()) invalid_pages_.resize(id + 1);
    if (invalid_pages_[id]) continue;
    invalid_pages_[id] = true;
    names.hold(id);
    news = true;
  }
  return news;
}

bool ObjectReplica::page_invalid(const std::string& page) const {
  const auto id = document().page_table().find(page);
  return id.has_value() && *id < invalid_pages_.size() &&
         invalid_pages_[*id];
}

void ObjectReplica::clear_invalid(web::PageId id) {
  if (id >= invalid_pages_.size() || !invalid_pages_[id]) return;
  invalid_pages_[id] = false;
  semantics_.document().page_table().release(id);
}

web::PageId ObjectReplica::hold_page(const std::string& page) {
  return semantics_.document().page_table().acquire(page);
}

void ObjectReplica::release_page(web::PageId id) {
  semantics_.document().page_table().release(id);
}

void ObjectReplica::apply_fetched(const web::WriteRecord& rec) {
  semantics_.apply(rec);
  applied_clock_.observe(rec.wid);
  advance_gseq(rec.global_seq);
}

HorizonCollection ObjectReplica::collect_below(
    const coherence::VectorClock& clock, std::uint64_t gseq) {
  HorizonCollection out;
  out.records = log_.compact_below(clock, gseq);
  out.tombstones = semantics_.document().collect_tombstones(clock);
  return out;
}

std::size_t ObjectReplica::fold_below_upstream(
    const coherence::VectorClock& clock, std::uint64_t gseq) {
  return log_.compact_below(clock, gseq);
}

// ---------------------------------------------------------------------
// Outputs
// ---------------------------------------------------------------------

bool ObjectReplica::outdated() const {
  return orderer_->has_gaps() || !applied_clock_.dominates(known_clock_) ||
         applied_gseq_ < known_gseq_;
}

PeerRecords ObjectReplica::records_for_peer(const coherence::VectorClock& have,
                                            std::uint64_t have_gseq) const {
  // Records for a peer run under the multi-master models, whose gseq
  // floors are not contiguous: only clock domination proves the peer is
  // past the compaction horizon (can_serve's gseq shortcut stays off).
  // The records_since gseq filter is safe because multi-master records
  // are never sequenced (global_seq == 0).
  PeerRecords out;
  if (log_.can_serve(have, have_gseq)) {
    out.records = log_.records_since(have, have_gseq);
    return out;
  }
  // Behind the compaction horizon: the current state as records. They
  // merge through the peer's orderer and last-writer-wins, which
  // converges even when both sides compacted past each other, where a
  // restore-snapshot would apply in neither direction.
  out.cutover = true;
  out.records = state_as_records();
  return out;
}

FetchReply ObjectReplica::answer_fetch(const FetchRequest& req) const {
  FetchReply rep;
  rep.clock = applied_clock_;
  rep.gseq = applied_gseq_;
  if (req.validate_only) {
    GLOBE_ASSERT_MSG(!req.pages.empty(), "validate requires a page");
    const auto p = document().get(req.pages.front());
    if (p && req.have_lamport != 0 && p->lamport == req.have_lamport) {
      rep.not_modified = true;
    } else if (p) {
      rep.records.push_back(record_for_page(req.pages.front()));
    }
    // Page absent: empty records; the cache serves not-found.
  } else if (req.want_full) {
    // The policy's full coherence transfer: routine traffic, counted
    // neither as a cutover nor as a full snapshot.
    rep.state = state_transfer();
  } else if (!log_.can_serve(req.have_clock, req.have_gseq, sequential())) {
    // Behind the log's compaction horizon a delta can no longer be
    // computed: the requester follows up with a page-granular request.
    rep.need_snapshot = true;
  } else {
    rep.records = log_.records_since(req.have_clock, req.have_gseq, req.pages);
  }
  return rep;
}

FetchRequest ObjectReplica::fetch_request() const {
  FetchRequest fetch;
  fetch.have_clock = applied_clock_;
  // Only the sequential model applies records contiguously; PRAM-family
  // stores advance their gseq with max semantics and must not have
  // earlier missed records filtered away.
  fetch.have_gseq = sequential() ? applied_gseq_ : 0;
  GLOBE_CHECK_HOOK(on_fetch_floor(this, config_.store, config_.object,
                                  sequential(), fetch.have_gseq));
  return fetch;
}

StateTransfer ObjectReplica::state_transfer(const SnapshotDeltaRequest* req,
                                            web::DeltaStats* stats) const {
  const web::WebDocument& doc = document();
  bool delta = req != nullptr;
  if (req != nullptr && req->mode == SnapshotDeltaRequest::Mode::kFloor) {
    // A floor from another lineage or below the tombstone horizon cannot
    // prove which deletions the requester missed: fall back to the full
    // snapshot, mirroring the note_snapshot horizon rule.
    delta = req->floor_source == config_.store &&
            doc.can_delta_since(req->floor_version);
    GLOBE_CHECK_HOOK(on_delta_serve(this, config_.store, config_.object,
                                    req->floor_version,
                                    doc.tombstone_horizon(), doc.version(),
                                    /*refused=*/!delta));
  }
  StateTransfer st;
  st.clock = applied_clock_;
  st.gseq = applied_gseq_;
  st.source = config_.store;
  st.version = doc.version();
  if (!delta) {
    st.snapshot = semantics_.snapshot();
    return st;
  }
  st.full = false;
  web::DeltaStats local;
  web::DeltaStats& s = stats != nullptr ? *stats : local;
  st.delta = req->mode == SnapshotDeltaRequest::Mode::kFloor
                 ? doc.encode_delta_since(req->floor_version, &s)
                 : doc.encode_delta(req->have, &s);
  return st;
}

SnapshotDeltaRequest ObjectReplica::delta_request(
    std::uint64_t target_key) const {
  SnapshotDeltaRequest req;
  const web::WebDocument& doc = document();
  if (snap_source_ != kInvalidStore && target_key == snap_source_key_ &&
      doc.version() == snap_doc_version_) {
    // The document has not mutated since the last transfer from this
    // lineage: a bare version floor replaces the page summary.
    req.mode = SnapshotDeltaRequest::Mode::kFloor;
    req.floor_source = snap_source_;
    req.floor_version = snap_source_version_;
  } else {
    req.mode = SnapshotDeltaRequest::Mode::kSummary;
    req.have = doc.summarize();
  }
  return req;
}

std::vector<web::WriteRecord> ObjectReplica::state_as_records() const {
  // The whole document expressed as one LWW state record per page (the
  // page's last writer, total-order position, and Lamport stamp travel
  // with it). Pages deleted before compaction travel as delete records
  // reconstructed from the document's tombstones, so a peer still
  // holding the stale page drops it instead of resurrecting it.
  //
  // State records carry no `ordered` bit and pass no monotonic-writes
  // gate, so they go out in writer order (client, then seq): in page
  // order a writer's later write could apply before its earlier one.
  const web::WebDocument& doc = document();
  std::vector<web::WriteRecord> out;
  const auto pages = doc.page_names();
  const auto tombstones = doc.tombstones();
  out.reserve(pages.size() + tombstones.size());
  for (const auto& page : pages) out.push_back(record_for_page(page));
  for (const auto& [page, t] : tombstones) {
    if (!t.writer.valid()) continue;  // deletion of unknown identity
    web::WriteRecord rec;
    rec.op = web::WriteOp::kDelete;
    rec.page = page;
    rec.wid = t.writer;
    rec.lamport = t.lamport;
    rec.global_seq = t.global_seq;
    rec.issued_at_us = t.deleted_at_us;
    out.push_back(std::move(rec));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const web::WriteRecord& a, const web::WriteRecord& b) {
                     return a.wid < b.wid;
                   });
  return out;
}

web::WriteRecord ObjectReplica::record_for_page(const std::string& page) const {
  const auto p = document().get(page);
  web::WriteRecord rec;
  rec.page = page;
  if (!p) {
    rec.op = web::WriteOp::kDelete;
    return rec;
  }
  rec.op = web::WriteOp::kPut;
  rec.content = p->content;
  rec.mime = p->mime;
  rec.wid = p->last_writer;
  rec.global_seq = p->global_seq;
  rec.lamport = p->lamport;
  rec.issued_at_us = p->updated_at_us;
  return rec;
}

}  // namespace globe::replication
