// Indexed write log: the replication hot path's delta structure.
//
// A store keeps the records it has applied, in apply (append) order,
// while another replica may still read them here: its subscribers
// (fetch, anti-entropy) and its upstream (the push-back half of
// anti-entropy). A store that runs without membership, so that its
// upstream never changes, folds every record its upstream has shown it
// holds while no subscriber reads the log: a leaf cache keeps only the
// suffix that starts at its oldest write the upstream has not yet
// confirmed (ObjectReplica::fold_below_upstream).
//
// Pull, demand-fetch, and anti-entropy all ask the same question: "given
// the requester's vector clock and total-order floor, which retained
// records does it lack?" The original implementation answered it with a
// full scan of the log — O(history) per request, O(history²) over a long
// run. WriteLog answers it in O(delta):
//
//   * a per-client index sorted by the client's write sequence number:
//     the records not covered by `have` are exactly the per-client
//     suffixes above have.get(client), found by binary search;
//   * a per-page index in append order for page-filtered fetches
//     (partial access transfer), replacing the O(pages) std::find per
//     record. It is a slot table indexed by the replica's page ids
//     (web::PageTable, shared with the document); a posting list holds
//     its page's id.
//
// Output is always in append order — byte-identical to the naive scan,
// which is kept as records_since_naive() for the equivalence test.
//
// Compaction: old records can be folded into a base clock so the log
// stays bounded. Three triggers fold: the count threshold, the stability
// horizon, and, at a store without membership and with no subscriber,
// its upstream's frontier.
// A requester behind the compaction horizon cannot be served a delta
// anymore (can_serve() is false); the store then cuts over to a full
// snapshot transfer, exactly like a Table 1 "full" coherence transfer.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "globe/coherence/vector_clock.hpp"
#include "globe/web/page_table.hpp"
#include "globe/web/write_record.hpp"

namespace globe::replication {

using coherence::VectorClock;

class WriteLog {
 public:
  /// A log whose page index uses `pages`' ids; the table must outlive
  /// the log.
  explicit WriteLog(web::PageTable& pages) : pages_(&pages) {}

  /// Takes ownership of one applied record and indexes it under `page`,
  /// rec.page's id in the log's page table. Returns the logged record,
  /// valid until the next append or compaction.
  const web::WriteRecord& append(web::WriteRecord rec, web::PageId page);

  /// Retained (non-compacted) records.
  [[nodiscard]] std::size_t size() const { return entries_.size() - head_; }
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Total records ever appended, including compacted ones.
  [[nodiscard]] std::uint64_t appended_total() const {
    return first_pos_ + size();
  }

  /// The retained records in append order (equivalence tests / benches).
  [[nodiscard]] std::span<const web::WriteRecord> retained() const {
    return std::span(entries_).subspan(head_);
  }

  /// The delta a requester at (`have`, `have_gseq`) is missing, from the
  /// retained records, in append order. Restricted to `pages` when
  /// non-empty. O(delta log delta) instead of O(history).
  [[nodiscard]] std::vector<web::WriteRecord> records_since(
      const VectorClock& have, std::uint64_t have_gseq,
      const std::vector<std::string>& pages = {}) const;

  /// Reference implementation: full linear scan over the retained
  /// records. Kept for the equivalence test (write_log_test).
  [[nodiscard]] std::vector<web::WriteRecord> records_since_naive(
      const VectorClock& have, std::uint64_t have_gseq,
      const std::vector<std::string>& pages = {}) const;

  /// True when the requester is at or above the compaction horizon, so
  /// its delta can be computed from the retained records alone. False
  /// means the store must cut over to a full snapshot.
  /// `contiguous_gseq_floor` must only be true when the requester's
  /// have_gseq is known to be contiguous (the sequential model, which
  /// applies records in exact total order) — FIFO/PRAM stores advance
  /// their gseq with max semantics and may still miss earlier records.
  [[nodiscard]] bool can_serve(const VectorClock& have,
                               std::uint64_t have_gseq,
                               bool contiguous_gseq_floor = false) const;

  /// Folds the oldest records into the base clock until at most `keep`
  /// records are retained. Costs O(dropped records), amortized.
  void compact(std::size_t keep);

  /// Frontier compaction: folds the append-order prefix of records that
  /// `horizon` covers — the record's writer entry is covered and, when it
  /// carries a global seq, it is at or below `gseq_horizon`. The
  /// frontier is the stability horizon (every live replica has applied
  /// the prefix) or, at a store without membership and with no
  /// subscriber, its upstream's.
  /// Stops at the first uncovered record (compaction must stay a prefix
  /// fold so the indexes keep their position invariant). Returns how many
  /// records were dropped.
  std::size_t compact_below(const VectorClock& horizon,
                            std::uint64_t gseq_horizon);

  /// Pages holding an index list, emptied ones included (tests).
  [[nodiscard]] std::size_t indexed_pages() const { return indexed_pages_; }

  /// Approximate payload bytes of the retained records (page, content
  /// and mime strings plus a fixed per-record overhead), for gauges.
  [[nodiscard]] std::size_t retained_bytes() const { return retained_bytes_; }

  /// Records that this store restored a full snapshot at (clock, gseq):
  /// the covered records were never appended here, so the log must not
  /// claim it can serve requesters below that horizon — they get a
  /// snapshot cutover, exactly as if the records had been compacted
  /// away. `sequenced` says the covered history was totally ordered
  /// (the sequential model), which keeps the contiguous-floor shortcut
  /// valid.
  void note_snapshot(const VectorClock& clock, std::uint64_t gseq,
                     bool sequenced);

  /// Payload-byte estimate of one record (shared with append/compact).
  [[nodiscard]] static std::size_t record_bytes(const web::WriteRecord& rec) {
    return rec.page.size() + rec.content.size() + rec.mime.size() +
           kRecordOverhead;
  }

  /// Clock summarizing every compacted-away record.
  [[nodiscard]] const VectorClock& base_clock() const { return base_clock_; }
  /// Highest global sequence number among compacted records.
  [[nodiscard]] std::uint64_t base_gseq() const { return base_gseq_; }

 private:
  /// Fixed-cost estimate for the non-string fields of a record (wid,
  /// clocks, sequence numbers, flags).
  static constexpr std::size_t kRecordOverhead = 64;

  /// (key, position) pair; position is the global append position.
  struct Keyed {
    std::uint64_t key = 0;
    std::uint64_t pos = 0;
  };

  /// One client's or page's index positions. Compaction retires
  /// positions lazily: `stale` counts the entries below first_pos_, and
  /// they are erased once they outnumber the retained ones, so a
  /// compaction costs O(dropped) amortized instead of a rescan of every
  /// index. Readers skip entries below first_pos_.
  template <typename T>
  struct Postings {
    std::vector<T> items;
    std::size_t stale = 0;
  };
  struct ClientPostings : Postings<Keyed> {
    ClientId client = 0;
  };
  struct PagePostings : Postings<std::uint64_t> {
    bool indexed = false;  // the list exists (and holds its page id)
  };

  [[nodiscard]] const web::WriteRecord& at(std::uint64_t pos) const {
    return entries_[head_ + (pos - first_pos_)];
  }

  ClientPostings& client_postings(ClientId client);
  /// Counts one more compacted entry of `page`'s list; `gone` when the
  /// entry deleted the page.
  void retire_page(web::PageId page, bool gone);

  void emit_sorted(std::vector<std::uint64_t>& positions,
                   std::vector<web::WriteRecord>& out) const;

  web::PageTable* pages_;

  // Append order; entries_[head_] is the oldest retained record. The
  // compacted prefix is cleared at once and erased once it outnumbers
  // the retained records.
  std::vector<web::WriteRecord> entries_;
  std::size_t head_ = 0;
  std::uint64_t first_pos_ = 0;  // append position of entries_[head_]

  // Per-client positions sorted by that client's write seq; the lists
  // sorted by client.
  std::vector<ClientPostings> by_client_;
  // Per-page positions in append order, by page id.
  std::vector<PagePostings> by_page_;
  std::size_t indexed_pages_ = 0;

  std::size_t retained_bytes_ = 0;

  VectorClock base_clock_;
  std::uint64_t base_gseq_ = 0;
  // True while every compacted record carried a global sequence number;
  // lets a sequential-model requester above base_gseq_ still be served.
  bool base_all_sequenced_ = true;
};

}  // namespace globe::replication
