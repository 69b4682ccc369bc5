// Web documents: the state of a distributed Web object.
//
// Section 2 of the paper: "A Web document consists of a collection of
// HTML pages, together with files for images, applets, etc., which
// jointly comprise the state of the distributed shared object."
//
// WebDocument is the semantics-object state: a set of named pages, each
// remembering which write produced it. Applying a WriteRecord mutates the
// document; snapshots support full-state coherence transfer.
//
// Delta snapshots: every mutation bumps a per-document monotonic version
// counter and stamps the touched page with it, and deletions leave page
// *tombstones* (the identity of the winning delete). A receiver that
// already holds most of the document can then be brought to the sender's
// exact state by shipping only the differing pages plus drop entries —
// either against the receiver's page-stamp summary (always exact) or
// against a version floor from a previous transfer of the same lineage
// (cheapest; falls back to full when the floor predates the tombstone
// horizon). Per-page encodings are cached, so a hot page is serialized
// once and the fragment shared across concurrent delta requesters.
//
// Per-page state lives in slots indexed by the document's own PageTable
// ids (page_table.hpp): a page name is looked up once per record, not
// once per table. A replica's write log and page flags index by the same
// ids. Everything encoded, summarized or compared walks pages in name
// order, so two documents that met their pages in different orders
// encode byte-identically.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "globe/coherence/vector_clock.hpp"
#include "globe/coherence/write_id.hpp"
#include "globe/util/buffer.hpp"
#include "globe/web/page_table.hpp"
#include "globe/web/write_record.hpp"

namespace globe::web {

struct Page {
  std::string content;
  std::string mime = "text/html";
  WriteId last_writer;           // WiD of the write that produced it
  std::uint64_t global_seq = 0;  // total-order position of that write
  std::uint64_t lamport = 0;     // LWW timestamp of that write
  std::int64_t updated_at_us = 0;

  friend bool operator==(const Page&, const Page&) = default;
};

/// Identity of the write that produced a page version. Two stores whose
/// stamps for a page match hold byte-identical copies of it (a WiD names
/// one immutable write), which is what lets delta snapshots skip it.
struct PageStamp {
  std::string page;
  WriteId writer;
  std::uint64_t lamport = 0;
  std::uint64_t global_seq = 0;

  void encode(util::Writer& w) const {
    w.str(page);
    writer.encode(w);
    w.varint(lamport);
    w.varint(global_seq);
  }

  /// A one-byte name length, the smallest writer, and two one-byte
  /// varints.
  static constexpr std::size_t kMinEncodedBytes =
      1 + coherence::WriteId::kMinEncodedBytes + 2;

  static PageStamp decode(util::Reader& r) {
    PageStamp s;
    s.page = r.str();
    s.writer = coherence::WriteId::decode(r);
    s.lamport = r.varint();
    s.global_seq = r.varint();
    return s;
  }
};

/// Memory of a deletion: the identity of the winning delete write. Kept
/// so (a) a stale concurrent put cannot resurrect the page under
/// last-writer-wins once the delete record itself was compacted away,
/// and (b) delta snapshots can ship the deletion as a drop entry.
struct Tombstone {
  WriteId writer;
  std::uint64_t lamport = 0;
  std::uint64_t global_seq = 0;
  std::int64_t deleted_at_us = 0;
  std::uint64_t version = 0;  // local mutation stamp (never serialized)
};

/// Delta-encode accounting surfaced to the metrics sink.
struct DeltaStats {
  std::size_t pages_shipped = 0;
  std::size_t drops_shipped = 0;
};

class WebDocument {
 public:
  /// Applies a write record unconditionally (ordering was decided by the
  /// replication object). Returns false if the record was a no-op delete.
  bool apply(const WriteRecord& rec);
  /// apply() for a caller that already looked the page up: `page` is
  /// rec.page's id in page_table(), held by the caller.
  bool apply(const WriteRecord& rec, PageId page);

  /// Applies a record only if it wins last-writer-wins against the
  /// current page version (used by eventual coherence). Returns true if
  /// the document changed. Deletions are remembered as tombstones, which
  /// later puts must also beat — a page deleted here cannot be
  /// resurrected by a stale concurrent write arriving after the delete
  /// record was compacted out of the logs.
  bool apply_lww(const WriteRecord& rec);
  bool apply_lww(const WriteRecord& rec, PageId page);

  /// The live page `page`, or null; valid until the document changes.
  [[nodiscard]] const Page* get(const std::string& page) const;
  [[nodiscard]] bool has(const std::string& page) const {
    const auto id = names_.find(page);
    return id.has_value() && live(*id);
  }
  /// Live page names, in name order.
  [[nodiscard]] std::vector<std::string> page_names() const;
  [[nodiscard]] std::size_t page_count() const { return live_pages_; }

  /// The ids of this document's page names. A replica's write log and
  /// page flags index by them and hold the ids they use.
  [[nodiscard]] PageTable& page_table() { return names_; }
  [[nodiscard]] const PageTable& page_table() const { return names_; }

  /// Total content bytes; approximates document transfer size.
  [[nodiscard]] std::size_t content_bytes() const;

  /// Full-state snapshot (coherence transfer type = full). The encoding
  /// is cached and shared: repeated calls between mutations return the
  /// same immutable buffer, so N concurrent snapshot requesters (e.g. a
  /// cutover storm of behind-horizon replicas) cost one encode, not N.
  [[nodiscard]] util::SharedBuffer snapshot() const;

  /// Reference encoder: always re-encodes, bypassing the cache. Used by
  /// the cache fill and by equivalence tests as the uncached oracle.
  /// `mask_wall_clock` zeroes the per-page updated_at stamp: equivalence
  /// gates across transports use it because a different datagram schedule
  /// legitimately shifts simulated time without changing delivered state.
  [[nodiscard]] util::Buffer encode_snapshot(
      bool mask_wall_clock = false) const;

  void restore(util::BytesView snapshot);

  /// The page named `page` in an encoded snapshot, as restore() would
  /// hold it (a name listed twice keeps its first page), or nothing when
  /// the snapshot holds no such page. Reads the whole encoding, so a
  /// malformed snapshot throws util::CodecError wherever the page is.
  [[nodiscard]] static std::optional<Page> find_in_snapshot(
      util::BytesView snapshot, std::string_view page);

  // ---- delta snapshots ------------------------------------------------

  /// Monotonic per-document mutation counter. Every state change bumps
  /// it; the touched page (or tombstone) is stamped with the new value.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  /// Stamp summary of every live page, in page-name order. A requester
  /// sends this so the responder can encode exactly the difference.
  [[nodiscard]] std::vector<PageStamp> summarize() const;

  /// Encodes the pages (and drops) a receiver holding `have` is missing
  /// relative to this document. Applying the result via apply_delta()
  /// makes the receiver's pages byte-identical to this document's,
  /// regardless of how the receiver diverged. Always succeeds.
  [[nodiscard]] util::Buffer encode_delta(std::span<const PageStamp> have,
                                          DeltaStats* stats = nullptr) const;

  /// Floor fast path: encodes only pages and tombstones stamped after
  /// `floor` — exact when the receiver mirrors this document's lineage
  /// at `floor` and has not mutated since. Callers must check
  /// can_delta_since() first; a floor below the tombstone horizon can no
  /// longer prove which deletions the receiver missed.
  [[nodiscard]] util::Buffer encode_delta_since(
      std::uint64_t floor, DeltaStats* stats = nullptr) const;

  /// True when a floor delta can be served: the floor is within this
  /// document's version range and at or above the tombstone horizon
  /// (deletion knowledge below the horizon was discarded by restore()).
  /// Mirrors WriteLog::note_snapshot semantics: behind the horizon, only
  /// a full transfer is sound.
  [[nodiscard]] bool can_delta_since(std::uint64_t floor) const {
    return floor <= version_ && floor >= tombstone_floor_;
  }

  /// The tombstone horizon: deletion knowledge below this version was
  /// discarded by restore(). Exposed for the invariant monitors.
  [[nodiscard]] std::uint64_t tombstone_horizon() const {
    return tombstone_floor_;
  }

  /// Applies an encoded delta: shipped pages overwrite, drop entries
  /// erase and leave tombstones. The sender's document version (the
  /// receiver's next floor) travels alongside the delta, not inside it
  /// (StateTransfer::version) — one authoritative location.
  void apply_delta(util::BytesView delta);

  /// Deletion memory by page name, built on each call (tests /
  /// state_as_records).
  [[nodiscard]] std::map<std::string, Tombstone> tombstones() const;

  /// Stability-horizon tombstone GC: discards tombstones whose winning
  /// delete is covered by `horizon` — every live replica has applied the
  /// delete, so no stale concurrent put that it must outrank can still
  /// arrive. The tombstone horizon rises to the newest collected stamp,
  /// so encode_delta_since() keeps its refusal semantics: a floor from
  /// before the collection can no longer prove which deletions the
  /// receiver missed and falls back to a full transfer, exactly as after
  /// restore(). Returns how many tombstones were collected.
  std::size_t collect_tombstones(const coherence::VectorClock& horizon);

  /// Cached wire fragment of one live page (the per-page slice of the
  /// snapshot encoding). Encoded on first use after a mutation of that
  /// page; shared by reference across concurrent delta requesters.
  [[nodiscard]] util::SharedBuffer page_fragment(const std::string& page) const;

  /// Structural equality of page contents (used by convergence checks);
  /// deliberately ignores the snapshot cache, version stamps, and
  /// tombstones.
  friend bool operator==(const WebDocument& a, const WebDocument& b) {
    return a.same_pages(b);
  }

 private:
  /// One page id's state: the page while it is live, its mutation stamp
  /// and its cached wire fragment.
  struct Slot {
    Page page;
    std::uint64_t version = 0;  // mutation stamp of the live page
    // Cached encode; null after mutation. Mutable: fragments fill
    // lazily under const delta encodes.
    mutable util::SharedBuffer fragment;
    bool live = false;
  };

  [[nodiscard]] bool live(PageId id) const {
    return id < pages_.size() && pages_[id].live;
  }
  [[nodiscard]] const Tombstone* tombstone(PageId id) const {
    return id < tombstones_.size() && tombstones_[id].has_value()
               ? &*tombstones_[id]
               : nullptr;
  }
  /// Makes `id` a live page (its slot holds the id) and returns it.
  Slot& make_live(PageId id);
  /// Erases the live page at `id`, if any; returns whether one was.
  bool drop_page(PageId id);
  /// The tombstone slot of `id`, created (and holding the id) if absent.
  Tombstone& tombstone_slot(PageId id);
  void erase_tombstone(PageId id);
  [[nodiscard]] bool same_pages(const WebDocument& other) const;

  /// Bookkeeping for a page mutation: bump the document version, stamp
  /// the page, drop its cached fragment and the snapshot cache.
  void touch(Slot& slot);
  void encode_page(util::Writer& w, const std::string& name,
                   const Page& p, bool mask_wall_clock = false) const;
  /// The cached wire fragment of the live page `id`, encoded if absent.
  const util::SharedBuffer& fragment(PageId id) const;
  void record_tombstone(PageId id, const WriteRecord& rec);

  PageTable names_;
  // By page id; a live page and a tombstone each hold their id.
  std::vector<Slot> pages_;
  std::size_t live_pages_ = 0;
  // By page id, sized on the first tombstone.
  std::vector<std::optional<Tombstone>> tombstones_;
  std::uint64_t version_ = 0;
  // Versions below this lost their deletion memory (restore() replaces
  // the state wholesale and clears the tombstones); floor deltas from
  // below it must fall back to a full transfer.
  std::uint64_t tombstone_floor_ = 0;
  // Cached encoding of pages_; reset by every mutation. Copies of the
  // document share the cache (it is immutable); a copy's own mutation
  // only drops its own reference.
  mutable util::SharedBuffer snapshot_cache_;
};

}  // namespace globe::web
