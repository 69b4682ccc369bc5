#include "globe/replication/write_log.hpp"

#include <algorithm>
#include <type_traits>

#include "globe/util/assert.hpp"

namespace globe::replication {

namespace {

template <typename Index>
[[maybe_unused]] bool keyed_sorted(const Index& index) {
  return std::is_sorted(
      index.begin(), index.end(),
      [](const auto& a, const auto& b) { return a.key < b.key; });
}

template <typename T>
std::uint64_t pos_of(const T& entry) {
  if constexpr (std::is_integral_v<T>) {
    return entry;
  } else {
    return entry.pos;
  }
}

/// Counts one more compacted entry in `postings`, where every position
/// below `horizon` is compacted, and erases the compacted entries once
/// they outnumber the retained ones. Returns true when none is retained
/// any more: the caller then keeps the emptied list's storage, since a
/// store that folds after every update appends to the same clients and
/// pages again, unless its last record deleted the page. Kept lists
/// stay bounded: one per writer, which the base clock names anyway, and
/// one per page not deleted.
template <typename P>
bool retire(P& postings, std::uint64_t horizon) {
  if (++postings.stale * 2 <= postings.items.size()) return false;
  if (postings.stale == postings.items.size()) {
    postings.items.clear();
    postings.stale = 0;
    return true;
  }
  std::erase_if(postings.items, [horizon](const auto& entry) {
    return pos_of(entry) < horizon;
  });
  postings.stale = 0;
  return false;
}

}  // namespace

WriteLog::ClientPostings& WriteLog::client_postings(ClientId client) {
  auto it = std::lower_bound(
      by_client_.begin(), by_client_.end(), client,
      [](const ClientPostings& p, ClientId c) { return p.client < c; });
  if (it == by_client_.end() || it->client != client) {
    it = by_client_.insert(it, ClientPostings{});
    it->client = client;
  }
  return *it;
}

void WriteLog::retire_page(web::PageId page, bool gone) {
  PagePostings& postings = by_page_[page];
  GLOBE_DCHECK_MSG(postings.indexed, "compacted record was never indexed");
  if (!retire(postings, first_pos_) || !gone) return;
  // The page is gone: drop the list and give back its id.
  postings = PagePostings{};
  --indexed_pages_;
  pages_->release(page);
}

const web::WriteRecord& WriteLog::append(web::WriteRecord rec,
                                         web::PageId page) {
  const std::uint64_t pos = appended_total();
  retained_bytes_ += record_bytes(rec);

  // Per-client index, kept sorted by seq. Records of one client almost
  // always arrive in seq order, so the common case is a push_back.
  auto& client_index = client_postings(rec.wid.client).items;
  const Keyed keyed{rec.wid.seq, pos};
  if (client_index.empty() || client_index.back().key <= rec.wid.seq) {
    client_index.push_back(keyed);
  } else {
    client_index.insert(
        std::upper_bound(client_index.begin(), client_index.end(), rec.wid.seq,
                         [](std::uint64_t s, const Keyed& k) {
                           return s < k.key;
                         }),
        keyed);
  }
  // Index coherence is load-bearing for every binary search below; the
  // check is O(index) so it lives behind GLOBE_DCHECK.
  GLOBE_DCHECK_MSG(keyed_sorted(client_index),
                   "per-client index lost its seq order");

  GLOBE_DCHECK_MSG(pages_->name(page) == rec.page,
                   "record appended under another page's id");
  if (page >= by_page_.size()) by_page_.resize(page + 1);
  PagePostings& postings = by_page_[page];
  if (!postings.indexed) {
    postings.indexed = true;
    ++indexed_pages_;
    pages_->hold(page);
  }
  postings.items.push_back(pos);
  return entries_.emplace_back(std::move(rec));
}

void WriteLog::emit_sorted(std::vector<std::uint64_t>& positions,
                           std::vector<web::WriteRecord>& out) const {
  std::sort(positions.begin(), positions.end());
  out.reserve(out.size() + positions.size());
  for (const std::uint64_t pos : positions) out.push_back(at(pos));
}

std::vector<web::WriteRecord> WriteLog::records_since(
    const VectorClock& have, std::uint64_t have_gseq,
    const std::vector<std::string>& pages) const {
  std::vector<web::WriteRecord> out;
  std::vector<std::uint64_t> positions;

  if (!pages.empty()) {
    // Page-filtered fetch: walk only the requested pages' records.
    for (const std::string& page : pages) {
      const auto id = pages_->find(page);
      if (!id.has_value() || *id >= by_page_.size()) continue;
      for (const std::uint64_t pos : by_page_[*id].items) {
        if (pos < first_pos_) continue;  // compacted away
        const web::WriteRecord& rec = at(pos);
        if (have.covers(rec.wid)) continue;
        if (rec.global_seq != 0 && rec.global_seq <= have_gseq) continue;
        positions.push_back(pos);
      }
    }
    // A page listed twice must not emit its records twice.
    std::sort(positions.begin(), positions.end());
    positions.erase(std::unique(positions.begin(), positions.end()),
                    positions.end());
    out.reserve(positions.size());
    for (const std::uint64_t pos : positions) out.push_back(at(pos));
    return out;
  }

  // Delta by vector clock: for each writing client, the records above
  // the requester's entry form a suffix of the seq-sorted index.
  for (const ClientPostings& postings : by_client_) {
    const std::uint64_t floor = have.get(postings.client);
    auto it = std::upper_bound(postings.items.begin(), postings.items.end(),
                               floor, [](std::uint64_t s, const Keyed& k) {
                                 return s < k.key;
                               });
    for (; it != postings.items.end(); ++it) {
      if (it->pos < first_pos_) continue;  // compacted away
      const web::WriteRecord& rec = at(it->pos);
      if (rec.global_seq != 0 && rec.global_seq <= have_gseq) continue;
      positions.push_back(it->pos);
    }
  }
  emit_sorted(positions, out);
  return out;
}

std::vector<web::WriteRecord> WriteLog::records_since_naive(
    const VectorClock& have, std::uint64_t have_gseq,
    const std::vector<std::string>& pages) const {
  std::vector<web::WriteRecord> out;
  for (const auto& rec : retained()) {
    if (have.covers(rec.wid)) continue;
    if (rec.global_seq != 0 && rec.global_seq <= have_gseq) continue;
    if (!pages.empty() &&
        std::find(pages.begin(), pages.end(), rec.page) == pages.end()) {
      continue;
    }
    out.push_back(rec);
  }
  return out;
}

bool WriteLog::can_serve(const VectorClock& have, std::uint64_t have_gseq,
                         bool contiguous_gseq_floor) const {
  if (base_clock_.empty()) return true;  // nothing compacted yet
  if (have.dominates(base_clock_)) return true;
  // Sequential catch-up: every compacted record was totally ordered and
  // the requester's floor — contiguous under the sequential model — is
  // at or past the newest of them.
  return contiguous_gseq_floor && base_all_sequenced_ &&
         have_gseq >= base_gseq_;
}

void WriteLog::note_snapshot(const VectorClock& clock, std::uint64_t gseq,
                             bool sequenced) {
  base_clock_.merge(clock);
  if (gseq > base_gseq_) base_gseq_ = gseq;
  if (!sequenced) base_all_sequenced_ = false;
}

std::size_t WriteLog::compact_below(const VectorClock& horizon,
                                    std::uint64_t gseq_horizon) {
  const auto records = retained();
  std::size_t drop = 0;
  while (drop < records.size()) {
    const web::WriteRecord& rec = records[drop];
    if (!horizon.covers(rec.wid)) break;
    if (rec.global_seq != 0 && rec.global_seq > gseq_horizon) break;
    ++drop;
  }
  if (drop == 0) return 0;
  compact(records.size() - drop);
  return drop;
}

void WriteLog::compact(std::size_t keep) {
  for (std::size_t n = size(); n > keep; --n) {
    web::WriteRecord& rec = entries_[head_];
    base_clock_.observe(rec.wid);
    retained_bytes_ -= record_bytes(rec);
    if (rec.global_seq == 0) {
      base_all_sequenced_ = false;
    } else if (rec.global_seq > base_gseq_) {
      base_gseq_ = rec.global_seq;
    }
    ++first_pos_;
    retire(client_postings(rec.wid.client), first_pos_);
    const auto page = pages_->find(rec.page);
    GLOBE_DCHECK_MSG(page.has_value(), "a logged page lost its id");
    retire_page(*page, rec.op == web::WriteOp::kDelete);
    rec = {};  // free the payload now; the slot goes with the prefix
    ++head_;
  }
  // Erase the compacted prefix once it outweighs the retained records:
  // each record is moved O(1) times, amortized.
  if (head_ * 2 > entries_.size()) {
    entries_.erase(entries_.begin(),
                   entries_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

}  // namespace globe::replication
