// Vector clocks over client identifiers.
//
// A VectorClock maps each writing client to the highest *contiguous*
// sequence number of that client's writes known/applied. It serves three
// roles in the library:
//   * causal coherence: write dependencies and applicability tests,
//   * session guarantees: read-sets and write-sets (monotonic reads,
//     writes-follow-reads) are summarized as vector clocks,
//   * anti-entropy: replicas exchange clocks to compute missing records.
//
// Storage is a flat vector of (client, seq) pairs kept sorted by client
// id: clocks are copied, merged, and compared on every coherence-message
// hot path, and the contiguous layout makes those operations cache-local
// with one allocation per clock instead of one per entry (std::map).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "globe/coherence/write_id.hpp"
#include "globe/util/assert.hpp"
#include "globe/util/buffer.hpp"
#include "globe/util/ids.hpp"

namespace globe::coherence {

class VectorClock {
 public:
  using Entry = std::pair<ClientId, std::uint64_t>;

  VectorClock() = default;

  /// Sequence number recorded for `c` (0 if absent).
  [[nodiscard]] std::uint64_t get(ClientId c) const {
    auto it = find(c);
    return it != entries_.end() && it->first == c ? it->second : 0;
  }

  /// Sets the entry for `c`; removing it when v == 0 keeps clocks canonical.
  void set(ClientId c, std::uint64_t v) {
    auto it = find(c);
    const bool present = it != entries_.end() && it->first == c;
    if (v == 0) {
      if (present) entries_.erase(it);
    } else if (present) {
      it->second = v;
    } else {
      entries_.insert(it, Entry{c, v});
    }
  }

  /// Advances the entry for `c` to at least `v`.
  void advance(ClientId c, std::uint64_t v) {
    if (v == 0) return;
    auto it = find(c);
    if (it != entries_.end() && it->first == c) {
      if (v > it->second) it->second = v;
    } else {
      entries_.insert(it, Entry{c, v});
    }
  }

  /// Records a write: advances the writer's entry.
  void observe(const WriteId& w) { advance(w.client, w.seq); }

  /// Component-wise maximum with `other`: one linear merge over two
  /// sorted entry vectors. When `other` names no client missing here
  /// (a receiver catching up on writers it already knows) the maximum
  /// folds in place without allocating.
  void merge(const VectorClock& other) {
    if (other.entries_.empty()) return;
    if (entries_.empty()) {
      entries_ = other.entries_;
      return;
    }
    auto a = entries_.begin();
    auto b = other.entries_.begin();
    for (; b != other.entries_.end(); ++a, ++b) {
      while (a != entries_.end() && a->first < b->first) ++a;
      if (a == entries_.end() || a->first != b->first) break;
      if (b->second > a->second) a->second = b->second;
    }
    if (b == other.entries_.end()) return;
    // `other` adds a client. The entries folded so far already hold
    // their maximum, so the full merge below yields the same result.
    std::vector<Entry> merged;
    merged.reserve(entries_.size() + other.entries_.size());
    a = entries_.begin();
    b = other.entries_.begin();
    while (a != entries_.end() && b != other.entries_.end()) {
      if (a->first < b->first) {
        merged.push_back(*a++);
      } else if (b->first < a->first) {
        merged.push_back(*b++);
      } else {
        merged.emplace_back(a->first, std::max(a->second, b->second));
        ++a;
        ++b;
      }
    }
    merged.insert(merged.end(), a, entries_.end());
    merged.insert(merged.end(), b, other.entries_.end());
    entries_ = std::move(merged);
    // Every lookup below binary-searches on the sorted entries; the
    // check is O(n) per merge, so it rides the checked build only.
    GLOBE_DCHECK_MSG(
        std::is_sorted(entries_.begin(), entries_.end(),
                       [](const Entry& x, const Entry& y) {
                         return x.first < y.first;
                       }),
        "merge broke the sorted-entry invariant");
  }

  /// Component-wise minimum with `other` — the stability-horizon fold.
  /// An entry absent on either side is 0, so it drops out entirely,
  /// keeping clocks canonical (no explicit zero entries). The result is a
  /// subsequence of this clock's entries, so a write cursor folds it in
  /// place without allocating.
  void floor_with(const VectorClock& other) {
    auto out = entries_.begin();
    auto a = entries_.begin();
    auto b = other.entries_.begin();
    while (a != entries_.end() && b != other.entries_.end()) {
      if (a->first < b->first) {
        ++a;
      } else if (b->first < a->first) {
        ++b;
      } else {
        *out++ = Entry{a->first, std::min(a->second, b->second)};
        ++a;
        ++b;
      }
    }
    entries_.erase(out, entries_.end());
  }

  /// True if every entry of `other` is <= the corresponding entry here.
  /// Two-pointer walk over the sorted entries.
  [[nodiscard]] bool dominates(const VectorClock& other) const {
    auto a = entries_.begin();
    for (const auto& [c, v] : other.entries_) {
      while (a != entries_.end() && a->first < c) ++a;
      if (a == entries_.end() || a->first != c || a->second < v) return false;
    }
    return true;
  }

  /// True if this and other are incomparable (concurrent).
  [[nodiscard]] bool concurrent_with(const VectorClock& other) const {
    return !dominates(other) && !other.dominates(*this);
  }

  /// True if the write `w` is "covered": we have seen it.
  [[nodiscard]] bool covers(const WriteId& w) const {
    return get(w.client) >= w.seq;
  }

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Sum of all entries; a scalar progress measure used by staleness
  /// metrics ("how many writes behind is this replica").
  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t sum = 0;
    for (const auto& [c, v] : entries_) sum += v;
    return sum;
  }

  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

  friend bool operator==(const VectorClock&, const VectorClock&) = default;

  [[nodiscard]] std::string str() const {
    std::string out = "{";
    bool first = true;
    for (const auto& [c, v] : entries_) {
      if (!first) out += ",";
      first = false;
      out += std::to_string(c) + ":" + std::to_string(v);
    }
    return out + "}";
  }

  /// Fewest bytes one entry takes on the wire: a one-byte id delta and
  /// a one-byte seq.
  static constexpr std::size_t kMinEntryBytes = 2;

  /// Upper bound on encode()'s output.
  [[nodiscard]] std::size_t encoded_size_bound() const {
    return util::kMaxVarintBytes +
           entries_.size() * (util::kMaxVarint32Bytes + util::kMaxVarintBytes);
  }

  /// Wire layout: the entry count, then per entry the client id as the
  /// difference from the previous entry's id (the first from 0) and the
  /// seq, all varints. Ids are sorted, so deltas are small and never
  /// negative.
  void encode(util::Writer& w) const {
    w.varint(entries_.size());
    ClientId prev = 0;
    for (const auto& [c, v] : entries_) {
      w.varint(c - prev);
      w.varint(v);
      prev = c;
    }
  }

  static VectorClock decode(util::Reader& r) {
    VectorClock vc;
    const std::uint64_t n = r.count(kMinEntryBytes);
    vc.entries_.reserve(n);
    ClientId c = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t delta = r.varint();
      if (delta > 0xFFFFFFFFu - c) {
        throw util::CodecError("clock client id exceeds 32 bits");
      }
      c += static_cast<ClientId>(delta);
      const std::uint64_t v = r.varint();
      // Encoders emit strictly increasing, nonzero entries: append them.
      // `set` keeps repeated ids (a zero delta: the later entry wins) and
      // zero seqs (dropped) canonical.
      if (v != 0 && (vc.entries_.empty() || vc.entries_.back().first < c)) {
        vc.entries_.emplace_back(c, v);
      } else {
        vc.set(c, v);
      }
    }
    return vc;
  }

 private:
  [[nodiscard]] std::vector<Entry>::const_iterator find(ClientId c) const {
    return std::lower_bound(
        entries_.begin(), entries_.end(), c,
        [](const Entry& e, ClientId id) { return e.first < id; });
  }
  [[nodiscard]] std::vector<Entry>::iterator find(ClientId c) {
    return std::lower_bound(
        entries_.begin(), entries_.end(), c,
        [](const Entry& e, ClientId id) { return e.first < id; });
  }

  // Sorted by client id; keeps the wire encoding deterministic.
  std::vector<Entry> entries_;
};

}  // namespace globe::coherence
