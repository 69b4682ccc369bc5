// Shard layout: the deterministic object -> shard map.
//
// Globe's object space is partitioned into shards, each served by a
// subgroup of stores. The mapping is rendezvous (highest-random-weight)
// hashing over an explicit, epoch-numbered layout: every node holding
// the same layout epoch computes the identical object -> shard mapping
// with no communication, and growing the layout from N to N+1 shards
// remaps only the objects whose top-scoring shard is the new one —
// about 1/(N+1) of the object space, the classic minimal-movement
// property. A small directory of overrides pins individual objects to a
// specific shard (e.g. an object co-located with its master site)
// without disturbing the hashed remainder.
#pragma once

#include <cstdint>
#include <map>

#include "globe/util/buffer.hpp"
#include "globe/util/ids.hpp"

namespace globe::placement {

struct Layout {
  std::uint64_t epoch = 0;       // bumped on every layout change
  std::uint32_t shard_count = 1;
  std::uint64_t salt = 0x676c6f62655348ULL;  // per-deployment hash seed
  std::map<ObjectId, ShardId> overrides;     // pinned objects (directory)

  friend bool operator==(const Layout&, const Layout&) = default;

  /// Rendezvous score of `object` on `shard`; exposed for tests.
  [[nodiscard]] static std::uint64_t score(std::uint64_t salt, ObjectId object,
                                           ShardId shard) {
    // splitmix64 finalizer over the (salt, object, shard) triple.
    std::uint64_t z = salt ^ (object * 0x9E3779B97F4A7C15ULL) ^
                      (static_cast<std::uint64_t>(shard) + 1) *
                          0xD1B54A32D192ED03ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  [[nodiscard]] ShardId shard_of(ObjectId object) const {
    if (auto it = overrides.find(object); it != overrides.end()) {
      return it->second;
    }
    if (shard_count <= 1) return 0;
    ShardId best = 0;
    std::uint64_t best_score = score(salt, object, 0);
    for (ShardId s = 1; s < shard_count; ++s) {
      const std::uint64_t sc = score(salt, object, s);
      if (sc > best_score) {
        best_score = sc;
        best = s;
      }
    }
    return best;
  }

  /// Varints throughout, except the salt: a uniformly random 64-bit
  /// value a varint would only lengthen.
  void encode(util::Writer& w) const {
    w.varint(epoch);
    w.varint(shard_count);
    w.u64(salt);
    w.varint(overrides.size());
    for (const auto& [object, shard] : overrides) {
      w.varint(object);
      w.varint(shard);
    }
  }

  static Layout decode(util::Reader& r) {
    Layout l;
    l.epoch = r.varint();
    l.shard_count = r.varint32();
    l.salt = r.u64();
    const std::uint64_t n = r.count(2);  // a one-byte object and shard
    for (std::uint64_t i = 0; i < n; ++i) {
      const ObjectId object = r.varint();
      l.overrides[object] = r.varint32();
    }
    return l;
  }
};

}  // namespace globe::placement
