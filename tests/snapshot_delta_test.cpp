// Page-granular delta snapshots at the WebDocument level: version
// stamps, summary deltas (exact against arbitrary receiver divergence),
// floor deltas (exact for lineage mirrors, refused below the tombstone
// horizon), tombstone LWW semantics, and the per-page encode cache.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "globe/util/rng.hpp"
#include "globe/web/document.hpp"

namespace globe::web {
namespace {

WriteRecord put(const std::string& page, const std::string& content,
                coherence::WriteId wid, std::uint64_t lamport = 0) {
  WriteRecord rec;
  rec.op = WriteOp::kPut;
  rec.page = page;
  rec.content = content;
  rec.wid = wid;
  rec.lamport = lamport;
  return rec;
}

WriteRecord del(const std::string& page, coherence::WriteId wid = {},
                std::uint64_t lamport = 0) {
  WriteRecord rec;
  rec.op = WriteOp::kDelete;
  rec.page = page;
  rec.wid = wid;
  rec.lamport = lamport;
  return rec;
}

/// The delta-applied receiver must equal the sender byte-for-byte.
void expect_delta_reproduces(const WebDocument& sender,
                             WebDocument receiver) {
  const auto have = receiver.summarize();
  const util::Buffer delta = sender.encode_delta(have);
  receiver.apply_delta(util::BytesView(delta));
  EXPECT_EQ(receiver.encode_snapshot(), sender.encode_snapshot());
  EXPECT_EQ(receiver, sender);
}

TEST(DeltaSnapshot, VersionAdvancesOnEveryMutation) {
  WebDocument doc;
  const std::uint64_t v0 = doc.version();
  doc.apply(put("a", "alpha", {1, 1}, 1));
  EXPECT_GT(doc.version(), v0);
  const std::uint64_t v1 = doc.version();
  doc.apply(del("a", {1, 2}, 2));
  EXPECT_GT(doc.version(), v1);
  const std::uint64_t v2 = doc.version();
  // LWW rejection leaves the version alone.
  EXPECT_FALSE(doc.apply_lww(put("a", "stale", {2, 1}, 1)));
  EXPECT_EQ(doc.version(), v2);
}

TEST(DeltaSnapshot, SummaryDeltaForEmptyReceiverShipsEverything) {
  WebDocument sender;
  for (int i = 0; i < 6; ++i) {
    sender.apply(put("p" + std::to_string(i), "v" + std::to_string(i),
                     {1, static_cast<std::uint64_t>(i + 1)},
                     static_cast<std::uint64_t>(i + 1)));
  }
  DeltaStats stats;
  const util::Buffer delta = sender.encode_delta({}, &stats);
  EXPECT_EQ(stats.pages_shipped, 6u);
  EXPECT_EQ(stats.drops_shipped, 0u);
  WebDocument receiver;
  receiver.apply_delta(util::BytesView(delta));
  EXPECT_EQ(receiver.encode_snapshot(), sender.encode_snapshot());
}

TEST(DeltaSnapshot, SummaryDeltaSkipsIdenticalPagesAndDropsStaleOnes) {
  WebDocument sender;
  sender.apply(put("same", "shared", {1, 1}, 1));
  sender.apply(put("changed", "new", {1, 2}, 2));
  sender.apply(put("fresh", "only-at-sender", {1, 3}, 3));
  sender.apply(del("gone", {1, 4}, 4));

  WebDocument receiver;
  receiver.apply(put("same", "shared", {1, 1}, 1));       // identical
  receiver.apply(put("changed", "old", {9, 9}, 9));       // diverged
  receiver.apply(put("gone", "deleted-at-sender", {2, 1}, 1));

  DeltaStats stats;
  const util::Buffer delta =
      sender.encode_delta(receiver.summarize(), &stats);
  EXPECT_EQ(stats.pages_shipped, 2u);  // changed + fresh, not same
  EXPECT_EQ(stats.drops_shipped, 1u);  // gone
  receiver.apply_delta(util::BytesView(delta));
  EXPECT_EQ(receiver.encode_snapshot(), sender.encode_snapshot());
  EXPECT_FALSE(receiver.has("gone"));
  // The drop carried the deletion identity: it survives as a tombstone.
  const auto tombstones = receiver.tombstones();
  auto tomb = tombstones.find("gone");
  ASSERT_NE(tomb, tombstones.end());
  EXPECT_EQ(tomb->second.writer, (coherence::WriteId{1, 4}));
}

TEST(DeltaSnapshot, RandomizedSummaryDeltasAlwaysReproduceSender) {
  util::Rng rng(7);
  for (int round = 0; round < 40; ++round) {
    WebDocument sender;
    WebDocument receiver;
    // Shared prefix, then independent divergence on both sides.
    std::uint64_t seq = 0;
    for (int i = 0; i < 20; ++i) {
      const auto rec = put("p" + std::to_string(rng.below(8)),
                           "c" + std::to_string(i), {1, ++seq}, seq);
      sender.apply(rec);
      receiver.apply(rec);
    }
    for (int i = 0; i < 12; ++i) {
      const std::string page = "p" + std::to_string(rng.below(10));
      if (rng.chance(0.25)) {
        sender.apply(del(page, {2, ++seq}, seq));
      } else {
        sender.apply(put(page, "s" + std::to_string(i), {2, ++seq}, seq));
      }
      const std::string rpage = "p" + std::to_string(rng.below(10));
      if (rng.chance(0.25)) {
        receiver.apply(del(rpage, {3, ++seq}, seq));
      } else {
        receiver.apply(put(rpage, "r" + std::to_string(i), {3, ++seq}, seq));
      }
    }
    expect_delta_reproduces(sender, receiver);
  }
}

TEST(DeltaSnapshot, FloorDeltaTracksALineageMirror) {
  WebDocument sender;
  std::uint64_t seq = 0;
  for (int i = 0; i < 8; ++i) {
    sender.apply(put("p" + std::to_string(i), "v0", {1, ++seq}, seq));
  }
  // Bootstrap the mirror with a full-equivalent delta; the floor is the
  // sender's version at encode time (on the wire it travels as
  // StateTransfer::version next to the delta bytes).
  WebDocument mirror;
  mirror.apply_delta(
      util::BytesView(sender.encode_delta(mirror.summarize())));
  std::uint64_t floor = sender.version();
  EXPECT_EQ(mirror.encode_snapshot(), sender.encode_snapshot());

  for (int round = 0; round < 6; ++round) {
    // Sparse change at the sender: one put, one delete.
    sender.apply(put("p" + std::to_string(round % 8), "r", {1, ++seq}, seq));
    sender.apply(del("p" + std::to_string((round + 3) % 8), {1, ++seq}, seq));
    ASSERT_TRUE(sender.can_delta_since(floor));
    DeltaStats stats;
    const util::Buffer delta = sender.encode_delta_since(floor, &stats);
    EXPECT_LE(stats.pages_shipped, 2u);  // only what changed
    mirror.apply_delta(util::BytesView(delta));
    floor = sender.version();
    EXPECT_EQ(mirror.encode_snapshot(), sender.encode_snapshot());
  }
}

TEST(DeltaSnapshot, FloorBelowTombstoneHorizonIsRefused) {
  WebDocument sender;
  sender.apply(put("a", "alpha", {1, 1}, 1));
  const std::uint64_t old_floor = sender.version();
  sender.apply(put("b", "beta", {1, 2}, 2));
  EXPECT_TRUE(sender.can_delta_since(old_floor));

  // A full restore replaces the lineage: deletion knowledge below the
  // new version is gone, so the old floor can no longer be served.
  WebDocument other;
  other.apply(put("x", "ximera", {2, 1}, 1));
  sender.restore(util::BytesView(*other.snapshot()));
  EXPECT_FALSE(sender.can_delta_since(old_floor));
  EXPECT_TRUE(sender.can_delta_since(sender.version()));
  // Future floors work again.
  const std::uint64_t fresh = sender.version();
  sender.apply(put("y", "yolk", {2, 2}, 2));
  EXPECT_TRUE(sender.can_delta_since(fresh));
}

TEST(DeltaSnapshot, TombstoneBlocksLwwResurrection) {
  WebDocument doc;
  doc.apply_lww(put("page", "alive", {1, 1}, 5));
  EXPECT_TRUE(doc.apply_lww(del("page", {1, 2}, 8)));
  EXPECT_FALSE(doc.has("page"));

  // A stale concurrent put (older LWW key than the delete) arrives after
  // the delete record was compacted away: the tombstone must reject it.
  EXPECT_FALSE(doc.apply_lww(put("page", "zombie", {2, 1}, 6)));
  EXPECT_FALSE(doc.has("page"));

  // A genuinely newer put recreates the page and clears the tombstone.
  EXPECT_TRUE(doc.apply_lww(put("page", "reborn", {2, 2}, 9)));
  EXPECT_TRUE(doc.has("page"));
  EXPECT_EQ(doc.tombstones().count("page"), 0u);
}

TEST(DeltaSnapshot, DeleteOfAbsentPageStrengthensTombstone) {
  WebDocument doc;
  EXPECT_FALSE(doc.apply_lww(del("ghost", {1, 1}, 3)));
  ASSERT_EQ(doc.tombstones().count("ghost"), 1u);
  // A weaker delete does not regress the memory...
  EXPECT_FALSE(doc.apply_lww(del("ghost", {2, 1}, 1)));
  EXPECT_EQ(doc.tombstones().at("ghost").lamport, 3u);
  // ...a stronger one advances it.
  EXPECT_FALSE(doc.apply_lww(del("ghost", {2, 2}, 7)));
  EXPECT_EQ(doc.tombstones().at("ghost").lamport, 7u);
  // Puts older than the strongest delete stay dead.
  EXPECT_FALSE(doc.apply_lww(put("ghost", "no", {3, 1}, 5)));
  EXPECT_TRUE(doc.apply_lww(put("ghost", "yes", {3, 2}, 9)));
}

// ---- per-page encode cache ------------------------------------------

TEST(DeltaSnapshot, PageFragmentCacheSharedUntilThatPageMutates) {
  WebDocument doc;
  doc.apply(put("a", "alpha", {1, 1}, 1));
  doc.apply(put("b", "beta", {1, 2}, 2));

  const util::SharedBuffer frag_a = doc.page_fragment("a");
  ASSERT_NE(frag_a, nullptr);
  // Repeated requests share one encode.
  EXPECT_EQ(frag_a.get(), doc.page_fragment("a").get());

  // Mutating ANOTHER page leaves this fragment cached.
  doc.apply(put("b", "beta2", {1, 3}, 3));
  EXPECT_EQ(frag_a.get(), doc.page_fragment("a").get());

  // Mutating the page itself re-encodes.
  doc.apply(put("a", "alpha2", {1, 4}, 4));
  const util::SharedBuffer frag_a2 = doc.page_fragment("a");
  EXPECT_NE(frag_a.get(), frag_a2.get());

  // The fragment is exactly the page's slice of the snapshot encoding.
  util::Reader r{util::BytesView(*frag_a2)};
  EXPECT_EQ(r.str(), "a");
  EXPECT_EQ(r.str(), "alpha2");
}

TEST(DeltaSnapshot, DeltaEncodesShareFragmentsAcrossRequesters) {
  WebDocument sender;
  for (int i = 0; i < 5; ++i) {
    sender.apply(put("p" + std::to_string(i), std::string(64, 'x'),
                     {1, static_cast<std::uint64_t>(i + 1)},
                     static_cast<std::uint64_t>(i + 1)));
  }
  // Two concurrent requesters with different summaries: both deltas are
  // assembled from the same cached fragments (the encode ran once; here
  // we can only observe byte equality plus pointer stability).
  const util::SharedBuffer before = sender.page_fragment("p0");
  WebDocument empty;
  WebDocument partial;
  partial.apply(put("p1", std::string(64, 'x'), {1, 2}, 2));
  const util::Buffer d1 = sender.encode_delta(empty.summarize());
  const util::Buffer d2 = sender.encode_delta(partial.summarize());
  EXPECT_EQ(before.get(), sender.page_fragment("p0").get());

  WebDocument r1, r2;
  r1.apply_delta(util::BytesView(d1));
  r2 = partial;
  r2.apply_delta(util::BytesView(d2));
  EXPECT_EQ(r1.encode_snapshot(), sender.encode_snapshot());
  EXPECT_EQ(r2.encode_snapshot(), sender.encode_snapshot());
}

TEST(DeltaSnapshot, ApplyDeltaInvalidatesSnapshotCacheOnlyWhenMutating) {
  WebDocument sender;
  sender.apply(put("a", "alpha", {1, 1}, 1));
  WebDocument receiver;
  receiver.apply(put("a", "alpha", {1, 1}, 1));

  const util::SharedBuffer cached = receiver.snapshot();
  // Nothing to ship: the snapshot cache survives.
  receiver.apply_delta(
      util::BytesView(sender.encode_delta(receiver.summarize())));
  EXPECT_EQ(cached.get(), receiver.snapshot().get());

  sender.apply(put("b", "beta", {1, 2}, 2));
  receiver.apply_delta(
      util::BytesView(sender.encode_delta(receiver.summarize())));
  EXPECT_NE(cached.get(), receiver.snapshot().get());
  EXPECT_EQ(*receiver.snapshot(), receiver.encode_snapshot());
}

}  // namespace
}  // namespace globe::web
