// Delta snapshots end to end: every state-transfer path (compaction
// cutover, crash-recovery rejoin, client document fetch) goes through the
// page-granular delta path and must restore exactly the state the seed's
// full-snapshot transfers produced — pinned as golden document digests
// generated while both transfer modes still existed and agreed (and
// re-frozen when the wire's integers became varints, after a value-level
// dump of every store matched the old encoding's) — and the
// horizon/lineage fallbacks must be served full snapshots, while a fetch
// behind the horizon is always deferred to the delta round trip. Also
// the tombstone regression:
// a page deleted and compacted away before a heal must NOT be resurrected
// by the peer's stale copy (the long-open LWW caveat from docs/perf.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "globe/replication/testbed.hpp"

namespace globe::replication {
namespace {

constexpr ObjectId kObj = 1;

core::ReplicationPolicy pull_policy(coherence::ObjectModel model) {
  core::ReplicationPolicy policy;
  policy.model = model;
  if (model == coherence::ObjectModel::kCausal ||
      model == coherence::ObjectModel::kEventual) {
    policy.write_set = core::WriteSet::kMultiple;
  }
  policy.initiative = core::TransferInitiative::kPull;
  policy.coherence_transfer = core::CoherenceTransfer::kPartial;
  policy.lazy_period = sim::SimDuration::millis(10);
  return policy;
}

std::uint64_t fnv1a(util::BytesView bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto byte : bytes) {
    h ^= static_cast<std::uint8_t>(byte);
    h *= 1099511628211ull;
  }
  return h;
}

/// A crash/recover + sparse-write scenario against a compacting primary;
/// returns the FNV digest of every store's document encode.
std::vector<std::uint64_t> run_rejoin_scenario(std::uint64_t seed) {
  TestbedOptions opts;
  opts.seed = seed;
  opts.record_history = false;
  opts.log_compact_threshold = 24;  // aggressive: cutovers happen
  opts.wan.base_latency = sim::SimDuration::millis(1);
  Testbed bed(opts);

  core::ReplicationPolicy policy;  // PRAM push immediate partial
  policy.object_outdate_reaction = core::OutdateReaction::kDemand;
  auto& primary = bed.add_primary(kObj, policy);
  for (int i = 0; i < 12; ++i) {
    primary.seed("page" + std::to_string(i) + ".html", std::string(256, 'v'));
  }
  for (int s = 0; s < 3; ++s) {
    bed.add_store(kObj, naming::StoreClass::kObjectInitiated, policy);
  }
  bed.settle();

  util::Rng rng(seed);
  for (int round = 0; round < 6; ++round) {
    const std::size_t victim = 1 + (round % 3);
    bed.crash_store(victim);
    bed.run_for(sim::SimDuration::millis(3));
    for (int w = 0; w < 30; ++w) {  // push the log past the horizon
      primary.seed("page" + std::to_string(rng.below(12)) + ".html",
                   "r" + std::to_string(round) + "w" + std::to_string(w));
    }
    bed.run_for(sim::SimDuration::millis(5));
    bed.recover_store(victim);
    bed.settle();
  }
  bed.settle();
  EXPECT_TRUE(bed.converged(kObj)) << "seed " << seed;
  std::vector<std::uint64_t> out;
  for (const auto& s : bed.stores()) {
    out.push_back(fnv1a(util::BytesView(s->document().encode_snapshot())));
  }
  return out;
}

TEST(DeltaSnapshotEquivalence, RejoinRestoresByteIdenticalState) {
  // Primary + 3 mirrors, all converged on the same document.
  const struct {
    std::uint64_t seed;
    std::uint64_t doc;
  } goldens[] = {{3, 0x17ec16f208420148ull},
                 {17, 0x9e0de87c39c9db6dull},
                 {91, 0x3370fb0c8e3a528dull}};
  for (const auto& g : goldens) {
    EXPECT_EQ(run_rejoin_scenario(g.seed),
              std::vector<std::uint64_t>(4, g.doc))
        << "seed " << g.seed;
  }
}

TEST(DeltaSnapshotEquivalence, RejoinStormShipsOnlyDeltas) {
  // Primary, 2 mirrors, 6 caches; the caches crash two at a time, two
  // pages of a 32-page document change while they are away, and they
  // recover. Every rejoin takes the delta path, and the state shipped is
  // at least 5x smaller than the whole documents it replaced.
  TestbedOptions opts;
  opts.seed = 61;
  opts.record_history = false;
  opts.wan.base_latency = sim::SimDuration::millis(1);
  Testbed bed(opts);
  core::ReplicationPolicy policy;  // PRAM push immediate partial
  policy.object_outdate_reaction = core::OutdateReaction::kDemand;
  auto& primary = bed.add_primary(kObj, policy);
  std::vector<net::Address> mirrors;
  for (int i = 0; i < 2; ++i) {
    mirrors.push_back(
        bed.add_store(kObj, naming::StoreClass::kObjectInitiated, policy)
            .address());
  }
  bed.settle();
  constexpr int kCaches = 6;
  for (int i = 0; i < kCaches; ++i) {
    bed.add_store(kObj, naming::StoreClass::kClientInitiated, policy,
                  mirrors[i % mirrors.size()]);
  }
  bed.settle();
  const std::string payload(512, 'd');
  for (int p = 0; p < 32; ++p) {
    primary.seed("page" + std::to_string(p) + ".html",
                 payload + std::to_string(p));
    if (p % 16 == 0) bed.run_for(sim::SimDuration::millis(2));
  }
  bed.settle();
  bed.metrics().reset();

  constexpr int kRounds = 4;
  constexpr int kPerRound = 2;
  util::Rng rng(opts.seed * 7 + 1);
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::size_t> down;
    for (int k = 0; k < kPerRound; ++k) {
      down.push_back(1 + mirrors.size() +
                     static_cast<std::size_t>((round * kPerRound + k) %
                                              kCaches));
      bed.crash_store(down.back());
    }
    bed.run_for(sim::SimDuration::millis(2));
    for (int w = 0; w < 2; ++w) {
      primary.seed("page" + std::to_string(rng.below(32)) + ".html",
                   payload + "r" + std::to_string(round * 2 + w));
    }
    bed.run_for(sim::SimDuration::millis(5));
    for (const std::size_t idx : down) {
      bed.recover_store(idx);
      bed.run_for(sim::SimDuration::millis(5));
    }
    bed.settle();
  }

  EXPECT_TRUE(bed.converged(kObj));
  EXPECT_EQ(bed.metrics().delta_snapshots(),
            std::uint64_t{kRounds * kPerRound});
  EXPECT_EQ(bed.metrics().full_snapshots(), 0u);
  std::uint64_t state_bytes = 0;
  for (const auto type :
       {msg::MsgType::kSubscribe, msg::MsgType::kSubscribeAck,
        msg::MsgType::kSnapshot, msg::MsgType::kSnapshotDeltaRequest,
        msg::MsgType::kSnapshotDeltaReply}) {
    const auto& by_type = bed.metrics().traffic_by_type();
    const auto it = by_type.find(static_cast<std::uint8_t>(type));
    if (it != by_type.end()) state_bytes += it->second.bytes;
  }
  ASSERT_GT(state_bytes, 0u);
  EXPECT_GE(state_bytes + bed.metrics().snapshot_bytes_saved(),
            5 * state_bytes);
}

TEST(DeltaSnapshotEquivalence, CompactionCutoverGoesThroughDeltaPath) {
  // A puller isolated across a burst that compacts the primary's log
  // must catch up via the deferred-cutover delta round trip.
  TestbedOptions opts;
  opts.record_history = false;
  opts.log_compact_threshold = 24;
  opts.wan.base_latency = sim::SimDuration::millis(1);
  Testbed bed(opts);
  const auto policy = pull_policy(coherence::ObjectModel::kPram);
  auto& primary = bed.add_primary(kObj, policy);
  auto& puller =
      bed.add_store(kObj, naming::StoreClass::kClientInitiated, policy);
  for (int i = 0; i < 8; ++i) {
    primary.seed("p" + std::to_string(i) + ".html", std::string(128, 'x'));
  }
  bed.settle();

  bed.net().partition(primary.address().node, puller.address().node);
  for (int i = 0; i < 200; ++i) {
    primary.seed("p" + std::to_string(i % 8) + ".html",
                 "v" + std::to_string(i));
  }
  ASSERT_FALSE(
      primary.write_log().can_serve(puller.applied_clock(), 0, true));
  const std::uint64_t deltas_before = bed.metrics().delta_snapshots();

  bed.net().heal_all();
  bed.run_for(sim::SimDuration::millis(200));
  bed.settle();
  EXPECT_TRUE(bed.converged(kObj));
  // The cutover was served page-granularly, not as a full restore.
  EXPECT_GT(bed.metrics().delta_snapshots(), deltas_before);
  EXPECT_GT(bed.metrics().snapshot_pages_shipped(), 0u);
}

TEST(DeltaSnapshotEquivalence, FloorFallsBackToFullAcrossLineages) {
  // A client fetches the document from store A (recording A's lineage as
  // its floor), then rebinds to store B. The binding detects the address
  // change and sends a summary; but a floor naming a foreign lineage —
  // forced here by re-pointing the read store back and forth so the
  // caches disagree — must be answered with a full snapshot, never a
  // wrong delta. We drive the responder directly with a crafted floor.
  TestbedOptions opts;
  opts.record_history = false;
  Testbed bed(opts);
  core::ReplicationPolicy policy;
  auto& primary = bed.add_primary(kObj, policy);
  primary.seed("a.html", "alpha");
  primary.seed("b.html", "beta");
  bed.settle();

  // A probe endpoint speaking the raw protocol.
  core::CommunicationObject probe(&bed.sim());
  probe.open(bed.factory(bed.add_node("probe")), {});
  struct Result {
    bool got = false;
    bool full = false;
    std::size_t delta_size = 0;
  } res;
  const auto ask = [&](SnapshotDeltaRequest req) {
    res = Result{};
    probe.request_with(
        primary.address(), msg::MsgType::kSnapshotDeltaRequest, kObj,
        [&](util::Writer& w) { req.encode(w); },
        [&](bool ok, const net::Address&, const msg::EnvelopeView& env) {
          if (!ok) return;
          const auto st = StateTransfer::decode_view(env.body);
          res.got = true;
          res.full = st.full;
          res.delta_size = st.delta.size();
        });
    bed.sim().run();
  };

  // Valid floor from the primary's own lineage: a delta comes back.
  SnapshotDeltaRequest good;
  good.mode = SnapshotDeltaRequest::Mode::kFloor;
  good.floor_source = primary.config().store_id;
  good.floor_version = primary.document().version();
  ask(good);
  EXPECT_TRUE(res.got);
  EXPECT_FALSE(res.full);

  // Same floor but naming another store's lineage: full fallback.
  SnapshotDeltaRequest foreign = good;
  foreign.floor_source = primary.config().store_id + 1000;
  ask(foreign);
  EXPECT_TRUE(res.got);
  EXPECT_TRUE(res.full);

  // Summary mode is always exact regardless of lineage.
  SnapshotDeltaRequest summary;
  summary.mode = SnapshotDeltaRequest::Mode::kSummary;
  ask(summary);
  EXPECT_TRUE(res.got);
  EXPECT_FALSE(res.full);
}

TEST(DeltaSnapshotEquivalence, FetchDefersCutoverAndWantFullCarriesState) {
  // A fetch from behind the compaction horizon is always deferred to the
  // delta round trip (need_snapshot, no payload). A want_full fetch, the
  // policy's full coherence transfer, carries the whole state as a full
  // StateTransfer and is not counted as a full snapshot. Drive the
  // responder with crafted requests from a raw-protocol probe.
  TestbedOptions opts;
  opts.record_history = false;
  opts.log_compact_threshold = 24;
  Testbed bed(opts);
  core::ReplicationPolicy policy;
  auto& primary = bed.add_primary(kObj, policy);
  for (int i = 0; i < 100; ++i) {
    primary.seed("p" + std::to_string(i % 8) + ".html",
                 "v" + std::to_string(i));
  }
  bed.settle();
  ASSERT_FALSE(primary.write_log().can_serve(coherence::VectorClock{}, 0));

  core::CommunicationObject probe(&bed.sim());
  probe.open(bed.factory(bed.add_node("probe")), {});
  struct Answer {
    bool need_snapshot = false;
    bool full_state = false;
    web::WebDocument restored;
  };
  const auto fetch = [&](bool want_full) {
    FetchRequest req;  // empty clock: behind the horizon
    req.want_full = want_full;
    std::optional<Answer> got;
    probe.request_with(
        primary.address(), msg::MsgType::kFetchRequest, kObj,
        [&](util::Writer& w) { req.encode(w); },
        [&](bool ok, const net::Address&, const msg::EnvelopeView& env) {
          if (!ok) return;
          const FetchReply::View rep = FetchReply::decode_view(env.body);
          got.emplace();
          got->need_snapshot = rep.need_snapshot;
          if (rep.state.has_value()) {
            got->full_state = rep.state->full;
            rep.state->adopt_into(got->restored);
          }
        });
    bed.sim().run();
    return got;
  };

  const std::uint64_t full_before = bed.metrics().full_snapshots();
  const std::uint64_t cutovers_before = bed.metrics().snapshot_cutovers();
  const auto deferred = fetch(/*want_full=*/false);
  ASSERT_TRUE(deferred.has_value());
  EXPECT_TRUE(deferred->need_snapshot);
  EXPECT_FALSE(deferred->full_state);
  EXPECT_EQ(bed.metrics().snapshot_cutovers(), cutovers_before + 1);

  const auto full = fetch(/*want_full=*/true);
  ASSERT_TRUE(full.has_value());
  EXPECT_FALSE(full->need_snapshot);
  EXPECT_TRUE(full->full_state);
  EXPECT_EQ(full->restored, primary.document());
  EXPECT_EQ(bed.metrics().full_snapshots(), full_before);
}

TEST(DeltaSnapshotEquivalence, ClientDocumentFetchUsesDeltas) {
  TestbedOptions opts;
  opts.record_history = false;
  Testbed bed(opts);
  core::ReplicationPolicy policy;
  auto& primary = bed.add_primary(kObj, policy);
  for (int i = 0; i < 10; ++i) {
    primary.seed("p" + std::to_string(i) + ".html", std::string(512, 'c'));
  }
  bed.settle();
  auto& client = bed.add_client(kObj, coherence::ClientModel::kNone,
                                primary.address());

  int fetched = 0;
  web::WebDocument got;
  const auto grab = [&] {
    client.get_document([&](DocumentResult r) {
      ASSERT_TRUE(r.ok);
      got = std::move(r.document);
      ++fetched;
    });
    bed.settle();
  };

  grab();
  EXPECT_EQ(fetched, 1);
  EXPECT_EQ(got, primary.document());
  const std::uint64_t deltas_after_first = bed.metrics().delta_snapshots();

  // Unchanged document: the floor fetch ships zero pages.
  const std::uint64_t shipped_before = bed.metrics().snapshot_pages_shipped();
  grab();
  EXPECT_EQ(fetched, 2);
  EXPECT_EQ(got, primary.document());
  EXPECT_GT(bed.metrics().delta_snapshots(), deltas_after_first);
  EXPECT_EQ(bed.metrics().snapshot_pages_shipped(), shipped_before);

  // A sparse change ships exactly the changed page.
  primary.seed("p3.html", "updated");
  bed.settle();
  grab();
  EXPECT_EQ(got, primary.document());
  EXPECT_EQ(bed.metrics().snapshot_pages_shipped(), shipped_before + 1);
}

TEST(DeltaSnapshotEquivalence, CompactedDeleteDoesNotResurrect) {
  // The long-open tombstone caveat: primary deletes a page, the delete
  // record compacts away while the mirror is partitioned, and on heal
  // the anti-entropy state-records exchange used to leave (or even
  // re-spread) the stale page. Page tombstones must kill it everywhere.
  TestbedOptions opts;
  opts.record_history = false;
  opts.log_compact_threshold = 24;
  opts.wan.base_latency = sim::SimDuration::millis(1);
  Testbed bed(opts);
  const auto policy = pull_policy(coherence::ObjectModel::kEventual);
  auto& primary = bed.add_primary(kObj, policy);
  auto& mirror =
      bed.add_store(kObj, naming::StoreClass::kObjectInitiated, policy);
  primary.seed("doomed.html", "soon gone");
  for (int i = 0; i < 5; ++i) {
    primary.seed("keep" + std::to_string(i) + ".html", "k");
  }
  bed.settle();
  ASSERT_TRUE(mirror.document().has("doomed.html"));

  bed.net().partition(primary.address().node, mirror.address().node);
  // Delete at the primary via a co-located client, then push the log far
  // past the horizon so the delete record itself is compacted away.
  auto& deleter = bed.add_client(kObj, coherence::ClientModel::kNone,
                                 primary.address(), primary.address());
  bool deleted = false;
  deleter.remove("doomed.html", [&](WriteResult r) { deleted = r.ok; });
  bed.run_for(sim::SimDuration::millis(50));
  ASSERT_TRUE(deleted);
  ASSERT_FALSE(primary.document().has("doomed.html"));
  for (int i = 0; i < 200; ++i) {
    primary.seed("keep" + std::to_string(i % 5) + ".html",
                 "v" + std::to_string(i));
  }
  // The mirror is behind the compaction horizon: only the state-records
  // cutover can repair it after the heal.
  ASSERT_FALSE(primary.write_log().can_serve(mirror.applied_clock(), 0));

  bed.net().heal_all();
  bed.run_for(sim::SimDuration::seconds(1));
  bed.settle();
  EXPECT_TRUE(bed.converged(kObj));
  EXPECT_FALSE(primary.document().has("doomed.html"));
  EXPECT_FALSE(mirror.document().has("doomed.html"))
      << "stale page resurrected across the compaction horizon";
}

}  // namespace
}  // namespace globe::replication
