// ObjectReplica driven directly: two or three replicas, no Testbed, no
// Simulator. Records move between them as the StoreEngine would move
// them (records_for_peer, state_transfer), so the receive path's
// decisions are tested without a deployment.
#include "globe/replication/object_replica.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

namespace globe::replication {
namespace {

using coherence::ObjectModel;

constexpr ClientId kWriter = 7;
constexpr ClientId kOther = 9;
constexpr std::uint64_t kFromPrimary = 1;  // origin keys of the records
constexpr std::uint64_t kFromPeer = 2;

ReplicaConfig config(StoreId store, bool primary, std::size_t threshold,
                     ObjectModel model = ObjectModel::kEventual) {
  ReplicaConfig c;
  c.store = store;
  c.object = 1;
  c.model = model;
  c.primary = primary;
  c.compact_threshold = threshold;
  return c;
}

web::WriteRecord put(ClientId client, std::uint64_t seq,
                     const std::string& page, const std::string& content) {
  web::WriteRecord rec;
  rec.wid = coherence::WriteId{client, seq};
  rec.op = web::WriteOp::kPut;
  rec.page = page;
  rec.content = content;
  rec.mime = "text/html";
  rec.ordered = true;  // a monotonic-writes client
  return rec;
}

web::WriteRecord del(ClientId client, std::uint64_t seq,
                     const std::string& page) {
  web::WriteRecord rec = put(client, seq, page, "");
  rec.op = web::WriteOp::kDelete;
  return rec;
}

// Keeps a copy of every record the replica logged, in apply order.
struct Logged final : ApplySink {
  std::vector<web::WriteRecord> records;
  void applied(const web::WriteRecord& rec, bool logged) override {
    if (logged) records.push_back(rec);
  }
  // `client`'s sequence numbers in the order they were applied.
  [[nodiscard]] std::vector<std::uint64_t> seqs_of(ClientId client) const {
    std::vector<std::uint64_t> out;
    for (const auto& rec : records) {
      if (rec.wid.client == client) out.push_back(rec.wid.seq);
    }
    return out;
  }
};

// Ships `from`'s state to `to` the way every store does: encoded,
// then adopted from the borrowed view and released.
bool transfer_state(const ObjectReplica& from, ObjectReplica& to,
                    ApplySink& sink) {
  const util::Buffer wire = util::encoded(from.state_transfer());
  const StateTransfer::View st =
      StateTransfer::decode_view(util::BytesView(wire));
  if (!to.adopt(st, /*bootstrap=*/false, kFromPrimary)) return false;
  to.release(kFromPrimary, sink);
  return true;
}

// ROADMAP item 1 at its smallest: a monotonic-writes client writes
// b.html, then a.html; the primary compacts both away; the peer's
// anti-entropy reply is the state as records. In page-name order it
// would apply the client's seq 2 before its seq 1.
TEST(ObjectReplica, CutoverStateRecordsKeepEachWritersOrder) {
  ObjectReplica primary(config(1, true, /*threshold=*/4));
  ObjectReplica peer(config(2, false, /*threshold=*/4));
  Logged at_primary;
  primary.accept(put(kWriter, 1, "b.html", "first"), at_primary);
  primary.accept(put(kWriter, 2, "a.html", "second"), at_primary);
  for (int i = 0; i < 4; ++i) {
    primary.seed("z" + std::to_string(i) + ".html", "filler", "text/html", 0,
                 at_primary);
  }

  PeerRecords reply =
      primary.records_for_peer(peer.applied_clock(), peer.applied_gseq());
  ASSERT_TRUE(reply.cutover);
  Logged at_peer;
  peer.receive(std::move(reply.records), kFromPrimary, at_peer);
  EXPECT_EQ(at_peer.seqs_of(kWriter), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(peer.document(), primary.document());
}

// Deletes travel as state records too (from the tombstones), in the same
// writer order as the puts.
TEST(ObjectReplica, CutoverDeletesKeepEachWritersOrder) {
  ObjectReplica primary(config(1, true, /*threshold=*/2));
  ObjectReplica peer(config(2, false, /*threshold=*/2));
  Logged sink;
  peer.receive({put(kWriter, 1, "b.html", "old")}, kFromPrimary, sink);
  primary.accept(put(kWriter, 1, "b.html", "old"), sink);
  primary.accept(put(kWriter, 2, "c.html", "x"), sink);
  primary.accept(del(kWriter, 3, "b.html"), sink);
  primary.accept(put(kWriter, 4, "a.html", "y"), sink);

  PeerRecords reply =
      primary.records_for_peer(peer.applied_clock(), peer.applied_gseq());
  ASSERT_TRUE(reply.cutover);
  Logged at_peer;
  peer.receive(std::move(reply.records), kFromPrimary, at_peer);
  EXPECT_EQ(at_peer.seqs_of(kWriter), (std::vector<std::uint64_t>{2, 3, 4}));
  EXPECT_FALSE(peer.document().has("b.html"));
  EXPECT_EQ(peer.document(), primary.document());
}

// Two replies, one writer: the first carries the writer's seq 2 and a
// later write by another client that replaced its seq-1 page; the
// second, from a replica that never saw either, carries seq 1. Last
// writer wins rejects it, so the peer never applies seq 1 after seq 2.
TEST(ObjectReplica, ASecondReplyCannotApplyAnEarlierWrite) {
  ObjectReplica primary(config(1, true, /*threshold=*/2));
  ObjectReplica stale(config(3, false, /*threshold=*/1));
  ObjectReplica peer(config(2, false, /*threshold=*/0));
  Logged at_primary;
  primary.accept(put(kWriter, 1, "b.html", "first"), at_primary);
  const web::WriteRecord first = at_primary.records.back();
  primary.accept(put(kWriter, 2, "a.html", "second"), at_primary);
  primary.accept(put(kOther, 1, "b.html", "replaced"), at_primary);

  Logged at_stale;
  web::WriteRecord unrelated = put(kOther + 1, 1, "q.html", "q");
  unrelated.ordered = false;
  stale.receive({first, unrelated}, kFromPrimary, at_stale);
  ASSERT_FALSE(stale.log().base_clock().empty());

  Logged at_peer;
  PeerRecords one =
      primary.records_for_peer(peer.applied_clock(), peer.applied_gseq());
  ASSERT_TRUE(one.cutover);
  peer.receive(std::move(one.records), kFromPrimary, at_peer);
  PeerRecords two =
      stale.records_for_peer(peer.applied_clock(), peer.applied_gseq());
  ASSERT_TRUE(two.cutover);
  peer.receive(std::move(two.records), kFromPeer, at_peer);

  EXPECT_EQ(at_peer.seqs_of(kWriter), (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(peer.document().get("b.html")->content, "replaced");
}

TEST(ObjectReplica, PeerBehindTheHorizonGetsStateRecords) {
  ObjectReplica primary(config(1, true, /*threshold=*/4));
  Logged sink;
  for (std::uint64_t seq = 1; seq <= 5; ++seq) {
    primary.accept(put(kWriter, seq, "p" + std::to_string(seq % 3) + ".html",
                       "v" + std::to_string(seq)),
                   sink);
  }
  ASSERT_EQ(primary.log().size(), 2u);  // seqs 1-3 folded away

  // Behind the horizon: the whole document, one state record per page.
  const PeerRecords behind =
      primary.records_for_peer(coherence::VectorClock{}, 0);
  EXPECT_TRUE(behind.cutover);
  EXPECT_EQ(behind.records.size(), primary.document().page_names().size());
  for (const auto& rec : behind.records) EXPECT_FALSE(rec.ordered);

  // Past the horizon: the log delta.
  coherence::VectorClock past;
  past.set(kWriter, 4);
  const PeerRecords delta = primary.records_for_peer(past, 0);
  EXPECT_FALSE(delta.cutover);
  ASSERT_EQ(delta.records.size(), 1u);
  EXPECT_EQ(delta.records.front().wid.seq, 5u);

  // A fetch from behind the horizon is told to cut over instead.
  FetchRequest fetch;
  EXPECT_TRUE(primary.answer_fetch(fetch).need_snapshot);
  fetch.have_clock = past;
  EXPECT_EQ(primary.answer_fetch(fetch).records.size(), 1u);
}

// A monotonic-writes record that arrives ahead of its predecessors
// waits in the filter; a state transfer covering them moves the cursor
// and releases it.
TEST(ObjectReplica, StateTransferReseedsTheMonotonicWritesCursor) {
  ObjectReplica primary(config(1, true, /*threshold=*/0));
  ObjectReplica peer(config(2, false, /*threshold=*/0));
  Logged at_primary;
  primary.accept(put(kWriter, 1, "a.html", "1"), at_primary);
  primary.accept(put(kWriter, 2, "b.html", "2"), at_primary);
  primary.accept(put(kWriter, 3, "c.html", "3"), at_primary);
  const web::WriteRecord third = at_primary.records.back();

  Logged at_peer;
  EXPECT_EQ(peer.receive({third}, kFromPeer, at_peer).applied, 0u);
  EXPECT_FALSE(peer.document().has("c.html"));

  // The transfer carries seqs 1-2 only; the buffered seq 3 follows it.
  ObjectReplica upto_two(config(3, true, /*threshold=*/0));
  upto_two.accept(put(kWriter, 1, "a.html", "1"), at_primary);
  upto_two.accept(put(kWriter, 2, "b.html", "2"), at_primary);
  ASSERT_TRUE(transfer_state(upto_two, peer, at_peer));
  EXPECT_EQ(at_peer.seqs_of(kWriter), (std::vector<std::uint64_t>{3}));
  EXPECT_EQ(peer.document().get("c.html")->content, "3");
  EXPECT_EQ(peer.applied_clock().get(kWriter), 3u);
}

TEST(ObjectReplica, AdoptionOnlyMovesForward) {
  ObjectReplica primary(config(1, true, /*threshold=*/0, ObjectModel::kPram));
  ObjectReplica peer(config(2, false, /*threshold=*/0, ObjectModel::kPram));
  Logged sink;
  primary.seed("a.html", "1", "text/html", 0, sink);
  ASSERT_TRUE(transfer_state(primary, peer, sink));
  EXPECT_EQ(peer.document(), primary.document());

  // The same state again proves nothing newer: skipped.
  EXPECT_FALSE(transfer_state(primary, peer, sink));

  // A transfer behind the peer is skipped; a bootstrap adopts anyway.
  ObjectReplica behind(config(3, true, /*threshold=*/0, ObjectModel::kPram));
  const util::Buffer wire = util::encoded(behind.state_transfer());
  const StateTransfer::View st =
      StateTransfer::decode_view(util::BytesView(wire));
  EXPECT_FALSE(peer.adopt(st, /*bootstrap=*/false, kFromPrimary));
  EXPECT_TRUE(peer.document().has("a.html"));
  EXPECT_TRUE(peer.adopt(st, /*bootstrap=*/true, kFromPrimary));
  EXPECT_FALSE(peer.document().has("a.html"));

  // A newer transfer adopts, and the next delta request from its
  // sender can be a bare version floor.
  primary.seed("b.html", "2", "text/html", 0, sink);
  ASSERT_TRUE(transfer_state(primary, peer, sink));
  EXPECT_EQ(peer.document(), primary.document());
  EXPECT_EQ(peer.delta_request(kFromPrimary).mode,
            SnapshotDeltaRequest::Mode::kFloor);
  EXPECT_EQ(peer.delta_request(kFromPeer).mode,
            SnapshotDeltaRequest::Mode::kSummary);
}

TEST(ObjectReplica, HorizonCollectsTheCoveredPrefixAndTombstones) {
  ObjectReplica primary(config(1, true, /*threshold=*/0));
  Logged sink;
  primary.accept(put(kWriter, 1, "a.html", "1"), sink);
  primary.accept(del(kWriter, 2, "a.html"), sink);
  primary.accept(put(kOther, 1, "b.html", "2"), sink);
  ASSERT_EQ(primary.document().tombstones().size(), 1u);

  coherence::VectorClock horizon;
  horizon.set(kWriter, 2);
  const HorizonCollection got = primary.collect_below(horizon, 0);
  EXPECT_EQ(got.records, 2u);
  EXPECT_EQ(got.tombstones, 1u);
  EXPECT_EQ(primary.log().size(), 1u);
  EXPECT_TRUE(primary.document().tombstones().empty());
  // A requester the fold left behind now needs a cutover.
  EXPECT_FALSE(primary.log().can_serve(coherence::VectorClock{}, 0));
  // Nothing more is covered: a second collection is empty.
  const HorizonCollection again = primary.collect_below(horizon, 0);
  EXPECT_EQ(again.records, 0u);
  EXPECT_EQ(again.tombstones, 0u);
}

// A leaf cache under its upstream, with no subscriber: its log's one
// reader is the push-back to the upstream.
struct LeafUnderUpstream {
  ObjectReplica upstream{config(1, true, 0, ObjectModel::kCausal)};
  ObjectReplica leaf{config(2, false, 0, ObjectModel::kCausal)};
  Logged at_upstream;
  Logged at_leaf;

  // The upstream accepts a write and pushes it down.
  void push_down(const web::WriteRecord& rec) {
    upstream.accept(rec, at_upstream);
    leaf.receive({at_upstream.records.back()}, kFromPrimary, at_leaf);
  }
  std::size_t fold() {
    return leaf.fold_below_upstream(upstream.applied_clock(),
                                    upstream.applied_gseq());
  }
  PeerRecords push_back() const {
    return leaf.records_for_peer(upstream.applied_clock(),
                                 upstream.applied_gseq());
  }
};

// The leaf keeps its own accept, and everything logged after it, until
// an upstream frontier covers it; what the upstream pushed down folds as
// soon as it applies.
TEST(ObjectReplica, LeafKeepsItsAcceptUntilAnUpstreamFrontierCoversIt) {
  LeafUnderUpstream t;
  t.push_down(put(kOther, 1, "a.html", "1"));
  EXPECT_EQ(t.fold(), 1u);
  EXPECT_TRUE(t.leaf.log().empty());

  t.leaf.accept(put(kWriter, 1, "b.html", "x"), t.at_leaf);
  t.push_down(put(kOther, 2, "a.html", "2"));
  EXPECT_EQ(t.fold(), 0u);
  ASSERT_EQ(t.leaf.log().size(), 2u);
  EXPECT_EQ(t.leaf.log().retained().front().wid,
            (coherence::WriteId{kWriter, 1}));

  t.upstream.receive(t.push_back().records, kFromPeer, t.at_upstream);
  EXPECT_EQ(t.fold(), 2u);
  EXPECT_TRUE(t.leaf.log().empty());
  EXPECT_EQ(t.leaf.document(), t.upstream.document());
}

// The push-back to the upstream is a delta of exactly the accepts its
// frontier does not cover, however many the leaf has folded.
TEST(ObjectReplica, LeafPushBackIsExactlyItsUnconfirmedAccepts) {
  LeafUnderUpstream t;
  t.push_down(put(kOther, 1, "a.html", "1"));
  t.leaf.accept(put(kWriter, 1, "b.html", "x"), t.at_leaf);
  t.push_down(put(kOther, 2, "a.html", "2"));
  t.leaf.accept(put(kWriter, 2, "c.html", "y"), t.at_leaf);
  EXPECT_EQ(t.fold(), 1u);

  PeerRecords back = t.push_back();
  EXPECT_FALSE(back.cutover);
  ASSERT_EQ(back.records.size(), 2u);
  EXPECT_EQ(back.records[0].wid, (coherence::WriteId{kWriter, 1}));
  EXPECT_EQ(back.records[1].wid, (coherence::WriteId{kWriter, 2}));

  // The upstream takes only the first: the prefix up to the second folds,
  // and the next push-back is the second alone.
  t.upstream.receive({back.records[0]}, kFromPeer, t.at_upstream);
  EXPECT_EQ(t.fold(), 2u);
  back = t.push_back();
  EXPECT_FALSE(back.cutover);
  ASSERT_EQ(back.records.size(), 1u);
  EXPECT_EQ(back.records[0].wid, (coherence::WriteId{kWriter, 2}));
}

// A peer that never saw what the leaf folded (an upstream it re-parented
// onto) cannot get a delta: it gets the state as records, in writer
// order.
TEST(ObjectReplica, PeerMissingAFoldedRecordGetsStateRecordsInWriterOrder) {
  ObjectReplica upstream(config(1, true, 0));
  ObjectReplica leaf(config(2, false, 0));
  ObjectReplica peer(config(3, false, 0));
  Logged at_upstream;
  upstream.accept(put(kWriter, 1, "b.html", "first"), at_upstream);
  upstream.accept(put(kWriter, 2, "a.html", "second"), at_upstream);
  Logged at_leaf;
  leaf.receive(at_upstream.records, kFromPrimary, at_leaf);
  ASSERT_EQ(leaf.fold_below_upstream(upstream.applied_clock(),
                                     upstream.applied_gseq()),
            2u);

  PeerRecords reply =
      leaf.records_for_peer(peer.applied_clock(), peer.applied_gseq());
  ASSERT_TRUE(reply.cutover);
  Logged at_peer;
  peer.receive(std::move(reply.records), kFromPeer, at_peer);
  EXPECT_EQ(at_peer.seqs_of(kWriter), (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(peer.document(), leaf.document());
}

// A subscriber that bootstraps from the leaf after a fold starts at the
// leaf's applied clock, past everything folded: it is served deltas.
TEST(ObjectReplica, SubscriberBootstrappedAfterAFoldIsServedDeltas) {
  ObjectReplica upstream(config(1, true, 0, ObjectModel::kPram));
  ObjectReplica leaf(config(2, false, 0, ObjectModel::kPram));
  ObjectReplica subscriber(config(3, false, 0, ObjectModel::kPram));
  Logged sink;
  upstream.seed("a.html", "1", "text/html", 0, sink);
  upstream.seed("b.html", "2", "text/html", 0, sink);
  leaf.receive(sink.records, kFromPrimary, sink);
  ASSERT_EQ(leaf.fold_below_upstream(upstream.applied_clock(),
                                     upstream.applied_gseq()),
            2u);
  ASSERT_FALSE(leaf.log().base_clock().empty());

  const util::Buffer wire = util::encoded(leaf.state_transfer());
  ASSERT_TRUE(subscriber.adopt(StateTransfer::decode_view(util::BytesView(wire)),
                               /*bootstrap=*/true, kFromPeer));
  subscriber.release(kFromPeer, sink);

  // The leaf now has a subscriber and folds no more.
  upstream.seed("c.html", "3", "text/html", 0, sink);
  leaf.receive({sink.records.back()}, kFromPrimary, sink);
  const FetchReply fetched = leaf.answer_fetch(subscriber.fetch_request());
  EXPECT_FALSE(fetched.need_snapshot);
  ASSERT_EQ(fetched.records.size(), 1u);
  EXPECT_EQ(fetched.records.front().page, "c.html");
  const PeerRecords delta = leaf.records_for_peer(subscriber.applied_clock(),
                                                  subscriber.applied_gseq());
  EXPECT_FALSE(delta.cutover);
  ASSERT_EQ(delta.records.size(), 1u);
  subscriber.receive({fetched.records.front()}, kFromPeer, sink);
  EXPECT_EQ(subscriber.document(), upstream.document());
}

TEST(ObjectReplica, NotifiedFrontierMarksItOutdatedUntilApplied) {
  ObjectReplica primary(config(1, true, /*threshold=*/0));
  ObjectReplica peer(config(2, false, /*threshold=*/0));
  Logged sink;
  primary.accept(put(kWriter, 1, "a.html", "1"), sink);
  EXPECT_TRUE(
      peer.note_frontier(primary.applied_clock(), primary.applied_gseq()));
  EXPECT_FALSE(
      peer.note_frontier(primary.applied_clock(), primary.applied_gseq()));
  EXPECT_TRUE(peer.outdated());
  PeerRecords delta =
      primary.records_for_peer(peer.applied_clock(), peer.applied_gseq());
  peer.receive(std::move(delta.records), kFromPrimary, sink);
  EXPECT_FALSE(peer.outdated());
}

}  // namespace
}  // namespace globe::replication
