// Unit tests for coherence primitives: WriteId, VectorClock, model
// relations, and the history checkers (both acceptance of valid
// histories and detection of violations).
#include <gtest/gtest.h>

#include "globe/coherence/checkers.hpp"
#include "globe/coherence/models.hpp"
#include "globe/coherence/vector_clock.hpp"
#include "globe/coherence/write_id.hpp"
#include "oracle/checkers_naive.hpp"

namespace globe::coherence {
namespace {

TEST(WriteIdTest, OrderingAndValidity) {
  const WriteId a{1, 1}, b{1, 2}, c{2, 1};
  EXPECT_LT(a, b);
  EXPECT_LT(a, c);  // ordered by client first
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(kNoWrite.valid());
  EXPECT_EQ(a, (WriteId{1, 1}));
}

TEST(WriteIdTest, CodecRoundTrip) {
  util::Writer w;
  WriteId{42, 99}.encode(w);
  util::Reader r{util::BytesView(w.view())};
  EXPECT_EQ(WriteId::decode(r), (WriteId{42, 99}));
}

TEST(VectorClockTest, GetSetAdvance) {
  VectorClock vc;
  EXPECT_EQ(vc.get(1), 0u);
  vc.set(1, 5);
  EXPECT_EQ(vc.get(1), 5u);
  vc.advance(1, 3);  // no regression
  EXPECT_EQ(vc.get(1), 5u);
  vc.advance(1, 9);
  EXPECT_EQ(vc.get(1), 9u);
  vc.set(1, 0);  // canonical removal
  EXPECT_TRUE(vc.empty());
}

TEST(VectorClockTest, MergeAndDominates) {
  VectorClock a, b;
  a.set(1, 3);
  a.set(2, 1);
  b.set(1, 2);
  b.set(3, 4);
  EXPECT_FALSE(a.dominates(b));
  EXPECT_FALSE(b.dominates(a));
  EXPECT_TRUE(a.concurrent_with(b));
  a.merge(b);
  EXPECT_EQ(a.get(1), 3u);
  EXPECT_EQ(a.get(3), 4u);
  EXPECT_TRUE(a.dominates(b));
  EXPECT_FALSE(a.concurrent_with(b));
}

TEST(VectorClockTest, DominatesIsReflexiveAndEmptyIsBottom) {
  VectorClock a;
  a.set(1, 1);
  EXPECT_TRUE(a.dominates(a));
  VectorClock empty;
  EXPECT_TRUE(a.dominates(empty));
  EXPECT_FALSE(empty.dominates(a));
  EXPECT_TRUE(empty.dominates(empty));
}

TEST(VectorClockTest, FloorWithKeepsSharedIdsAtTheirMinimum) {
  VectorClock a, b;
  a.set(1, 3);
  a.set(2, 7);
  a.set(4, 1);  // missing from b: drops out
  b.set(0, 9);  // missing from a: stays out
  b.set(1, 5);
  b.set(2, 2);
  b.set(3, 6);
  a.floor_with(b);
  EXPECT_EQ(a.entries(),
            (std::vector<VectorClock::Entry>{{1, 3}, {2, 2}}));

  VectorClock self = b;
  self.floor_with(self);  // self-floor is the identity
  EXPECT_EQ(self, b);

  VectorClock empty;
  b.floor_with(empty);  // floor with the bottom is the bottom
  EXPECT_TRUE(b.empty());
  empty.floor_with(a);
  EXPECT_TRUE(empty.empty());
}

TEST(VectorClockTest, CoversWrites) {
  VectorClock vc;
  vc.set(1, 3);
  EXPECT_TRUE(vc.covers(WriteId{1, 3}));
  EXPECT_TRUE(vc.covers(WriteId{1, 1}));
  EXPECT_FALSE(vc.covers(WriteId{1, 4}));
  EXPECT_FALSE(vc.covers(WriteId{2, 1}));
}

TEST(VectorClockTest, TotalSumsEntries) {
  VectorClock vc;
  vc.set(1, 3);
  vc.set(2, 4);
  EXPECT_EQ(vc.total(), 7u);
}

TEST(VectorClockTest, CodecRoundTrip) {
  VectorClock vc;
  vc.set(1, 3);
  vc.set(1000, 12345678);
  util::Writer w;
  vc.encode(w);
  util::Reader r{util::BytesView(w.view())};
  EXPECT_EQ(VectorClock::decode(r), vc);
}

/// Encodes (client, seq) pairs exactly as given, delta-coding the ids
/// as encode() does, as a peer or a hostile sender may put them on the
/// wire. The layout cannot name a smaller id after a larger one.
util::Buffer wire_clock(const std::vector<VectorClock::Entry>& entries) {
  util::Writer w;
  w.varint(entries.size());
  ClientId prev = 0;
  for (const auto& [c, v] : entries) {
    EXPECT_GE(c, prev) << "not expressible as id deltas";
    w.varint(c - prev);
    w.varint(v);
    prev = c;
  }
  return w.take();
}

/// The clock `set` builds from the same entries, in the same order.
VectorClock set_clock(const std::vector<VectorClock::Entry>& entries) {
  VectorClock vc;
  for (const auto& [c, v] : entries) vc.set(c, v);
  return vc;
}

TEST(VectorClockTest, DecodeBuildsTheClockSetBuilds) {
  const std::vector<std::vector<VectorClock::Entry>> shapes = {
      {},
      {{1, 3}, {4, 1}, {9, 7}},     // sorted: appended as they arrive
      {{1, 3}, {4, 1}, {4, 5}},     // duplicate: the later entry wins
      {{1, 3}, {1, 5}, {2, 1}},     // duplicate, then a larger id
      {{4, 1}, {4, 2}},             // duplicate only
      {{1, 0}, {2, 5}},             // zero first
      {{1, 3}, {2, 0}, {5, 1}},     // zero in sorted position
      {{1, 3}, {1, 0}},             // zero removes an earlier entry
      {{0, 4}, {0xFFFFFFFFu, 2}},   // the smallest and largest ids
  };
  for (const auto& entries : shapes) {
    const util::Buffer wire = wire_clock(entries);
    util::Reader r{util::BytesView(wire)};
    const VectorClock decoded = VectorClock::decode(r);
    EXPECT_TRUE(r.at_end());
    EXPECT_EQ(decoded, set_clock(entries)) << decoded.str();
  }
}

TEST(VectorClockTest, DecodeRejectsAForgedCount) {
  util::Writer w;
  w.varint(std::uint64_t{1} << 60);  // no entries follow
  const util::Buffer wire = w.take();
  util::Reader r{util::BytesView(wire)};
  EXPECT_THROW((void)VectorClock::decode(r), util::CodecError);
}

TEST(VectorClockTest, DecodeRejectsAClientIdPastThirtyTwoBits) {
  // The running id passes UINT32_MAX on the second entry...
  util::Writer w;
  w.varint(2);
  w.varint(0xFFFFFFFFu);
  w.varint(1);
  w.varint(1);
  w.varint(1);
  util::Reader r{util::BytesView(w.view())};
  EXPECT_THROW((void)VectorClock::decode(r), util::CodecError);
  // ...and a delta near 2^64 must not wrap the running id back into
  // range.
  util::Writer wrap;
  wrap.varint(2);
  wrap.varint(5);
  wrap.varint(1);
  wrap.varint(~std::uint64_t{0} - 2);
  wrap.varint(1);
  util::Reader rw{util::BytesView(wrap.view())};
  EXPECT_THROW((void)VectorClock::decode(rw), util::CodecError);
}

TEST(VectorClockTest, MergeIsTheEntryWiseMaximum) {
  const VectorClock base = set_clock({{2, 5}, {4, 1}, {6, 3}});
  const std::vector<VectorClock> others = {
      set_clock({{2, 7}, {6, 1}}),          // adds no client
      set_clock({{2, 1}, {4, 9}, {6, 3}}),  // the same clients
      set_clock({{1, 2}, {4, 4}}),          // adds one at the front
      set_clock({{2, 9}, {3, 2}}),          // in the middle, after a fold
      set_clock({{6, 8}, {9, 1}}),          // at the end
      VectorClock{},                        // empty
  };
  for (const VectorClock& other : others) {
    VectorClock expected = base;
    for (const auto& [c, v] : other.entries()) {
      expected.set(c, std::max(base.get(c), v));
    }
    VectorClock merged = base;
    merged.merge(other);
    EXPECT_EQ(merged, expected) << other.str();
  }

  // A merge that adds no client folds into the existing entries.
  VectorClock folded = base;
  const auto* storage = folded.entries().data();
  folded.merge(others.front());
  EXPECT_EQ(folded.entries().data(), storage);

  VectorClock empty;
  empty.merge(base);
  EXPECT_EQ(empty, base);
  VectorClock self = base;
  self.merge(self);
  EXPECT_EQ(self, base);
}

TEST(ModelsTest, SubsumptionRelation) {
  EXPECT_TRUE(subsumes(ObjectModel::kSequential, ClientModel::kReadYourWrites));
  EXPECT_TRUE(subsumes(ObjectModel::kSequential, ClientModel::kMonotonicReads));
  EXPECT_TRUE(subsumes(ObjectModel::kPram, ClientModel::kMonotonicWrites));
  EXPECT_FALSE(subsumes(ObjectModel::kPram, ClientModel::kMonotonicReads));
  EXPECT_FALSE(subsumes(ObjectModel::kEventual, ClientModel::kReadYourWrites));
}

TEST(ModelsTest, ClientModelBitmask) {
  const ClientModel both =
      ClientModel::kReadYourWrites | ClientModel::kMonotonicReads;
  EXPECT_TRUE(has(both, ClientModel::kReadYourWrites));
  EXPECT_TRUE(has(both, ClientModel::kMonotonicReads));
  EXPECT_FALSE(has(both, ClientModel::kMonotonicWrites));
  EXPECT_EQ(to_string(both), "RYW+MR");
}

// ---- checker fixtures -------------------------------------------------

/// Records an apply of `wid` to page "p" at `store`, made with `deps`.
void apply(History& h, StoreId store, WriteId wid, std::uint64_t gseq = 0,
           const VectorClock& deps = {}) {
  ApplyEvent e;
  e.store = store;
  e.wid = wid;
  e.page = h.intern("p");
  e.global_seq = gseq;
  h.record_apply(e, deps);
}

/// Records a snapshot adoption at `store` with the snapshot's clock.
void snapshot(History& h, StoreId store, const VectorClock& clock) {
  ApplyEvent e;
  e.store = store;
  e.from_snapshot = true;
  h.record_apply(e, clock);
}

History pram_ok_history() {
  History h;
  for (StoreId s : {0u, 1u}) {
    for (std::uint64_t i = 1; i <= 3; ++i) {
      apply(h, s, WriteId{1, i});
    }
  }
  return h;
}

TEST(CheckPram, AcceptsInOrderApplies) {
  const History h = pram_ok_history();
  const auto res = check_pram(h);
  EXPECT_TRUE(res.ok) << res.summary();
  EXPECT_EQ(res.events_checked, 6u);
}

TEST(CheckPram, DetectsOutOfOrder) {
  History h;
  apply(h, 0, WriteId{1, 2});
  apply(h, 0, WriteId{1, 1});
  const auto res = check_pram(h);
  EXPECT_FALSE(res.ok);
  // Two findings: the gap when (1,2) applied first, then the regression.
  EXPECT_EQ(res.violations.size(), 2u);
}

TEST(CheckPram, DetectsGaps) {
  History h;
  apply(h, 0, WriteId{1, 1});
  apply(h, 0, WriteId{1, 3});
  EXPECT_FALSE(check_pram(h).ok);
  EXPECT_TRUE(check_fifo_pram(h).ok);  // FIFO allows skipping
}

TEST(CheckFifo, StillDetectsRegression) {
  History h;
  apply(h, 0, WriteId{1, 3});
  apply(h, 0, WriteId{1, 2});
  EXPECT_FALSE(check_fifo_pram(h).ok);
}

TEST(CheckCausal, AcceptsDependencyRespectingOrder) {
  History h;
  // w(2,1) depends on w(1,1).
  VectorClock dep;
  dep.set(1, 1);
  h.record_write(WriteEvent{{}, 1, 1, WriteId{1, 1}, h.intern("p"), 0});
  h.record_write(WriteEvent{{}, 1, 2, WriteId{2, 1}, h.intern("p"), 0});
  for (StoreId s : {0u, 1u}) {
    apply(h, s, WriteId{1, 1});
    apply(h, s, WriteId{2, 1}, 0, dep);
  }
  const auto res = check_causal(h);
  EXPECT_TRUE(res.ok) << res.summary();
}

TEST(CheckCausal, DetectsDependencyViolation) {
  History h;
  VectorClock dep;
  dep.set(1, 1);
  h.record_write(WriteEvent{{}, 1, 1, WriteId{1, 1}, h.intern("p"), 0});
  h.record_write(WriteEvent{{}, 1, 2, WriteId{2, 1}, h.intern("p"), 0});
  // Store applies the dependent write first.
  apply(h, 0, WriteId{2, 1}, 0, dep);
  apply(h, 0, WriteId{1, 1});
  EXPECT_FALSE(check_causal(h).ok);
}

TEST(CheckSequential, AcceptsIdenticalTotalOrder) {
  History h;
  h.record_write(WriteEvent{{}, 1, 1, WriteId{1, 1}, h.intern("p"), 1});
  h.record_write(WriteEvent{{}, 1, 2, WriteId{2, 1}, h.intern("p"), 2});
  for (StoreId s : {0u, 1u}) {
    apply(h, s, WriteId{1, 1}, 1);
    apply(h, s, WriteId{2, 1}, 2);
  }
  const auto res = check_sequential(h);
  EXPECT_TRUE(res.ok) << res.summary();
}

TEST(CheckSequential, DetectsDivergentOrders) {
  History h;
  apply(h, 0, WriteId{1, 1}, 1);
  apply(h, 0, WriteId{2, 1}, 2);
  apply(h, 1, WriteId{2, 1}, 1);  // swapped
  apply(h, 1, WriteId{1, 1}, 2);
  EXPECT_FALSE(check_sequential(h).ok);
}

TEST(CheckSequential, DetectsMissingGlobalSeq) {
  History h;
  apply(h, 0, WriteId{1, 1});
  EXPECT_FALSE(check_sequential(h).ok);
}

TEST(CheckSequential, DetectsNonMonotonicClientReads) {
  History h;
  apply(h, 0, WriteId{1, 1}, 1);
  ReadEvent r1;
  r1.client = 7;
  r1.client_op_index = 1;
  r1.store = 0;
  r1.store_global_seq = 5;
  ReadEvent r2 = r1;
  r2.client_op_index = 2;
  r2.store_global_seq = 3;  // went backwards
  h.record_read(r1, {});
  h.record_read(r2, {});
  EXPECT_FALSE(check_sequential(h).ok);
}

TEST(CheckEventual, AcceptsConvergedStores) {
  History h;
  for (StoreId s : {0u, 1u, 2u}) {
    apply(h, s, WriteId{1, 4});
  }
  EXPECT_TRUE(check_eventual_delivery(h).ok);
}

TEST(CheckEventual, DetectsStoreLeftBehind) {
  History h;
  apply(h, 0, WriteId{1, 4});
  apply(h, 1, WriteId{1, 2});
  EXPECT_FALSE(check_eventual_delivery(h).ok);
}

TEST(CheckRyw, AcceptsAndDetects) {
  History h;
  h.record_write(WriteEvent{{}, 1, 5, WriteId{5, 1}, h.intern("p"), 0});
  ReadEvent ok_read;
  ok_read.client = 5;
  ok_read.client_op_index = 2;
  ok_read.store = 1;
  VectorClock has_write;
  has_write.set(5, 1);
  h.record_read(ok_read, has_write);
  EXPECT_TRUE(check_read_your_writes(h, 5).ok);

  ReadEvent bad_read;
  bad_read.client = 5;
  bad_read.client_op_index = 3;
  bad_read.store = 2;
  h.record_read(bad_read, {});  // clock missing the client's write
  EXPECT_FALSE(check_read_your_writes(h, 5).ok);
}

TEST(CheckMonotonicReads, DetectsRegression) {
  History h;
  ReadEvent r1;
  r1.client = 5;
  r1.client_op_index = 1;
  VectorClock newer;
  newer.set(1, 4);
  h.record_read(r1, newer);
  ReadEvent r2;
  r2.client = 5;
  r2.client_op_index = 2;
  VectorClock older;
  older.set(1, 2);
  h.record_read(r2, older);
  EXPECT_FALSE(check_monotonic_reads(h, 5).ok);
  EXPECT_TRUE(check_monotonic_reads(h, 6).ok);  // other client unaffected
}

TEST(CheckMonotonicWrites, DetectsOutOfOrderAtOneStore) {
  History h;
  apply(h, 0, WriteId{5, 2});
  apply(h, 0, WriteId{5, 1});
  EXPECT_FALSE(check_monotonic_writes(h, 5).ok);
  EXPECT_TRUE(check_monotonic_writes(h, 6).ok);
}

TEST(CheckWfr, DetectsWriteBeforeItsReadContext) {
  History h;
  // Client 5 read w(1,1), then wrote w(5,1) with that dependency.
  VectorClock dep;
  dep.set(1, 1);
  h.record_write(WriteEvent{{}, 1, 1, WriteId{1, 1}, h.intern("p"), 0});
  h.record_write(WriteEvent{{}, 1, 5, WriteId{5, 1}, h.intern("p"), 0});
  // Store applies the client's write before its read context.
  apply(h, 0, WriteId{5, 1}, 0, dep);
  apply(h, 0, WriteId{1, 1});
  EXPECT_FALSE(check_writes_follow_reads(h, 5).ok);
  // The violation is attributed only to client 5's writes.
  EXPECT_TRUE(check_writes_follow_reads(h, 1).ok);
}

TEST(CheckClientModels, CombinesResults) {
  History h;
  h.record_write(WriteEvent{{}, 1, 5, WriteId{5, 1}, h.intern("p"), 0});
  ReadEvent bad;
  bad.client = 5;
  bad.client_op_index = 2;
  h.record_read(bad, {});
  const auto res = check_client_models(
      h, 5, ClientModel::kReadYourWrites | ClientModel::kMonotonicReads);
  EXPECT_FALSE(res.ok);  // RYW violated, MR fine
  EXPECT_EQ(res.violations.size(), 1u);
}

TEST(CheckResultTest, SummaryTruncates) {
  CheckResult res;
  for (int i = 0; i < 10; ++i) res.fail("violation " + std::to_string(i));
  const std::string s = res.summary(3);
  EXPECT_NE(s.find("10 violation(s)"), std::string::npos);
  EXPECT_NE(s.find("7 more"), std::string::npos);
}

TEST(HistoryTest, ClientOpsSortedByProgramOrder) {
  History h;
  h.record_read(ReadEvent{{}, 3, 9, 0, h.intern("p"), kEmptyClock, 0}, {});
  h.record_write(WriteEvent{{}, 1, 9, WriteId{9, 1}, h.intern("p"), 0});
  h.record_write(WriteEvent{{}, 2, 9, WriteId{9, 2}, h.intern("p"), 0});
  const auto ops = naive::client_ops(h, 9);
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_TRUE(ops[0].is_write);
  EXPECT_TRUE(ops[1].is_write);
  EXPECT_FALSE(ops[2].is_write);
}

TEST(HistoryTest, ClientOpsTieOrderIsDeterministic) {
  // A read and a write sharing a client_op_index must order
  // deterministically (write first, then record order), identically
  // across repeated queries.
  History h;
  h.record_read(ReadEvent{{}, 2, 9, 0, h.intern("p"), kEmptyClock, 0}, {});
  h.record_write(WriteEvent{{}, 2, 9, WriteId{9, 1}, h.intern("p"), 0});
  h.record_write(WriteEvent{{}, 1, 9, WriteId{9, 2}, h.intern("p"), 0});
  const auto ops = naive::client_ops(h, 9);
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].index(), 1u);
  EXPECT_TRUE(ops[0].is_write);
  EXPECT_TRUE(ops[1].is_write);   // tied at index 2: write precedes read
  EXPECT_FALSE(ops[2].is_write);
  const auto again = naive::client_ops(h, 9);
  ASSERT_EQ(again.size(), 3u);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(ops[i].write, again[i].write);
    EXPECT_EQ(ops[i].read, again[i].read);
  }
}

TEST(HistoryTest, InternedPageNamesRoundTrip) {
  History h;
  const PageId a = h.intern("index.html");
  const PageId b = h.intern("news.html");
  EXPECT_EQ(h.intern("index.html"), a);  // stable
  EXPECT_NE(a, b);
  EXPECT_EQ(h.intern(""), kNoPage);
  EXPECT_EQ(h.page_name(a), "index.html");
  EXPECT_EQ(h.page_name(kNoPage), "");
  EXPECT_EQ(h.page_name(999), "#999");  // unknown ids still render
}

TEST(HistoryTest, ClearedHistoryRecordsAndJudgesLikeAFreshOne) {
  VectorClock a;
  a.set(1, 1);
  VectorClock b = a;
  b.set(2, 1);
  // Records w(2,1) with deps `a` at two stores, and at a third after a
  // snapshot with clock `b`; client 1 reads at clocks `b`, then `a`
  // (a monotonic-reads regression), then the empty clock (its own write
  // missing). Clocks are first seen in the opposite order to the
  // dirtying below.
  const auto script = [&](History& h) {
    const PageId p = h.intern("p");
    h.record_write(WriteEvent{{}, 1, 1, WriteId{1, 1}, p, 0});
    h.record_write(WriteEvent{{}, 1, 2, WriteId{2, 1}, p, 0});
    for (StoreId s : {0u, 1u}) {
      apply(h, s, WriteId{2, 1}, 0, a);
      apply(h, s, WriteId{1, 1});
    }
    snapshot(h, 2, b);
    apply(h, 2, WriteId{2, 1}, 0, a);
    h.record_read(ReadEvent{{}, 2, 1, 2, p, kEmptyClock, 0}, b);
    h.record_read(ReadEvent{{}, 3, 1, 0, p, kEmptyClock, 0}, a);
    h.record_read(ReadEvent{{}, 4, 1, 1, p, kEmptyClock, 0}, {});
  };
  History fresh;
  script(fresh);

  History reused;
  const PageId junk = reused.intern("junk");
  reused.record_write(WriteEvent{{}, 1, 3, WriteId{3, 1}, junk, 0});
  reused.record_read(ReadEvent{{}, 2, 3, 4, junk, kEmptyClock, 0}, a);
  ApplyEvent dirty;
  dirty.store = 4;
  dirty.wid = WriteId{3, 1};
  dirty.page = junk;
  reused.record_apply(dirty, b);
  snapshot(reused, 4, a);
  reused.clear();
  EXPECT_EQ(reused.size(), 0u);
  EXPECT_EQ(reused.pages_interned(), 1u);
  EXPECT_EQ(reused.clocks_interned(), 1u);  // the empty clock alone
  script(reused);

  EXPECT_EQ(reused.size(), fresh.size());
  EXPECT_EQ(reused.clocks_interned(), fresh.clocks_interned());
  EXPECT_EQ(fresh.clocks_interned(), 3u);  // {}, a and b, reads included
  EXPECT_EQ(reused.page_name(1), "p");
  for (ObjectModel m :
       {ObjectModel::kSequential, ObjectModel::kPram, ObjectModel::kFifoPram,
        ObjectModel::kCausal, ObjectModel::kEventual}) {
    EXPECT_EQ(check_object_model(reused, m), check_object_model(fresh, m))
        << to_string(m);
  }
  const std::vector<SessionSpec> specs = {
      {1, ClientModel::kWritesFollowReads | ClientModel::kMonotonicWrites |
              ClientModel::kReadYourWrites | ClientModel::kMonotonicReads},
      {2, ClientModel::kWritesFollowReads | ClientModel::kMonotonicWrites}};
  EXPECT_EQ(check_sessions(reused, specs), check_sessions(fresh, specs));
  EXPECT_FALSE(check_causal(reused).ok);  // w(2,1) ahead of w(1,1)
  EXPECT_EQ(check_read_your_writes(reused, 1).violations,
            (std::vector<std::string>{
                "RYW: client 1 read at store 1 saw clock {} missing its own "
                "write seq 1"}));
  EXPECT_EQ(check_monotonic_reads(reused, 1).violations,
            (std::vector<std::string>{
                "MR: client 1 read at store 0 saw clock " + a.str() +
                    " which does not dominate earlier read clock " + b.str(),
                "MR: client 1 read at store 1 saw clock {} which does not "
                "dominate earlier read clock " + b.str()}));
}

TEST(HistoryTest, StoresAndClientsEnumerated) {
  History h;
  apply(h, 3, WriteId{1, 1});
  apply(h, 1, WriteId{2, 1});
  h.record_write(WriteEvent{{}, 1, 7, WriteId{7, 1}, h.intern("p"), 0});
  EXPECT_EQ(naive::stores(h), (std::vector<StoreId>{1, 3}));
  EXPECT_EQ(naive::clients(h), (std::vector<ClientId>{7}));
}

}  // namespace
}  // namespace globe::coherence
