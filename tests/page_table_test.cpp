// Page tables: one dense id per page name, local to its replica.
//
// A replica's document, write log and page flags index by the ids of
// one PageTable. Ids follow the order in which a replica met its pages,
// so nothing that leaves the replica may depend on them: two replicas
// that met the same pages in different orders must encode, summarize
// and compare alike. And an id must come back once nothing holds it,
// or a replica that sees many short-lived pages keeps a slot per name
// for good.
#include "globe/web/page_table.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "globe/replication/object_replica.hpp"
#include "globe/web/document.hpp"

namespace globe {
namespace {

using coherence::WriteId;
using web::PageId;
using web::PageTable;
using web::WebDocument;
using web::WriteRecord;

WriteRecord put(const std::string& page, WriteId wid,
                const std::string& content) {
  WriteRecord rec;
  rec.wid = wid;
  rec.page = page;
  rec.content = content;
  rec.lamport = wid.seq;
  rec.global_seq = wid.seq;
  rec.issued_at_us = static_cast<std::int64_t>(wid.seq) * 1000;
  return rec;
}

WriteRecord del(const std::string& page, WriteId wid) {
  WriteRecord rec = put(page, wid, "");
  rec.op = web::WriteOp::kDelete;
  return rec;
}

util::Buffer encoded(const std::vector<web::PageStamp>& stamps) {
  util::Writer w;
  for (const web::PageStamp& s : stamps) s.encode(w);
  return w.take();
}

TEST(PageTable, HandsOutDenseIdsAndReusesFreedOnes) {
  PageTable t;
  const PageId b = t.acquire("b.html");
  const PageId a = t.acquire("a.html");
  const PageId c = t.intern("c.html");  // no hold: stays until clear()
  EXPECT_EQ(b, 0u);
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(c, 2u);
  EXPECT_EQ(t.acquire("a.html"), a);
  EXPECT_EQ(std::vector<PageId>(t.by_name().begin(), t.by_name().end()),
            (std::vector<PageId>{a, b, c}));
  EXPECT_EQ(t.find("b.html"), b);
  EXPECT_FALSE(t.find("d.html").has_value());

  t.release(a);  // one of two holds
  EXPECT_EQ(t.find("a.html"), a);
  t.release(a);
  t.release(b);
  EXPECT_FALSE(t.find("a.html").has_value());
  EXPECT_FALSE(t.find("b.html").has_value());
  EXPECT_EQ(t.size(), 1u);

  // New names take the freed ids; the slot tables need no new slots.
  const PageId d = t.acquire("d.html");
  const PageId e = t.acquire("e.html");
  EXPECT_TRUE((d == a && e == b) || (d == b && e == a));
  EXPECT_EQ(t.bound(), 3u);
  EXPECT_EQ(t.name(d), "d.html");
  EXPECT_EQ(std::vector<PageId>(t.by_name().begin(), t.by_name().end()),
            (std::vector<PageId>{c, d, e}));
}

// Two documents apply the same records, each page's in the same order,
// but meet the pages in opposite orders; a third restores the first's
// snapshot over pages of its own, and a fourth takes a delta over a
// stale copy. Their ids differ; their bytes may not.
TEST(PageTable, ReplicasThatMetPagesInOtherOrdersEncodeAlike) {
  const std::vector<WriteRecord> records = {
      put("x.html", {1, 1}, "x1"), put("y.html", {1, 2}, "y1"),
      put("z.html", {2, 3}, "z1"), del("y.html", {2, 4}),
      put("w.html", {1, 5}, "w1"), put("v.html", {2, 6}, "v1"),
      del("v.html", {1, 7}),       put("x.html", {2, 8}, "x2")};
  WebDocument a;
  for (const WriteRecord& r : records) a.apply(r);
  WebDocument b;
  for (const std::size_t i : {4, 5, 6, 2, 1, 3, 0, 7}) b.apply(records[i]);
  ASSERT_NE(a.page_table().find("x.html"), b.page_table().find("x.html"));
  ASSERT_NE(a.page_table().find("w.html"), b.page_table().find("w.html"));

  // What a receiver holding a stale, partly foreign copy asks with.
  WebDocument stale;
  stale.apply(put("q.html", {3, 1}, "q"));
  stale.apply(put("y.html", {1, 2}, "y1"));
  stale.apply(put("x.html", {1, 1}, "x1"));
  const std::vector<web::PageStamp> have = stale.summarize();

  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.page_names(), b.page_names());
  EXPECT_EQ(a.encode_snapshot(), b.encode_snapshot());
  EXPECT_EQ(*a.snapshot(), *b.snapshot());
  EXPECT_EQ(encoded(a.summarize()), encoded(b.summarize()));
  web::DeltaStats sa, sb;
  EXPECT_EQ(a.encode_delta(have, &sa), b.encode_delta(have, &sb));
  EXPECT_EQ(sa.pages_shipped, 3u);  // x changed, z and w new
  EXPECT_EQ(sa.drops_shipped, 2u);  // q unknown here, y deleted
  EXPECT_EQ(a.encode_delta_since(0), b.encode_delta_since(0));
  EXPECT_EQ(a.tombstones().size(), 2u);
  EXPECT_EQ(a.tombstones().at("v.html").writer, b.tombstones().at("v.html").writer);
  EXPECT_EQ(*a.page_fragment("z.html"), *b.page_fragment("z.html"));

  WebDocument restored;
  restored.apply(put("q.html", {3, 1}, "q"));
  restored.apply(put("w.html", {3, 2}, "old"));
  restored.restore(util::BytesView(*b.snapshot()));
  EXPECT_TRUE(restored == a);
  EXPECT_EQ(restored.encode_snapshot(), a.encode_snapshot());
  EXPECT_EQ(encoded(restored.summarize()), encoded(a.summarize()));
  EXPECT_EQ(restored.page_table().size(), a.page_count());

  WebDocument patched = stale;
  patched.apply_delta(util::BytesView(a.encode_delta(have)));
  EXPECT_TRUE(patched == b);
  EXPECT_EQ(patched.encode_snapshot(), b.encode_snapshot());
  EXPECT_EQ(encoded(patched.summarize()), encoded(b.summarize()));
  EXPECT_EQ(patched.tombstones().size(), 2u);  // the drops: q and y
}

struct NoSink final : replication::ApplySink {
  void applied(const WriteRecord&, bool) override {}
};

// Every page but one in a thousand is put, flagged invalid, deleted,
// its tombstone collected at the horizon and its records folded. What
// is left holds ten pages, so the table may hold no more names.
TEST(PageTable, ReplicaReclaimsTheIdsOfPagesItNoLongerHolds) {
  replication::ReplicaConfig cfg;
  cfg.store = 1;
  cfg.object = 1;
  cfg.model = coherence::ObjectModel::kPram;
  cfg.primary = true;
  cfg.compact_threshold = 0;
  replication::ObjectReplica r(cfg);
  NoSink sink;
  std::uint64_t seq = 0;
  for (int i = 0; i < 10000; ++i) {
    const std::string page = "p" + std::to_string(i) + ".html";
    r.accept(put(page, {7, ++seq}, "body"), sink);
    if (i % 1000 == 0) continue;
    r.invalidate({page});
    r.accept(del(page, {7, ++seq}), sink);
  }
  EXPECT_EQ(r.document().tombstones().size(), 9990u);

  r.collect_below(r.applied_clock(), r.applied_gseq());
  EXPECT_TRUE(r.log().empty());
  EXPECT_EQ(r.document().page_count(), 10u);
  EXPECT_TRUE(r.document().tombstones().empty());
  EXPECT_LE(r.page_table().size(),
            r.document().page_count() + r.document().tombstones().size());
  EXPECT_EQ(r.log().indexed_pages(), 10u);

  // A new name takes a freed id.
  const std::size_t bound = r.page_table().bound();
  r.accept(put("fresh.html", {7, ++seq}, "body"), sink);
  EXPECT_EQ(r.page_table().bound(), bound);
  EXPECT_TRUE(r.document().has("fresh.html"));
  EXPECT_FALSE(r.page_invalid("fresh.html"));
}

}  // namespace
}  // namespace globe
