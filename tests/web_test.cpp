// Unit tests for the Web document model: pages, write records,
// snapshots, and last-writer-wins merging.
#include <gtest/gtest.h>

#include "globe/web/document.hpp"
#include "globe/web/write_record.hpp"

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

TEST(WebDocument, ApplyPutCreatesPage) {
  WebDocument doc;
  EXPECT_TRUE(doc.apply(put("index.html", "<p>hi</p>", {1, 1})));
  ASSERT_TRUE(doc.has("index.html"));
  EXPECT_EQ(doc.get("index.html")->content, "<p>hi</p>");
  EXPECT_EQ(doc.get("index.html")->last_writer, (coherence::WriteId{1, 1}));
  EXPECT_EQ(doc.page_count(), 1u);
}

TEST(WebDocument, ApplyOverwrites) {
  WebDocument doc;
  doc.apply(put("p", "v1", {1, 1}));
  doc.apply(put("p", "v2", {1, 2}));
  EXPECT_EQ(doc.get("p")->content, "v2");
  EXPECT_EQ(doc.page_count(), 1u);
}

TEST(WebDocument, DeleteRemovesPage) {
  WebDocument doc;
  doc.apply(put("p", "v", {1, 1}));
  WriteRecord del;
  del.op = WriteOp::kDelete;
  del.page = "p";
  del.wid = {1, 2};
  EXPECT_TRUE(doc.apply(del));
  EXPECT_FALSE(doc.has("p"));
  EXPECT_FALSE(doc.apply(del));  // no-op second time
}

TEST(WebDocument, GetMissingReturnsNullopt) {
  WebDocument doc;
  EXPECT_EQ(doc.get("nope"), nullptr);
}

TEST(WebDocument, PageNamesSorted) {
  WebDocument doc;
  doc.apply(put("c", "3", {1, 1}));
  doc.apply(put("a", "1", {1, 2}));
  doc.apply(put("b", "2", {1, 3}));
  EXPECT_EQ(doc.page_names(), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(WebDocument, ContentBytes) {
  WebDocument doc;
  doc.apply(put("a", "12345", {1, 1}));
  doc.apply(put("b", "123", {1, 2}));
  EXPECT_EQ(doc.content_bytes(), 8u);
}

TEST(WebDocument, LwwNewerLamportWins) {
  WebDocument doc;
  EXPECT_TRUE(doc.apply_lww(put("p", "old", {1, 1}, 5)));
  EXPECT_FALSE(doc.apply_lww(put("p", "stale", {2, 1}, 3)));  // older loses
  EXPECT_EQ(doc.get("p")->content, "old");
  EXPECT_TRUE(doc.apply_lww(put("p", "new", {2, 2}, 9)));
  EXPECT_EQ(doc.get("p")->content, "new");
}

TEST(WebDocument, LwwTieBrokenDeterministically) {
  // Same lamport: higher (client, seq) wins; both replicas converge no
  // matter the arrival order.
  WebDocument d1, d2;
  const auto a = put("p", "from-1", {1, 1}, 7);
  const auto b = put("p", "from-2", {2, 1}, 7);
  d1.apply_lww(a);
  d1.apply_lww(b);
  d2.apply_lww(b);
  d2.apply_lww(a);
  EXPECT_EQ(d1.get("p")->content, d2.get("p")->content);
  EXPECT_EQ(d1.get("p")->content, "from-2");
}

TEST(WebDocument, LwwDuplicateRejected) {
  WebDocument doc;
  const auto rec = put("p", "v", {1, 1}, 5);
  EXPECT_TRUE(doc.apply_lww(rec));
  EXPECT_FALSE(doc.apply_lww(rec));
}

TEST(WebDocument, SnapshotRoundTrip) {
  WebDocument doc;
  doc.apply(put("a", "alpha", {1, 1}));
  doc.apply(put("b", "beta", {2, 3}));
  const util::SharedBuffer snap = doc.snapshot();

  WebDocument copy;
  copy.restore(util::view_of(snap));
  EXPECT_EQ(copy, doc);
  EXPECT_EQ(copy.get("b")->last_writer, (coherence::WriteId{2, 3}));
}

TEST(WebDocument, RestoreReplacesState) {
  WebDocument doc;
  doc.apply(put("old", "x", {1, 1}));
  WebDocument other;
  other.apply(put("new", "y", {2, 1}));
  doc.restore(util::view_of(other.snapshot()));
  EXPECT_FALSE(doc.has("old"));
  EXPECT_TRUE(doc.has("new"));
}

TEST(WebDocument, EmptySnapshotRoundTrip) {
  WebDocument doc;
  WebDocument copy;
  copy.apply(put("p", "v", {1, 1}));
  copy.restore(util::view_of(doc.snapshot()));
  EXPECT_EQ(copy.page_count(), 0u);
}

// A full-access read reply carries its page only inside the document: the
// client finds it in the snapshot bytes, as restore() would hold it.
TEST(WebDocument, FindInSnapshotAgreesWithGet) {
  WebDocument doc;
  for (int i = 0; i < 24; ++i) {
    WriteRecord rec = put("p" + std::to_string(100 + i) + ".html",
                          std::string(static_cast<std::size_t>(i * 7), 'x'),
                          {static_cast<ClientId>(i % 3), 1u + i}, 5u + i);
    rec.mime = i % 2 == 0 ? "text/html" : "image/png";
    rec.global_seq = 40u + i;
    rec.issued_at_us = 1000 * i;
    doc.apply(rec);
  }
  const util::SharedBuffer snap = doc.snapshot();
  const std::vector<std::string> names = doc.page_names();
  ASSERT_EQ(names.size(), 24u);
  for (const std::string& name : names) {
    const auto found = WebDocument::find_in_snapshot(util::view_of(snap), name);
    ASSERT_TRUE(found.has_value()) << name;
    EXPECT_EQ(*found, *doc.get(name)) << name;
  }
  EXPECT_EQ(WebDocument::find_in_snapshot(util::view_of(snap), "p100.html")
                ->content,
            "");
  EXPECT_EQ(WebDocument::find_in_snapshot(util::view_of(snap), "p123.html")
                ->last_writer,
            (coherence::WriteId{2, 24}));
  for (const char* absent : {"", "p1.html", "p099.html", "p124.html", "q"}) {
    EXPECT_FALSE(
        WebDocument::find_in_snapshot(util::view_of(snap), absent).has_value())
        << absent;
  }
  WebDocument empty;
  EXPECT_FALSE(WebDocument::find_in_snapshot(util::view_of(empty.snapshot()),
                                             "p100.html")
                   .has_value());
}

TEST(WebDocument, FindInSnapshotRejectsMalformedBytes) {
  WebDocument doc;
  for (int i = 0; i < 3; ++i) {
    doc.apply(put("p" + std::to_string(i), "content", {1, 1u + i}));
  }
  const util::Buffer snap = doc.encode_snapshot();
  // Cut anywhere, even after the page sought: the whole encoding is read.
  for (std::size_t cut = 0; cut < snap.size(); ++cut) {
    EXPECT_THROW((void)WebDocument::find_in_snapshot(
                     util::BytesView(snap.data(), cut), "p0"),
                 util::CodecError)
        << cut;
  }
  // A count that promises more pages than the bytes hold.
  for (const std::uint64_t forged : {std::uint64_t{4}, std::uint64_t{1} << 60}) {
    util::Writer w;
    w.varint(forged);
    w.raw(util::BytesView(snap).subspan(1));
    EXPECT_THROW(
        (void)WebDocument::find_in_snapshot(util::BytesView(w.view()), "p0"),
        util::CodecError)
        << forged;
  }
  // Bytes after the last page.
  util::Writer trailing;
  trailing.raw(util::BytesView(snap));
  trailing.u8(0);
  EXPECT_THROW((void)WebDocument::find_in_snapshot(
                   util::BytesView(trailing.view()), "p0"),
               util::CodecError);
}

TEST(WriteRecordTest, CodecRoundTrip) {
  WriteRecord rec;
  rec.wid = {7, 42};
  rec.op = WriteOp::kPut;
  rec.page = "news.html";
  rec.content = std::string(500, 'z');
  rec.mime = "text/html";
  rec.deps.set(3, 9);
  rec.global_seq = 17;
  rec.lamport = 23;
  rec.issued_at_us = 123456789;
  rec.ordered = true;

  util::Writer w;
  rec.encode(w);
  util::Reader r{util::BytesView(w.view())};
  const WriteRecord back = WriteRecord::decode(r);
  EXPECT_EQ(back.wid, rec.wid);
  EXPECT_EQ(back.op, rec.op);
  EXPECT_EQ(back.page, rec.page);
  EXPECT_EQ(back.content, rec.content);
  EXPECT_EQ(back.deps, rec.deps);
  EXPECT_EQ(back.global_seq, rec.global_seq);
  EXPECT_EQ(back.lamport, rec.lamport);
  EXPECT_EQ(back.issued_at_us, rec.issued_at_us);
  EXPECT_TRUE(back.ordered);
}

TEST(WriteRecordTest, BatchCodecRoundTrip) {
  std::vector<WriteRecord> recs;
  for (int i = 1; i <= 5; ++i) {
    recs.push_back(put("p" + std::to_string(i), "v", {1, (std::uint64_t)i}));
  }
  util::Writer w;
  encode_records(w, recs);
  util::Reader r{util::BytesView(w.view())};
  const auto back = decode_records(r);
  ASSERT_EQ(back.size(), 5u);
  EXPECT_EQ(back[4].page, "p5");
}

TEST(WriteRecordTest, EncodedSizeBoundCoversTheEncoding) {
  auto small = put("p", "x", {1, 1});
  auto large = put("p", std::string(10000, 'x'), {1, 2}, ~std::uint64_t{0});
  large.deps.set(1, 1);
  large.deps.set(~ClientId{0}, ~std::uint64_t{0});
  large.global_seq = ~std::uint64_t{0};
  for (const WriteRecord& rec : {small, large}) {
    util::Writer w;
    rec.encode(w);
    EXPECT_GE(rec.encoded_size_bound(), w.size());
  }
  EXPECT_GT(large.encoded_size_bound(), small.encoded_size_bound() + 9000);
}

}  // namespace
}  // namespace globe::web
