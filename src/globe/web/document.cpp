#include "globe/web/document.hpp"

#include <algorithm>
#include <tuple>

#include "globe/util/assert.hpp"

namespace globe::web {

namespace {

[[nodiscard]] auto lww_key(std::uint64_t lamport, const WriteId& wid) {
  return std::tuple(lamport, wid.client, wid.seq);
}

}  // namespace

void WebDocument::touch(const std::string& page) {
  ++version_;
  PageMeta& m = meta_[page];
  m.version = version_;
  m.fragment.reset();
  snapshot_cache_.reset();
}

void WebDocument::record_tombstone(const std::string& page,
                                   const WriteRecord& rec) {
  Tombstone& t = tombstones_[page];
  if (lww_key(rec.lamport, rec.wid) >= lww_key(t.lamport, t.writer)) {
    t.writer = rec.wid;
    t.lamport = rec.lamport;
    t.global_seq = rec.global_seq;
    t.deleted_at_us = rec.issued_at_us;
  }
  t.version = ++version_;
}

bool WebDocument::apply(const WriteRecord& rec) {
  if (rec.op == WriteOp::kDelete) {
    const bool erased = pages_.erase(rec.page) > 0;
    // The deletion is remembered either way (a delete that raced ahead
    // of the put it kills must still win later), but only an actual
    // erase invalidates the snapshot cache — the page bytes are
    // untouched otherwise.
    record_tombstone(rec.page, rec);
    if (erased) {
      meta_.erase(rec.page);
      snapshot_cache_.reset();
    }
    return erased;
  }
  tombstones_.erase(rec.page);  // ordered apply: the page exists again
  touch(rec.page);
  Page& p = pages_[rec.page];
  p.content = rec.content;
  p.mime = rec.mime;
  p.last_writer = rec.wid;
  p.global_seq = rec.global_seq;
  p.lamport = rec.lamport;
  p.updated_at_us = rec.issued_at_us;
  return true;
}

bool WebDocument::apply_lww(const WriteRecord& rec) {
  // Higher Lamport timestamp wins; ties broken by writer id then seq so
  // that all replicas decide identically. A tombstone stands in for the
  // page it deleted: a put must also beat the delete that removed the
  // page, or a stale write arriving after the delete record was
  // compacted away would resurrect it.
  const auto new_key = lww_key(rec.lamport, rec.wid);
  auto it = pages_.find(rec.page);
  if (it != pages_.end()) {
    const Page& cur = it->second;
    if (new_key <= lww_key(cur.lamport, cur.last_writer)) return false;
  } else {
    auto tomb = tombstones_.find(rec.page);
    if (tomb != tombstones_.end() &&
        new_key <= lww_key(tomb->second.lamport, tomb->second.writer)) {
      return false;
    }
    if (rec.op == WriteOp::kDelete) {
      // Deleting an absent page: no state change, but the deletion
      // memory advances so the stronger delete keeps winning.
      record_tombstone(rec.page, rec);
      return false;
    }
  }
  return apply(rec);
}

std::size_t WebDocument::collect_tombstones(
    const coherence::VectorClock& horizon) {
  std::size_t collected = 0;
  for (auto it = tombstones_.begin(); it != tombstones_.end();) {
    if (horizon.covers(it->second.writer)) {
      // Raising the floor past the collected stamp keeps floor deltas
      // honest: a receiver whose floor predates this deletion must take
      // a full transfer, since the drop entry can no longer be encoded.
      tombstone_floor_ = std::max(tombstone_floor_, it->second.version);
      it = tombstones_.erase(it);
      ++collected;
    } else {
      ++it;
    }
  }
  return collected;
}

std::optional<Page> WebDocument::get(const std::string& page) const {
  auto it = pages_.find(page);
  if (it == pages_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> WebDocument::page_names() const {
  std::vector<std::string> names;
  names.reserve(pages_.size());
  for (const auto& [name, _] : pages_) names.push_back(name);
  return names;
}

std::size_t WebDocument::content_bytes() const {
  std::size_t total = 0;
  for (const auto& [_, p] : pages_) total += p.content.size();
  return total;
}

util::SharedBuffer WebDocument::snapshot() const {
  if (snapshot_cache_ == nullptr) {
    snapshot_cache_ = std::make_shared<const util::Buffer>(encode_snapshot());
  }
  return snapshot_cache_;
}

void WebDocument::encode_page(util::Writer& w, const std::string& name,
                              const Page& p, bool mask_wall_clock) const {
  w.str(name);
  w.str(p.content);
  w.str(p.mime);
  p.last_writer.encode(w);
  w.varint(p.global_seq);
  w.varint(p.lamport);
  w.i64(mask_wall_clock ? 0 : p.updated_at_us);
}

util::Buffer WebDocument::encode_snapshot(bool mask_wall_clock) const {
  // Size the buffer once: the exact bytes encode_page emits per page.
  std::size_t bytes = util::varint_size(pages_.size());
  for (const auto& [name, p] : pages_) {
    bytes += util::varint_size(name.size()) + name.size() +
             util::varint_size(p.content.size()) + p.content.size() +
             util::varint_size(p.mime.size()) + p.mime.size() +
             coherence::WriteId::kEncodedBytes +
             util::varint_size(p.global_seq) + util::varint_size(p.lamport) +
             sizeof(p.updated_at_us);
  }
  util::Writer w;
  w.reserve(bytes);
  w.varint(pages_.size());
  for (const auto& [name, p] : pages_) {
    encode_page(w, name, p, mask_wall_clock);
  }
  GLOBE_DCHECK_MSG(w.size() == bytes,
                   "snapshot size drifted from encode_page's layout");
  return w.take();
}

void WebDocument::restore(util::BytesView snapshot) {
  util::Reader r(snapshot);
  std::map<std::string, Page> pages;
  const std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string name = r.str();
    Page p;
    p.content = r.str();
    p.mime = r.str();
    p.last_writer = coherence::WriteId::decode(r);
    p.global_seq = r.varint();
    p.lamport = r.varint();
    p.updated_at_us = r.i64();
    pages.emplace(std::move(name), std::move(p));
  }
  r.expect_end();
  pages_ = std::move(pages);
  // A full restore replaces the state wholesale: every page carries a
  // fresh stamp, and deletion memory from the old lineage is gone — the
  // tombstone horizon moves here, exactly like WriteLog::note_snapshot.
  ++version_;
  meta_.clear();
  for (const auto& [name, _] : pages_) meta_[name].version = version_;
  tombstones_.clear();
  tombstone_floor_ = version_;
  snapshot_cache_.reset();
}

// ---------------------------------------------------------------------
// Delta snapshots
// ---------------------------------------------------------------------

std::vector<PageStamp> WebDocument::summarize() const {
  std::vector<PageStamp> out;
  out.reserve(pages_.size());
  for (const auto& [name, p] : pages_) {
    out.push_back(PageStamp{name, p.last_writer, p.lamport, p.global_seq});
  }
  return out;
}

util::SharedBuffer WebDocument::page_fragment(const std::string& page) const {
  auto pit = pages_.find(page);
  if (pit == pages_.end()) return nullptr;
  PageMeta& m = meta_[page];
  if (m.fragment == nullptr) {
    util::Writer w;
    encode_page(w, page, pit->second);
    m.fragment = std::make_shared<const util::Buffer>(w.take());
  }
  return m.fragment;
}

void WebDocument::append_fragment(util::Writer& w, const std::string& name,
                                  const Page& p, const PageMeta& meta) const {
  if (meta.fragment == nullptr) {
    // Fill the cache in place so the next requester reuses the bytes.
    util::Writer frag;
    encode_page(frag, name, p);
    const_cast<PageMeta&>(meta).fragment =
        std::make_shared<const util::Buffer>(frag.take());
  }
  w.raw(util::BytesView(*meta.fragment));
}

util::Buffer WebDocument::encode_delta(std::span<const PageStamp> have,
                                       DeltaStats* stats) const {
  std::unordered_map<std::string_view, const PageStamp*> held;
  held.reserve(have.size());
  for (const PageStamp& s : have) held.emplace(s.page, &s);

  util::Writer w;
  // Pages the receiver lacks or holds at a different version.
  std::size_t shipped = 0;
  {
    util::Writer body;
    for (const auto& [name, p] : pages_) {
      auto it = held.find(name);
      if (it != held.end() && it->second->writer == p.last_writer &&
          it->second->lamport == p.lamport &&
          it->second->global_seq == p.global_seq) {
        continue;  // identical copy at the receiver
      }
      append_fragment(body, name, p, meta_[name]);
      ++shipped;
    }
    w.varint(shipped);
    w.raw(util::BytesView(body.view()));
  }
  // Drops: pages the receiver holds that no longer exist here. The
  // tombstone identity travels so the receiver records the deletion too.
  std::size_t drops = 0;
  {
    util::Writer body;
    for (const PageStamp& s : have) {
      if (pages_.find(s.page) != pages_.end()) continue;
      body.str(s.page);
      auto tomb = tombstones_.find(s.page);
      const Tombstone t =
          tomb != tombstones_.end() ? tomb->second : Tombstone{};
      t.writer.encode(body);
      body.varint(t.lamport);
      body.varint(t.global_seq);
      body.i64(t.deleted_at_us);
      ++drops;
    }
    w.varint(drops);
    w.raw(util::BytesView(body.view()));
  }
  if (stats != nullptr) {
    stats->pages_shipped = shipped;
    stats->drops_shipped = drops;
  }
  return w.take();
}

util::Buffer WebDocument::encode_delta_since(std::uint64_t floor,
                                             DeltaStats* stats) const {
  GLOBE_ASSERT_MSG(can_delta_since(floor),
                   "floor predates the tombstone horizon");
  util::Writer w;
  std::size_t shipped = 0;
  {
    util::Writer body;
    for (const auto& [name, p] : pages_) {
      const PageMeta& m = meta_[name];
      if (m.version <= floor) continue;
      append_fragment(body, name, p, m);
      ++shipped;
    }
    w.varint(shipped);
    w.raw(util::BytesView(body.view()));
  }
  std::size_t drops = 0;
  {
    util::Writer body;
    for (const auto& [name, t] : tombstones_) {
      if (t.version <= floor) continue;
      body.str(name);
      t.writer.encode(body);
      body.varint(t.lamport);
      body.varint(t.global_seq);
      body.i64(t.deleted_at_us);
      ++drops;
    }
    w.varint(drops);
    w.raw(util::BytesView(body.view()));
  }
  if (stats != nullptr) {
    stats->pages_shipped = shipped;
    stats->drops_shipped = drops;
  }
  return w.take();
}

void WebDocument::apply_delta(util::BytesView delta) {
  util::Reader r(delta);
  const std::uint64_t stamp = ++version_;
  const std::uint64_t n = r.varint();
  bool mutated = n > 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string name = r.str();
    Page p;
    p.content = r.str();
    p.mime = r.str();
    p.last_writer = coherence::WriteId::decode(r);
    p.global_seq = r.varint();
    p.lamport = r.varint();
    p.updated_at_us = r.i64();
    tombstones_.erase(name);
    PageMeta& m = meta_[name];
    m.version = stamp;
    m.fragment.reset();
    pages_[std::move(name)] = std::move(p);
  }
  const std::uint64_t d = r.varint();
  mutated = mutated || d > 0;
  for (std::uint64_t i = 0; i < d; ++i) {
    std::string name = r.str();
    Tombstone t;
    t.writer = coherence::WriteId::decode(r);
    t.lamport = r.varint();
    t.global_seq = r.varint();
    t.deleted_at_us = r.i64();
    t.version = stamp;
    pages_.erase(name);
    meta_.erase(name);
    tombstones_[std::move(name)] = t;
  }
  r.expect_end();
  if (mutated) snapshot_cache_.reset();
}

}  // namespace globe::web
