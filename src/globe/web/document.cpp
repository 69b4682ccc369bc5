#include "globe/web/document.hpp"

#include <algorithm>
#include <tuple>

#include "globe/util/assert.hpp"

namespace globe::web {

namespace {

[[nodiscard]] auto lww_key(std::uint64_t lamport, const WriteId& wid) {
  return std::tuple(lamport, wid.client, wid.seq);
}

[[nodiscard]] std::string_view as_string(util::BytesView b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

/// Reads one page as encode_page wrote it, into `page` if given, and
/// returns its name: a view into the encoded bytes.
std::string_view read_page(util::Reader& r, Page* page) {
  const std::string_view name = as_string(r.bytes());
  const std::string_view content = as_string(r.bytes());
  const std::string_view mime = as_string(r.bytes());
  const WriteId writer = coherence::WriteId::decode(r);
  const std::uint64_t global_seq = r.varint();
  const std::uint64_t lamport = r.varint();
  const std::int64_t updated_at_us = r.varint_i64();
  if (page != nullptr) {
    page->content = content;
    page->mime = mime;
    page->last_writer = writer;
    page->global_seq = global_seq;
    page->lamport = lamport;
    page->updated_at_us = updated_at_us;
  }
  return name;
}

}  // namespace

WebDocument::Slot& WebDocument::make_live(PageId id) {
  if (id >= pages_.size()) pages_.resize(id + 1);
  Slot& s = pages_[id];
  if (!s.live) {
    names_.hold(id);
    s.live = true;
    ++live_pages_;
  }
  return s;
}

bool WebDocument::drop_page(PageId id) {
  if (!live(id)) return false;
  pages_[id] = Slot{};
  --live_pages_;
  names_.release(id);
  return true;
}

Tombstone& WebDocument::tombstone_slot(PageId id) {
  if (id >= tombstones_.size()) tombstones_.resize(id + 1);
  std::optional<Tombstone>& t = tombstones_[id];
  if (!t.has_value()) {
    names_.hold(id);
    t.emplace();
  }
  return *t;
}

void WebDocument::erase_tombstone(PageId id) {
  if (tombstone(id) == nullptr) return;
  tombstones_[id].reset();
  names_.release(id);
}

void WebDocument::touch(Slot& slot) {
  ++version_;
  slot.version = version_;
  slot.fragment.reset();
  snapshot_cache_.reset();
}

void WebDocument::record_tombstone(PageId id, const WriteRecord& rec) {
  Tombstone& t = tombstone_slot(id);
  if (lww_key(rec.lamport, rec.wid) >= lww_key(t.lamport, t.writer)) {
    t.writer = rec.wid;
    t.lamport = rec.lamport;
    t.global_seq = rec.global_seq;
    t.deleted_at_us = rec.issued_at_us;
  }
  t.version = ++version_;
}

bool WebDocument::apply(const WriteRecord& rec) {
  const PageId id = names_.acquire(rec.page);
  const bool changed = apply(rec, id);
  names_.release(id);
  return changed;
}

bool WebDocument::apply(const WriteRecord& rec, PageId id) {
  if (rec.op == WriteOp::kDelete) {
    // The deletion is remembered either way (a delete that raced ahead
    // of the put it kills must still win later), but only an actual
    // erase invalidates the snapshot cache — the page bytes are
    // untouched otherwise.
    const bool erased = drop_page(id);
    record_tombstone(id, rec);
    if (erased) snapshot_cache_.reset();
    return erased;
  }
  Slot& s = make_live(id);
  erase_tombstone(id);  // ordered apply: the page exists again
  touch(s);
  Page& p = s.page;
  p.content = rec.content;
  p.mime = rec.mime;
  p.last_writer = rec.wid;
  p.global_seq = rec.global_seq;
  p.lamport = rec.lamport;
  p.updated_at_us = rec.issued_at_us;
  return true;
}

bool WebDocument::apply_lww(const WriteRecord& rec) {
  const PageId id = names_.acquire(rec.page);
  const bool changed = apply_lww(rec, id);
  names_.release(id);
  return changed;
}

bool WebDocument::apply_lww(const WriteRecord& rec, PageId id) {
  // Higher Lamport timestamp wins; ties broken by writer id then seq so
  // that all replicas decide identically. A tombstone stands in for the
  // page it deleted: a put must also beat the delete that removed the
  // page, or a stale write arriving after the delete record was
  // compacted away would resurrect it.
  const auto new_key = lww_key(rec.lamport, rec.wid);
  if (live(id)) {
    const Page& cur = pages_[id].page;
    if (new_key <= lww_key(cur.lamport, cur.last_writer)) return false;
  } else {
    const Tombstone* tomb = tombstone(id);
    if (tomb != nullptr && new_key <= lww_key(tomb->lamport, tomb->writer)) {
      return false;
    }
    if (rec.op == WriteOp::kDelete) {
      // Deleting an absent page: no state change, but the deletion
      // memory advances so the stronger delete keeps winning.
      record_tombstone(id, rec);
      return false;
    }
  }
  return apply(rec, id);
}

std::size_t WebDocument::collect_tombstones(
    const coherence::VectorClock& horizon) {
  std::size_t collected = 0;
  for (PageId id = 0; id < tombstones_.size(); ++id) {
    const Tombstone* t = tombstone(id);
    if (t == nullptr || !horizon.covers(t->writer)) continue;
    // Raising the floor past the collected stamp keeps floor deltas
    // honest: a receiver whose floor predates this deletion must take
    // a full transfer, since the drop entry can no longer be encoded.
    tombstone_floor_ = std::max(tombstone_floor_, t->version);
    erase_tombstone(id);
    ++collected;
  }
  return collected;
}

std::map<std::string, Tombstone> WebDocument::tombstones() const {
  std::map<std::string, Tombstone> out;
  for (PageId id = 0; id < tombstones_.size(); ++id) {
    if (const Tombstone* t = tombstone(id)) out.emplace(names_.name(id), *t);
  }
  return out;
}

std::optional<Page> WebDocument::get(const std::string& page) const {
  const auto id = names_.find(page);
  if (!id.has_value() || !live(*id)) return std::nullopt;
  return pages_[*id].page;
}

std::vector<std::string> WebDocument::page_names() const {
  std::vector<std::string> names;
  names.reserve(live_pages_);
  for (const PageId id : names_.by_name()) {
    if (live(id)) names.push_back(names_.name(id));
  }
  return names;
}

std::size_t WebDocument::content_bytes() const {
  std::size_t total = 0;
  for (const Slot& s : pages_) {
    if (s.live) total += s.page.content.size();
  }
  return total;
}

bool WebDocument::same_pages(const WebDocument& other) const {
  if (live_pages_ != other.live_pages_) return false;
  for (PageId id = 0; id < pages_.size(); ++id) {
    if (!pages_[id].live) continue;
    const auto oid = other.names_.find(names_.name(id));
    if (!oid.has_value() || !other.live(*oid) ||
        !(other.pages_[*oid].page == pages_[id].page)) {
      return false;
    }
  }
  return true;
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
  w.varint_i64(mask_wall_clock ? 0 : p.updated_at_us);
}

util::Buffer WebDocument::encode_snapshot(bool mask_wall_clock) const {
  // Size the buffer once: the exact bytes encode_page emits per page.
  std::size_t bytes = util::varint_size(live_pages_);
  for (const PageId id : names_.by_name()) {
    if (!live(id)) continue;
    const std::string& name = names_.name(id);
    const Page& p = pages_[id].page;
    bytes += util::varint_size(name.size()) + name.size() +
             util::varint_size(p.content.size()) + p.content.size() +
             util::varint_size(p.mime.size()) + p.mime.size() +
             p.last_writer.encoded_size() + util::varint_size(p.global_seq) +
             util::varint_size(p.lamport) +
             util::varint_size(static_cast<std::uint64_t>(
                 mask_wall_clock ? 0 : p.updated_at_us));
  }
  util::Writer w;
  w.reserve(bytes);
  w.varint(live_pages_);
  for (const PageId id : names_.by_name()) {
    if (live(id)) {
      encode_page(w, names_.name(id), pages_[id].page, mask_wall_clock);
    }
  }
  GLOBE_DCHECK_MSG(w.size() == bytes,
                   "snapshot size drifted from encode_page's layout");
  return w.take();
}

void WebDocument::restore(util::BytesView snapshot) {
  // Three passes over the bytes: check the whole encoding first, so a
  // malformed snapshot changes nothing; hold every incoming name, so a
  // page that stays keeps its id; then replace the state.
  util::Reader check(snapshot);
  const std::uint64_t n = check.varint();
  for (std::uint64_t i = 0; i < n; ++i) read_page(check, nullptr);
  check.expect_end();
  util::Reader names(snapshot);
  names.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    names_.hold(names_.intern(read_page(names, nullptr)));
  }
  // A full restore replaces the state wholesale: every page carries a
  // fresh stamp, and deletion memory from the old lineage is gone — the
  // tombstone horizon moves here, exactly like WriteLog::note_snapshot.
  for (PageId id = 0; id < pages_.size(); ++id) drop_page(id);
  for (PageId id = 0; id < tombstones_.size(); ++id) erase_tombstone(id);
  tombstones_.clear();
  ++version_;
  util::Reader r(snapshot);
  r.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    Page p;
    const PageId id = *names_.find(read_page(r, &p));
    // A name listed twice keeps its first page.
    if (!live(id)) {
      Slot& s = make_live(id);
      s.page = std::move(p);
      s.version = version_;
    }
    names_.release(id);
  }
  tombstone_floor_ = version_;
  snapshot_cache_.reset();
}

// ---------------------------------------------------------------------
// Delta snapshots
// ---------------------------------------------------------------------

std::vector<PageStamp> WebDocument::summarize() const {
  std::vector<PageStamp> out;
  out.reserve(live_pages_);
  for (const PageId id : names_.by_name()) {
    if (!live(id)) continue;
    const Page& p = pages_[id].page;
    out.push_back(
        PageStamp{names_.name(id), p.last_writer, p.lamport, p.global_seq});
  }
  return out;
}

util::SharedBuffer WebDocument::page_fragment(const std::string& page) const {
  const auto id = names_.find(page);
  if (!id.has_value() || !live(*id)) return nullptr;
  return fragment(*id);
}

const util::SharedBuffer& WebDocument::fragment(PageId id) const {
  const Slot& s = pages_[id];
  if (s.fragment == nullptr) {
    // Fill the cache in place so the next requester reuses the bytes.
    util::Writer w;
    encode_page(w, names_.name(id), s.page);
    s.fragment = std::make_shared<const util::Buffer>(w.take());
  }
  return s.fragment;
}

namespace {

void encode_drop(util::Writer& w, const std::string& page,
                 const Tombstone& t) {
  w.str(page);
  t.writer.encode(w);
  w.varint(t.lamport);
  w.varint(t.global_seq);
  w.varint_i64(t.deleted_at_us);
}

}  // namespace

util::Buffer WebDocument::encode_delta(std::span<const PageStamp> have,
                                       DeltaStats* stats) const {
  // The receiver's stamp of each page held here (its first, should a
  // name repeat).
  std::vector<const PageStamp*> held(pages_.size(), nullptr);
  for (const PageStamp& s : have) {
    const auto id = names_.find(s.page);
    if (id.has_value() && live(*id) && held[*id] == nullptr) held[*id] = &s;
  }

  util::Writer w;
  // Pages the receiver lacks or holds at a different version.
  std::size_t shipped = 0;
  {
    util::Writer body;
    for (const PageId id : names_.by_name()) {
      if (!live(id)) continue;
      const Page& p = pages_[id].page;
      const PageStamp* h = held[id];
      if (h != nullptr && h->writer == p.last_writer &&
          h->lamport == p.lamport && h->global_seq == p.global_seq) {
        continue;  // identical copy at the receiver
      }
      body.raw(util::BytesView(*fragment(id)));
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
      const auto id = names_.find(s.page);
      if (id.has_value() && live(*id)) continue;
      const Tombstone* tomb = id.has_value() ? tombstone(*id) : nullptr;
      encode_drop(body, s.page, tomb != nullptr ? *tomb : Tombstone{});
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
    for (const PageId id : names_.by_name()) {
      if (!live(id) || pages_[id].version <= floor) continue;
      body.raw(util::BytesView(*fragment(id)));
      ++shipped;
    }
    w.varint(shipped);
    w.raw(util::BytesView(body.view()));
  }
  std::size_t drops = 0;
  {
    util::Writer body;
    for (const PageId id : names_.by_name()) {
      const Tombstone* t = tombstone(id);
      if (t == nullptr || t->version <= floor) continue;
      encode_drop(body, names_.name(id), *t);
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
    Page p;
    const PageId id = names_.acquire(read_page(r, &p));
    Slot& s = make_live(id);
    erase_tombstone(id);
    s.page = std::move(p);
    s.version = stamp;
    s.fragment.reset();
    names_.release(id);
  }
  const std::uint64_t d = r.varint();
  mutated = mutated || d > 0;
  for (std::uint64_t i = 0; i < d; ++i) {
    const std::string_view name = as_string(r.bytes());
    Tombstone t;
    t.writer = coherence::WriteId::decode(r);
    t.lamport = r.varint();
    t.global_seq = r.varint();
    t.deleted_at_us = r.varint_i64();
    t.version = stamp;
    const PageId id = names_.acquire(name);
    drop_page(id);
    tombstone_slot(id) = t;
    names_.release(id);
  }
  r.expect_end();
  if (mutated) snapshot_cache_.reset();
}

}  // namespace globe::web
