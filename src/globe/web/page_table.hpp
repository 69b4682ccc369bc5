// Page tables: dense local ids for page names.
//
// A replica meets the same few page names on every record it applies,
// and keeps several per-page tables (the document's pages, their cached
// fragments and tombstones, the write log's page postings, the invalid
// flags, the TTL stamps). A PageTable turns a name into a small dense
// id once, and those tables become slots indexed by the id instead of
// maps keyed by the string.
//
// Ids are local to the table that handed them out: two replicas meet
// pages in different orders, so the same name has different ids at
// each. Page names, never ids, travel on the wire, and everything that
// is encoded or compared across replicas walks pages in name order
// (by_name()).
//
// An id is reused once every holder let go of it. A holder (a live
// page, a tombstone, a log posting list, an invalid flag, a TTL stamp)
// takes a hold with acquire() or hold() and gives it back with
// release(); the last release frees the name and a later new name gets
// its id. An id interned without a hold stays until clear(): the
// History interns this way, so its ids are stable for the whole run.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace globe::web {

/// Dense id of a page name, local to one PageTable.
using PageId = std::uint32_t;

class PageTable {
 public:
  /// The id of `name`, if the table holds it.
  [[nodiscard]] std::optional<PageId> find(std::string_view name) const;

  /// The id of `name`, added if new. Takes no hold.
  PageId intern(std::string_view name);

  /// intern() plus one hold.
  PageId acquire(std::string_view name) {
    const PageId id = intern(name);
    hold(id);
    return id;
  }

  void hold(PageId id) { ++entries_[id].holds; }

  /// Gives back one hold; the last one frees the id for reuse.
  void release(PageId id);

  [[nodiscard]] const std::string& name(PageId id) const {
    return entries_[id].name;
  }

  /// One past the largest id handed out: the size a slot table indexed
  /// by this table's ids needs.
  [[nodiscard]] std::size_t bound() const { return entries_.size(); }

  /// Names the table holds (ids in use).
  [[nodiscard]] std::size_t size() const { return sorted_.size(); }

  /// The ids in use, in page-name order.
  [[nodiscard]] std::span<const PageId> by_name() const { return sorted_; }

  void clear();

 private:
  struct Entry {
    std::string name;
    std::uint32_t holds = 0;
  };

  /// The first position in sorted_ whose name is not below `name`.
  [[nodiscard]] std::vector<PageId>::const_iterator lower_bound(
      std::string_view name) const;

  std::vector<Entry> entries_;  // by id; a freed entry has an empty name
  std::vector<PageId> sorted_;  // ids in use, in name order
  std::vector<PageId> free_;    // freed ids, reused last-in first-out
};

}  // namespace globe::web
