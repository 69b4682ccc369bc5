#include "globe/web/page_table.hpp"

#include <algorithm>

#include "globe/util/assert.hpp"

namespace globe::web {

std::vector<PageId>::const_iterator PageTable::lower_bound(
    std::string_view name) const {
  return std::lower_bound(sorted_.begin(), sorted_.end(), name,
                          [this](PageId id, std::string_view n) {
                            return std::string_view(entries_[id].name) < n;
                          });
}

std::optional<PageId> PageTable::find(std::string_view name) const {
  const auto it = lower_bound(name);
  if (it == sorted_.end() || entries_[*it].name != name) return std::nullopt;
  return *it;
}

PageId PageTable::intern(std::string_view name) {
  const auto it = lower_bound(name);
  if (it != sorted_.end() && entries_[*it].name == name) return *it;
  PageId id;
  if (free_.empty()) {
    id = static_cast<PageId>(entries_.size());
    entries_.push_back(Entry{std::string(name), 0});
  } else {
    id = free_.back();
    free_.pop_back();
    entries_[id].name = name;
  }
  sorted_.insert(it, id);
  return id;
}

void PageTable::release(PageId id) {
  Entry& e = entries_[id];
  GLOBE_DCHECK_MSG(e.holds > 0, "page id released more often than held");
  if (--e.holds > 0) return;
  sorted_.erase(lower_bound(e.name));
  std::string().swap(e.name);
  free_.push_back(id);
}

void PageTable::clear() {
  entries_.clear();
  sorted_.clear();
  free_.clear();
}

}  // namespace globe::web
