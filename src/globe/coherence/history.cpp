#include "globe/coherence/history.hpp"

#include "globe/coherence/streaming.hpp"

namespace globe::coherence {

namespace {

// hash_combine over the sorted (client, seq) entries.
std::size_t hash_of(const VectorClock& clock) {
  std::size_t h = clock.size();
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  };
  for (const auto& [client, seq] : clock.entries()) {
    mix(client);
    mix(seq);
  }
  return h;
}

}  // namespace

History::History() { pages_.intern(""); }

void History::attach_streaming(StreamingChecker* checker) {
  streaming_ = checker;
  if (streaming_ != nullptr) streaming_->use_pages(&pages_);
}

std::size_t History::note_horizon(const VectorClock& clock,
                                  std::uint64_t gseq) {
  if (streaming_ == nullptr) return 0;
  return streaming_->advance_horizon(clock, gseq);
}

std::string History::page_name(PageId id) const {
  if (id < pages_.bound()) return pages_.name(id);
  return "#" + std::to_string(id);
}

void History::record_write(WriteEvent e) {
  if (streaming_ != nullptr) streaming_->record_write(e);
  if (retain_events_) writes_.push_back(e);
}

void History::record_read(ReadEvent e, const VectorClock& store_clock) {
  if (streaming_ != nullptr) streaming_->record_read(e, store_clock);
  if (!retain_events_) return;
  e.store_clock = intern_clock(store_clock);
  reads_.push_back(e);
}

void History::record_apply(ApplyEvent e, const VectorClock& deps) {
  if (streaming_ != nullptr) streaming_->record_apply(e, deps);
  if (!retain_events_) return;
  e.deps = intern_clock(deps);
  applies_.push_back(e);
}

ClockId History::intern_clock(const VectorClock& clock) {
  if (clock.empty()) return kEmptyClock;
  const std::size_t h = hash_of(clock);
  const auto [first, last] = clock_ids_.equal_range(h);
  for (auto it = first; it != last; ++it) {
    if (clocks_[it->second] == clock) return it->second;
  }
  const auto id = static_cast<ClockId>(clocks_.size());
  clocks_.push_back(clock);
  clock_ids_.emplace(h, id);
  return id;
}

void History::clear() {
  writes_.clear();
  reads_.clear();
  applies_.clear();
  pages_.clear();
  pages_.intern("");
  clocks_.assign(1, VectorClock());
  clock_ids_.clear();
  // A reused recorder must behave exactly like a fresh one: the intern
  // tables restart at id 1, so the attached checker's event state has
  // to restart with them.
  if (streaming_ != nullptr) streaming_->reset();
}

}  // namespace globe::coherence
