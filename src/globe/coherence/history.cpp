#include "globe/coherence/history.hpp"

#include <algorithm>
#include <set>

#include "globe/coherence/streaming.hpp"

namespace globe::coherence {

PageId History::intern(std::string_view name) {
  if (name.empty()) return kNoPage;
  auto it = page_ids_.find(name);
  if (it != page_ids_.end()) return it->second;
  const auto id = static_cast<PageId>(page_names_.size());
  page_names_.emplace_back(name);
  page_ids_.emplace(page_names_.back(), id);
  if (streaming_ != nullptr) streaming_->note_page(id, page_names_.back());
  return id;
}

void History::attach_streaming(StreamingChecker* checker) {
  streaming_ = checker;
  if (streaming_ == nullptr) return;
  // Replay the intern table so diagnostics for pages interned before the
  // attach render by name, not "#id".
  for (PageId id = 1; id < page_names_.size(); ++id) {
    streaming_->note_page(id, page_names_[id]);
  }
}

std::size_t History::note_horizon(const VectorClock& clock,
                                  std::uint64_t gseq) {
  if (streaming_ == nullptr) return 0;
  return streaming_->advance_horizon(clock, gseq);
}

std::string History::page_name(PageId id) const {
  if (id < page_names_.size()) return page_names_[id];
  return "#" + std::to_string(id);
}

void History::note_client_op(ClientId client, std::uint64_t op_index,
                             OpRef ref) {
  ClientIndex& idx = by_client_[client];
  // Strictly increasing indexes (the ClientBinding recorder always
  // produces them) mean record order IS program order with no ties, so
  // client_ops() can skip its sort. Equal or regressing indexes drop to
  // the sorting path, which also resolves tie ordering.
  if (idx.ops.empty() || op_index > idx.last_index) {
    idx.last_index = op_index;
  } else {
    idx.in_order = false;
  }
  idx.ops.push_back(ref);
}

void History::record_write(WriteEvent e) {
  if (streaming_ != nullptr) streaming_->record_write(e);
  if (!retain_events_) return;
  const auto pos = static_cast<std::uint32_t>(writes_.size());
  note_client_op(e.client, e.client_op_index, OpRef{pos, true});
  writes_.push_back(std::move(e));
}

void History::record_read(ReadEvent e) {
  if (streaming_ != nullptr) streaming_->record_read(e);
  if (!retain_events_) return;
  const auto pos = static_cast<std::uint32_t>(reads_.size());
  note_client_op(e.client, e.client_op_index, OpRef{pos, false});
  reads_.push_back(std::move(e));
}

void History::record_apply(ApplyEvent e) {
  if (streaming_ != nullptr) streaming_->record_apply(e);
  if (!retain_events_) return;
  by_store_[e.store].push_back(static_cast<std::uint32_t>(applies_.size()));
  applies_.push_back(std::move(e));
}

void History::clear() {
  writes_.clear();
  reads_.clear();
  applies_.clear();
  by_client_.clear();
  by_store_.clear();
  page_ids_.clear();
  page_names_.assign(1, std::string());
  // A reused recorder must behave exactly like a fresh one: the intern
  // table restarts at id 1, so the attached checker's mirror (and all
  // its event state) has to restart with it.
  if (streaming_ != nullptr) streaming_->reset();
}

// Deterministic program order: by client_op_index; operations sharing an
// index put writes before reads, ties within a kind keep record order
// (stable sort). Both the indexed and the naive assembly feed this.
void History::sort_ops(std::vector<ClientOp>& ops) {
  std::stable_sort(ops.begin(), ops.end(),
                   [](const ClientOp& a, const ClientOp& b) {
                     if (a.index() != b.index()) return a.index() < b.index();
                     return a.is_write && !b.is_write;
                   });
}

std::vector<History::ClientOp> History::client_ops(ClientId client) const {
  std::vector<ClientOp> ops;
  auto it = by_client_.find(client);
  if (it == by_client_.end()) return ops;
  ops.reserve(it->second.ops.size());
  for (const OpRef& ref : it->second.ops) {
    if (ref.is_write) {
      ops.push_back(ClientOp{true, &writes_[ref.pos], nullptr});
    } else {
      ops.push_back(ClientOp{false, nullptr, &reads_[ref.pos]});
    }
  }
  if (!it->second.in_order) sort_ops(ops);
  return ops;
}

std::vector<const ApplyEvent*> History::store_applies(StoreId store) const {
  std::vector<const ApplyEvent*> out;
  auto it = by_store_.find(store);
  if (it == by_store_.end()) return out;
  out.reserve(it->second.size());
  // The index is appended at record time, so it is already in
  // application (recording) order.
  for (std::uint32_t pos : it->second) out.push_back(&applies_[pos]);
  return out;
}

std::vector<StoreId> History::stores() const {
  std::vector<StoreId> ids;
  ids.reserve(by_store_.size());
  for (const auto& [id, _] : by_store_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<ClientId> History::clients() const {
  std::vector<ClientId> ids;
  ids.reserve(by_client_.size());
  for (const auto& [id, _] : by_client_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// -- Seed behaviour: full scans -----------------------------------------

std::vector<History::ClientOp> History::client_ops_naive(
    ClientId client) const {
  std::vector<ClientOp> ops;
  for (const auto& w : writes_) {
    if (w.client == client) ops.push_back(ClientOp{true, &w, nullptr});
  }
  for (const auto& r : reads_) {
    if (r.client == client) ops.push_back(ClientOp{false, nullptr, &r});
  }
  sort_ops(ops);
  return ops;
}

std::vector<const ApplyEvent*> History::store_applies_naive(
    StoreId store) const {
  std::vector<const ApplyEvent*> out;
  for (const auto& a : applies_) {
    if (a.store == store) out.push_back(&a);
  }
  // applies_ is already in application (recording) order.
  return out;
}

std::vector<StoreId> History::stores_naive() const {
  std::set<StoreId> ids;
  for (const auto& a : applies_) ids.insert(a.store);
  return {ids.begin(), ids.end()};
}

std::vector<ClientId> History::clients_naive() const {
  std::set<ClientId> ids;
  for (const auto& w : writes_) ids.insert(w.client);
  for (const auto& r : reads_) ids.insert(r.client);
  return {ids.begin(), ids.end()};
}

}  // namespace globe::coherence
