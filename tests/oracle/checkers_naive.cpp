// Seed checker implementations: the test-only oracle that the
// StreamingChecker, both live and as the post-hoc replay (checkers.cpp),
// is compared against. They answer every query through full scans of
// the History's event deques, so a per-client check rescans the whole
// event log — O(clients × events) across a session sweep. Kept verbatim
// from the seed apart from those scans moving out of History and apply
// clocks being read from its clock table.
#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "globe/coherence/models.hpp"
#include "oracle/checkers_naive.hpp"

namespace globe::coherence::naive {

// -- Full-scan views ------------------------------------------------------

// Deterministic program order: by client_op_index; operations sharing an
// index put writes before reads, ties within a kind keep record order
// (stable sort).
std::vector<ClientOp> client_ops(const History& h, ClientId client) {
  std::vector<ClientOp> ops;
  for (const auto& w : h.writes()) {
    if (w.client == client) ops.push_back(ClientOp{true, &w, nullptr});
  }
  for (const auto& r : h.reads()) {
    if (r.client == client) ops.push_back(ClientOp{false, nullptr, &r});
  }
  std::stable_sort(ops.begin(), ops.end(),
                   [](const ClientOp& a, const ClientOp& b) {
                     if (a.index() != b.index()) return a.index() < b.index();
                     return a.is_write && !b.is_write;
                   });
  return ops;
}

std::vector<const ApplyEvent*> store_applies(const History& h,
                                             StoreId store) {
  std::vector<const ApplyEvent*> out;
  for (const auto& a : h.applies()) {
    if (a.store == store) out.push_back(&a);
  }
  // applies() is already in application (recording) order.
  return out;
}

std::vector<StoreId> stores(const History& h) {
  std::set<StoreId> ids;
  for (const auto& a : h.applies()) ids.insert(a.store);
  return {ids.begin(), ids.end()};
}

std::vector<ClientId> clients(const History& h) {
  std::set<ClientId> ids;
  for (const auto& w : h.writes()) ids.insert(w.client);
  for (const auto& r : h.reads()) ids.insert(r.client);
  return {ids.begin(), ids.end()};
}

// -- Checkers -------------------------------------------------------------

namespace {

/// Shared core of the PRAM/FIFO checks: per store, per writer, applied
/// sequence numbers must be strictly increasing; when `contiguous`, every
/// write must be applied (no gaps).
CheckResult check_per_writer_order(const History& h, bool contiguous) {
  CheckResult res;
  for (StoreId store : stores(h)) {
    std::unordered_map<ClientId, std::uint64_t> last_seq;
    for (const ApplyEvent* a : store_applies(h, store)) {
      ++res.events_checked;
      if (a->from_snapshot) {
        for (const auto& [c, v] : h.clock(a->deps).entries()) {
          auto& cur = last_seq[c];
          cur = std::max(cur, v);
        }
        continue;
      }
      auto [it, inserted] = last_seq.try_emplace(a->wid.client, 0);
      const std::uint64_t prev = it->second;
      if (a->wid.seq <= prev) {
        res.fail("store " + std::to_string(store) + " applied " +
                 a->wid.str() + " after seq " + std::to_string(prev) +
                 " of the same writer (out of order)");
      } else if (contiguous && a->wid.seq != prev + 1) {
        res.fail("store " + std::to_string(store) + " applied " +
                 a->wid.str() + " with a gap (expected seq " +
                 std::to_string(prev + 1) + ")");
      }
      if (a->wid.seq > prev) it->second = a->wid.seq;
      (void)inserted;
    }
  }
  return res;
}

/// Verifies that apply order respects each write's dependency clock.
/// The seed rebuilt the write-event lookup on every call (and never
/// consulted it); kept as-is.
CheckResult check_dependencies_respected(
    const History& h, const std::set<WriteId>& only_these_writes,
    const char* label) {
  CheckResult res;
  std::unordered_map<WriteId, const WriteEvent*> by_wid;
  for (const auto& w : h.writes()) by_wid[w.wid] = &w;

  for (StoreId store : stores(h)) {
    VectorClock applied;
    for (const ApplyEvent* a : store_applies(h, store)) {
      ++res.events_checked;
      const VectorClock& deps = h.clock(a->deps);
      if (a->from_snapshot) {
        applied.merge(deps);
        continue;
      }
      const bool selected =
          only_these_writes.empty() || only_these_writes.count(a->wid) > 0;
      if (selected && !applied.dominates(deps)) {
        res.fail(std::string(label) + ": store " + std::to_string(store) +
                 " applied " + a->wid.str() + " with deps " + deps.str() +
                 " before those dependencies were applied (applied=" +
                 applied.str() + ")");
      }
      applied.observe(a->wid);
    }
  }
  return res;
}

}  // namespace

CheckResult check_pram(const History& h) {
  return check_per_writer_order(h, /*contiguous=*/true);
}

CheckResult check_fifo_pram(const History& h) {
  return check_per_writer_order(h, /*contiguous=*/false);
}

CheckResult check_causal(const History& h) {
  return check_dependencies_respected(h, {}, "causal");
}

CheckResult check_sequential(const History& h) {
  CheckResult res;

  // 1. One total order: each store applies strictly increasing,
  //    gap-free global sequence numbers mapping to unique writes.
  std::map<std::uint64_t, WriteId> order;  // global_seq -> wid
  for (StoreId store : stores(h)) {
    std::uint64_t prev = 0;
    for (const ApplyEvent* a : store_applies(h, store)) {
      ++res.events_checked;
      if (a->from_snapshot) {
        prev = std::max(prev, a->global_seq);
        continue;
      }
      if (a->global_seq == 0) {
        res.fail("sequential: store " + std::to_string(store) + " applied " +
                 a->wid.str() + " without a global sequence number");
        continue;
      }
      if (a->global_seq != prev + 1) {
        res.fail("sequential: store " + std::to_string(store) +
                 " applied global seq " + std::to_string(a->global_seq) +
                 " after " + std::to_string(prev) +
                 " (total order broken)");
      }
      prev = a->global_seq;
      auto [it, inserted] = order.try_emplace(a->global_seq, a->wid);
      if (!inserted && it->second != a->wid) {
        res.fail("sequential: global seq " + std::to_string(a->global_seq) +
                 " maps to both " + it->second.str() + " and " +
                 a->wid.str());
      }
    }
  }

  // 2. The total order must respect each client's program order of writes.
  {
    std::unordered_map<ClientId, std::uint64_t> last_gseq;
    std::vector<const WriteEvent*> writes;
    for (const auto& w : h.writes()) writes.push_back(&w);
    std::sort(writes.begin(), writes.end(),
              [](const WriteEvent* a, const WriteEvent* b) {
                if (a->client != b->client) return a->client < b->client;
                return a->client_op_index < b->client_op_index;
              });
    for (const WriteEvent* w : writes) {
      ++res.events_checked;
      if (w->global_seq == 0) continue;  // flagged above via applies
      auto& prev = last_gseq[w->client];
      if (w->global_seq <= prev) {
        res.fail("sequential: client " + std::to_string(w->client) +
                 " write " + w->wid.str() +
                 " ordered before its earlier write in the total order");
      }
      prev = w->global_seq;
    }
  }

  // 3. Reads: per client, observed global seq is nondecreasing and at
  //    least the client's own last write.
  for (ClientId c : clients(h)) {
    std::uint64_t floor = 0;
    for (const ClientOp& op : client_ops(h, c)) {
      ++res.events_checked;
      if (op.is_write) {
        if (op.write->global_seq > floor) floor = op.write->global_seq;
      } else {
        if (op.read->store_global_seq < floor) {
          res.fail("sequential: client " + std::to_string(c) +
                   " read at store " + std::to_string(op.read->store) +
                   " observed global seq " +
                   std::to_string(op.read->store_global_seq) +
                   " older than its floor " + std::to_string(floor));
        } else {
          floor = op.read->store_global_seq;
        }
      }
    }
  }
  return res;
}

CheckResult check_eventual_delivery(const History& h) {
  CheckResult res;
  const auto all_stores = stores(h);
  if (all_stores.empty()) return res;

  // After quiescence, every store's final applied write per page must
  // agree (full rationale in StreamingChecker::model_result).
  std::map<StoreId, std::map<PageId, WriteId>> final_write;
  for (StoreId store : all_stores) {
    auto& per_page = final_write[store];
    for (const ApplyEvent* a : store_applies(h, store)) {
      ++res.events_checked;
      if (a->from_snapshot) {
        per_page.clear();  // full-state transfer replaced everything
        continue;
      }
      per_page[a->page] = a->wid;  // later applies overwrite
    }
  }
  std::map<PageId, std::map<WriteId, std::vector<StoreId>>> by_page;
  for (const auto& [store, per_page] : final_write) {
    for (const auto& [page, wid] : per_page) {
      by_page[page][wid].push_back(store);
    }
  }
  for (const auto& [page, winners] : by_page) {
    if (winners.size() <= 1) continue;
    std::string what = "eventual: page '" + h.page_name(page) +
                       "' settled on different final writes:";
    for (const auto& [wid, who] : winners) {
      what += " " + wid.str() + "@stores{";
      for (std::size_t i = 0; i < who.size(); ++i) {
        what += (i != 0 ? "," : "") + std::to_string(who[i]);
      }
      what += "}";
    }
    res.fail(std::move(what));
  }
  return res;
}

CheckResult check_object_model(const History& h, ObjectModel model) {
  switch (model) {
    case ObjectModel::kSequential: return naive::check_sequential(h);
    case ObjectModel::kPram: return naive::check_pram(h);
    case ObjectModel::kFifoPram: return naive::check_fifo_pram(h);
    case ObjectModel::kCausal: return naive::check_causal(h);
    case ObjectModel::kEventual: return naive::check_eventual_delivery(h);
  }
  CheckResult res;
  res.fail("unknown object model");
  return res;
}

CheckResult check_monotonic_writes(const History& h, ClientId client) {
  CheckResult res;
  for (StoreId store : stores(h)) {
    std::uint64_t prev = 0;
    for (const ApplyEvent* a : store_applies(h, store)) {
      if (a->from_snapshot) {
        prev = std::max(prev, h.clock(a->deps).get(client));
        continue;
      }
      if (a->wid.client != client) continue;
      ++res.events_checked;
      if (a->wid.seq <= prev) {
        res.fail("MW: store " + std::to_string(store) + " applied " +
                 a->wid.str() + " after seq " + std::to_string(prev));
      } else {
        prev = a->wid.seq;
      }
    }
  }
  return res;
}

CheckResult check_read_your_writes(const History& h, ClientId client) {
  CheckResult res;
  std::uint64_t own_writes = 0;  // highest seq this client has written
  for (const ClientOp& op : client_ops(h, client)) {
    ++res.events_checked;
    if (op.is_write) {
      own_writes = std::max(own_writes, op.write->wid.seq);
      continue;
    }
    const VectorClock& store_clock = h.clock(op.read->store_clock);
    if (store_clock.get(client) < own_writes) {
      res.fail("RYW: client " + std::to_string(client) + " read at store " +
               std::to_string(op.read->store) + " saw clock " +
               store_clock.str() + " missing its own write seq " +
               std::to_string(own_writes));
    }
  }
  return res;
}

CheckResult check_monotonic_reads(const History& h, ClientId client) {
  CheckResult res;
  VectorClock seen;
  for (const ClientOp& op : client_ops(h, client)) {
    if (op.is_write) continue;
    ++res.events_checked;
    const VectorClock& store_clock = h.clock(op.read->store_clock);
    if (!store_clock.dominates(seen)) {
      res.fail("MR: client " + std::to_string(client) + " read at store " +
               std::to_string(op.read->store) + " saw clock " +
               store_clock.str() +
               " which does not dominate earlier read clock " + seen.str());
    }
    seen.merge(store_clock);
  }
  return res;
}

CheckResult check_writes_follow_reads(const History& h, ClientId client) {
  std::set<WriteId> own;
  for (const auto& w : h.writes()) {
    if (w.client == client) own.insert(w.wid);
  }
  if (own.empty()) return {};
  return check_dependencies_respected(h, own, "WFR");
}

CheckResult check_client_models(const History& h, ClientId client,
                                ClientModel models) {
  CheckResult res;
  if (has(models, ClientModel::kMonotonicWrites)) {
    res.merge(naive::check_monotonic_writes(h, client));
  }
  if (has(models, ClientModel::kReadYourWrites)) {
    res.merge(naive::check_read_your_writes(h, client));
  }
  if (has(models, ClientModel::kMonotonicReads)) {
    res.merge(naive::check_monotonic_reads(h, client));
  }
  if (has(models, ClientModel::kWritesFollowReads)) {
    res.merge(naive::check_writes_follow_reads(h, client));
  }
  return res;
}

}  // namespace globe::coherence::naive
