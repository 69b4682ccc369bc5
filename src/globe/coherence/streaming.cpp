#include "globe/coherence/streaming.hpp"

#include <algorithm>
#include <utility>

namespace globe::coherence {

void StreamingChecker::add_session(const SessionSpec& spec) {
  const std::size_t i = specs_.size();
  specs_.push_back(spec);
  mw_violations_.emplace_back();
  wfr_violations_.emplace_back();
  mw_checked_.push_back(0);
  if (has(spec.models, ClientModel::kMonotonicWrites)) {
    mw_slot_.emplace(spec.client, i);
  }
  if (has(spec.models, ClientModel::kReadYourWrites)) {
    ryw_slot_.emplace(spec.client, i);
  }
  if (has(spec.models, ClientModel::kMonotonicReads)) {
    mr_slot_.emplace(spec.client, i);
  }
  if (has(spec.models, ClientModel::kWritesFollowReads)) {
    wfr_slot_.emplace(spec.client, i);
  }
}

std::string StreamingChecker::page_name(PageId id) const {
  if (pages_ != nullptr && id < pages_->bound()) return pages_->name(id);
  return "#" + std::to_string(id);
}

void StreamingChecker::retain(std::size_t n) {
  retained_ += n;
  retained_hwm_ = std::max(retained_hwm_, retained_);
}

bool StreamingChecker::wants_client_ops(ClientId client) const {
  return model_ == ObjectModel::kSequential ||
         ryw_slot_.find(client) != ryw_slot_.end() ||
         mr_slot_.find(client) != mr_slot_.end();
}

void StreamingChecker::note_op_order(ClientState& c, ClientId client,
                                     std::uint64_t op_index) {
  // Strictly increasing indexes mean record order is program order; an
  // equal or regressing index drops the client to the sorted re-check
  // path at assembly.
  if (!c.has_ops || op_index > c.last_index) {
    c.last_index = op_index;
  } else if (c.in_order) {
    c.in_order = false;
    // The re-check cannot reproduce ops a horizon already retired, and
    // RYW/MR re-checks need the read clocks the default mode does not
    // buffer.
    if (c.sealed) exact_ = false;
    if (!options_.buffer_clocks &&
        (ryw_slot_.find(client) != ryw_slot_.end() ||
         mr_slot_.find(client) != mr_slot_.end())) {
      exact_ = false;
    }
  }
  c.has_ops = true;
}

void StreamingChecker::check_client_write(ClientState& c, ClientId client,
                                          const OpSum& op) {
  ++c.op_count;
  ++c.write_count;
  c.own_writes = std::max(c.own_writes, op.wid.seq);  // RYW floor
  if (model_ == ObjectModel::kSequential) {
    if (op.gseq > c.seq_floor) c.seq_floor = op.gseq;  // part 3 floor
    if (op.gseq != 0) {  // part 2: program order of writes
      if (op.gseq <= c.last_gseq) {
        c.seq_write_violations.push_back(
            "sequential: client " + std::to_string(client) + " write " +
            op.wid.str() +
            " ordered before its earlier write in the total order");
        ++eager_violations_;
      }
      c.last_gseq = op.gseq;
    }
  }
}

void StreamingChecker::check_client_read(ClientState& c, ClientId client,
                                         const OpSum& op,
                                         const VectorClock& store_clock) {
  ++c.op_count;
  ++c.read_count;
  if (ryw_slot_.find(client) != ryw_slot_.end() &&
      store_clock.get(client) < c.own_writes) {
    c.ryw_violations.push_back(
        "RYW: client " + std::to_string(client) + " read at store " +
        std::to_string(op.store) + " saw clock " + store_clock.str() +
        " missing its own write seq " + std::to_string(c.own_writes));
    ++eager_violations_;
  }
  if (mr_slot_.find(client) != mr_slot_.end()) {
    if (!store_clock.dominates(c.seen)) {
      c.mr_violations.push_back(
          "MR: client " + std::to_string(client) + " read at store " +
          std::to_string(op.store) + " saw clock " + store_clock.str() +
          " which does not dominate earlier read clock " + c.seen.str());
      ++eager_violations_;
      c.seen.merge(store_clock);
    } else {
      // merge() with a dominating clock IS that clock; the assignment
      // reuses the vector's capacity on the hot path.
      c.seen = store_clock;
    }
  }
  if (model_ == ObjectModel::kSequential) {  // part 3: read floor
    if (op.gseq < c.seq_floor) {
      c.seq_read_violations.push_back(
          "sequential: client " + std::to_string(client) + " read at store " +
          std::to_string(op.store) + " observed global seq " +
          std::to_string(op.gseq) + " older than its floor " +
          std::to_string(c.seq_floor));
      ++eager_violations_;
    } else {
      c.seq_floor = op.gseq;
    }
  }
}

void StreamingChecker::record_write(const WriteEvent& e) {
  // WFR: the write's arrival activates its spec and resolves any applies
  // that pended on it (a store can apply a write before the accepting
  // client's ack is recorded). The pending entries carry the applied
  // clock each apply was checked against, so the verdict is identical to
  // the post-hoc walk that knows all writes up front.
  auto slot = wfr_slot_.find(e.client);
  if (slot != wfr_slot_.end()) {
    wfr_active_.insert(slot->second);
    auto [rec, inserted] = wfr_recorded_.emplace(e.wid, slot->second);
    (void)rec;
    if (inserted) {
      auto pend = wfr_pending_.find(e.wid);
      if (pend != wfr_pending_.end()) {
        for (const PendingWfr& p : pend->second) {
          if (!p.applied_before.dominates(p.deps)) {
            wfr_violations_[slot->second].push_back(
                {p.store, p.idx, 0,
                 "WFR: store " + std::to_string(p.store) + " applied " +
                     e.wid.str() + " with deps " + p.deps.str() +
                     " before those dependencies were applied (applied=" +
                     p.applied_before.str() + ")"});
            ++eager_violations_;
          }
        }
        retained_ -= pend->second.size();
        wfr_pending_.erase(pend);
      }
    }
  }

  if (!wants_client_ops(e.client)) return;
  ClientState& c = clients_[e.client];
  note_op_order(c, e.client, e.client_op_index);
  OpSum op;
  op.op_index = e.client_op_index;
  op.is_write = true;
  op.wid = e.wid;
  op.gseq = e.global_seq;
  check_client_write(c, e.client, op);
  c.buffer.push_back(std::move(op));
  retain(1);
}

void StreamingChecker::record_read(const ReadEvent& e,
                                   const VectorClock& store_clock) {
  if (!wants_client_ops(e.client)) return;
  ClientState& c = clients_[e.client];
  note_op_order(c, e.client, e.client_op_index);
  OpSum op;
  op.op_index = e.client_op_index;
  op.is_write = false;
  op.gseq = e.store_global_seq;
  op.store = e.store;
  check_client_read(c, e.client, op, store_clock);
  if (options_.buffer_clocks) op.store_clock = store_clock;
  c.buffer.push_back(std::move(op));
  retain(1);
}

void StreamingChecker::record_apply(const ApplyEvent& e,
                                    const VectorClock& deps) {
  ++total_applies_;
  StoreState& s = stores_[e.store];
  const std::uint64_t idx = s.apply_count++;
  ++model_checked_;

  switch (model_) {
    case ObjectModel::kPram:
    case ObjectModel::kFifoPram: {
      const bool contiguous = model_ == ObjectModel::kPram;
      if (e.from_snapshot) {
        for (const auto& [c, v] : deps.entries()) {
          auto& cur = s.writer_seq[c];
          cur = std::max(cur, v);
        }
        break;
      }
      auto [it, inserted] = s.writer_seq.try_emplace(e.wid.client, 0);
      const std::uint64_t prev = it->second;
      if (e.wid.seq <= prev) {
        s.model_violations.push_back(
            "store " + std::to_string(e.store) + " applied " + e.wid.str() +
            " after seq " + std::to_string(prev) +
            " of the same writer (out of order)");
        ++eager_violations_;
      } else if (contiguous && e.wid.seq != prev + 1) {
        s.model_violations.push_back(
            "store " + std::to_string(e.store) + " applied " + e.wid.str() +
            " with a gap (expected seq " + std::to_string(prev + 1) + ")");
        ++eager_violations_;
      }
      if (e.wid.seq > prev) it->second = e.wid.seq;
      (void)inserted;
      break;
    }
    case ObjectModel::kCausal: {
      if (e.from_snapshot) {
        s.applied.merge(deps);
        break;
      }
      if (!s.applied.dominates(deps)) {
        s.model_violations.push_back(
            "causal: store " + std::to_string(e.store) + " applied " +
            e.wid.str() + " with deps " + deps.str() +
            " before those dependencies were applied (applied=" +
            s.applied.str() + ")");
        ++eager_violations_;
      }
      s.applied.observe(e.wid);
      break;
    }
    case ObjectModel::kSequential: {
      if (e.from_snapshot) {
        s.prev_gseq = std::max(s.prev_gseq, e.global_seq);
        break;
      }
      if (e.global_seq == 0) {
        s.seq_violations.push_back(
            {e.store, idx, 0,
             "sequential: store " + std::to_string(e.store) + " applied " +
                 e.wid.str() + " without a global sequence number"});
        ++eager_violations_;
        break;
      }
      if (e.global_seq != s.prev_gseq + 1) {
        s.seq_violations.push_back(
            {e.store, idx, 0,
             "sequential: store " + std::to_string(e.store) +
                 " applied global seq " + std::to_string(e.global_seq) +
                 " after " + std::to_string(s.prev_gseq) +
                 " (total order broken)"});
        ++eager_violations_;
      }
      s.prev_gseq = e.global_seq;
      seq_claims_[e.global_seq].push_back(SeqClaim{e.store, idx, e.wid});
      retain(1);
      break;
    }
    case ObjectModel::kEventual: {
      if (e.from_snapshot) {
        s.final_write.clear();  // full-state transfer replaced everything
      } else {
        s.final_write[e.page] = e.wid;  // later applies overwrite
      }
      break;
    }
  }

  // Monotonic writes (session guarantee, store-order side).
  if (!mw_slot_.empty()) {
    if (e.from_snapshot) {
      for (const auto& [c, v] : deps.entries()) {
        if (mw_slot_.find(c) == mw_slot_.end()) continue;
        auto& cur = s.mw_prev[c];
        cur = std::max(cur, v);
      }
    } else {
      auto slot = mw_slot_.find(e.wid.client);
      if (slot != mw_slot_.end()) {
        ++mw_checked_[slot->second];
        auto& cur = s.mw_prev[e.wid.client];
        if (e.wid.seq <= cur) {
          mw_violations_[slot->second].push_back(
              {e.store, idx, 0,
               "MW: store " + std::to_string(e.store) + " applied " +
                   e.wid.str() + " after seq " + std::to_string(cur)});
          ++eager_violations_;
        } else {
          cur = e.wid.seq;
        }
      }
    }
  }

  // Writes-follow-reads (session guarantee, store-order side). The
  // running applied clock is maintained from the very first event: the
  // post-hoc walk covers the whole log, while flagged sessions may be
  // registered after early applies (seed writes, bootstrap snapshots)
  // have already shaped the store's clock.
  if (e.from_snapshot) {
    s.wfr_applied.merge(deps);
  } else {
    if (!wfr_slot_.empty()) {
      auto sel = wfr_recorded_.find(e.wid);
      if (sel != wfr_recorded_.end()) {
        if (!s.wfr_applied.dominates(deps)) {
          wfr_violations_[sel->second].push_back(
              {e.store, idx, 0,
               "WFR: store " + std::to_string(e.store) + " applied " +
                   e.wid.str() + " with deps " + deps.str() +
                   " before those dependencies were applied (applied=" +
                   s.wfr_applied.str() + ")"});
          ++eager_violations_;
        }
      } else if (wfr_slot_.find(e.wid.client) != wfr_slot_.end()) {
        PendingWfr p;
        p.store = e.store;
        p.idx = idx;
        p.deps = deps;
        p.applied_before = s.wfr_applied;
        wfr_pending_[e.wid].push_back(std::move(p));
        retain(1);
      }
    }
    s.wfr_applied.observe(e.wid);
  }
}

std::size_t StreamingChecker::advance_horizon(const VectorClock& clock,
                                              std::uint64_t gseq) {
  // Entry-wise monotonic: a stale or partial announcement (fresh joiner
  // with an empty clock) can stall the horizon but never regress it.
  VectorClock merged = horizon_;
  merged.merge(clock);
  bool advanced = false;
  if (merged.entries() != horizon_.entries()) {
    horizon_ = std::move(merged);
    advanced = true;
  }
  if (gseq > horizon_gseq_) {
    horizon_gseq_ = gseq;
    advanced = true;
  }
  if (!advanced) return 0;
  ++horizon_advances_;

  std::size_t retired = 0;

  // 1. Client op buffers: for in-order clients the eager verdicts are
  //    exact and the buffer is pure re-check insurance, so seal the
  //    eager state and drop the processed prefix.
  for (auto& [id, c] : clients_) {
    (void)id;
    if (!c.in_order || c.buffer.empty()) continue;
    c.sealed = true;
    c.seal_own_writes = c.own_writes;
    c.seal_seen = c.seen;
    c.seal_seq_floor = c.seq_floor;
    c.seal_last_gseq = c.last_gseq;
    c.seal_ryw = c.ryw_violations.size();
    c.seal_mr = c.mr_violations.size();
    c.seal_seq_read = c.seq_read_violations.size();
    c.seal_seq_write = c.seq_write_violations.size();
    retired += c.buffer.size();
    c.buffer.clear();
    c.buffer.shrink_to_fit();
  }

  // 2. Sequential total-order claims below the gseq floor: every live
  //    member has applied past them, so a future claim on the same gseq
  //    at a live store would already break its per-store monotonicity.
  //    Conflicting claims are kept for assembly.
  for (auto it = seq_claims_.begin();
       it != seq_claims_.end() && it->first <= horizon_gseq_;) {
    const auto& claims = it->second;
    const bool unanimous =
        std::all_of(claims.begin(), claims.end(),
                    [&](const SeqClaim& cl) { return cl.wid == claims.front().wid; });
    if (unanimous) {
      retired += claims.size();
      it = seq_claims_.erase(it);
    } else {
      ++it;
    }
  }

  // 3. WFR applies pending on a write the whole cluster already applied:
  //    the ack will never be recorded (crashed client), drop them.
  for (auto it = wfr_pending_.begin(); it != wfr_pending_.end();) {
    if (horizon_.covers(it->first)) {
      retired += it->second.size();
      it = wfr_pending_.erase(it);
    } else {
      ++it;
    }
  }

  retained_ -= retired;
  events_retired_ += retired;
  return retired;
}

void StreamingChecker::reset() {
  stores_.clear();
  clients_.clear();
  seq_claims_.clear();
  wfr_recorded_.clear();
  wfr_active_.clear();
  wfr_pending_.clear();
  total_applies_ = 0;
  for (auto& v : mw_violations_) v.clear();
  for (auto& v : wfr_violations_) v.clear();
  std::fill(mw_checked_.begin(), mw_checked_.end(), 0);
  model_checked_ = 0;
  horizon_ = VectorClock{};
  horizon_gseq_ = 0;
  horizon_advances_ = 0;
  retained_ = 0;
  retained_hwm_ = 0;
  events_retired_ = 0;
  eager_violations_ = 0;
  exact_ = true;
}

void StreamingChecker::sort_keyed(std::vector<KeyedViolation>& v) {
  std::stable_sort(v.begin(), v.end(),
                   [](const KeyedViolation& a, const KeyedViolation& b) {
                     if (a.store != b.store) return a.store < b.store;
                     if (a.idx != b.idx) return a.idx < b.idx;
                     return a.sub < b.sub;
                   });
}

StreamingChecker::ClientVerdicts StreamingChecker::client_verdicts(
    ClientId client) const {
  ClientVerdicts v;
  auto cit = clients_.find(client);
  if (cit == clients_.end()) return v;
  const ClientState& c = cit->second;
  v.op_count = c.op_count;
  v.read_count = c.read_count;
  v.write_count = c.write_count;
  if (c.in_order) {
    v.ryw = c.ryw_violations;
    v.mr = c.mr_violations;
    v.seq_read = c.seq_read_violations;
    v.seq_write = c.seq_write_violations;
    return v;
  }

  // Out-of-order client: re-run the per-client sweeps over the buffered
  // suffix in program order (by op index, writes before reads on ties,
  // record order within a kind), seeded with the state sealed at the
  // last horizon (defaults if never sealed). exact() reports whether
  // this path had everything it needed.
  std::vector<const OpSum*> ops;
  ops.reserve(c.buffer.size());
  for (const OpSum& o : c.buffer) ops.push_back(&o);
  std::stable_sort(ops.begin(), ops.end(),
                   [](const OpSum* a, const OpSum* b) {
                     if (a->op_index != b->op_index) {
                       return a->op_index < b->op_index;
                     }
                     return a->is_write && !b->is_write;
                   });
  const bool sealed = c.sealed;
  const auto prefix = [&](const std::vector<std::string>& src,
                          std::size_t n) {
    return std::vector<std::string>(src.begin(),
                                    src.begin() + static_cast<std::ptrdiff_t>(
                                                      sealed ? n : 0));
  };

  if (model_ == ObjectModel::kSequential) {
    // Part 2: total order vs the client's program order of writes. The
    // post-hoc sort's tie order among equal write op-indexes is
    // unspecified; record order is used here.
    v.seq_write = prefix(c.seq_write_violations, c.seal_seq_write);
    std::uint64_t prev = sealed ? c.seal_last_gseq : 0;
    for (const OpSum* o : ops) {
      if (!o->is_write || o->gseq == 0) continue;
      if (o->gseq <= prev) {
        v.seq_write.push_back(
            "sequential: client " + std::to_string(client) + " write " +
            o->wid.str() +
            " ordered before its earlier write in the total order");
      }
      prev = o->gseq;
    }
    // Part 3: observed global seqs vs the client's floor.
    v.seq_read = prefix(c.seq_read_violations, c.seal_seq_read);
    std::uint64_t floor = sealed ? c.seal_seq_floor : 0;
    for (const OpSum* o : ops) {
      if (o->is_write) {
        if (o->gseq > floor) floor = o->gseq;
      } else if (o->gseq < floor) {
        v.seq_read.push_back(
            "sequential: client " + std::to_string(client) +
            " read at store " + std::to_string(o->store) +
            " observed global seq " + std::to_string(o->gseq) +
            " older than its floor " + std::to_string(floor));
      } else {
        floor = o->gseq;
      }
    }
  }

  const bool want_ryw = ryw_slot_.find(client) != ryw_slot_.end();
  const bool want_mr = mr_slot_.find(client) != mr_slot_.end();
  if ((want_ryw || want_mr) && options_.buffer_clocks) {
    v.ryw = prefix(c.ryw_violations, c.seal_ryw);
    v.mr = prefix(c.mr_violations, c.seal_mr);
    std::uint64_t own = sealed ? c.seal_own_writes : 0;
    VectorClock seen = sealed ? c.seal_seen : VectorClock{};
    for (const OpSum* o : ops) {
      if (o->is_write) {
        own = std::max(own, o->wid.seq);
        continue;
      }
      if (want_ryw && o->store_clock.get(client) < own) {
        v.ryw.push_back("RYW: client " + std::to_string(client) +
                        " read at store " + std::to_string(o->store) +
                        " saw clock " + o->store_clock.str() +
                        " missing its own write seq " + std::to_string(own));
      }
      if (want_mr) {
        if (!o->store_clock.dominates(seen)) {
          v.mr.push_back("MR: client " + std::to_string(client) +
                         " read at store " + std::to_string(o->store) +
                         " saw clock " + o->store_clock.str() +
                         " which does not dominate earlier read clock " +
                         seen.str());
        }
        seen.merge(o->store_clock);
      }
    }
  } else if (want_ryw || want_mr) {
    // No buffered clocks: fall back to the eager (record-order) results;
    // exact() is already false for this history.
    v.ryw = c.ryw_violations;
    v.mr = c.mr_violations;
  }
  return v;
}

CheckResult StreamingChecker::model_result() const {
  CheckResult res;
  switch (model_) {
    case ObjectModel::kPram:
    case ObjectModel::kFifoPram:
    case ObjectModel::kCausal: {
      res.events_checked = model_checked_;
      for (const auto& [store, s] : stores_) {
        (void)store;
        for (const std::string& what : s.model_violations) res.fail(what);
      }
      break;
    }
    case ObjectModel::kSequential: {
      // Part 1: per-store order plus the cross-store total-order claim
      // resolution. The canonical WriteId for a gseq is the first claim
      // in the post-hoc walk order (store ascending, apply order);
      // conflicting later claims emit at their own apply position.
      res.events_checked = model_checked_;
      std::map<StoreId, std::vector<KeyedViolation>> resolved;
      for (const auto& [gseq, claims] : seq_claims_) {
        if (claims.size() <= 1) continue;
        std::vector<SeqClaim> sorted = claims;
        std::stable_sort(sorted.begin(), sorted.end(),
                         [](const SeqClaim& a, const SeqClaim& b) {
                           if (a.store != b.store) return a.store < b.store;
                           return a.idx < b.idx;
                         });
        const WriteId canonical = sorted.front().wid;
        for (std::size_t i = 1; i < sorted.size(); ++i) {
          if (sorted[i].wid == canonical) continue;
          resolved[sorted[i].store].push_back(
              {sorted[i].store, sorted[i].idx, 1,
               "sequential: global seq " + std::to_string(gseq) +
                   " maps to both " + canonical.str() + " and " +
                   sorted[i].wid.str()});
        }
      }
      for (const auto& [store, s] : stores_) {
        std::vector<KeyedViolation> merged = s.seq_violations;
        auto rit = resolved.find(store);
        if (rit != resolved.end()) {
          merged.insert(merged.end(), rit->second.begin(), rit->second.end());
          sort_keyed(merged);
        }
        for (KeyedViolation& kv : merged) res.fail(std::move(kv.what));
      }
      // Parts 2 and 3, per client ascending.
      std::vector<ClientId> cids;
      cids.reserve(clients_.size());
      for (const auto& [cid, cs] : clients_) {
        (void)cs;
        cids.push_back(cid);
      }
      std::sort(cids.begin(), cids.end());
      std::vector<ClientVerdicts> verdicts;
      verdicts.reserve(cids.size());
      for (ClientId cid : cids) verdicts.push_back(client_verdicts(cid));
      for (const ClientVerdicts& cv : verdicts) {
        res.events_checked += cv.write_count;
        for (const std::string& what : cv.seq_write) res.fail(what);
      }
      for (const ClientVerdicts& cv : verdicts) {
        res.events_checked += cv.op_count;
        for (const std::string& what : cv.seq_read) res.fail(what);
      }
      break;
    }
    case ObjectModel::kEventual: {
      // Under eventual coherence (last-writer-wins), a record that loses
      // the conflict at one replica is legitimately never applied
      // downstream of it; what must agree after quiescence is each
      // page's *final* applied write. Apply events are recorded only for
      // state-changing applications, so the last apply per (store, page)
      // is that store's final content for the page. Stores that received
      // the page only via snapshot transfer record no applies and are
      // vacuously consistent here (Testbed::converged() compares full
      // states).
      if (stores_.empty()) break;
      res.events_checked = model_checked_;
      std::map<PageId, std::map<WriteId, std::vector<StoreId>>> by_page;
      for (const auto& [store, s] : stores_) {
        for (const auto& [page, wid] : s.final_write) {
          by_page[page][wid].push_back(store);
        }
      }
      for (const auto& [page, winners] : by_page) {
        if (winners.size() <= 1) continue;
        std::string what = "eventual: page '" + page_name(page) +
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
      break;
    }
  }
  return res;
}

std::vector<CheckResult> StreamingChecker::session_results() const {
  std::vector<CheckResult> out(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const SessionSpec& spec = specs_[i];
    CheckResult mw, ryw, mr, wfr;
    if (has(spec.models, ClientModel::kMonotonicWrites)) {
      mw.events_checked = mw_checked_[i];
      std::vector<KeyedViolation> keyed = mw_violations_[i];
      sort_keyed(keyed);
      for (KeyedViolation& kv : keyed) mw.fail(std::move(kv.what));
    }
    const bool want_ryw = has(spec.models, ClientModel::kReadYourWrites);
    const bool want_mr = has(spec.models, ClientModel::kMonotonicReads);
    if (want_ryw || want_mr) {
      const ClientVerdicts v = client_verdicts(spec.client);
      if (want_ryw) {
        ryw.events_checked = v.op_count;
        for (const std::string& what : v.ryw) ryw.fail(what);
      }
      if (want_mr) {
        mr.events_checked = v.read_count;
        for (const std::string& what : v.mr) mr.fail(what);
      }
    }
    if (has(spec.models, ClientModel::kWritesFollowReads) &&
        wfr_active_.find(i) != wfr_active_.end()) {
      wfr.events_checked = total_applies_;
      std::vector<KeyedViolation> keyed = wfr_violations_[i];
      sort_keyed(keyed);
      for (KeyedViolation& kv : keyed) wfr.fail(std::move(kv.what));
    }
    out[i].merge(mw);
    out[i].merge(ryw);
    out[i].merge(mr);
    out[i].merge(wfr);
  }
  return out;
}

}  // namespace globe::coherence
