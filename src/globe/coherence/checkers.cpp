#include "globe/coherence/checkers.hpp"

#include <algorithm>

#include "globe/coherence/streaming.hpp"

namespace globe::coherence {

std::string CheckResult::summary(std::size_t max_lines) const {
  if (ok) {
    return "OK (" + std::to_string(events_checked) + " events checked)";
  }
  std::string out = std::to_string(violations.size()) + " violation(s):";
  for (std::size_t i = 0; i < violations.size() && i < max_lines; ++i) {
    out += "\n  " + violations[i];
  }
  if (violations.size() > max_lines) {
    out += "\n  ... (" + std::to_string(violations.size() - max_lines) +
           " more)";
  }
  return out;
}

namespace {

/// Feeds the retained events of `h` to `sc`: each client's writes and
/// reads in program order, then every apply in record order. Every
/// client therefore reaches the checker in order, so its eager verdicts
/// are the final ones; writes precede applies, so no writes-follow-reads
/// apply has to wait for its write event.
void replay(const History& h, StreamingChecker& sc) {
  sc.use_pages(&h.page_table());
  struct Op {
    ClientId client;
    std::uint64_t index;
    const WriteEvent* write;
    const ReadEvent* read;
  };
  std::vector<Op> ops;
  ops.reserve(h.writes().size() + h.reads().size());
  for (const WriteEvent& w : h.writes()) {
    ops.push_back({w.client, w.client_op_index, &w, nullptr});
  }
  for (const ReadEvent& r : h.reads()) {
    ops.push_back({r.client, r.client_op_index, nullptr, &r});
  }
  // Program order: by op index, writes before reads on a tie, record
  // order within a kind (stable sort over the record-order vectors).
  std::stable_sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
    if (a.client != b.client) return a.client < b.client;
    if (a.index != b.index) return a.index < b.index;
    return a.write != nullptr && b.write == nullptr;
  });
  for (const Op& op : ops) {
    if (op.write != nullptr) {
      sc.record_write(*op.write);
    } else {
      sc.record_read(*op.read, h.clock(op.read->store_clock));
    }
  }
  for (const ApplyEvent& a : h.applies()) sc.record_apply(a, h.clock(a.deps));
}

}  // namespace

CheckResult check_object_model(const History& h, ObjectModel model) {
  StreamingChecker sc(model);
  replay(h, sc);
  return sc.model_result();
}

std::vector<CheckResult> check_sessions(
    const History& h, const std::vector<SessionSpec>& specs) {
  // The model verdict is discarded. Any non-sequential model will do:
  // a sequential one would track every client's operations.
  StreamingChecker sc(ObjectModel::kEventual);
  for (const SessionSpec& spec : specs) sc.add_session(spec);
  replay(h, sc);
  return sc.session_results();
}

CheckResult check_pram(const History& h) {
  return check_object_model(h, ObjectModel::kPram);
}

CheckResult check_fifo_pram(const History& h) {
  return check_object_model(h, ObjectModel::kFifoPram);
}

CheckResult check_causal(const History& h) {
  return check_object_model(h, ObjectModel::kCausal);
}

CheckResult check_sequential(const History& h) {
  return check_object_model(h, ObjectModel::kSequential);
}

CheckResult check_eventual_delivery(const History& h) {
  return check_object_model(h, ObjectModel::kEventual);
}

CheckResult check_client_models(const History& h, ClientId client,
                                ClientModel models) {
  return check_sessions(h, {SessionSpec{client, models}}).front();
}

CheckResult check_monotonic_writes(const History& h, ClientId client) {
  return check_client_models(h, client, ClientModel::kMonotonicWrites);
}

CheckResult check_read_your_writes(const History& h, ClientId client) {
  return check_client_models(h, client, ClientModel::kReadYourWrites);
}

CheckResult check_monotonic_reads(const History& h, ClientId client) {
  return check_client_models(h, client, ClientModel::kMonotonicReads);
}

CheckResult check_writes_follow_reads(const History& h, ClientId client) {
  return check_client_models(h, client, ClientModel::kWritesFollowReads);
}

}  // namespace globe::coherence
