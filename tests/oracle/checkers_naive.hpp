// Test-only coherence oracle: the seed checker implementations.
//
// Every verdict libglobe returns comes from StreamingChecker, live
// (attached to a History) or as the post-hoc replay behind
// check_object_model / check_sessions. This oracle computes the same
// verdicts independently, by full scans of the History's event deques,
// so the equivalence suites can require identical results (ok flag,
// violation strings in order, events_checked) from both paths. Only the
// test executables link it.
#pragma once

#include <vector>

#include "globe/coherence/checkers.hpp"
#include "globe/coherence/history.hpp"
#include "globe/coherence/models.hpp"
#include "globe/util/ids.hpp"

namespace globe::coherence::naive {

// -- Full-scan views over writes(), reads() and applies() ---------------

/// One client operation (read or write), pointing into the History.
struct ClientOp {
  bool is_write = false;
  const WriteEvent* write = nullptr;
  const ReadEvent* read = nullptr;
  [[nodiscard]] std::uint64_t index() const {
    return is_write ? write->client_op_index : read->client_op_index;
  }
};

/// All operations of `client` in program order: by client_op_index,
/// writes before reads on a tie, record order within a kind.
std::vector<ClientOp> client_ops(const History& h, ClientId client);

/// Apply events of `store`, in application (record) order.
std::vector<const ApplyEvent*> store_applies(const History& h, StoreId store);

/// Ascending ids of the stores that applied at least one event.
std::vector<StoreId> stores(const History& h);

/// Ascending ids of the clients that performed at least one operation.
std::vector<ClientId> clients(const History& h);

// -- Checkers -------------------------------------------------------------

CheckResult check_pram(const History& h);
CheckResult check_fifo_pram(const History& h);
CheckResult check_causal(const History& h);
CheckResult check_sequential(const History& h);
CheckResult check_eventual_delivery(const History& h);
CheckResult check_object_model(const History& h, ObjectModel model);

CheckResult check_monotonic_writes(const History& h, ClientId client);
CheckResult check_read_your_writes(const History& h, ClientId client);
CheckResult check_monotonic_reads(const History& h, ClientId client);
CheckResult check_writes_follow_reads(const History& h, ClientId client);
CheckResult check_client_models(const History& h, ClientId client,
                                ClientModel models);

}  // namespace globe::coherence::naive
