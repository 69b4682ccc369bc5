// Streaming (check-as-you-record) coherence verification.
//
// This class is the one implementation of the verdict rules. Attached
// to a History it checks a run while it records, so a soak need not
// retain its events; the post-hoc checkers (checkers.hpp) replay a
// retained History through a fresh instance. Every check that only
// needs running state (per-writer sequence floors, per-store applied
// clocks, session read floors) is evaluated at the violating event, and
// the few facts that genuinely need cross-event context are retained in
// small side buffers that a cluster-wide *stability horizon*
// (advance_horizon) retires as the run progresses. Retained-event memory
// is therefore bounded by the horizon lag, not the run length — the
// high-watermark counter proves it.
//
// Verdict equivalence: model_result() / session_results() assemble
// CheckResults that are byte-identical — violation strings, order, and
// events_checked — to the seed checkers over the same events. The
// equivalence suites compare both the live path and the replay with
// that seed code, kept as a test-only oracle (tests/oracle/); the bench
// soak section compares the live verdicts with the replay.
//
// What must be retained, and why:
//   * sequential, total-order agreement: which WriteId each global seq
//     maps to is claimed by applies at different stores at different
//     times; claims are kept per gseq and resolved at assembly. The
//     horizon retires unanimous claims below its gseq floor (a
//     post-retirement conflicting claim would still trip the per-store
//     strict-monotonicity check).
//   * writes-follow-reads: a store can apply a write before the
//     accepting client's ack is recorded, so applies of a flagged
//     client's not-yet-recorded writes pend (with the applied-clock they
//     were checked against) until the write event arrives. The horizon
//     drops pending entries whose write is covered cluster-wide.
//   * per-client op summaries: program order is normally record order
//     (strictly increasing op indexes — the ClientBinding recorder
//     guarantees it); compact summaries are buffered so that a client
//     that falls out of order can be re-checked in program order at
//     assembly (by op index, writes before reads on a tie, record order
//     within a kind). The post-hoc replay feeds every client already in
//     that order, so its eager verdicts are final. The horizon retires
//     the processed in-order prefix. Re-checks that need read clocks
//     (RYW/MR) are only exact with Options::buffer_clocks; without it an
//     out-of-order RYW/MR client marks the checker inexact (exact()).
//
// Sessions must be registered (add_session) before the client's first
// event; events of unregistered clients are checked against the object
// model only, matching check_sessions' spec semantics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "globe/coherence/checkers.hpp"
#include "globe/coherence/history.hpp"
#include "globe/coherence/models.hpp"
#include "globe/coherence/vector_clock.hpp"
#include "globe/util/ids.hpp"

namespace globe::coherence {

class StreamingChecker {
 public:
  struct Options {
    /// Buffer read store-clocks so RYW/MR stay exact even for clients
    /// whose ops complete out of program order. A recorded run is in
    /// order only while no request is retried: with client timeouts and
    /// retries (any deployment with faults) a retried op completes after
    /// later ones, so such deployments set this (the bench_scale and
    /// bench/e2e soaks do). Off, the hot path makes no per-read clock
    /// copies, and an out-of-order RYW/MR client marks the checker
    /// inexact instead.
    bool buffer_clocks = false;
  };

  explicit StreamingChecker(ObjectModel model)
      : StreamingChecker(model, Options{}) {}
  StreamingChecker(ObjectModel model, Options options)
      : model_(model), options_(options) {}

  /// Registers one client's session guarantees (at most one spec per
  /// client, before that client's first event).
  void add_session(const SessionSpec& spec);

  /// The page table assembled diagnostics name pages from: the
  /// History's, shared on attach and by the replay. Without one, pages
  /// render as "#<id>".
  void use_pages(const web::PageTable* pages) { pages_ = pages; }

  void record_write(const WriteEvent& e);
  /// `store_clock` is the serving store's applied clock; the event's own
  /// `store_clock` id is not read, so live and replayed events are
  /// judged alike.
  void record_read(const ReadEvent& e, const VectorClock& store_clock);
  /// `deps` is the clock the apply was made with; the event's own `deps`
  /// id is not read, so live and replayed events are judged alike.
  void record_apply(const ApplyEvent& e, const VectorClock& deps);

  /// Advances the cluster-wide stability horizon (monotonic: regressions
  /// are ignored entry-wise) and retires every buffered fact it
  /// discharges. Returns the number of retained entries retired.
  std::size_t advance_horizon(const VectorClock& clock, std::uint64_t gseq);

  /// Drops all event-derived state (buffers, horizon, counters) but
  /// keeps the model, the registered sessions and the page table — the
  /// History::clear() companion.
  void reset();

  /// Assembles the object-model verdict over everything recorded so far;
  /// identical to check_object_model() on the same stream.
  [[nodiscard]] CheckResult model_result() const;

  /// Assembles per-spec session verdicts in registration order;
  /// identical to check_sessions() with the same specs.
  [[nodiscard]] std::vector<CheckResult> session_results() const;

  /// Violations detected eagerly so far (at the violating event). For
  /// in-order clients this matches the assembled totals; assembly-time
  /// resolutions (total-order claim conflicts) are not included.
  [[nodiscard]] std::size_t violations_so_far() const { return eager_violations_; }

  /// Currently buffered retained entries (claims, pending WFR applies,
  /// client op summaries) and the run's high watermark.
  [[nodiscard]] std::size_t retained_events() const { return retained_; }
  [[nodiscard]] std::size_t retained_high_watermark() const {
    return retained_hwm_;
  }
  [[nodiscard]] std::uint64_t events_retired() const { return events_retired_; }
  [[nodiscard]] std::uint64_t horizon_advances() const {
    return horizon_advances_;
  }

  /// False when an out-of-order client forced a re-check the buffers
  /// could not reproduce exactly (see Options::buffer_clocks).
  [[nodiscard]] bool exact() const { return exact_; }

  [[nodiscard]] ObjectModel model() const { return model_; }
  [[nodiscard]] const std::vector<SessionSpec>& sessions() const {
    return specs_;
  }
  [[nodiscard]] const VectorClock& horizon() const { return horizon_; }
  [[nodiscard]] std::uint64_t horizon_gseq() const { return horizon_gseq_; }

 private:
  // A violation pinned to its position in the post-hoc walk order:
  // (store ascending, per-store apply index, intra-apply emit order).
  struct KeyedViolation {
    StoreId store = 0;
    std::uint64_t idx = 0;
    int sub = 0;
    std::string what;
  };
  static void sort_keyed(std::vector<KeyedViolation>& v);

  // Per-store running model state (created on the store's first apply,
  // so the key set is every store that applied an event).
  struct StoreState {
    std::uint64_t apply_count = 0;  // per-store apply index
    // PRAM / FIFO-PRAM: per-writer applied floors.
    std::unordered_map<ClientId, std::uint64_t> writer_seq;
    // Causal: the store's running applied clock.
    VectorClock applied;
    // Sequential part 1: previous global seq.
    std::uint64_t prev_gseq = 0;
    // Eventual: final applied write per page (cleared by snapshots).
    std::map<PageId, WriteId> final_write;
    // Monotonic writes: per flagged-client applied floors.
    std::unordered_map<ClientId, std::uint64_t> mw_prev;
    // Writes-follow-reads: the store's running applied clock (kept
    // separate from `applied` so the model and session checks stay
    // independent).
    VectorClock wfr_applied;
    // Eagerly detected model violations, in apply order. Sequential
    // stores keyed entries (assembly interleaves claim conflicts).
    std::vector<std::string> model_violations;
    std::vector<KeyedViolation> seq_violations;
  };

  // Sequential total order: every (store, apply) that claimed a gseq.
  struct SeqClaim {
    StoreId store = 0;
    std::uint64_t idx = 0;
    WriteId wid;
  };

  // Writes-follow-reads apply seen before its write event.
  struct PendingWfr {
    StoreId store = 0;
    std::uint64_t idx = 0;
    VectorClock deps;
    VectorClock applied_before;
  };

  // Compact client op summary for the out-of-order re-check path.
  struct OpSum {
    std::uint64_t op_index = 0;
    bool is_write = false;
    WriteId wid;              // writes
    std::uint64_t gseq = 0;   // write global_seq / read store_global_seq
    StoreId store = 0;        // reads
    VectorClock store_clock;  // reads, Options::buffer_clocks only
  };

  struct ClientState {
    // Program-order bookkeeping: in order while op indexes strictly
    // increase.
    bool in_order = true;
    bool has_ops = false;
    std::uint64_t last_index = 0;
    // Buffered summaries since the last horizon seal (record order).
    std::vector<OpSum> buffer;
    bool sealed = false;  // a horizon retired a processed prefix

    // Eager per-client state and results.
    std::size_t op_count = 0;    // RYW events_checked / seq part 3
    std::size_t read_count = 0;  // MR events_checked
    std::size_t write_count = 0;  // seq part 2 events_checked
    std::uint64_t own_writes = 0;       // RYW floor
    VectorClock seen;                   // MR floor
    std::uint64_t seq_floor = 0;        // sequential part 3 floor
    std::uint64_t last_gseq = 0;        // sequential part 2 floor
    std::vector<std::string> ryw_violations;
    std::vector<std::string> mr_violations;
    std::vector<std::string> seq_read_violations;   // part 3
    std::vector<std::string> seq_write_violations;  // part 2

    // Snapshot of the eager state at the seal point, seeding a re-check
    // of the retained suffix if the client later falls out of order.
    std::uint64_t seal_own_writes = 0;
    VectorClock seal_seen;
    std::uint64_t seal_seq_floor = 0;
    std::uint64_t seal_last_gseq = 0;
    std::size_t seal_ryw = 0, seal_mr = 0, seal_seq_read = 0,
                seal_seq_write = 0;  // violation prefix lengths
  };

  void note_op_order(ClientState& c, ClientId client, std::uint64_t op_index);
  void check_client_read(ClientState& c, ClientId client, const OpSum& op,
                         const VectorClock& store_clock);
  void check_client_write(ClientState& c, ClientId client, const OpSum& op);
  [[nodiscard]] bool wants_client_ops(ClientId client) const;
  [[nodiscard]] std::string page_name(PageId id) const;
  void retain(std::size_t n);

  // Re-checks an out-of-order client from its seal seeds over the
  // stable-sorted buffer, producing post-hoc-ordered results.
  struct ClientVerdicts {
    std::vector<std::string> ryw, mr, seq_read, seq_write;
    std::size_t op_count = 0, read_count = 0, write_count = 0;
  };
  [[nodiscard]] ClientVerdicts client_verdicts(ClientId client) const;

  ObjectModel model_;
  Options options_;
  std::vector<SessionSpec> specs_;
  std::unordered_map<ClientId, std::size_t> mw_slot_;
  std::unordered_map<ClientId, std::size_t> ryw_slot_;
  std::unordered_map<ClientId, std::size_t> mr_slot_;
  std::unordered_map<ClientId, std::size_t> wfr_slot_;

  const web::PageTable* pages_ = nullptr;

  std::map<StoreId, StoreState> stores_;
  std::unordered_map<ClientId, ClientState> clients_;

  // Sequential total order claims: gseq -> claiming applies.
  std::map<std::uint64_t, std::vector<SeqClaim>> seq_claims_;

  // WFR: flagged clients' recorded writes, actives, pending applies.
  std::unordered_map<WriteId, std::size_t> wfr_recorded_;  // wid -> spec
  std::unordered_set<std::size_t> wfr_active_;
  std::unordered_map<WriteId, std::vector<PendingWfr>> wfr_pending_;
  std::size_t total_applies_ = 0;

  // Eager per-spec session results (violations keyed for assembly).
  std::vector<std::vector<KeyedViolation>> mw_violations_;   // per spec
  std::vector<std::vector<KeyedViolation>> wfr_violations_;  // per spec
  std::vector<std::size_t> mw_checked_;                      // per spec

  std::size_t model_checked_ = 0;  // applies walked by the model check

  VectorClock horizon_;
  std::uint64_t horizon_gseq_ = 0;
  std::uint64_t horizon_advances_ = 0;

  std::size_t retained_ = 0;
  std::size_t retained_hwm_ = 0;
  std::uint64_t events_retired_ = 0;
  std::size_t eager_violations_ = 0;
  bool exact_ = true;
};

}  // namespace globe::coherence
