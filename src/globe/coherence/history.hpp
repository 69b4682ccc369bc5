// Operation histories.
//
// When a History recorder is attached to the runtime, every client
// operation and every store-level write application is recorded. The
// checkers (checkers.hpp) then verify that a recorded execution satisfies
// the coherence model the object was configured with. This is how the
// test suite demonstrates — rather than assumes — that each replication
// strategy implements its advertised model.
//
// A History only records: three event deques in record order, plus one
// page table (web::PageTable, the type a replica uses) and one clock
// table. Recording is on the hot path of every simulated operation, so
// events carry an interned PageId instead of a std::string per event,
// and apply and read events an interned ClockId instead of their own
// copy of a clock: a write applied at 125 stores is one clock, not 125,
// and reads served by a store between two applies share one. Clocks are
// interned by value, not by write id, because one write reaches stores
// with different clocks (a pushed record carries its deps, a cutover
// state record none, a snapshot event the store's whole applied clock).
// The History's page ids are its own, not any replica's: replicas meet
// pages in different orders. The checkers replay these events through a
// StreamingChecker (streaming.hpp), which keeps whatever per-client and
// per-store state a verdict needs and reads page names from the
// History's table.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "globe/coherence/vector_clock.hpp"
#include "globe/coherence/write_id.hpp"
#include "globe/util/assert.hpp"
#include "globe/util/ids.hpp"
#include "globe/util/time.hpp"
#include "globe/web/page_table.hpp"

namespace globe::coherence {

class StreamingChecker;

using util::SimTime;

/// Interned page name. Id 0 (`kNoPage`) is the empty name, used by
/// events that carry no page (e.g. snapshot applies).
using PageId = web::PageId;
inline constexpr PageId kNoPage = 0;

/// Interned clock. Id 0 (`kEmptyClock`) is the empty clock.
using ClockId = std::uint32_t;
inline constexpr ClockId kEmptyClock = 0;

/// A client completed a write (it was accepted by the store it is bound
/// to, or by the primary on its behalf).
struct WriteEvent {
  SimTime at{};
  std::uint64_t client_op_index = 0;  // program order within the client
  ClientId client = 0;
  WriteId wid;
  PageId page = kNoPage;
  std::uint64_t global_seq = 0;  // primary-assigned total order (0 if none)
};

/// A client completed a read. A read is recorded with the serving
/// store's applied clock; a retained event names it by `store_clock`,
/// an id into the History's clock table (History::clock).
struct ReadEvent {
  SimTime at{};
  std::uint64_t client_op_index = 0;
  ClientId client = 0;
  StoreId store = kInvalidStore;  // store that served the read
  PageId page = kNoPage;
  ClockId store_clock = kEmptyClock;
  std::uint64_t store_global_seq = 0;
};

/// A store applied a write record to its replica — or, when
/// `from_snapshot` is set, initialized/replaced its state from a
/// full-state transfer. An apply is recorded with a clock: the record's
/// dependency clock, or for a snapshot event the snapshot's clock (its
/// total-order position goes in `global_seq`). Checkers fold snapshots
/// into the store's applied state so that replicas joining late
/// (Subscribe -> SubscribeAck) are judged from their true baseline.
/// A retained event names its clock by `deps`, an id into the History's
/// clock table (History::clock). The fields are ordered so that the
/// event packs into 48 bytes.
struct ApplyEvent {
  SimTime at{};
  WriteId wid;
  std::uint64_t global_seq = 0;
  StoreId store = kInvalidStore;
  PageId page = kNoPage;
  ClockId deps = kEmptyClock;
  bool from_snapshot = false;
};
static_assert(sizeof(ApplyEvent) == 48);

class History {
 public:
  History();

  /// Interns `name`, returning its stable PageId. The empty name is
  /// always `kNoPage`.
  PageId intern(std::string_view name) { return pages_.intern(name); }

  /// Resolves an interned id back to its name ("#<id>" for ids this
  /// History never handed out, so diagnostics on hand-built events
  /// still render).
  [[nodiscard]] std::string page_name(PageId id) const;

  [[nodiscard]] std::size_t pages_interned() const { return pages_.size(); }

  /// The page table, which an attached or replaying checker shares.
  [[nodiscard]] const web::PageTable& page_table() const { return pages_; }

  void record_write(WriteEvent e);
  /// Records a read with the serving store's applied clock, and an
  /// apply with the clock it was made with (see ApplyEvent). A retained
  /// event gets the clock's id (`store_clock`, `deps`); with retention
  /// off the clock goes to the attached checker only and nothing is
  /// interned.
  void record_read(ReadEvent e, const VectorClock& store_clock);
  void record_apply(ApplyEvent e, const VectorClock& deps);

  /// The clock a retained event's `deps` or `store_clock` names. Equal
  /// clocks share one id, and `kEmptyClock` is the empty clock.
  [[nodiscard]] const VectorClock& clock(ClockId id) const {
    GLOBE_DCHECK_MSG(id < clocks_.size(),
                     "a clock id this History never handed out");
    return clocks_[id];
  }

  [[nodiscard]] std::size_t clocks_interned() const { return clocks_.size(); }

  /// Attaches a streaming checker that is fed every event as it is
  /// recorded and reads page names from this History's table, so late
  /// attachment renders diagnostics identically. Pass nullptr to
  /// detach. The checker must outlive the History or be detached first,
  /// and the History must outlive the checker's verdicts; clear() resets
  /// the checker alongside the event log.
  void attach_streaming(StreamingChecker* checker);
  [[nodiscard]] StreamingChecker* streaming() const { return streaming_; }

  /// With retention off, events are teed to the attached streaming
  /// checker but NOT stored: recording becomes O(1) memory, the event
  /// deques (writes()/reads()/applies()) stay empty and no clock is
  /// interned. This is the bounded-memory soak mode; leave retention on
  /// when a post-hoc checker or convergence comparison still needs the
  /// full log.
  void set_retain_events(bool retain) { retain_events_ = retain; }

  /// Forwards a cluster stability horizon to the attached streaming
  /// checker (no-op without one); returns how many retained entries the
  /// checker retired.
  std::size_t note_horizon(const VectorClock& clock, std::uint64_t gseq);

  [[nodiscard]] const std::deque<WriteEvent>& writes() const {
    return writes_;
  }
  [[nodiscard]] const std::deque<ReadEvent>& reads() const { return reads_; }
  [[nodiscard]] const std::deque<ApplyEvent>& applies() const {
    return applies_;
  }

  [[nodiscard]] std::size_t size() const {
    return writes_.size() + reads_.size() + applies_.size();
  }

  void clear();

 private:
  ClockId intern_clock(const VectorClock& clock);

  bool retain_events_ = true;
  StreamingChecker* streaming_ = nullptr;
  // Deques: a retained run grows them to millions of events, and a
  // vector's doubling would leave up to half its capacity unused.
  std::deque<WriteEvent> writes_;
  std::deque<ReadEvent> reads_;
  std::deque<ApplyEvent> applies_;

  // Ids are interned without a hold, so none is ever reused.
  web::PageTable pages_;  // [kNoPage] = ""

  // The clock table, [kEmptyClock] = {}, and its index from a clock's
  // hash to the ids of the clocks with that hash.
  std::vector<VectorClock> clocks_{VectorClock()};
  std::unordered_multimap<std::size_t, ClockId> clock_ids_;
};

}  // namespace globe::coherence
