// Operation histories.
//
// When a History recorder is attached to the runtime, every client
// operation and every store-level write application is recorded. The
// checkers (checkers.hpp) then verify that a recorded execution satisfies
// the coherence model the object was configured with. This is how the
// test suite demonstrates — rather than assumes — that each replication
// strategy implements its advertised model.
//
// A History only records: three event vectors in record order, plus one
// shared page-name table. Recording is on the hot path of every
// simulated operation, so events carry an interned PageId instead of a
// std::string per event. The checkers replay these vectors through a
// StreamingChecker (streaming.hpp), which keeps whatever per-client and
// per-store state a verdict needs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "globe/coherence/vector_clock.hpp"
#include "globe/coherence/write_id.hpp"
#include "globe/util/ids.hpp"
#include "globe/util/time.hpp"

namespace globe::coherence {

class StreamingChecker;

using util::SimTime;

/// Interned page name. Id 0 (`kNoPage`) is the empty name, used by
/// events that carry no page (e.g. snapshot applies).
using PageId = std::uint32_t;
inline constexpr PageId kNoPage = 0;

/// A client completed a write (it was accepted by the store it is bound
/// to, or by the primary on its behalf).
struct WriteEvent {
  SimTime at{};
  std::uint64_t client_op_index = 0;  // program order within the client
  ClientId client = 0;
  StoreId via_store = kInvalidStore;  // store that accepted the write
  WriteId wid;
  PageId page = kNoPage;
  VectorClock deps;          // causal/session dependencies carried
  std::uint64_t global_seq = 0;  // primary-assigned total order (0 if none)
};

/// A client completed a read.
struct ReadEvent {
  SimTime at{};
  std::uint64_t client_op_index = 0;
  ClientId client = 0;
  StoreId store = kInvalidStore;  // store that served the read
  PageId page = kNoPage;
  WriteId observed;               // writer of the returned content
  VectorClock store_clock;        // serving store's applied clock
  std::uint64_t store_global_seq = 0;
};

/// A store applied a write record to its replica — or, when
/// `from_snapshot` is set, initialized/replaced its state from a
/// full-state transfer. Snapshot events carry the snapshot's clock in
/// `deps` and its total-order position in `global_seq`; checkers fold
/// them into the store's applied state so that replicas joining late
/// (Subscribe -> SubscribeAck) are judged from their true baseline.
struct ApplyEvent {
  SimTime at{};
  StoreId store = kInvalidStore;
  WriteId wid;
  PageId page = kNoPage;
  VectorClock deps;
  std::uint64_t global_seq = 0;
  bool from_snapshot = false;
};

class History {
 public:
  /// Interns `name`, returning its stable PageId. The empty name is
  /// always `kNoPage`.
  PageId intern(std::string_view name);

  /// Resolves an interned id back to its name ("#<id>" for ids this
  /// History never handed out, so diagnostics on hand-built events
  /// still render).
  [[nodiscard]] std::string page_name(PageId id) const;

  [[nodiscard]] std::size_t pages_interned() const {
    return page_names_.size();
  }

  void record_write(WriteEvent e);
  void record_read(ReadEvent e);
  void record_apply(ApplyEvent e);

  /// Attaches a streaming checker that is fed every event as it is
  /// recorded (plus the already-interned page table on attach, so late
  /// attachment renders diagnostics identically). Pass nullptr to
  /// detach. The checker must outlive the History or be detached first;
  /// clear() resets it alongside the event log.
  void attach_streaming(StreamingChecker* checker);
  [[nodiscard]] StreamingChecker* streaming() const { return streaming_; }

  /// With retention off, events are teed to the attached streaming
  /// checker but NOT stored: recording becomes O(1) memory and the
  /// event vectors (writes()/reads()/applies()) stay empty. This is the
  /// bounded-memory soak mode; leave retention on when a post-hoc
  /// checker or convergence comparison still needs the full log.
  void set_retain_events(bool retain) { retain_events_ = retain; }

  /// Forwards a cluster stability horizon to the attached streaming
  /// checker (no-op without one); returns how many retained entries the
  /// checker retired.
  std::size_t note_horizon(const VectorClock& clock, std::uint64_t gseq);

  [[nodiscard]] const std::vector<WriteEvent>& writes() const {
    return writes_;
  }
  [[nodiscard]] const std::vector<ReadEvent>& reads() const { return reads_; }
  [[nodiscard]] const std::vector<ApplyEvent>& applies() const {
    return applies_;
  }

  [[nodiscard]] std::size_t size() const {
    return writes_.size() + reads_.size() + applies_.size();
  }

  void clear();

 private:
  bool retain_events_ = true;
  StreamingChecker* streaming_ = nullptr;
  std::vector<WriteEvent> writes_;
  std::vector<ReadEvent> reads_;
  std::vector<ApplyEvent> applies_;

  // Transparent hashing: intern() is on the record hot path and must
  // not allocate a temporary std::string per lookup.
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, PageId, StringHash, std::equal_to<>>
      page_ids_;
  std::vector<std::string> page_names_{std::string()};  // [kNoPage] = ""
};

}  // namespace globe::coherence
