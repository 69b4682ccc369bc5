// Deterministic discrete-event simulator.
//
// The simulator owns a virtual clock and an event queue ordered by
// (time, insertion sequence). All protocol activity in the simulated
// configuration — message delivery, periodic propagation timers, client
// think time — is expressed as scheduled events. Determinism: two runs
// with the same seed and the same schedule produce identical histories.
//
// Events come in two kinds:
//   * foreground — real protocol work (message deliveries, timeouts);
//   * background — self-rearming periodic timers (lazy push, pull poll).
// run() executes events until no FOREGROUND work remains; background
// timers alone never keep the simulation alive, which is what lets a
// test harness "run to quiescence" even when stores poll periodically.
// run_until() is purely time-bounded and executes both kinds.
//
// Event core: events live in a slab of reusable slots; the heap holds
// plain (time, seq, slot, generation) entries. The background/cancelled
// flags sit inline in the slot, so the per-event hot path costs two
// array accesses instead of the hash-map (kind) and hash-set (cancelled)
// probes of the original design. EventIds are generation-checked: a
// stale id (its event already ran, or its slot was reused) can never
// cancel somebody else's event. Callbacks are stored in a small-buffer
// optimized slot (util::UniqueFunction), so scheduling the common
// closures performs no allocation at all.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "globe/util/assert.hpp"
#include "globe/util/function.hpp"
#include "globe/util/time.hpp"

namespace globe::sim {

using util::SimDuration;
using util::SimTime;

/// Handle for a scheduled event; used to cancel timers. Encodes
/// (generation << 32 | slot); 0 is never issued, so a default-initialized
/// id is safely cancellable as a no-op.
using EventId = std::uint64_t;

class Simulator {
 public:
  using Callback = util::UniqueFunction;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `cb` to run at absolute time `t` (>= now).
  EventId schedule_at(SimTime t, Callback cb) {
    return schedule_impl(t, std::move(cb), /*background=*/false);
  }

  /// Schedules `cb` to run `d` after the current time.
  EventId schedule_after(SimDuration d, Callback cb) {
    return schedule_impl(now_ + d, std::move(cb), /*background=*/false);
  }

  /// Schedules a background event (periodic-timer tick): it fires at its
  /// time like any other event, but does not count as pending work for
  /// run().
  EventId schedule_background_after(SimDuration d, Callback cb) {
    return schedule_impl(now_ + d, std::move(cb), /*background=*/true);
  }

  /// Cancels a pending event. Cancelling an already-run, stale, or
  /// unknown event is a no-op, which makes timer management in protocols
  /// simple.
  void cancel(EventId id) {
    const std::uint32_t index = slot_index(id);
    if (index >= slots_.size()) return;
    Slot& s = slots_[index];
    if (!s.armed || s.generation != generation(id) || s.cancelled) return;
    s.cancelled = true;
    if (!s.background) --foreground_pending_;
  }

  /// Runs a single event (foreground or background). Returns false if
  /// the queue is empty.
  bool step() {
    while (!queue_.empty()) {
      const HeapEntry top = queue_.top();
      queue_.pop();
      Slot& s = slots_[top.slot];
      GLOBE_ASSERT(s.armed && s.generation == top.generation);
      const bool cancelled = s.cancelled;
      if (!cancelled && !s.background) --foreground_pending_;
      Callback cb = std::move(s.cb);
      release(top.slot);
      if (cancelled) continue;
      now_ = top.at;
      ++events_run_;
      cb();
      return true;
    }
    return false;
  }

  /// Runs until no foreground events remain. Background timer ticks due
  /// before the last foreground event still execute (and may spawn new
  /// foreground work, which extends the run). Returns events executed.
  std::size_t run() {
    std::size_t n = 0;
    while (foreground_pending_ > 0 && step()) ++n;
    return n;
  }

  /// Runs all events (both kinds) with time <= t, then advances the
  /// clock to exactly t.
  std::size_t run_until(SimTime t) {
    std::size_t n = 0;
    for (;;) {
      prune_cancelled_head();
      if (queue_.empty() || queue_.top().at > t) break;
      if (step()) ++n;
    }
    if (now_ < t) now_ = t;
    return n;
  }

  /// Total events executed since construction.
  [[nodiscard]] std::uint64_t events_run() const { return events_run_; }

  /// Pending foreground work.
  [[nodiscard]] std::size_t pending() const { return foreground_pending_; }
  [[nodiscard]] bool idle() const { return foreground_pending_ == 0; }

 private:
  struct Slot {
    Callback cb;
    std::uint32_t generation = 1;
    bool armed = false;
    bool background = false;
    bool cancelled = false;
  };

  struct HeapEntry {
    SimTime at;
    std::uint64_t seq = 0;  // schedule order; FIFO among same-time events
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;
  };

  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  [[nodiscard]] static std::uint32_t slot_index(EventId id) {
    return static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  }
  [[nodiscard]] static std::uint32_t generation(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }
  [[nodiscard]] static EventId make_id(std::uint32_t gen, std::uint32_t slot) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  EventId schedule_impl(SimTime t, Callback cb, bool background) {
    GLOBE_ASSERT_MSG(t >= now_, "cannot schedule event in the past");
    std::uint32_t index;
    if (!free_.empty()) {
      index = free_.back();
      free_.pop_back();
    } else {
      index = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[index];
    s.cb = std::move(cb);
    s.armed = true;
    s.background = background;
    s.cancelled = false;
    queue_.push(HeapEntry{t, next_seq_++, index, s.generation});
    if (!background) ++foreground_pending_;
    return make_id(s.generation, index);
  }

  /// Returns a fired/cancelled slot to the free list. Bumping the
  /// generation invalidates every outstanding EventId for it.
  void release(std::uint32_t index) {
    Slot& s = slots_[index];
    s.armed = false;
    ++s.generation;
    free_.push_back(index);
  }

  /// Discards cancelled events at the head so queue_.top() reflects the
  /// next event that will actually execute (run_until relies on this
  /// when comparing against its time bound).
  void prune_cancelled_head() {
    while (!queue_.empty()) {
      const HeapEntry top = queue_.top();
      Slot& s = slots_[top.slot];
      if (!s.cancelled) break;  // armed and live (cancel() is gen-checked)
      s.cb.reset();
      release(top.slot);
      queue_.pop();
    }
  }

  SimTime now_{};
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_run_ = 0;
  std::size_t foreground_pending_ = 0;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, Later> queue_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
};

/// Convenience: a repeating timer that reschedules itself until stopped.
/// Timer ticks are background events: they never keep Simulator::run()
/// alive on their own.
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& sim, SimDuration period, std::function<void()> fn)
      : sim_(sim), period_(period), fn_(std::move(fn)) {}

  ~PeriodicTimer() { stop(); }
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void start() {
    if (running_) return;
    running_ = true;
    arm();
  }

  void stop() {
    if (!running_) return;
    running_ = false;
    sim_.cancel(pending_);
  }

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] SimDuration period() const { return period_; }

 private:
  void arm() {
    pending_ = sim_.schedule_background_after(period_, [this] {
      if (!running_) return;
      fn_();
      if (running_) arm();
    });
  }

  Simulator& sim_;
  SimDuration period_;
  std::function<void()> fn_;
  bool running_ = false;
  EventId pending_ = 0;
};

}  // namespace globe::sim
