// Self-adaptive replication policies.
//
// Section 3.3: "Ideally, the implementation parameters can be modified
// dynamically as the usage characteristics of an object changes.
// However, self-adaptive policies are beyond the scope of this paper;
// they are a subject of future research." — and Section 5 repeats the
// plan. This module implements that future work on top of the runtime
// strategy replacement the framework already supports
// (StoreEngine::update_policy).
//
// The AdaptiveController attaches to an object's primary store, samples
// its read/write counters periodically, and adjusts the transfer-instant
// parameter: frequent updates on a replicated object favour lazy
// (periodic, aggregated) propagation; rare updates favour immediate
// propagation, whose freshness is then free (the paper's own rule of
// thumb in Section 3.3). Policy changes propagate through the object to
// every store.
#pragma once

#include <functional>

#include "globe/replication/store_engine.hpp"

namespace globe::replication {

struct AdaptiveOptions {
  /// Sampling interval.
  sim::SimDuration interval = sim::SimDuration::seconds(2);
  /// Writes per second above which propagation switches to lazy.
  double lazy_above_writes_per_s = 4.0;
  /// Writes per second below which propagation switches to immediate.
  double immediate_below_writes_per_s = 1.0;
  /// Aggregation period used when lazy.
  sim::SimDuration lazy_period = sim::SimDuration::millis(500);
  /// Write-counter source override; defaults to the primary store's
  /// writes_applied(). Lets deployments whose store can be re-created or
  /// snapshot-restored mid-run (counter regression) feed the controller
  /// — and lets tests drive exactly that.
  std::function<std::uint64_t()> writes_probe;
};

class AdaptiveController {
 public:
  AdaptiveController(sim::Simulator& sim, StoreEngine& primary,
                     AdaptiveOptions options = {})
      : primary_(primary),
        options_(options),
        timer_(sim, options.interval, [this] { sample(); }) {
    GLOBE_ASSERT_MSG(primary.config().is_primary,
                     "adaptive control attaches to the primary store");
  }

  void start() { timer_.start(); }
  void stop() { timer_.stop(); }

  [[nodiscard]] std::uint64_t switches() const { return switches_; }
  [[nodiscard]] core::TransferInstant current_instant() const {
    return primary_.object_config().policy.instant;
  }

  /// Invoked after every decision; for tests and instrumentation.
  std::function<void(core::TransferInstant)> on_switch;

 private:
  void sample() {
    const std::uint64_t writes = options_.writes_probe
                                     ? options_.writes_probe()
                                     : primary_.writes_applied();
    // A counter regression (store re-created or snapshot-restored
    // between samples) would wrap the unsigned subtraction into a huge
    // rate and force a spurious switch to lazy. Treat a regression as
    // zero observed writes and re-baseline at the new counter value.
    const std::uint64_t delta = writes >= last_writes_ ? writes - last_writes_
                                                       : 0;
    const double interval_s = options_.interval.count_seconds();
    const double write_rate = static_cast<double>(delta) / interval_s;
    last_writes_ = writes;

    auto policy = primary_.object_config().policy;
    const auto before = policy.instant;
    if (write_rate >= options_.lazy_above_writes_per_s) {
      policy.instant = core::TransferInstant::kLazy;
      policy.lazy_period = options_.lazy_period;
    } else if (write_rate <= options_.immediate_below_writes_per_s) {
      policy.instant = core::TransferInstant::kImmediate;
    }
    if (policy.instant != before) {
      if (primary_.update_policy(policy)) {
        ++switches_;
        if (on_switch) on_switch(policy.instant);
      }
    }
  }

  StoreEngine& primary_;
  AdaptiveOptions options_;
  sim::PeriodicTimer timer_;
  std::uint64_t last_writes_ = 0;
  std::uint64_t switches_ = 0;
};

}  // namespace globe::replication
