// Experiment statistics: traffic, latency, staleness.
//
// A MetricsSink is shared by all components of one experiment run. The
// replication layer feeds it message traffic; the workload harness feeds
// it operation latencies and read staleness (how many committed writes a
// returned page version was behind, and by how much time).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "globe/metrics/histogram.hpp"
#include "globe/util/ids.hpp"

namespace globe::metrics {

struct TypeTraffic {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

/// Per-shard rollup for multi-object deployments: enough to tell a hot
/// shard from a cold one (ops served, wire bytes handled, client
/// rebinds, membership view changes) without a per-object histogram.
struct ShardStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t bytes = 0;
  std::uint64_t rebinds = 0;       // client contact re-resolutions
  std::uint64_t view_changes = 0;  // subgroup view epoch bumps

  [[nodiscard]] std::uint64_t ops() const { return reads + writes; }
};

class MetricsSink {
 public:
  /// Message traffic, keyed by wire message-type id.
  void on_message(std::uint8_t type, std::size_t bytes) {
    auto& t = traffic_[type];
    ++t.messages;
    t.bytes += bytes;
    ++total_.messages;
    total_.bytes += bytes;
  }

  void record_read_latency_us(double us) { read_latency_.add(us); }
  void record_write_latency_us(double us) { write_latency_.add(us); }

  /// Staleness of a read: versions behind the globally committed state
  /// and the age (microseconds) of the newest missing write.
  void record_staleness(double versions_behind, double time_behind_us) {
    staleness_versions_.add(versions_behind);
    staleness_time_us_.add(time_behind_us);
  }

  void record_session_demand() { ++session_demands_; }
  void record_session_wait() { ++session_waits_; }
  void record_stale_serve() { ++stale_serves_; }

  /// Write-log compaction ran (count or byte-budget trigger).
  void record_log_compaction() { ++log_compactions_; }
  /// A requester behind a compaction horizon forced a full-state
  /// transfer instead of a delta — the compaction policy's cost signal.
  void record_snapshot_cutover() { ++snapshot_cutovers_; }

  /// A state transfer was served page-granularly: `pages` page entries
  /// (plus drops) were shipped, `shipped_bytes` on the wire, where a
  /// full snapshot would have cost `full_bytes`.
  void record_delta_snapshot(std::uint64_t pages, std::uint64_t shipped_bytes,
                             std::uint64_t full_bytes) {
    ++delta_snapshots_;
    snapshot_pages_shipped_ += pages;
    if (full_bytes > shipped_bytes) {
      snapshot_bytes_saved_ += full_bytes - shipped_bytes;
    }
  }
  /// A *requested* state transfer shipped the whole document (fresh
  /// bootstrap, or a delta request that fell back past the horizon or
  /// across lineages). Full coherence transfers — kSnapshot pushes and
  /// want_full polls — are the policy's normal traffic and not counted.
  void record_full_snapshot() { ++full_snapshots_; }

  // Stability-horizon GC (streaming verification, tombstone collection,
  // horizon-keyed write-log compaction).
  void record_horizon_advance() { ++horizon_advances_; }
  void record_events_retired(std::uint64_t n) { events_retired_ += n; }
  void record_tombstones_collected(std::uint64_t n) {
    tombstones_collected_ += n;
  }

  /// Transport backpressure (windowed multicast): a subscriber channel
  /// crossed its queue high watermark / drained back / was dropped after
  /// making no progress against the configured deadline.
  void record_flow_pause() { ++flow_pauses_; }
  void record_flow_resume() { ++flow_resumes_; }
  void record_flow_eviction() { ++flow_evictions_; }

  // Per-shard rollups (multi-object deployments; shard 0 otherwise).
  void record_shard_read(ShardId shard) { ++shards_[shard].reads; }
  void record_shard_write(ShardId shard) { ++shards_[shard].writes; }
  void record_shard_bytes(ShardId shard, std::size_t bytes) {
    shards_[shard].bytes += bytes;
  }
  void record_shard_rebind(ShardId shard) { ++shards_[shard].rebinds; }
  void record_shard_view_change(ShardId shard) {
    ++shards_[shard].view_changes;
  }
  [[nodiscard]] const std::map<ShardId, ShardStats>& shard_stats() const {
    return shards_;
  }

  [[nodiscard]] const TypeTraffic& total_traffic() const { return total_; }
  [[nodiscard]] const std::map<std::uint8_t, TypeTraffic>& traffic_by_type()
      const {
    return traffic_;
  }
  [[nodiscard]] const Histogram& read_latency_us() const {
    return read_latency_;
  }
  [[nodiscard]] const Histogram& write_latency_us() const {
    return write_latency_;
  }
  [[nodiscard]] const Histogram& staleness_versions() const {
    return staleness_versions_;
  }
  [[nodiscard]] const Histogram& staleness_time_us() const {
    return staleness_time_us_;
  }
  /// Derived per-write propagation latency (obs tracer): microseconds
  /// from the accepting store's accept to the first / latest remote
  /// subscriber apply. Tracer::drain_propagation feeds both histograms
  /// (Testbed::harvest_propagation).
  [[nodiscard]] const Histogram& propagation_first_us() const {
    return propagation_first_us_;
  }
  [[nodiscard]] const Histogram& propagation_last_us() const {
    return propagation_last_us_;
  }
  [[nodiscard]] Histogram& propagation_first_us() {
    return propagation_first_us_;
  }
  [[nodiscard]] Histogram& propagation_last_us() {
    return propagation_last_us_;
  }
  [[nodiscard]] std::uint64_t session_demands() const {
    return session_demands_;
  }
  [[nodiscard]] std::uint64_t session_waits() const { return session_waits_; }
  [[nodiscard]] std::uint64_t stale_serves() const { return stale_serves_; }
  [[nodiscard]] std::uint64_t log_compactions() const {
    return log_compactions_;
  }
  [[nodiscard]] std::uint64_t snapshot_cutovers() const {
    return snapshot_cutovers_;
  }
  [[nodiscard]] std::uint64_t delta_snapshots() const {
    return delta_snapshots_;
  }
  [[nodiscard]] std::uint64_t full_snapshots() const {
    return full_snapshots_;
  }
  [[nodiscard]] std::uint64_t snapshot_pages_shipped() const {
    return snapshot_pages_shipped_;
  }
  [[nodiscard]] std::uint64_t snapshot_bytes_saved() const {
    return snapshot_bytes_saved_;
  }
  [[nodiscard]] std::uint64_t horizon_advances() const {
    return horizon_advances_;
  }
  [[nodiscard]] std::uint64_t events_retired() const {
    return events_retired_;
  }
  [[nodiscard]] std::uint64_t tombstones_collected() const {
    return tombstones_collected_;
  }
  [[nodiscard]] std::uint64_t flow_pauses() const { return flow_pauses_; }
  [[nodiscard]] std::uint64_t flow_resumes() const { return flow_resumes_; }
  [[nodiscard]] std::uint64_t flow_evictions() const {
    return flow_evictions_;
  }

  void reset() { *this = MetricsSink{}; }

 private:
  std::map<std::uint8_t, TypeTraffic> traffic_;
  TypeTraffic total_;
  Histogram read_latency_;
  Histogram write_latency_;
  Histogram staleness_versions_;
  Histogram staleness_time_us_;
  Histogram propagation_first_us_;
  Histogram propagation_last_us_;
  std::uint64_t session_demands_ = 0;
  std::uint64_t session_waits_ = 0;
  std::uint64_t stale_serves_ = 0;
  std::uint64_t horizon_advances_ = 0;
  std::uint64_t events_retired_ = 0;
  std::uint64_t tombstones_collected_ = 0;
  std::uint64_t log_compactions_ = 0;
  std::uint64_t snapshot_cutovers_ = 0;
  std::uint64_t delta_snapshots_ = 0;
  std::uint64_t full_snapshots_ = 0;
  std::uint64_t snapshot_pages_shipped_ = 0;
  std::uint64_t snapshot_bytes_saved_ = 0;
  std::uint64_t flow_pauses_ = 0;
  std::uint64_t flow_resumes_ = 0;
  std::uint64_t flow_evictions_ = 0;
  std::map<ShardId, ShardStats> shards_;
};

}  // namespace globe::metrics
