// Simulated wide-area network.
//
// The network delivers byte payloads between (node, port) endpoints with
// a configurable latency model. Two delivery disciplines are supported,
// matching the paper's discussion in Section 4.2:
//
//  * reliable-ordered ("TCP-like", the prototype's default): no loss, and
//    per (src-node, dst-node) FIFO ordering is preserved by clamping each
//    delivery to happen no earlier than the previous one on that link;
//  * lossy-unordered ("UDP-like"): messages can be dropped with a
//    configured probability and jitter can reorder them.
//
// The network also keeps traffic accounting (messages/bytes, per link and
// global) used by the benchmark harness, and supports partitions for
// fault-injection tests.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "globe/net/address.hpp"
#include "globe/sim/simulator.hpp"
#include "globe/util/buffer.hpp"
#include "globe/util/rng.hpp"

namespace globe::sim {

using net::Address;
using util::Buffer;
using util::BytesView;

/// Properties of the path between two nodes.
struct LinkSpec {
  SimDuration base_latency = SimDuration::millis(20);
  SimDuration jitter = SimDuration::micros(0);  // uniform in [0, jitter]
  double drop_rate = 0.0;                       // only in lossy mode
  bool reliable_ordered = true;                 // TCP-like vs UDP-like
};

/// Aggregate traffic counters.
struct TrafficStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_delivered = 0;
};

class Network {
 public:
  using Handler = std::function<void(const Address& from, BytesView payload)>;

  Network(Simulator& sim, std::uint64_t seed = 1)
      : sim_(sim), rng_(seed) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers a node; returns its id. A human-readable name aids logging.
  NodeId add_node(std::string name = {}) {
    node_names_.push_back(name.empty()
                              ? "node" + std::to_string(node_names_.size())
                              : std::move(name));
    return static_cast<NodeId>(node_names_.size() - 1);
  }

  [[nodiscard]] const std::string& node_name(NodeId n) const {
    return node_names_.at(n);
  }

  /// Binds a handler to an endpoint. One handler per endpoint.
  void bind(const Address& at, Handler handler);

  /// Removes an endpoint binding.
  void unbind(const Address& at) { handlers_.erase(at); }

  /// Sets the default link spec used for pairs without an override.
  void set_default_link(const LinkSpec& spec) { default_link_ = spec; }

  /// Overrides the link spec for a specific node pair (both directions).
  void set_link(NodeId a, NodeId b, const LinkSpec& spec);

  /// Cuts connectivity between two nodes (both directions).
  void partition(NodeId a, NodeId b) { partitions_.insert(pair_key(a, b)); }

  /// Restores connectivity between two nodes.
  void heal(NodeId a, NodeId b) { partitions_.erase(pair_key(a, b)); }

  void heal_all() { partitions_.clear(); }

  /// Cuts every pairwise link between the two node groups (a scripted
  /// network partition; heal_all() restores them).
  void partition_groups(const std::vector<NodeId>& a,
                        const std::vector<NodeId>& b) {
    for (const NodeId x : a) {
      for (const NodeId y : b) partition(x, y);
    }
  }

  /// Marks a node as crashed: sends from it are dropped, and messages
  /// addressed to it — including ones already in flight — are dropped at
  /// delivery time (a crash loses the wire). Independent of partitions.
  void set_node_down(NodeId n, bool down) {
    if (down) {
      down_nodes_.insert(n);
    } else {
      down_nodes_.erase(n);
    }
  }

  /// Sends a payload. Delivery (or drop) is scheduled on the simulator.
  /// `background` marks periodic liveness chatter (heartbeats, clock
  /// advertisements): it is delivered at the same time through the same
  /// link model, but as a background event, so pure beacon traffic never
  /// keeps a run-to-quiescence simulation alive.
  void send(const Address& from, const Address& to, Buffer payload,
            bool background = false);

  /// Shared-datagram send: the multicast fan-out path. The network keeps
  /// only a reference to the (immutable) payload until delivery, so one
  /// encoded buffer serves any number of destinations copy-free.
  void send_shared(const Address& from, const Address& to,
                   util::SharedBuffer payload, bool background = false);

  [[nodiscard]] const TrafficStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  /// Wire digest (observability gate): when enabled, every delivered
  /// payload is folded into an order-sensitive FNV-1a digest. Two runs
  /// of a deterministic scenario produce equal digests iff they put the
  /// same bytes on the wire in the same order — bench_scale uses this to
  /// prove that disabled tracing leaves the wire stream byte-identical.
  void enable_wire_digest(bool on) {
    digest_enabled_ = on;
    wire_digest_ = kFnvOffset;
  }
  [[nodiscard]] std::uint64_t wire_digest() const { return wire_digest_; }

  /// Latency currently configured between two nodes (base, no jitter).
  [[nodiscard]] SimDuration base_latency(NodeId a, NodeId b) const {
    return link(a, b).base_latency;
  }

  /// Directed pairs currently tracked for reliable-ordered FIFO
  /// clamping. Bounded: entries at or behind the clock are swept every
  /// kFifoPruneInterval sends (regression guard for unbounded growth).
  [[nodiscard]] std::size_t fifo_state_size() const {
    return last_delivery_.size();
  }

 private:
  /// Shared pre-delivery logic: traffic accounting, partition/crash and
  /// loss drops, latency + FIFO clamping. False when the message is
  /// dropped at send time; otherwise *deliver_at is the delivery time.
  bool prepare_send(const Address& from, const Address& to, std::size_t size,
                    SimTime* deliver_at);
  template <typename P>
  void send_impl(const Address& from, const Address& to, P payload,
                 bool background);
  void deliver(const Address& from, const Address& to, std::size_t size,
               BytesView payload);

  [[nodiscard]] static std::uint64_t pair_key(NodeId a, NodeId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  [[nodiscard]] const LinkSpec& link(NodeId a, NodeId b) const {
    auto it = links_.find(pair_key(a, b));
    return it == links_.end() ? default_link_ : it->second;
  }

  Simulator& sim_;
  util::Rng rng_;
  std::vector<std::string> node_names_;
  std::unordered_map<Address, Handler> handlers_;
  std::unordered_map<std::uint64_t, LinkSpec> links_;
  std::unordered_set<std::uint64_t> partitions_;
  std::unordered_set<NodeId> down_nodes_;
  // Last scheduled delivery time per directed node pair; enforces FIFO on
  // reliable-ordered links. Entries whose time has passed are dead (they
  // can never clamp a future send) and are pruned periodically.
  static constexpr std::size_t kFifoPruneInterval = 1024;
  std::unordered_map<std::uint64_t, SimTime> last_delivery_;
  std::size_t sends_since_fifo_prune_ = 0;
  LinkSpec default_link_;
  TrafficStats stats_;
  static constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
  bool digest_enabled_ = false;
  std::uint64_t wire_digest_ = kFnvOffset;
};

}  // namespace globe::sim
