// Flow-control surface the replication layer polls.
//
// The windowed multicast layer (net/windowed_multicast.hpp) tracks
// per-peer send queues and raises backpressure state changes; a
// StoreEngine consumes them at its own pace (it polls from the thread
// that drives propagation, so no flow callback ever re-enters engine
// state from a transport thread). A null FlowControl* means the runtime
// is not windowed and every peer is always writable.
#pragma once

#include <cstdint>
#include <vector>

#include "globe/net/address.hpp"

namespace globe::net {

class FlowControl {
 public:
  enum class PeerEvent : std::uint8_t {
    kPaused = 0,   // peer's send queue crossed the high watermark
    kResumed = 1,  // peer drained back below the low watermark
  };

  struct Event {
    Address peer;
    PeerEvent what{};
  };

  virtual ~FlowControl() = default;

  /// Drains the backpressure state changes of `local`'s peers since the
  /// last call. Thread-safe; events are delivered exactly once.
  [[nodiscard]] virtual std::vector<Event> poll_events(
      const Address& local) = 0;

  /// Current backpressure state of one peer channel.
  [[nodiscard]] virtual bool peer_paused(const Address& local,
                                         const Address& peer) const = 0;

  /// Clears any stale backpressure verdict for a peer (fresh
  /// subscription after the replication layer dropped it): its queue
  /// empties, the pause flag drops, and the next data frame restarts the
  /// stream.
  virtual void reset_peer(const Address& local, const Address& peer) = 0;
};

}  // namespace globe::net
