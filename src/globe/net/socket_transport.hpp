// Real socket transport: UDP datagrams with a TCP fallback lane.
//
// One SocketHost per process owns a UDP socket (the fast path: every
// datagram is [SocketFrame header][payload], sent with scatter-gather so
// send_shared never copies the payload) and a TCP listener (the bulk
// lane: payloads too large for one datagram — state transfers — travel
// as length-prefixed frames over lazily-established connections).
//
// Globe addresses are (node, port) pairs a kernel sockaddr does not
// carry, so every frame names its source and destination endpoints and
// the host demultiplexes to the bound Transport by destination address.
// Routing is explicit: add_route(node, endpoint) maps a globe node to an
// IP host + UDP/TCP port pair (the multi-process example derives ports
// from a base + node id).
//
// UDP gives no delivery or ordering guarantee — exactly the paper's
// Section 4.2 unreliable communication object. Run the windowed
// multicast layer on top (windowed_factory) for flow control and
// retransmission, and drive WindowedMulticast::tick periodically for
// tail-loss recovery.
//
// Construction degrades gracefully: if the kernel refuses sockets
// (sandboxes), ok() is false and every send is a counted drop, so tests
// can skip instead of fail.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "globe/net/framing.hpp"
#include "globe/net/transport.hpp"

namespace globe::net {

/// Where a globe node lives on the IP network.
struct SocketEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t udp_port = 0;
  std::uint16_t tcp_port = 0;
};

struct SocketHostOptions {
  std::string bind_host = "127.0.0.1";
  std::uint16_t udp_port = 0;  // 0 = kernel-assigned (see udp_port())
  std::uint16_t tcp_port = 0;  // 0 = kernel-assigned (see tcp_port())
  /// Frames whose header+payload exceed this travel over TCP instead of
  /// UDP. Kept under the classic 64 KiB datagram ceiling with margin.
  std::size_t max_datagram = 56 * 1024;
};

struct SocketHostStats {
  std::uint64_t udp_sent = 0;
  std::uint64_t udp_received = 0;
  std::uint64_t tcp_sent = 0;
  std::uint64_t tcp_received = 0;
  std::uint64_t send_errors = 0;     // kernel send failures (incl. no socket)
  std::uint64_t unroutable = 0;      // destination node has no route
  std::uint64_t unknown_endpoint = 0;  // frame for an unbound address
  std::uint64_t decode_errors = 0;   // malformed frames / streams
};

class SocketHost {
 public:
  explicit SocketHost(SocketHostOptions options = {});
  ~SocketHost();

  SocketHost(const SocketHost&) = delete;
  SocketHost& operator=(const SocketHost&) = delete;

  /// False when the kernel refused the sockets (sandboxed environment);
  /// the host is then inert and sends count as errors.
  [[nodiscard]] bool ok() const { return ok_; }

  /// Actual bound ports (resolves kernel-assigned 0 requests).
  [[nodiscard]] std::uint16_t udp_port() const { return udp_port_; }
  [[nodiscard]] std::uint16_t tcp_port() const { return tcp_port_; }

  /// Maps a globe node to its IP endpoint. Thread-safe; replaces any
  /// existing route (a restarted process may come back on new ports).
  void add_route(NodeId node, SocketEndpoint ep);

  /// Creates a Transport bound to `local`; frames addressed to it are
  /// delivered on the host's receive threads. The transport unbinds
  /// itself on destruction, which waits out deliveries to it already in
  /// progress, and must not outlive the host.
  [[nodiscard]] std::unique_ptr<Transport> create_transport(
      const Address& local, MessageHandler handler);

  [[nodiscard]] SocketHostStats stats() const;

 private:
  friend class SocketTransport;

  /// One bound endpoint. Deliveries hold it by shared_ptr and count
  /// themselves in `in_flight` (under mu_), so unbinding can wait them
  /// out while the handler stays alive for a delivery that unbinds it.
  struct Binding {
    MessageHandler handler;
    std::size_t in_flight = 0;
  };

  void bind_endpoint(const Address& at, MessageHandler handler);
  /// Removes the endpoint, then blocks until no receive thread is still
  /// inside its handler, so the caller may destroy what the handler
  /// uses. Called from inside that endpoint's own delivery it returns at
  /// once: the delivery cannot finish while its own handler waits.
  void unbind_endpoint(const Address& at);

  /// Routes one frame: UDP when it fits, TCP otherwise.
  void send_frame(const Address& from, const Address& to, bool background,
                  BytesView payload);
  /// Hands a decoded frame to the bound endpoint (handler runs without
  /// host locks held).
  void deliver(const Address& from, const Address& to, BytesView payload);

  void udp_recv_loop();
  void tcp_accept_loop();
  void tcp_conn_loop(int fd);
  /// One outbound TCP connection. Each peer has its own lock so a slow
  /// connect or stalled write to one node never blocks bulk sends to the
  /// others; fd < 0 means "not connected, dial on next send".
  struct TcpConn {
    std::mutex mu;
    int fd = -1;
  };

  /// The connection slot for a node (created on demand). Only the map
  /// lookup holds tcp_mu_; connecting and writing lock the slot itself.
  std::shared_ptr<TcpConn> tcp_conn_for(NodeId node);
  /// Dials `ep` and stores the socket in `conn` (caller holds conn.mu);
  /// returns the fd, or -1 on failure.
  int tcp_connect_locked(TcpConn& conn, const SocketEndpoint& ep);

  SocketHostOptions options_;
  bool ok_ = false;
  int udp_fd_ = -1;
  int tcp_listen_fd_ = -1;
  std::uint16_t udp_port_ = 0;
  std::uint16_t tcp_port_ = 0;

  mutable std::mutex mu_;  // routes, handlers, in-flight counts, stats
  std::condition_variable delivered_;  // an endpoint's in_flight hit 0
  std::unordered_map<NodeId, SocketEndpoint> routes_;
  std::unordered_map<Address, std::shared_ptr<Binding>> handlers_;
  SocketHostStats stats_;

  std::mutex tcp_mu_;  // guards the connection map only, never held for I/O
  std::unordered_map<NodeId, std::shared_ptr<TcpConn>> tcp_conns_;

  std::atomic<bool> stopping_{false};
  std::thread udp_thread_;
  std::thread accept_thread_;

  /// Inbound connection threads, reaped by the accept loop once their
  /// connection loop exits (done flag) so churn does not grow the vector
  /// for the host's lifetime.
  struct ConnThread {
    std::shared_ptr<std::atomic<bool>> done;
    std::thread thread;
  };
  std::mutex conn_threads_mu_;
  std::vector<ConnThread> conn_threads_;
};

/// Transport endpoint on a SocketHost. The payload of send_shared is
/// handed to the kernel via scatter-gather (header iovec + payload
/// iovec) — no serialization copy on the fast path.
class SocketTransport final : public Transport {
 public:
  SocketTransport(SocketHost& host, Address local, MessageHandler handler)
      : host_(host), local_(local) {
    host_.bind_endpoint(local_, std::move(handler));
  }

  ~SocketTransport() override { host_.unbind_endpoint(local_); }

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  // Plain send uses the base default (move-wrap, no byte copy).
  void send_shared(const Address& to, util::SharedBuffer payload) override {
    host_.send_frame(local_, to, /*background=*/false, BytesView(*payload));
  }

  void send_shared_background(const Address& to,
                              util::SharedBuffer payload) override {
    host_.send_frame(local_, to, /*background=*/true, BytesView(*payload));
  }
  void send_background(const Address& to, Buffer payload) override {
    host_.send_frame(local_, to, /*background=*/true, BytesView(payload));
  }

  [[nodiscard]] Address local_address() const override { return local_; }

 private:
  SocketHost& host_;
  Address local_;
};

}  // namespace globe::net
