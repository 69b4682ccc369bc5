#include "globe/net/socket_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace globe::net {

namespace {

constexpr int kPollMillis = 100;  // stop-flag check cadence in recv loops

/// The binding whose handler this thread is running, if any: lets
/// unbind_endpoint tell a handler unbinding itself from another thread.
thread_local const void* t_delivering = nullptr;

bool make_sockaddr(const std::string& host, std::uint16_t port,
                   sockaddr_in& out) {
  std::memset(&out, 0, sizeof(out));
  out.sin_family = AF_INET;
  out.sin_port = htons(port);
  return ::inet_pton(AF_INET, host.c_str(), &out.sin_addr) == 1;
}

/// Blocking full write (the TCP lane); false on any error.
bool write_all(int fd, const std::byte* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

SocketHost::SocketHost(SocketHostOptions options)
    : options_(std::move(options)) {
  sockaddr_in addr{};
  if (!make_sockaddr(options_.bind_host, options_.udp_port, addr)) return;

  udp_fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (udp_fd_ < 0) return;
  if (::bind(udp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(udp_fd_);
    udp_fd_ = -1;
    return;
  }

  tcp_listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (tcp_listen_fd_ < 0) {
    ::close(udp_fd_);
    udp_fd_ = -1;
    return;
  }
  const int one = 1;
  ::setsockopt(tcp_listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  addr.sin_port = htons(options_.tcp_port);
  if (::bind(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(tcp_listen_fd_, 16) != 0) {
    ::close(udp_fd_);
    ::close(tcp_listen_fd_);
    udp_fd_ = tcp_listen_fd_ = -1;
    return;
  }

  // Resolve kernel-assigned ports.
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  ::getsockname(udp_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  udp_port_ = ntohs(bound.sin_port);
  blen = sizeof(bound);
  ::getsockname(tcp_listen_fd_, reinterpret_cast<sockaddr*>(&bound), &blen);
  tcp_port_ = ntohs(bound.sin_port);

  ok_ = true;
  udp_thread_ = std::thread([this] { udp_recv_loop(); });
  accept_thread_ = std::thread([this] { tcp_accept_loop(); });
}

SocketHost::~SocketHost() {
  stopping_.store(true, std::memory_order_release);
  if (udp_thread_.joinable()) udp_thread_.join();
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard lock(conn_threads_mu_);
    for (ConnThread& t : conn_threads_) {
      if (t.thread.joinable()) t.thread.join();
    }
    conn_threads_.clear();
  }
  {
    std::lock_guard lock(tcp_mu_);
    for (auto& [node, conn] : tcp_conns_) {
      std::lock_guard conn_lock(conn->mu);
      if (conn->fd >= 0) ::close(conn->fd);
      conn->fd = -1;
    }
    tcp_conns_.clear();
  }
  if (udp_fd_ >= 0) ::close(udp_fd_);
  if (tcp_listen_fd_ >= 0) ::close(tcp_listen_fd_);
}

void SocketHost::add_route(NodeId node, SocketEndpoint ep) {
  std::lock_guard lock(mu_);
  routes_[node] = std::move(ep);
}

std::unique_ptr<Transport> SocketHost::create_transport(
    const Address& local, MessageHandler handler) {
  return std::make_unique<SocketTransport>(*this, local, std::move(handler));
}

SocketHostStats SocketHost::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

void SocketHost::bind_endpoint(const Address& at, MessageHandler handler) {
  auto binding = std::make_shared<Binding>();
  binding->handler = std::move(handler);
  std::lock_guard lock(mu_);
  handlers_[at] = std::move(binding);
}

void SocketHost::unbind_endpoint(const Address& at) {
  std::unique_lock lock(mu_);
  auto it = handlers_.find(at);
  if (it == handlers_.end()) return;
  const std::shared_ptr<Binding> binding = std::move(it->second);
  handlers_.erase(it);
  if (t_delivering == binding.get()) return;  // the handler unbinds itself
  delivered_.wait(lock, [&] { return binding->in_flight == 0; });
}

// ---------------------------------------------------------------------
// Send path
// ---------------------------------------------------------------------

void SocketHost::send_frame(const Address& from, const Address& to,
                            bool background, BytesView payload) {
  SocketEndpoint route;
  {
    std::lock_guard lock(mu_);
    if (!ok_) {
      ++stats_.send_errors;
      return;
    }
    auto it = routes_.find(to.node);
    if (it == routes_.end()) {
      ++stats_.unroutable;
      return;
    }
    route = it->second;
  }

  const Buffer header = SocketFrame::header_bytes(from, to, background);
  const std::size_t total = header.size() + payload.size();

  if (total <= options_.max_datagram) {
    sockaddr_in dest{};
    if (!make_sockaddr(route.host, route.udp_port, dest)) {
      std::lock_guard lock(mu_);
      ++stats_.send_errors;
      return;
    }
    // Scatter-gather: the shared payload goes to the kernel in place.
    iovec iov[2];
    iov[0].iov_base = const_cast<std::byte*>(header.data());
    iov[0].iov_len = header.size();
    iov[1].iov_base = const_cast<std::byte*>(payload.data());
    iov[1].iov_len = payload.size();
    msghdr msg{};
    msg.msg_name = &dest;
    msg.msg_namelen = sizeof(dest);
    msg.msg_iov = iov;
    msg.msg_iovlen = payload.empty() ? 1 : 2;
    const ssize_t n = ::sendmsg(udp_fd_, &msg, 0);
    std::lock_guard lock(mu_);
    if (n < 0) {
      ++stats_.send_errors;
    } else {
      ++stats_.udp_sent;
    }
    return;
  }

  // Bulk lane: [u32 len][header][payload] on a lazily-connected stream.
  // Only the per-peer lock is held across connect/write, so one
  // unresponsive peer cannot stall bulk sends to every other node.
  const std::shared_ptr<TcpConn> conn = tcp_conn_for(to.node);
  std::lock_guard conn_lock(conn->mu);
  int fd = conn->fd;
  if (fd < 0) fd = tcp_connect_locked(*conn, route);
  if (fd < 0) {
    std::lock_guard lock(mu_);
    ++stats_.send_errors;
    return;
  }
  util::Writer prefix;
  TcpFrameAssembler::encode_prefix(prefix, total);
  const Buffer& pre = prefix.view();
  const bool sent = write_all(fd, pre.data(), pre.size()) &&
                    write_all(fd, header.data(), header.size()) &&
                    write_all(fd, payload.data(), payload.size());
  if (!sent) {
    // Connection went bad: drop it; the next send reconnects.
    ::close(fd);
    conn->fd = -1;
  }
  std::lock_guard lock(mu_);
  if (sent) {
    ++stats_.tcp_sent;
  } else {
    ++stats_.send_errors;
  }
}

std::shared_ptr<SocketHost::TcpConn> SocketHost::tcp_conn_for(NodeId node) {
  std::lock_guard lock(tcp_mu_);
  auto& conn = tcp_conns_[node];
  if (!conn) conn = std::make_shared<TcpConn>();
  return conn;
}

int SocketHost::tcp_connect_locked(TcpConn& conn, const SocketEndpoint& ep) {
  sockaddr_in dest{};
  if (!make_sockaddr(ep.host, ep.tcp_port, dest)) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&dest), sizeof(dest)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  conn.fd = fd;
  return fd;
}

// ---------------------------------------------------------------------
// Receive path
// ---------------------------------------------------------------------

void SocketHost::deliver(const Address& from, const Address& to,
                         BytesView payload) {
  std::shared_ptr<Binding> binding;  // keeps the handler alive if it unbinds
  {
    std::lock_guard lock(mu_);
    auto it = handlers_.find(to);
    if (it == handlers_.end()) {
      ++stats_.unknown_endpoint;
      return;
    }
    binding = it->second;
    ++binding->in_flight;
  }
  // Ends the delivery on every exit, a throwing handler included, so an
  // unbind waiting on this endpoint is always released.
  struct InFlight {
    SocketHost& host;
    Binding& binding;
    const void* outer = t_delivering;
    ~InFlight() {
      t_delivering = outer;
      std::lock_guard lock(host.mu_);
      if (--binding.in_flight == 0) host.delivered_.notify_all();
    }
  } in_flight{*this, *binding};
  t_delivering = binding.get();
  binding->handler(from, payload);
}

void SocketHost::udp_recv_loop() {
  std::vector<std::byte> buf(64 * 1024);
  pollfd pfd{udp_fd_, POLLIN, 0};
  while (!stopping_.load(std::memory_order_acquire)) {
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready <= 0) continue;
    const ssize_t n = ::recvfrom(udp_fd_, buf.data(), buf.size(), 0,
                                 nullptr, nullptr);
    if (n <= 0) continue;
    try {
      const SocketFrame f =
          SocketFrame::decode(BytesView(buf.data(),
                                        static_cast<std::size_t>(n)));
      {
        std::lock_guard lock(mu_);
        ++stats_.udp_received;
      }
      deliver(f.from, f.to, f.payload);
    } catch (const CodecError&) {
      std::lock_guard lock(mu_);
      ++stats_.decode_errors;
    }
  }
}

void SocketHost::tcp_accept_loop() {
  pollfd pfd{tcp_listen_fd_, POLLIN, 0};
  while (!stopping_.load(std::memory_order_acquire)) {
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready <= 0) continue;
    const int conn = ::accept(tcp_listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    auto done = std::make_shared<std::atomic<bool>>(false);
    std::lock_guard lock(conn_threads_mu_);
    // Reap threads whose connection loop has exited so churn does not
    // accumulate dead std::thread handles for the host's lifetime.
    for (auto it = conn_threads_.begin(); it != conn_threads_.end();) {
      if (it->done->load(std::memory_order_acquire)) {
        it->thread.join();
        it = conn_threads_.erase(it);
      } else {
        ++it;
      }
    }
    conn_threads_.push_back(
        {done, std::thread([this, conn, done] {
           tcp_conn_loop(conn);
           done->store(true, std::memory_order_release);
         })});
  }
}

void SocketHost::tcp_conn_loop(int fd) {
  TcpFrameAssembler assembler;
  std::vector<std::byte> buf(64 * 1024);
  pollfd pfd{fd, POLLIN, 0};
  while (!stopping_.load(std::memory_order_acquire)) {
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, kPollMillis);
    if (ready <= 0) continue;
    const ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
    if (n == 0) break;  // peer closed
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    try {
      const auto frames = assembler.feed(
          BytesView(buf.data(), static_cast<std::size_t>(n)));
      for (const Buffer& frame : frames) {
        const SocketFrame f = SocketFrame::decode(BytesView(frame));
        {
          std::lock_guard lock(mu_);
          ++stats_.tcp_received;
        }
        deliver(f.from, f.to, f.payload);
      }
    } catch (const CodecError&) {
      // Poisoned stream: no resynchronisation possible, drop the
      // connection (the sender reconnects on its next bulk send).
      std::lock_guard lock(mu_);
      ++stats_.decode_errors;
      break;
    }
  }
  ::close(fd);
}

}  // namespace globe::net
