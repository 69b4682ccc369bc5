// Multi-process replication over real UDP: a primary process and N
// subscriber processes, each owning a net::SocketHost bound to
// 127.0.0.1, linked by net::WindowedMulticast for credit flow control
// and loss recovery. The primary seeds a burst of page writes, pushes
// them PRAM-immediate through the windowed transport, then every
// process hashes its document snapshot and the parent compares the
// verdicts — the cross-process analogue of the loopback fan-out bench.
//
// Build & run:   ./build/example_multi_process [port_base] [subscribers] [writes]
//
// Ports are deterministic (udp = base + 2*node, tcp = base + 2*node+1)
// so processes need no coordination beyond the base. Exits 0 when every
// subscriber converges to the primary's snapshot hash, and also exits 0
// (with a notice) when the environment forbids sockets entirely.
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "globe/net/socket_transport.hpp"
#include "globe/net/windowed_multicast.hpp"
#include "globe/replication/store_engine.hpp"
#include "globe/sim/simulator.hpp"

namespace {

using namespace globe;
using replication::ObjectConfig;
using replication::StoreConfig;
using replication::StoreEngine;

constexpr ObjectId kObj = 1;
constexpr std::chrono::seconds kDeadline{20};

std::uint16_t udp_port_of(int base, int node) {
  return static_cast<std::uint16_t>(base + 2 * node);
}
std::uint16_t tcp_port_of(int base, int node) {
  return static_cast<std::uint16_t>(base + 2 * node + 1);
}

std::uint64_t fnv1a(util::BytesView bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 1099511628211ull;
  }
  return h;
}

/// Everything one process owns: its socket host, its flow-control
/// window, and its engine. The engine is single-threaded; SocketHost
/// delivers on a receive thread, so every delivery and every
/// main-thread engine call serializes through `engine_mu`.
struct World {
  net::SocketHost host;
  net::WindowedMulticast window{net::WindowOptions{}};
  sim::Simulator sim;  // clock source only; delivery is socket-driven
  std::mutex engine_mu;
  std::unique_ptr<StoreEngine> engine;

  World(int base, int node, int peers)
      : host(net::SocketHostOptions{"127.0.0.1", udp_port_of(base, node),
                                    tcp_port_of(base, node)}) {
    for (int n = 0; n <= peers; ++n) {
      if (n == node) continue;
      host.add_route(static_cast<NodeId>(n),
                     {"127.0.0.1", udp_port_of(base, n), tcp_port_of(base, n)});
    }
  }

  core::TransportFactory factory(int node) {
    net::TransportFactoryFn inner =
        [this, node](net::MessageHandler h) -> std::unique_ptr<net::Transport> {
      net::MessageHandler guarded =
          [this, h = std::move(h)](const net::Address& from,
                                   util::BytesView payload) {
            std::lock_guard lock(engine_mu);
            h(from, payload);
          };
      return host.create_transport(
          net::Address{static_cast<NodeId>(node), 1}, std::move(guarded));
    };
    net::TransportFactoryFn wrapped =
        net::windowed_factory(window, std::move(inner));
    return core::TransportFactory(
        [wrapped = std::move(wrapped)](net::MessageHandler h) {
          return wrapped(std::move(h));
        });
  }

  std::uint64_t snapshot_hash() {
    std::lock_guard lock(engine_mu);
    // Wall-clock stamps are masked so the hash covers logical content
    // only, exactly like the cross-transport equivalence gates.
    return fnv1a(util::BytesView(
        engine->document().encode_snapshot(/*mask_wall_clock=*/true)));
  }
};

int run_subscriber(int base, int node, int subscribers, int writes,
                   int report_fd) {
  // Let the parent bind its sockets and construct the primary engine
  // before the subscribe datagram goes out.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  World w(base, node, subscribers);
  if (!w.host.ok()) return 1;

  StoreConfig cfg;
  cfg.store_id = static_cast<StoreId>(node);
  cfg.store_class = naming::StoreClass::kObjectInitiated;
  cfg.flow = &w.window;
  ObjectConfig oc;
  oc.object = kObj;
  oc.upstream = net::Address{0, 1};
  w.engine = std::make_unique<StoreEngine>(w.factory(node), w.sim, cfg,
                                           std::vector<ObjectConfig>{oc});

  // Converged when the fence page (written last, FIFO-ordered behind
  // the burst) has arrived.
  const auto deadline = std::chrono::steady_clock::now() + kDeadline;
  bool fenced = false;
  while (!fenced && std::chrono::steady_clock::now() < deadline) {
    {
      std::lock_guard lock(w.engine_mu);
      fenced = w.engine->document().get("fence.html").has_value();
    }
    if (!fenced) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::uint64_t hash = fenced ? w.snapshot_hash() : 0;
  const ssize_t wrote = write(report_fd, &hash, sizeof(hash));
  close(report_fd);
  (void)writes;
  return (fenced && wrote == sizeof(hash)) ? 0 : 1;
}

int run_primary(int base, int subscribers, int writes,
                const std::vector<int>& report_fds,
                const std::vector<pid_t>& kids) {
  World w(base, 0, subscribers);
  if (!w.host.ok()) return 1;

  StoreConfig pcfg;
  pcfg.store_id = 0;
  pcfg.is_primary = true;
  pcfg.flow = &w.window;
  ObjectConfig oc;
  oc.object = kObj;
  w.engine = std::make_unique<StoreEngine>(w.factory(0), w.sim, pcfg,
                                           std::vector<ObjectConfig>{oc});
  const net::Address self = w.engine->address();

  // The subscribe messages double as the readiness fence: every child
  // is up and routable once the engine has heard from all of them.
  const auto deadline = std::chrono::steady_clock::now() + kDeadline;
  while (std::chrono::steady_clock::now() < deadline) {
    {
      std::lock_guard lock(w.engine_mu);
      if (w.engine->subscriber_count() ==
          static_cast<std::size_t>(subscribers)) {
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  {
    std::lock_guard lock(w.engine_mu);
    if (w.engine->subscriber_count() !=
        static_cast<std::size_t>(subscribers)) {
      std::fprintf(stderr, "multi_process: only %zu/%d subscribers joined\n",
                   w.engine->subscriber_count(), subscribers);
      return 1;
    }
  }

  const std::string payload(2048, 'm');
  for (int i = 0; i < writes; ++i) {
    std::lock_guard lock(w.engine_mu);
    w.engine->seed("page" + std::to_string(i % 16) + ".html",
                   payload + std::to_string(i));
  }
  {
    std::lock_guard lock(w.engine_mu);
    w.engine->seed("fence.html", "burst-complete");
  }

  // Pump the flow window while the children converge: finalize flushes
  // batches parked behind a paused peer once its resume event lands,
  // and tick retransmits the oldest unacked frame into any lossy gap.
  std::atomic<bool> done{false};
  std::thread pump([&] {
    while (!done.load()) {
      {
        std::lock_guard lock(w.engine_mu);
        w.engine->finalize_propagation();
      }
      w.window.tick(self);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  bool all_match = true;
  const std::uint64_t expect = w.snapshot_hash();
  for (std::size_t i = 0; i < report_fds.size(); ++i) {
    std::uint64_t got = 0;
    const ssize_t n = read(report_fds[i], &got, sizeof(got));
    const bool match = n == sizeof(got) && got == expect;
    std::printf("  subscriber %zu: %s\n", i + 1,
                match ? "converged" : "DIVERGED");
    all_match = all_match && match;
    close(report_fds[i]);
  }
  done.store(true);
  pump.join();

  bool kids_clean = true;
  for (pid_t pid : kids) {
    int status = 0;
    waitpid(pid, &status, 0);
    kids_clean =
        kids_clean && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  const auto& ws = w.window.stats();
  std::printf(
      "multi_process: %d subscribers, %d writes over UDP: frames=%llu "
      "coalesced=%llu retransmits=%llu acks=%llu verdict=%s\n",
      subscribers, writes,
      static_cast<unsigned long long>(ws.data_frames_sent),
      static_cast<unsigned long long>(ws.datagrams_coalesced),
      static_cast<unsigned long long>(ws.retransmits),
      static_cast<unsigned long long>(ws.acks_received),
      (all_match && kids_clean) ? "clean" : "FAILED");
  return (all_match && kids_clean) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const int base = argc > 1 ? std::atoi(argv[1]) : 47310;
  const int subscribers = argc > 2 ? std::atoi(argv[2]) : 4;
  const int writes = argc > 3 ? std::atoi(argv[3]) : 48;

  {
    // Probe before forking: SocketHost owns receive threads, and a
    // process must not fork while they run. The probe is destroyed
    // (threads joined) before any child exists.
    net::SocketHost probe;
    if (!probe.ok()) {
      std::printf("multi_process: sockets unavailable; skipping\n");
      return 0;
    }
  }

  std::vector<std::array<int, 2>> pipes(
      static_cast<std::size_t>(subscribers));
  for (auto& p : pipes) {
    if (pipe(p.data()) != 0) {
      std::perror("pipe");
      return 1;
    }
  }

  std::vector<pid_t> kids;
  for (int s = 1; s <= subscribers; ++s) {
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      for (int n = 0; n < subscribers; ++n) {
        close(pipes[static_cast<std::size_t>(n)][0]);
        if (n != s - 1) close(pipes[static_cast<std::size_t>(n)][1]);
      }
      return run_subscriber(base, s, subscribers, writes,
                            pipes[static_cast<std::size_t>(s - 1)][1]);
    }
    kids.push_back(pid);
  }
  std::vector<int> report_fds;
  for (auto& p : pipes) {
    close(p[1]);
    report_fds.push_back(p[0]);
  }
  return run_primary(base, subscribers, writes, report_fds, kids);
}
