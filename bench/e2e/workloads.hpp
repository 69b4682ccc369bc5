// The end-to-end benchmark's four traffic mixes: their deployments and
// their generated op streams. Everything is built through the library's
// public API (Testbed builders, ClientBinding calls, fault scripts); the
// library does not know the benchmark exists.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "globe/replication/testbed.hpp"

namespace globe::e2e {

enum class OpKind : std::uint8_t { kRead, kWrite, kDelete };

/// One generated operation, issued open-loop at `offset` after the start
/// of the measured phase.
struct Op {
  sim::SimDuration offset;
  std::uint32_t client = 0;   // index into Deployment::clients
  std::uint32_t object = 0;   // index into Deployment::objects
  std::uint32_t page = 0;     // index into Workload::pages
  std::uint32_t content = 0;  // index into Workload::contents (writes)
  OpKind kind = OpKind::kRead;
};

/// Sizes and shape of one traffic mix. `name` selects the deployment.
struct Spec {
  std::string name;
  int stores_mirrors = 0;  // tree deployments: object-initiated stores
  int stores_caches = 0;   // tree deployments: client-initiated stores
  int spare_caches = 0;    // of those, caches that serve no client
  int clients = 0;
  int authors = 0;         // clients that issue writes (0: every client)
  int shards = 0;          // sharded deployment (many_objects)
  int objects = 1;
  int pages = 24;
  std::size_t page_bytes = 1024;
  int ops = 0;
  sim::SimDuration interval;
  double write_frac = 0;
  int delete_every = 0;    // every n-th op is a delete (0 = none)
};

/// The named mix at full or smoke size; nullopt for an unknown name.
[[nodiscard]] std::optional<Spec> spec_for(const std::string& name,
                                           bool smoke);

/// Inputs derived from the seed alone: the op stream, the page names and
/// the write payloads. Identical for every rep of one invocation.
struct Workload {
  Spec spec;
  std::uint64_t seed = 1;
  std::vector<Op> ops;
  std::vector<std::string> pages;
  std::vector<std::string> contents;
};

[[nodiscard]] Workload make_workload(const Spec& spec, std::uint64_t seed);

/// CPU seconds of each set-up step; their sum is setup_s.
struct SetupTimes {
  double stores_s = 0;   // Testbed, stores, page seeding
  double place_s = 0;    // Testbed::place_objects
  double clients_s = 0;  // client bindings and their links
  double settle_s = 0;   // every pre-workload Testbed::settle()
  [[nodiscard]] double total() const {
    return stores_s + place_s + clients_s + settle_s;
  }
};

/// A deployed mix, settled and ready for the measured phase.
struct Deployment {
  std::unique_ptr<replication::Testbed> bed;
  std::vector<replication::ClientBinding*> clients;
  std::vector<ObjectId> objects;
  coherence::ObjectModel model = coherence::ObjectModel::kPram;
  coherence::ClientModel session = coherence::ClientModel::kNone;
  /// Fault script armed at the start of the measured phase (empty: none).
  std::string fault_script;
  SetupTimes setup;
};

[[nodiscard]] Deployment deploy(const Workload& w);

/// Process CPU time in seconds. The simulator is single-threaded, so
/// this is the CPU the deployment under test consumed.
[[nodiscard]] double cpu_seconds();

}  // namespace globe::e2e
