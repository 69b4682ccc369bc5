// Coherence model definitions (Sections 3.2.1 and 3.2.2 of the paper).
#pragma once

#include <cstdint>
#include <string>

namespace globe::coherence {

/// Object-based coherence models: the consistency an object offers to its
/// whole set of clients (Section 3.2.1).
enum class ObjectModel : std::uint8_t {
  /// Global total ordering of operations (Lamport 1979).
  kSequential = 0,
  /// Writes by a given client appear everywhere in issue order
  /// (Lipton & Sandberg 1988).
  kPram = 1,
  /// FIFO optimisation of PRAM: a write is honored only if it is more
  /// recent than the latest write from the same client; stale writes are
  /// ignored. Better when clients overwrite rather than update
  /// incrementally.
  kFifoPram = 2,
  /// Ordering guaranteed only between causally related operations
  /// (Hutto & Ahamad 1990).
  kCausal = 3,
  /// Updates eventually propagate; no ordering constraints.
  kEventual = 4,
};

[[nodiscard]] const char* to_string(ObjectModel m);

/// True for the models that accept writes at any store (causal and
/// eventual); the others order writes at the primary.
[[nodiscard]] constexpr bool multi_master(ObjectModel m) {
  return m == ObjectModel::kCausal || m == ObjectModel::kEventual;
}

/// Client-based coherence models (Section 3.2.2); these are the Bayou
/// session guarantees, but *guaranteed* by the stores rather than merely
/// checked. They may be combined, so they form a bitmask.
enum class ClientModel : std::uint8_t {
  kNone = 0,
  /// Client-PRAM / Monotonic Writes: this client's writes appear on every
  /// store in issue order.
  kMonotonicWrites = 1 << 0,
  /// Read Your Writes: effects of every write by the client are visible
  /// to all of its subsequent reads.
  kReadYourWrites = 1 << 1,
  /// Monotonic Reads: a later read (possibly at a different store) sees a
  /// state at least as new as any earlier read.
  kMonotonicReads = 1 << 2,
  /// Client-causal / Writes Follow Reads: the client's writes are ordered
  /// after the writes it had observed.
  kWritesFollowReads = 1 << 3,
};

[[nodiscard]] constexpr ClientModel operator|(ClientModel a, ClientModel b) {
  return static_cast<ClientModel>(static_cast<std::uint8_t>(a) |
                                  static_cast<std::uint8_t>(b));
}

[[nodiscard]] constexpr bool has(ClientModel set, ClientModel flag) {
  return (static_cast<std::uint8_t>(set) & static_cast<std::uint8_t>(flag)) !=
         0;
}

[[nodiscard]] std::string to_string(ClientModel m);

/// True when the object-based model already subsumes the client-based one
/// (Section 3.2.2: "if the object offers sequential consistency, then it
/// automatically offers every client-based model as well").
[[nodiscard]] bool subsumes(ObjectModel object, ClientModel client);

}  // namespace globe::coherence
