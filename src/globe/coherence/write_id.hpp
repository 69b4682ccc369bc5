// Write identifiers.
//
// Section 4.2 of the paper: "a unique write identifier (WiD) is assigned
// to each new write, composed of the client's identifier and a sequence
// number". WiDs are the unit of ordering for PRAM/FIFO coherence and of
// dependency tracking for the client-based (session) models.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <string>

#include "globe/util/buffer.hpp"
#include "globe/util/ids.hpp"

namespace globe::coherence {

struct WriteId {
  ClientId client = 0;
  std::uint64_t seq = 0;  // 0 means "no write" / unset

  friend bool operator==(const WriteId&, const WriteId&) = default;
  friend auto operator<=>(const WriteId&, const WriteId&) = default;

  [[nodiscard]] bool valid() const { return seq != 0; }

  [[nodiscard]] std::string str() const {
    return "w(" + std::to_string(client) + "," + std::to_string(seq) + ")";
  }

  /// Bytes encode() emits.
  static constexpr std::size_t kEncodedBytes =
      sizeof(std::uint32_t) + sizeof(std::uint64_t);

  void encode(util::Writer& w) const {
    w.u32(client);
    w.u64(seq);
  }

  static WriteId decode(util::Reader& r) {
    WriteId wid;
    wid.client = r.u32();
    wid.seq = r.u64();
    return wid;
  }
};

inline constexpr WriteId kNoWrite{};

/// A client-side dependency: "my read/write depends on this write, which
/// I performed or observed at this store" (Section 4.2: dependency
/// <WiD, store id> is transmitted with a read request).
struct Dependency {
  WriteId wid;
  StoreId store = kInvalidStore;

  friend bool operator==(const Dependency&, const Dependency&) = default;

  void encode(util::Writer& w) const {
    wid.encode(w);
    w.u32(store);
  }

  static Dependency decode(util::Reader& r) {
    Dependency d;
    d.wid = WriteId::decode(r);
    d.store = r.u32();
    return d;
  }
};

}  // namespace globe::coherence

template <>
struct std::hash<globe::coherence::WriteId> {
  std::size_t operator()(const globe::coherence::WriteId& w) const noexcept {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(w.client) << 40) ^ w.seq);
  }
};
