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

  /// Fewest and most bytes encode() emits: a varint client id and seq.
  static constexpr std::size_t kMinEncodedBytes = 2;
  static constexpr std::size_t kMaxEncodedBytes =
      util::kMaxVarint32Bytes + util::kMaxVarintBytes;

  /// Bytes encode() emits.
  [[nodiscard]] std::size_t encoded_size() const {
    return util::varint_size(client) + util::varint_size(seq);
  }

  void encode(util::Writer& w) const {
    w.varint(client);
    w.varint(seq);
  }

  static WriteId decode(util::Reader& r) {
    WriteId wid;
    wid.client = r.varint32();
    wid.seq = r.varint();
    return wid;
  }
};

inline constexpr WriteId kNoWrite{};

}  // namespace globe::coherence

template <>
struct std::hash<globe::coherence::WriteId> {
  std::size_t operator()(const globe::coherence::WriteId& w) const noexcept {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(w.client) << 40) ^ w.seq);
  }
};
