// Network addresses: (node, port) endpoints.
//
// A node models one address space (Figure 1 of the paper); within a node,
// ports demultiplex traffic to local objects and services (a store's
// replication object, the naming service, a client runtime).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "globe/util/buffer.hpp"
#include "globe/util/ids.hpp"

namespace globe::net {

struct Address {
  NodeId node = kInvalidNode;
  PortId port = 0;

  friend bool operator==(const Address&, const Address&) = default;
  friend auto operator<=>(const Address&, const Address&) = default;

  [[nodiscard]] bool valid() const { return node != kInvalidNode; }
  [[nodiscard]] std::string str() const {
    return std::to_string(node) + ":" + std::to_string(port);
  }
};

inline constexpr Address kInvalidAddress{};

/// Wire form of an address: node and port as varints.
inline void encode_address(util::Writer& w, const Address& a) {
  w.varint(a.node);
  w.varint(a.port);
}

inline Address decode_address(util::Reader& r) {
  Address a;
  a.node = r.varint32();
  a.port = r.varint16();
  return a;
}

/// Fewest bytes encode_address emits: one per varint.
inline constexpr std::size_t kMinAddressBytes = 2;

}  // namespace globe::net

template <>
struct std::hash<globe::net::Address> {
  std::size_t operator()(const globe::net::Address& a) const noexcept {
    return (static_cast<std::size_t>(a.node) << 16) ^ a.port;
  }
};
