// Contact points and store classes.
//
// Binding (Section 2) starts by resolving an object name to an ObjectId
// and the ObjectId to a set of contact points — the addresses of the
// stores that carry the object, each labelled with its store class from
// the layered model of Section 3.1 (Figure 2).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "globe/net/address.hpp"
#include "globe/util/buffer.hpp"
#include "globe/util/ids.hpp"

namespace globe::naming {

/// The three store layers of Section 3.1.
enum class StoreClass : std::uint8_t {
  kPermanent = 0,        // e.g. a Web server; implements persistence
  kObjectInitiated = 1,  // e.g. a mirrored Web site
  kClientInitiated = 2,  // e.g. a Web proxy cache
};

[[nodiscard]] inline const char* to_string(StoreClass c) {
  switch (c) {
    case StoreClass::kPermanent: return "permanent";
    case StoreClass::kObjectInitiated: return "object-initiated";
    case StoreClass::kClientInitiated: return "client-initiated";
  }
  return "?";
}

struct ContactPoint {
  net::Address address;
  StoreClass store_class = StoreClass::kPermanent;
  StoreId store_id = kInvalidStore;
  bool is_primary = false;

  friend bool operator==(const ContactPoint&, const ContactPoint&) = default;

  void encode(util::Writer& w) const {
    net::encode_address(w, address);
    w.u8(static_cast<std::uint8_t>(store_class));
    w.varint(store_id);
    w.boolean(is_primary);
  }

  /// Fewest bytes encode() emits: the address, class, a one-byte store
  /// id and the primary flag.
  static constexpr std::size_t kMinEncodedBytes =
      net::kMinAddressBytes + 1 + 1 + 1;

  static ContactPoint decode(util::Reader& r) {
    ContactPoint c;
    c.address = net::decode_address(r);
    c.store_class = static_cast<StoreClass>(r.u8());
    c.store_id = r.varint32();
    c.is_primary = r.boolean();
    return c;
  }
};

/// Tie-break hash for same-layer contact selection: a splitmix64-style
/// mix of (object, client). Using the raw client id spreads clients of
/// ONE object, but a client binding to many objects would land on the
/// same replica index everywhere, and sequentially-numbered clients
/// stripe instead of scatter; mixing both coordinates spreads the load
/// in either direction.
[[nodiscard]] inline std::uint64_t contact_spread(ObjectId object,
                                                 std::uint64_t client) {
  std::uint64_t x = object + 0x9E3779B97F4A7C15ull * (client + 1);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

/// Read-contact selection shared by the Binder and by view-change
/// rebinding: nearest layer at or below the preferred one, falling back
/// upward (cache -> mirror -> permanent). `spread` breaks ties among
/// same-layer contacts (see contact_spread), so rebinding clients spread
/// across the surviving stores instead of piling onto the first one.
[[nodiscard]] inline const ContactPoint* choose_read_contact(
    const std::vector<ContactPoint>& contacts, StoreClass preferred,
    std::uint64_t spread = 0) {
  const StoreClass order[] = {preferred, StoreClass::kClientInitiated,
                              StoreClass::kObjectInitiated,
                              StoreClass::kPermanent};
  for (StoreClass cls : order) {
    std::vector<const ContactPoint*> layer;
    for (const auto& c : contacts) {
      if (c.store_class == cls) layer.push_back(&c);
    }
    if (!layer.empty()) return layer[spread % layer.size()];
  }
  return contacts.empty() ? nullptr : &contacts.front();
}

/// Write-contact selection: the primary for single-master objects, the
/// read choice otherwise (multi-master objects accept writes anywhere).
[[nodiscard]] inline const ContactPoint* choose_write_contact(
    const std::vector<ContactPoint>& contacts, bool multi_master,
    const ContactPoint* read_choice) {
  if (multi_master) return read_choice;
  for (const auto& c : contacts) {
    if (c.is_primary) return &c;
  }
  return read_choice;
}

}  // namespace globe::naming
