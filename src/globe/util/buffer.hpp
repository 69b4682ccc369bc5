// Byte buffers and a small bounds-checked binary codec.
//
// All wire traffic in the library — invocation messages, replication
// protocol messages, naming requests — is encoded with Writer and decoded
// with Reader. The format is deliberately simple and deterministic:
//   * unsigned LEB128 varints for every protocol integer (ids, sequence
//     numbers, versions, timestamps, lengths and counts); varint32 and
//     varint16 read back a narrower id and reject a wider value,
//   * single bytes for enums, flags and booleans,
//   * fixed-width little-endian integers only for values a varint cannot
//     shrink (uniformly random 64-bit ids) and for transport framing,
//   * length-prefixed strings / byte blobs.
// Reader throws CodecError on any out-of-bounds or malformed read, so a
// corrupted or truncated message can never silently yield garbage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace globe::util {

/// Error thrown by Reader on malformed or truncated input.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

/// Owned byte buffer used for all message payloads.
using Buffer = std::vector<std::byte>;

/// View over immutable bytes.
using BytesView = std::span<const std::byte>;

/// Immutable ref-counted buffer, shared across consumers without
/// copying: cached document snapshots, fan-out message bodies. A null
/// SharedBuffer means "no bytes".
using SharedBuffer = std::shared_ptr<const Buffer>;

[[nodiscard]] inline BytesView view_of(const SharedBuffer& b) {
  return b == nullptr ? BytesView{} : BytesView(*b);
}

inline Buffer to_buffer(std::string_view s) {
  Buffer b(s.size());
  // An empty vector's data() (and an empty view's) may be null, which
  // memcpy must not receive even for zero bytes.
  if (!s.empty()) std::memcpy(b.data(), s.data(), s.size());
  return b;
}

/// Explicit copy of a borrowed view, for the rare handler that must
/// retain bytes beyond the life of the receive buffer.
inline Buffer to_buffer(BytesView b) { return Buffer(b.begin(), b.end()); }

inline std::string to_string(BytesView b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

/// Longest encoding of a 64-bit varint.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Bytes Writer::varint emits for `v`.
[[nodiscard]] constexpr std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// Longest encoding of a varint that fits 32 bits (an id).
inline constexpr std::size_t kMaxVarint32Bytes = varint_size(0xFFFFFFFFu);

/// Appends binary data to a Buffer.
class Writer {
 public:
  Writer() = default;
  explicit Writer(Buffer initial) : out_(std::move(initial)) {}

  /// Pre-sizes the underlying buffer; senders that know the rough
  /// message size avoid reallocation during encoding.
  void reserve(std::size_t n) { out_.reserve(out_.size() + n); }

  void u8(std::uint8_t v) { out_.push_back(static_cast<std::byte>(v)); }

  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }
  void i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    put_le(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Unsigned LEB128 varint: the encoding of every protocol integer.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      u8(static_cast<std::uint8_t>((v & 0x7F) | 0x80));
      v >>= 7;
    }
    u8(static_cast<std::uint8_t>(v));
  }

  /// A signed value (a timestamp or duration in microseconds) as the
  /// varint of its two's-complement bits: a nonnegative value costs what
  /// varint() costs, a negative one the full ten bytes.
  void varint_i64(std::int64_t v) { varint(static_cast<std::uint64_t>(v)); }

  void bytes(BytesView b) {
    varint(b.size());
    raw(b);
  }

  void str(std::string_view s) {
    varint(s.size());
    out_.insert(out_.end(), reinterpret_cast<const std::byte*>(s.data()),
                reinterpret_cast<const std::byte*>(s.data() + s.size()));
  }

  /// Appends bytes without a length prefix.
  void raw(BytesView b) { out_.insert(out_.end(), b.begin(), b.end()); }

  [[nodiscard]] std::size_t size() const { return out_.size(); }
  [[nodiscard]] Buffer take() { return std::move(out_); }
  [[nodiscard]] const Buffer& view() const { return out_; }

 private:
  template <typename T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
    }
  }

  Buffer out_;
};

/// `m` encoded into a fresh buffer, for any message with an
/// `encode(Writer&) const` member. Senders encode straight into the wire
/// instead (CommunicationObject::send_with).
template <typename Message>
[[nodiscard]] Buffer encoded(const Message& m) {
  Writer w;
  m.encode(w);
  return w.take();
}

/// Reads binary data from a byte view with bounds checking.
class Reader {
 public:
  explicit Reader(BytesView in) : in_(in) {}
  explicit Reader(const Buffer& in) : in_(in) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(in_[pos_++]);
  }

  std::uint16_t u16() { return get_le<std::uint16_t>(); }
  std::uint32_t u32() { return get_le<std::uint32_t>(); }
  std::uint64_t u64() { return get_le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) throw CodecError("invalid boolean encoding");
    return v == 1;
  }

  std::uint64_t varint() {
    std::uint64_t result = 0;
    int shift = 0;
    for (;;) {
      if (shift >= 64) throw CodecError("varint too long");
      const std::uint8_t byte = u8();
      // The tenth byte holds bit 63 only: anything more overflows.
      if (shift == 63 && byte > 1) throw CodecError("varint overflows 64 bits");
      result |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    return result;
  }

  /// A varint that must fit 32 bits: client, store, node and shard ids.
  std::uint32_t varint32() { return narrow<std::uint32_t>("32-bit"); }
  /// A varint that must fit 16 bits: ports.
  std::uint16_t varint16() { return narrow<std::uint16_t>("16-bit"); }

  /// Reads what Writer::varint_i64 wrote.
  std::int64_t varint_i64() { return static_cast<std::int64_t>(varint()); }

  /// Reads the element count of a container that follows, each element
  /// at least `min_element_bytes` on the wire, and checks it against the
  /// bytes left: a forged count throws CodecError before it can size an
  /// allocation. Division, not multiplication: `n * min` wraps for
  /// forged counts near 2^64.
  std::uint64_t count(std::size_t min_element_bytes) {
    const std::uint64_t n = varint();
    if (n > remaining() / min_element_bytes) {
      throw CodecError("element count exceeds message");
    }
    return n;
  }

  BytesView bytes() {
    const std::uint64_t n = varint();
    need(n);
    BytesView v = in_.subspan(pos_, n);
    pos_ += n;
    return v;
  }

  std::string str() {
    BytesView v = bytes();
    return std::string(reinterpret_cast<const char*>(v.data()), v.size());
  }

  Buffer bytes_copy() {
    BytesView v = bytes();
    return Buffer(v.begin(), v.end());
  }

  /// Remaining unread bytes.
  [[nodiscard]] BytesView rest() const { return in_.subspan(pos_); }
  [[nodiscard]] std::size_t remaining() const { return in_.size() - pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == in_.size(); }

  /// Requires all input to have been consumed; call at end of decode.
  void expect_end() const {
    if (!at_end()) throw CodecError("trailing bytes after message");
  }

 private:
  void need(std::uint64_t n) const {
    if (n > in_.size() - pos_) throw CodecError("read past end of buffer");
  }

  template <typename T>
  T narrow(const char* what) {
    const std::uint64_t v = varint();
    if (v > std::numeric_limits<T>::max()) {
      throw CodecError(std::string("varint exceeds a ") + what + " field");
    }
    return static_cast<T>(v);
  }

  template <typename T>
  T get_le() {
    need(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<std::uint8_t>(in_[pos_ + i])) << (8 * i);
    }
    pos_ += sizeof(T);
    return v;
  }

  BytesView in_;
  std::size_t pos_ = 0;
};

}  // namespace globe::util
