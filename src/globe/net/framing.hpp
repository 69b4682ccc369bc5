// Wire framing for the transport layer.
//
// Two independent codecs live here, both built on util::Writer/Reader so
// every malformed input surfaces as util::CodecError instead of garbage:
//
//  * Flow frames — the windowed multicast protocol's datagrams. They
//    travel as ordinary transport payloads next to plain envelopes; the
//    first byte disambiguates (MsgType values are small, flow frames
//    claim 0xF1/0xF2). A data frame carries a per-channel sequence
//    number and one or more coalesced sub-datagrams; an ack frame
//    carries a cumulative ack, a selective-retransmit list, and the
//    receiver's credit grant.
//
//  * Socket frames — the UDP/TCP host header of net::SocketTransport.
//    Globe addresses are (node, port) pairs that a kernel sockaddr does
//    not carry, so every datagram names its source and destination
//    endpoints. On TCP the stream is chopped into length-prefixed
//    frames by TcpFrameAssembler, which tolerates arbitrary
//    fragmentation and rejects oversized or corrupt prefixes.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "globe/net/address.hpp"
#include "globe/util/buffer.hpp"

namespace globe::net {

using util::Buffer;
using util::BytesView;
using util::CodecError;
using util::Reader;
using util::Writer;

// ---------------------------------------------------------------------
// Flow frames (windowed multicast)
// ---------------------------------------------------------------------

/// First-byte discriminator. Plain envelopes start with a MsgType
/// (currently < 0x40); anything at or above kFlowFrameFloor belongs to
/// the flow-control layer and never reaches the communication object.
inline constexpr std::uint8_t kFlowFrameFloor = 0xF0;
inline constexpr std::uint8_t kDataFrameKind = 0xF1;
inline constexpr std::uint8_t kAckFrameKind = 0xF2;

[[nodiscard]] inline bool is_flow_frame(BytesView payload) {
  return !payload.empty() &&
         static_cast<std::uint8_t>(payload[0]) >= kFlowFrameFloor;
}

/// Windowed data frame: seq + coalesced sub-datagrams.
struct DataFrame {
  /// Flag bits (third header byte).
  static constexpr std::uint8_t kFlagAckNow = 0x01;
  static constexpr std::uint8_t kFlagReset = 0x02;

  std::uint64_t seq = 0;
  /// Solicit an immediate ack (window about to fill, or end of burst).
  bool ack_now = false;
  /// First frame of a (re)started stream: the receiver adopts `seq` as
  /// its expected position instead of nacking the gap — the sender no
  /// longer holds anything older (fresh channel, or a channel reset
  /// after an eviction; the application layer resyncs state itself).
  bool reset = false;
  /// Borrowed views into the frame buffer, one per coalesced datagram.
  std::vector<BytesView> payloads;

  /// Encodes header + payloads into one wire buffer.
  static void encode(Writer& w, std::uint64_t seq, bool ack_now, bool reset,
                     const std::vector<BytesView>& bodies) {
    w.u8(kDataFrameKind);
    w.u64(seq);
    w.u8(static_cast<std::uint8_t>((ack_now ? kFlagAckNow : 0) |
                                   (reset ? kFlagReset : 0)));
    w.varint(bodies.size());
    for (const BytesView& b : bodies) w.bytes(b);
  }

  /// Borrow-decodes; the returned views alias `wire`.
  static DataFrame decode(BytesView wire) {
    Reader r(wire);
    DataFrame f;
    if (r.u8() != kDataFrameKind) throw CodecError("not a data frame");
    f.seq = r.u64();
    const std::uint8_t flags = r.u8();
    if ((flags & ~(kFlagAckNow | kFlagReset)) != 0) {
      throw CodecError("invalid data-frame flags");
    }
    f.ack_now = (flags & kFlagAckNow) != 0;
    f.reset = (flags & kFlagReset) != 0;
    const std::uint64_t count = r.count(1);  // a payload's length varint
    if (count == 0) throw CodecError("empty data frame");
    f.payloads.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) f.payloads.push_back(r.bytes());
    r.expect_end();
    return f;
  }
};

/// Credit/ack frame: everything below `cumulative` is delivered;
/// `missing` asks for selective retransmission of still-needed frames
/// the receiver knows it is missing; `credit` is the window the receiver
/// grants from `cumulative` on.
struct AckFrame {
  std::uint64_t cumulative = 0;
  std::uint32_t credit = 0;
  std::vector<std::uint64_t> missing;

  void encode(Writer& w) const {
    w.u8(kAckFrameKind);
    w.u64(cumulative);
    w.u32(credit);
    w.varint(missing.size());
    for (std::uint64_t seq : missing) w.u64(seq);
  }

  static AckFrame decode(BytesView wire) {
    Reader r(wire);
    AckFrame a;
    if (r.u8() != kAckFrameKind) throw CodecError("not an ack frame");
    a.cumulative = r.u64();
    a.credit = r.u32();
    const std::uint64_t count = r.count(sizeof(std::uint64_t));
    a.missing.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) a.missing.push_back(r.u64());
    r.expect_end();
    return a;
  }
};

// ---------------------------------------------------------------------
// Socket frames (UDP/TCP host header)
// ---------------------------------------------------------------------

inline constexpr std::uint32_t kSocketFrameMagic = 0x47'4C'42'31;  // "GLB1"
inline constexpr std::uint8_t kSocketFlagBackground = 0x01;

/// Host-level header of every socket datagram / TCP frame.
struct SocketFrame {
  Address from;
  Address to;
  bool background = false;
  BytesView payload;  // borrowed from the receive buffer

  static constexpr std::size_t kHeaderSize = 4 + 1 + (4 + 2) * 2;

  static void encode_header(Writer& w, const Address& from, const Address& to,
                            bool background) {
    w.u32(kSocketFrameMagic);
    w.u8(background ? kSocketFlagBackground : 0);
    w.u32(from.node);
    w.u16(from.port);
    w.u32(to.node);
    w.u16(to.port);
  }

  /// Encodes a header into a fixed stack-friendly buffer (for iovec
  /// scatter-gather sends that never copy the payload).
  [[nodiscard]] static Buffer header_bytes(const Address& from,
                                           const Address& to,
                                           bool background) {
    Writer w;
    w.reserve(kHeaderSize);
    encode_header(w, from, to, background);
    return w.take();
  }

  static SocketFrame decode(BytesView wire) {
    Reader r(wire);
    SocketFrame f;
    if (r.u32() != kSocketFrameMagic) throw CodecError("bad socket magic");
    const std::uint8_t flags = r.u8();
    if ((flags & ~kSocketFlagBackground) != 0) {
      throw CodecError("unknown socket-frame flags");
    }
    f.background = (flags & kSocketFlagBackground) != 0;
    f.from.node = r.u32();
    f.from.port = r.u16();
    f.to.node = r.u32();
    f.to.port = r.u16();
    f.payload = r.rest();
    return f;
  }
};

/// Reassembles length-prefixed frames from an arbitrarily fragmented
/// byte stream (the TCP fallback lane). Each frame on the stream is
/// [u32 length][length bytes]; a length of zero or above `max_frame`
/// poisons the stream (CodecError) — a corrupt prefix would otherwise
/// desynchronise every following frame.
class TcpFrameAssembler {
 public:
  explicit TcpFrameAssembler(std::size_t max_frame = 64 * 1024 * 1024)
      : max_frame_(max_frame) {}

  /// Appends raw stream bytes and extracts every complete frame.
  std::vector<Buffer> feed(BytesView bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
    std::vector<Buffer> frames;
    std::size_t pos = 0;
    while (buf_.size() - pos >= 4) {
      std::uint32_t len = 0;
      for (std::size_t i = 0; i < 4; ++i) {
        len |= static_cast<std::uint32_t>(
                   static_cast<std::uint8_t>(buf_[pos + i]))
               << (8 * i);
      }
      if (len == 0) throw CodecError("zero-length tcp frame");
      if (len > max_frame_) throw CodecError("oversized tcp frame");
      if (buf_.size() - pos - 4 < len) break;  // incomplete tail
      frames.emplace_back(buf_.begin() + static_cast<std::ptrdiff_t>(pos + 4),
                          buf_.begin() +
                              static_cast<std::ptrdiff_t>(pos + 4 + len));
      pos += 4 + len;
    }
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos));
    return frames;
  }

  /// Bytes buffered awaiting a complete frame.
  [[nodiscard]] std::size_t pending_bytes() const { return buf_.size(); }

  /// Prefixes `frame` with its length for the stream.
  static void encode_prefix(Writer& w, std::size_t frame_len) {
    w.u32(static_cast<std::uint32_t>(frame_len));
  }

 private:
  std::size_t max_frame_;
  Buffer buf_;
};

}  // namespace globe::net
