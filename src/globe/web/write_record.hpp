// Write records: the unit of coherence transfer.
//
// Every mutation of a Web document is captured as a WriteRecord tagged
// with its WiD, its dependency clock, the primary-assigned global
// sequence number (when the model has a primary), and a Lamport-style
// timestamp used for last-writer-wins merging under eventual coherence.
//
// The Table 1 "coherence transfer type" parameter maps onto how records
// travel: `partial` ships individual records, `full` ships a document
// snapshot, `notification` ships nothing but an outdated flag.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "globe/coherence/vector_clock.hpp"
#include "globe/coherence/write_id.hpp"
#include "globe/util/buffer.hpp"
#include "globe/util/time.hpp"

namespace globe::web {

using coherence::VectorClock;
using coherence::WriteId;

enum class WriteOp : std::uint8_t { kPut = 0, kDelete = 1 };

struct WriteRecord {
  WriteId wid;
  WriteOp op = WriteOp::kPut;
  std::string page;
  std::string content;  // empty for kDelete
  std::string mime = "text/html";
  VectorClock deps;             // causal / session dependencies
  std::uint64_t global_seq = 0;  // total-order position (0 = unassigned)
  std::uint64_t lamport = 0;     // LWW tie-break for eventual coherence
  std::int64_t issued_at_us = 0; // client issue time (staleness metrics)
  bool ordered = false;          // per-writer ordered application required
                                 // at every store (monotonic writes)
  // Transient (never serialized): endpoint key of the neighbour this
  // record arrived from, used to avoid reflecting it straight back.
  // 0 = originated locally (client write / seed).
  std::uint64_t transient_origin = 0;

  void encode(util::Writer& w) const {
    wid.encode(w);
    w.u8(static_cast<std::uint8_t>(op));
    w.str(page);
    w.str(content);
    w.str(mime);
    deps.encode(w);
    w.varint(global_seq);
    w.varint(lamport);
    w.varint_i64(issued_at_us);
    w.boolean(ordered);
  }

  static WriteRecord decode(util::Reader& r) {
    WriteRecord rec;
    rec.wid = WriteId::decode(r);
    rec.op = static_cast<WriteOp>(r.u8());
    rec.page = r.str();
    rec.content = r.str();
    rec.mime = r.str();
    rec.deps = VectorClock::decode(r);
    rec.global_seq = r.varint();
    rec.lamport = r.varint();
    rec.issued_at_us = r.varint_i64();
    rec.ordered = r.boolean();
    return rec;
  }

  /// Lower bound on encode()'s output: the smallest WiD, the op and
  /// flag bytes, and a one-byte varint for each length, count and number.
  static constexpr std::size_t kMinEncodedBytes =
      WriteId::kMinEncodedBytes + 1 + 3 + 1 + 3 + 1;

  /// Upper bound on encode()'s output, to size a buffer once.
  [[nodiscard]] std::size_t encoded_size_bound() const {
    return WriteId::kMaxEncodedBytes + 1 + 3 * util::kMaxVarintBytes +
           page.size() + content.size() + mime.size() +
           deps.encoded_size_bound() + 3 * util::kMaxVarintBytes + 1;
  }

};

inline void encode_records(util::Writer& w,
                           std::span<const WriteRecord> records) {
  w.varint(records.size());
  for (const auto& rec : records) rec.encode(w);
}

inline std::vector<WriteRecord> decode_records(util::Reader& r) {
  const std::uint64_t n = r.count(WriteRecord::kMinEncodedBytes);
  std::vector<WriteRecord> records;
  records.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    records.push_back(WriteRecord::decode(r));
  }
  return records;
}

}  // namespace globe::web
