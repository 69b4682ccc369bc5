// Shared record batches: the unit of zero-copy propagation fan-out.
//
// When a store propagates applied writes to its subscribers, every
// subscriber receives the same record payload. A RecordBatch captures
// that payload once — the records serialized back-to-back into a single
// immutable wire fragment — and is shared by reference across every
// subscriber: lazy queues hold shared_ptr segments instead of per-target
// record copies, and immediate push splices the pre-encoded bytes
// straight into each outgoing wire buffer. A write is therefore encoded
// exactly once no matter how many replicas it reaches.
//
// The fragment deliberately carries no record-count prefix, so several
// batches concatenate into one kUpdate body (encode_batches below emits
// the combined count, matching web::encode_records' wire layout).
#pragma once

#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "globe/util/assert.hpp"
#include "globe/util/buffer.hpp"
#include "globe/web/write_record.hpp"

namespace globe::web {

/// What a batch must materialize, decided by the propagation mode of
/// the store building it: partial update transfers splice the encoded
/// bytes, invalidate transfers read only the page list, and
/// notification/full transfers need neither (the batch then only marks
/// "this target has pending data").
struct BatchNeeds {
  bool wire = true;
  bool pages = true;
};

class RecordBatch {
 public:
  /// Captures `recs` in order. `origin` is the endpoint key the records
  /// arrived from (0 = local); fan-out uses it to avoid reflecting a
  /// batch straight back to the neighbour that sent it, so all records
  /// in one batch must share it.
  RecordBatch(std::span<const WriteRecord> recs, std::uint64_t origin,
              BatchNeeds needs = {})
      : count_(recs.size()), origin_(origin) {
    if (needs.wire) {
      util::Writer w;
      std::size_t bytes = 0;
      for (const WriteRecord& rec : recs) bytes += rec.encoded_size_bound();
      w.reserve(bytes);
      for (const WriteRecord& rec : recs) rec.encode(w);
      wire_ = w.take();
    }
    if (needs.pages) {
      std::set<std::string> distinct;
      for (const WriteRecord& rec : recs) distinct.insert(rec.page);
      pages_.assign(distinct.begin(), distinct.end());
    }
  }

  [[nodiscard]] std::size_t count() const { return count_; }
  /// The encoded records, back-to-back, without a count prefix.
  [[nodiscard]] util::BytesView bytes() const { return util::BytesView(wire_); }
  [[nodiscard]] std::uint64_t origin() const { return origin_; }
  /// Distinct pages touched, sorted (invalidate fan-out).
  [[nodiscard]] const std::vector<std::string>& pages() const { return pages_; }

 private:
  util::Buffer wire_;
  std::size_t count_ = 0;
  std::uint64_t origin_ = 0;
  std::vector<std::string> pages_;
};

using RecordBatchPtr = std::shared_ptr<const RecordBatch>;

/// Emits a sequence of batches as one `encode_records`-compatible field:
/// the combined count followed by each batch's pre-encoded bytes.
inline void encode_batches(util::Writer& w,
                           std::span<const RecordBatchPtr> batches) {
  std::uint64_t total = 0;
  for (const RecordBatchPtr& b : batches) total += b->count();
  w.varint(total);
  for (const RecordBatchPtr& b : batches) {
    // A batch built with needs.wire=false has a count but no bytes;
    // splicing it here would silently emit a short kUpdate body.
    GLOBE_DCHECK_MSG(b->count() == 0 || !b->bytes().empty(),
                     "encoding a record batch captured without wire bytes");
    w.raw(b->bytes());
  }
}

/// Total records across a batch sequence.
[[nodiscard]] inline std::size_t batch_record_count(
    std::span<const RecordBatchPtr> batches) {
  std::size_t total = 0;
  for (const RecordBatchPtr& b : batches) total += b->count();
  return total;
}

}  // namespace globe::web
