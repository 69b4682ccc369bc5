// Semantics objects.
//
// "This is a local object that implements (part of) the actual semantics
//  of the distributed object. In the case of Web objects, the semantics
//  object encapsulates the files that comprise the Web document."
//  (Section 2)
//
// The SemanticsObject interface is what the control object drives; the
// replication object never sees it (it handles encoded invocations
// only). WebSemanticsObject is the concrete implementation for Web
// documents.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "globe/msg/invocation.hpp"
#include "globe/util/buffer.hpp"
#include "globe/web/document.hpp"
#include "globe/web/write_record.hpp"

namespace globe::core {

using msg::Invocation;
using util::Buffer;

/// Result of executing a read-only invocation locally.
struct InvokeResult {
  bool ok = false;
  std::string error;  // set when !ok (e.g. page not found)
  Buffer value;       // method-specific encoding
};

class SemanticsObject {
 public:
  virtual ~SemanticsObject() = default;

  /// Executes a read-only invocation against local state.
  [[nodiscard]] virtual InvokeResult execute_read(
      const Invocation& inv) const = 0;

  /// Translates a write invocation into a write record (without applying
  /// it); ordering and application are the replication object's job.
  [[nodiscard]] virtual web::WriteRecord to_record(
      const Invocation& inv) const = 0;

  /// Applies an ordered write record to local state.
  virtual bool apply(const web::WriteRecord& rec) = 0;

  /// Applies a record under last-writer-wins conflict resolution.
  virtual bool apply_lww(const web::WriteRecord& rec) = 0;

  /// Full-state transfer. The returned buffer is immutable and shared:
  /// implementations may cache it between mutations, so callers fanning
  /// one snapshot out to many receivers pay for a single encode.
  [[nodiscard]] virtual util::SharedBuffer snapshot() const = 0;
  virtual void restore(util::BytesView snapshot) = 0;
};

/// Web-document semantics: the paper's running example.
class WebSemanticsObject final : public SemanticsObject {
 public:
  WebSemanticsObject() = default;

  [[nodiscard]] InvokeResult execute_read(const Invocation& inv) const override;
  [[nodiscard]] web::WriteRecord to_record(const Invocation& inv) const override;
  bool apply(const web::WriteRecord& rec) override { return doc_.apply(rec); }
  bool apply_lww(const web::WriteRecord& rec) override {
    return doc_.apply_lww(rec);
  }
  [[nodiscard]] util::SharedBuffer snapshot() const override {
    return doc_.snapshot();
  }
  void restore(util::BytesView snapshot) override { doc_.restore(snapshot); }

  [[nodiscard]] const web::WebDocument& document() const { return doc_; }
  [[nodiscard]] web::WebDocument& document() { return doc_; }

 private:
  web::WebDocument doc_;
};

/// The error of a kGetPage read of a page the document does not hold.
[[nodiscard]] inline std::string page_not_found(const std::string& page) {
  return "page not found: " + page;
}

/// Decodes the reply produced by WebSemanticsObject for kGetPage.
struct PageReadValue {
  std::string content;
  std::string mime;
  coherence::WriteId writer;

  void encode(util::Writer& w) const;
  static PageReadValue decode(util::Reader& r);
};

}  // namespace globe::core
