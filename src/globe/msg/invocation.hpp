// Encoded method invocations.
//
// The paper's key structural requirement: replication and communication
// objects are unaware of the semantics object's methods and state; they
// handle only invocation messages in which method identifiers and
// parameters have been encoded. Invocation is that encoding. The Web
// semantics object (globe::web) defines the method ids it understands.
#pragma once

#include <cstdint>
#include <string>

#include "globe/util/buffer.hpp"

namespace globe::msg {

using util::Buffer;
using util::BytesView;
using util::Reader;
using util::Writer;

/// Method identifiers for the Web document interface (Section 2: "a
/// method for selecting a page and reading it ... a method for replacing
/// one of the document's pages").
enum class Method : std::uint32_t {
  kGetPage = 1,      // args: page name                -> page content
  kPutPage = 2,      // args: page name, content, mime -> ack
  kDeletePage = 3,   // args: page name                -> ack
  kListPages = 4,    // args: none                     -> page names
  kGetDocument = 5,  // args: none                     -> full document
};

[[nodiscard]] constexpr bool is_write(Method m) {
  return m == Method::kPutPage || m == Method::kDeletePage;
}

[[nodiscard]] const char* to_string(Method m);

struct Invocation {
  Method method{};
  Buffer args;

  [[nodiscard]] bool writes() const { return is_write(method); }

  /// The method and the length-prefixed arguments: self-delimiting, so
  /// a request carries an invocation inline.
  void encode(Writer& w) const {
    w.varint(static_cast<std::uint32_t>(method));
    w.bytes(BytesView(args));
  }

  static Invocation decode(Reader& r) {
    Invocation inv;
    inv.method = static_cast<Method>(r.varint32());
    inv.args = r.bytes_copy();
    return inv;
  }

  static Invocation decode(BytesView wire) {
    Reader r(wire);
    Invocation inv = decode(r);
    r.expect_end();
    return inv;
  }

  // -- Argument constructors for the Web method set -------------------

  static Invocation get_page(std::string_view page) {
    Writer w;
    w.str(page);
    return Invocation{Method::kGetPage, w.take()};
  }

  static Invocation put_page(std::string_view page, std::string_view content,
                             std::string_view mime = "text/html") {
    Writer w;
    w.str(page);
    w.str(content);
    w.str(mime);
    return Invocation{Method::kPutPage, w.take()};
  }

  static Invocation delete_page(std::string_view page) {
    Writer w;
    w.str(page);
    return Invocation{Method::kDeletePage, w.take()};
  }

  static Invocation list_pages() { return Invocation{Method::kListPages, {}}; }

  static Invocation get_document() {
    return Invocation{Method::kGetDocument, {}};
  }
};

}  // namespace globe::msg
