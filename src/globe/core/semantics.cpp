#include "globe/core/semantics.hpp"

#include "globe/util/assert.hpp"

namespace globe::core {

void PageReadValue::encode(util::Writer& w) const {
  w.str(content);
  w.str(mime);
  writer.encode(w);
  w.varint(global_seq);
  w.varint_i64(updated_at_us);
}

PageReadValue PageReadValue::decode(util::Reader& r) {
  PageReadValue v;
  v.content = r.str();
  v.mime = r.str();
  v.writer = coherence::WriteId::decode(r);
  v.global_seq = r.varint();
  v.updated_at_us = r.varint_i64();
  return v;
}

InvokeResult WebSemanticsObject::execute_read(const Invocation& inv) const {
  InvokeResult res;
  util::Reader args{util::BytesView(inv.args)};
  switch (inv.method) {
    case msg::Method::kGetPage: {
      const std::string page = args.str();
      const auto p = doc_.get(page);
      if (!p) {
        res.error = page_not_found(page);
        return res;
      }
      util::Writer w;
      PageReadValue{p->content, p->mime, p->last_writer, p->global_seq,
                    p->updated_at_us}
          .encode(w);
      res.ok = true;
      res.value = w.take();
      return res;
    }
    case msg::Method::kListPages: {
      util::Writer w;
      const auto names = doc_.page_names();
      w.varint(names.size());
      for (const auto& n : names) w.str(n);
      res.ok = true;
      res.value = w.take();
      return res;
    }
    case msg::Method::kGetDocument: {
      res.ok = true;
      res.value = *doc_.snapshot();  // reply value is owned; copy the cache
      return res;
    }
    default:
      res.error = "not a read method";
      return res;
  }
}

web::WriteRecord WebSemanticsObject::to_record(const Invocation& inv) const {
  util::Reader args{util::BytesView(inv.args)};
  web::WriteRecord rec;
  switch (inv.method) {
    case msg::Method::kPutPage:
      rec.op = web::WriteOp::kPut;
      rec.page = args.str();
      rec.content = args.str();
      rec.mime = args.str();
      return rec;
    case msg::Method::kDeletePage:
      rec.op = web::WriteOp::kDelete;
      rec.page = args.str();
      return rec;
    default:
      GLOBE_ASSERT_MSG(false, "to_record called on a read method");
  }
  return rec;  // unreachable
}

}  // namespace globe::core
