#include "globe/naming/service.hpp"

#include <algorithm>

#include "globe/util/log.hpp"

namespace globe::naming {

namespace {

// Operation codes inside kNameRequest / kLocateRequest bodies.
enum class NameOp : std::uint8_t { kRegister = 0, kLookup = 1 };
enum class LocateOp : std::uint8_t { kRegisterContact = 0, kLocate = 1 };

}  // namespace

NamingServer::NamingServer(const TransportFactory& factory,
                           sim::Simulator* sim)
    : comm_(sim) {
  comm_.open(factory,
             [this](const Address& from, const msg::EnvelopeView& env) {
               on_message(from, env);
             });
}

void NamingServer::register_name(const std::string& name, ObjectId object) {
  names_[name] = object;
}

ObjectId NamingServer::lookup(const std::string& name) const {
  auto it = names_.find(name);
  return it == names_.end() ? 0 : it->second;
}

void NamingServer::register_contact(ObjectId object,
                                    const ContactPoint& contact) {
  auto& list = contacts_[object];
  auto it = std::find_if(list.begin(), list.end(),
                         [&](const ContactPoint& c) {
                           return c.address == contact.address;
                         });
  if (it != list.end()) {
    *it = contact;
  } else {
    list.push_back(contact);
  }
}

void NamingServer::unregister_contact(ObjectId object, const Address& addr) {
  auto it = contacts_.find(object);
  if (it == contacts_.end()) return;
  std::erase_if(it->second,
                [&](const ContactPoint& c) { return c.address == addr; });
}

std::vector<ContactPoint> NamingServer::locate(ObjectId object) const {
  auto it = contacts_.find(object);
  return it == contacts_.end() ? std::vector<ContactPoint>{} : it->second;
}

void NamingServer::on_message(const Address& from, const msg::EnvelopeView& env) {
  util::Reader r{env.body};
  switch (env.type) {
    case msg::MsgType::kNameRequest: {
      const auto op = static_cast<NameOp>(r.u8());
      if (op == NameOp::kRegister) {
        const std::string name = r.str();
        const ObjectId object = r.varint();
        register_name(name, object);
        comm_.reply_with(from, msg::MsgType::kNameReply, env.object,
                         env.request_id, [&](util::Writer& w) {
                           w.boolean(true);
                           w.varint(object);
                         });
      } else {
        const std::string name = r.str();
        const ObjectId object = lookup(name);
        comm_.reply_with(from, msg::MsgType::kNameReply, env.object,
                         env.request_id, [&](util::Writer& w) {
                           w.boolean(object != 0);
                           w.varint(object);
                         });
      }
      return;
    }
    case msg::MsgType::kLocateRequest: {
      const auto op = static_cast<LocateOp>(r.u8());
      if (op == LocateOp::kRegisterContact) {
        register_contact(env.object, ContactPoint::decode(r));
        comm_.reply_with(from, msg::MsgType::kLocateReply, env.object,
                         env.request_id,
                         [](util::Writer& w) { w.boolean(true); });
      } else if (op == LocateOp::kLocate) {
        const auto found = locate(env.object);
        comm_.reply_with(from, msg::MsgType::kLocateReply, env.object,
                         env.request_id, [&](util::Writer& w) {
                           w.boolean(!found.empty());
                           w.varint(found.size());
                           for (const auto& c : found) c.encode(w);
                         });
      } else {
        // An op this server does not know is refused, not served as a
        // locate: the requester gets no reply.
        GLOBE_LOG_ERROR("naming", "unknown locate op %d",
                        static_cast<int>(op));
      }
      return;
    }
    default:
      GLOBE_LOG_ERROR("naming", "unexpected message type %d",
                      static_cast<int>(env.type));
  }
}

void NamingClient::register_name(const std::string& name, ObjectId object,
                                 AckHandler cb) {
  comm_.request_with(
      server_, msg::MsgType::kNameRequest, object,
      [&](util::Writer& w) {
        w.u8(static_cast<std::uint8_t>(NameOp::kRegister));
        w.str(name);
        w.varint(object);
      },
      [cb = std::move(cb)](bool ok, const Address&,
                           const msg::EnvelopeView& env) {
        if (!ok) {
          cb(false);
          return;
        }
        util::Reader r{env.body};
        cb(r.boolean());
      });
}

void NamingClient::lookup(const std::string& name, LookupHandler cb) {
  comm_.request_with(
      server_, msg::MsgType::kNameRequest, 0,
      [&](util::Writer& w) {
        w.u8(static_cast<std::uint8_t>(NameOp::kLookup));
        w.str(name);
      },
      [cb = std::move(cb)](bool ok, const Address&,
                           const msg::EnvelopeView& env) {
        if (!ok) {
          cb(false, 0);
          return;
        }
        util::Reader r{env.body};
        const bool found = r.boolean();
        cb(found, r.varint());
      });
}

void NamingClient::register_contact(ObjectId object,
                                    const ContactPoint& contact,
                                    AckHandler cb) {
  comm_.request_with(
      server_, msg::MsgType::kLocateRequest, object,
      [&](util::Writer& w) {
        w.u8(static_cast<std::uint8_t>(LocateOp::kRegisterContact));
        contact.encode(w);
      },
      [cb = std::move(cb)](bool ok, const Address&,
                           const msg::EnvelopeView& env) {
        if (!ok) {
          cb(false);
          return;
        }
        util::Reader r{env.body};
        cb(r.boolean());
      });
}

void NamingClient::locate(ObjectId object, LocateHandler cb) {
  comm_.request_with(
      server_, msg::MsgType::kLocateRequest, object,
      [](util::Writer& w) {
        w.u8(static_cast<std::uint8_t>(LocateOp::kLocate));
      },
      [cb = std::move(cb)](bool ok, const Address&,
                           const msg::EnvelopeView& env) {
        if (!ok) {
          cb(false, {});
          return;
        }
        util::Reader r{env.body};
        const bool found = r.boolean();
        const std::uint64_t n = r.count(ContactPoint::kMinEncodedBytes);
        std::vector<ContactPoint> contacts;
        contacts.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
          contacts.push_back(ContactPoint::decode(r));
        }
        cb(found, std::move(contacts));
      });
}

}  // namespace globe::naming
