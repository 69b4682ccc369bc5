#include "globe/placement/service.hpp"

#include <algorithm>
#include <utility>

#include "globe/check/monitor.hpp"
#include "globe/util/assert.hpp"
#include "globe/util/log.hpp"

namespace globe::placement {

// ---------------------------------------------------------------------------
// PlacementServer

PlacementServer::PlacementServer(const TransportFactory& factory,
                                 sim::Simulator* sim)
    : comm_(sim) {
  comm_.open(factory,
             [this](const Address& from, const msg::EnvelopeView& env) {
               on_message(from, env);
             });
}

void PlacementServer::set_layout(Layout layout) {
  GLOBE_ASSERT_MSG(layout.epoch > layout_.epoch,
                   "layout epoch must advance");
  layout_ = std::move(layout);
  ++version_;
  notify_watchers();
}

void PlacementServer::register_contact(ShardId shard,
                                       const ContactPoint& contact) {
  auto& list = contacts_[shard];
  auto it = std::find_if(list.begin(), list.end(), [&](const ContactPoint& c) {
    return c.address == contact.address;
  });
  if (it != list.end()) {
    if (*it == contact) return;  // no change, no invalidation
    *it = contact;
  } else {
    list.push_back(contact);
  }
  ++version_;
  notify_watchers();
}

void PlacementServer::unregister_contact(ShardId shard, const Address& addr) {
  auto it = contacts_.find(shard);
  if (it == contacts_.end()) return;
  const auto erased = std::erase_if(it->second, [&](const ContactPoint& c) {
    return c.address == addr;
  });
  if (erased == 0) return;
  ++version_;
  notify_watchers();
}

std::vector<ContactPoint> PlacementServer::shard_contacts(
    ShardId shard) const {
  auto it = contacts_.find(shard);
  return it == contacts_.end() ? std::vector<ContactPoint>{} : it->second;
}

Resolution PlacementServer::resolve(ObjectId object) const {
  Resolution res;
  res.version = version_;
  res.layout_epoch = layout_.epoch;
  res.shard = layout_.shard_of(object);
  res.contacts = shard_contacts(res.shard);
  return res;
}

void PlacementServer::encode_state(util::Writer& w) const {
  w.varint(version_);
  layout_.encode(w);
  w.varint(contacts_.size());
  for (const auto& [shard, list] : contacts_) {
    w.varint(shard);
    w.varint(list.size());
    for (const auto& c : list) c.encode(w);
  }
}

PlacementServer::~PlacementServer() { check::release(this); }

void PlacementServer::notify_watchers() {
  GLOBE_CHECK_HOOK(on_placement_state(this, version_, layout_.epoch));
  if (watchers_.empty()) return;
  comm_.multicast_with(
      watchers_, msg::MsgType::kPlacementInvalidate, 0,
      [this](util::Writer& w) { w.varint(version_); });
}

void PlacementServer::on_message(const Address& from,
                                 const msg::EnvelopeView& env) {
  switch (env.type) {
    case msg::MsgType::kPlacementFetch: {
      comm_.reply_with(from, msg::MsgType::kPlacementFetchReply, env.object,
                       env.request_id,
                       [this](util::Writer& w) { encode_state(w); });
      return;
    }
    case msg::MsgType::kPlacementWatch: {
      util::Reader r{env.body};
      const bool subscribe = r.boolean();
      auto it = std::find(watchers_.begin(), watchers_.end(), from);
      if (subscribe && it == watchers_.end()) {
        watchers_.push_back(from);
      } else if (!subscribe && it != watchers_.end()) {
        watchers_.erase(it);
      }
      return;
    }
    default:
      GLOBE_LOG_ERROR("placement", "unexpected message type %d",
                      static_cast<int>(env.type));
  }
}

// ---------------------------------------------------------------------------
// PlacementCache

PlacementCache::PlacementCache(const TransportFactory& factory,
                               sim::Simulator* sim, Address server)
    : comm_(sim), server_(server) {
  comm_.open(factory,
             [this](const Address& from, const msg::EnvelopeView& env) {
               on_message(from, env);
             });
}

PlacementCache::~PlacementCache() { check::release(this); }

void PlacementCache::start() {
  comm_.send_with(server_, msg::MsgType::kPlacementWatch, 0,
                  [](util::Writer& w) { w.boolean(true); });
  fetch();
}

std::optional<Resolution> PlacementCache::resolve(ObjectId object) const {
  if (version_ == 0) return std::nullopt;
  Resolution res;
  res.version = version_;
  res.layout_epoch = layout_.epoch;
  res.shard = layout_.shard_of(object);
  if (auto it = contacts_.find(res.shard); it != contacts_.end()) {
    res.contacts = it->second;
  }
  return res;
}

void PlacementCache::ensure(EnsureHandler cb) {
  if (fresh()) {
    cb(true);
    return;
  }
  waiters_.push_back(std::move(cb));
  fetch();
}

void PlacementCache::invalidate() {
  if (version_ == 0 || stale_) return;
  stale_ = true;
  ++invalidations_;
}

void PlacementCache::fetch() {
  if (fetch_in_flight_) return;
  fetch_in_flight_ = true;
  comm_.request_with(
      server_, msg::MsgType::kPlacementFetch, 0, [](util::Writer&) {},
      [this](bool ok, const Address&, const msg::EnvelopeView& env) {
        fetch_in_flight_ = false;
        if (ok) {
          // Decode into locals and commit only on success: a truncated or
          // corrupt reply is a failed fetch, not an exception through the
          // comm delivery path or a half-updated cache.
          try {
            util::Reader r{env.body};
            const std::uint64_t version = r.varint();
            Layout layout = Layout::decode(r);
            std::map<ShardId, std::vector<ContactPoint>> contacts;
            const std::uint64_t shards = r.varint();
            for (std::uint64_t i = 0; i < shards; ++i) {
              const ShardId shard = r.varint32();
              const std::uint64_t n =
                  r.count(ContactPoint::kMinEncodedBytes);
              auto& list = contacts[shard];
              list.reserve(n);
              for (std::uint64_t j = 0; j < n; ++j) {
                list.push_back(ContactPoint::decode(r));
              }
            }
            version_ = version;
            layout_ = std::move(layout);
            contacts_ = std::move(contacts);
            stale_ = false;
            ++refreshes_;
            GLOBE_CHECK_HOOK(
                on_placement_state(this, version_, layout_.epoch));
          } catch (const util::CodecError&) {
            ok = false;
          }
        }
        auto waiters = std::move(waiters_);
        waiters_.clear();
        for (auto& cb : waiters) cb(ok);
      });
}

void PlacementCache::on_message(const Address& from,
                                const msg::EnvelopeView& env) {
  (void)from;
  if (env.type != msg::MsgType::kPlacementInvalidate) {
    GLOBE_LOG_ERROR("placement", "unexpected message type %d",
                    static_cast<int>(env.type));
    return;
  }
  util::Reader r{env.body};
  const std::uint64_t version = r.varint();
  if (version != version_) invalidate();
}

}  // namespace globe::placement
