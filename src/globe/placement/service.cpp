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
  GLOBE_ASSERT_MSG(layout.epoch > state_.layout.epoch,
                   "layout epoch must advance");
  state_.layout = std::move(layout);
  ++state_.version;
  notify_watchers();
}

void PlacementServer::register_contact(ShardId shard,
                                       const ContactPoint& contact) {
  auto& list = state_.contacts[shard];
  auto it = std::find_if(list.begin(), list.end(), [&](const ContactPoint& c) {
    return c.address == contact.address;
  });
  if (it != list.end()) {
    if (*it == contact) return;  // no change, no invalidation
    *it = contact;
  } else {
    list.push_back(contact);
  }
  ++state_.version;
  notify_watchers();
}

void PlacementServer::unregister_contact(ShardId shard, const Address& addr) {
  auto it = state_.contacts.find(shard);
  if (it == state_.contacts.end()) return;
  const auto erased = std::erase_if(it->second, [&](const ContactPoint& c) {
    return c.address == addr;
  });
  if (erased == 0) return;
  ++state_.version;
  notify_watchers();
}

PlacementServer::~PlacementServer() { check::release(this); }

void PlacementServer::notify_watchers() {
  GLOBE_CHECK_HOOK(
      on_placement_state(this, state_.version, state_.layout.epoch));
  if (watchers_.empty()) return;
  comm_.multicast_with(
      watchers_, msg::MsgType::kPlacementInvalidate, 0,
      [this](util::Writer& w) { w.varint(state_.version); });
}

void PlacementServer::on_message(const Address& from,
                                 const msg::EnvelopeView& env) {
  switch (env.type) {
    case msg::MsgType::kPlacementFetch: {
      comm_.reply_with(from, msg::MsgType::kPlacementFetchReply, env.object,
                       env.request_id,
                       [this](util::Writer& w) { state_.encode(w); });
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

void PlacementCache::ensure(EnsureHandler cb) {
  if (fresh()) {
    cb(true);
    return;
  }
  waiters_.push_back(std::move(cb));
  fetch();
}

void PlacementCache::invalidate() {
  if (version() == 0 || stale_) return;
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
          // Decode into a local and commit only on success: a truncated
          // or corrupt reply is a failed fetch, not an exception through
          // the comm delivery path or a half-updated cache.
          try {
            PlacementState state = PlacementState::decode(env.body);
            state_ = std::move(state);
            stale_ = false;
            ++refreshes_;
            GLOBE_CHECK_HOOK(
                on_placement_state(this, state_.version, state_.layout.epoch));
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
  if (r.varint() != version()) invalidate();
}

}  // namespace globe::placement
