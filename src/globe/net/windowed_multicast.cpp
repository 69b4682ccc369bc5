#include "globe/net/windowed_multicast.hpp"

#include <algorithm>
#include <utility>

#include "globe/check/monitor.hpp"

namespace globe::net {

namespace {

/// Identity of a run of queued payloads: the shared payload pointers, so
/// channels fed by the same multicast compare equal without touching a
/// byte. Part of the frame-sharing key in flush_channels.
using PayloadRun = std::vector<const void*>;

/// Coalescing budget: a data frame packs queued payloads until their
/// bytes would exceed this (a single larger payload still travels alone).
constexpr std::size_t kMtuBudget = 16 * 1024;

/// Receiver-side reorder stash bound, in windows: a channel stashes at
/// most this many times window_size out-of-order frames.
constexpr std::size_t kStashWindows = 2;

/// The receiver acks every this many in-order frames, and at once on a
/// gap or on a frame flagged ack_now (the end of a burst, or a window
/// about to fill).
constexpr std::size_t kAckEvery = 8;

#if defined(GLOBE_CHECKED) && GLOBE_CHECKED
[[nodiscard]] std::uint64_t addr_key(const Address& a) {
  return (static_cast<std::uint64_t>(a.node) << 16) | a.port;
}
#endif

}  // namespace

WindowedMulticast::WindowedMulticast(WindowOptions options)
    : options_(options) {
  if (options_.window_size == 0) options_.window_size = 1;
  if (options_.max_queue < 4) options_.max_queue = 4;
}

WindowedMulticast::~WindowedMulticast() { check::release(this); }

#if defined(GLOBE_CHECKED) && GLOBE_CHECKED
/// Snapshot one tx channel's accounting into the credit-conservation
/// monitor. Called under mu_ after every channel mutation.
void WindowedMulticast::report_channel(const Endpoint& ep,
                                       const TxChannel& tx) {
  check::WindowChannelState st;
  st.next_seq = tx.next_seq;
  st.ack_base = tx.ack_base;
  st.inflight = tx.inflight.size();
  st.pending = tx.pending.size();
  st.credit = tx.credit;
  st.window_size = options_.window_size;
  st.max_queue = options_.max_queue;
  const Address local = ep.transport != nullptr
                            ? ep.transport->local_address()
                            : Address{};
  check::on_window_channel(this, &tx, addr_key(local), addr_key(tx.peer), st);
}
#endif

// ---------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------

void WindowedMulticast::attach_endpoint(const Address& local,
                                        WindowedTransport* t) {
  std::lock_guard lock(mu_);
  endpoints_[local].transport = t;
}

void WindowedMulticast::detach_endpoint(const Address& local) {
  std::lock_guard lock(mu_);
  endpoints_.erase(local);
}

// ---------------------------------------------------------------------
// FlowControl surface
// ---------------------------------------------------------------------

std::vector<FlowControl::Event> WindowedMulticast::poll_events(
    const Address& local) {
  std::lock_guard lock(mu_);
  auto it = endpoints_.find(local);
  if (it == endpoints_.end()) return {};
  return std::exchange(it->second.events, {});
}

bool WindowedMulticast::peer_paused(const Address& local,
                                    const Address& peer) const {
  std::lock_guard lock(mu_);
  auto it = endpoints_.find(local);
  if (it == endpoints_.end()) return false;
  auto ch = it->second.tx.find(peer);
  return ch != it->second.tx.end() && ch->second.paused;
}

void WindowedMulticast::reset_peer(const Address& local, const Address& peer) {
  std::lock_guard lock(mu_);
  auto it = endpoints_.find(local);
  if (it == endpoints_.end()) return;
  auto ch = it->second.tx.find(peer);
  if (ch == it->second.tx.end()) return;
  TxChannel& tx = ch->second;
  // Seqs stay monotonic across the reset; the next data frame carries
  // the reset flag so the receiver re-anchors its expected position.
  tx.pending.clear();
  tx.inflight.clear();
  tx.ack_base = tx.next_seq;
  tx.credit = static_cast<std::uint32_t>(options_.window_size);
  tx.paused = false;
  tx.send_reset = true;
}

WindowStats WindowedMulticast::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

std::size_t WindowedMulticast::peer_queue_depth(const Address& local,
                                                const Address& peer) const {
  std::lock_guard lock(mu_);
  auto it = endpoints_.find(local);
  if (it == endpoints_.end()) return 0;
  auto ch = it->second.tx.find(peer);
  return ch == it->second.tx.end() ? 0 : ch->second.pending.size();
}

// ---------------------------------------------------------------------
// Sender side
// ---------------------------------------------------------------------

WindowedMulticast::TxChannel& WindowedMulticast::tx_channel(
    Endpoint& ep, const Address& peer) {
  auto [it, fresh] = ep.tx.try_emplace(peer);
  if (fresh) {
    it->second.peer = peer;
    it->second.credit = static_cast<std::uint32_t>(options_.window_size);
  }
  return it->second;
}

void WindowedMulticast::raise(Endpoint& ep, const Address& peer,
                              PeerEvent what) {
  ep.events.push_back(Event{peer, what});
  switch (what) {
    case PeerEvent::kPaused: ++stats_.pauses; break;
    case PeerEvent::kResumed: ++stats_.resumes; break;
  }
}

void WindowedMulticast::enqueue(const Address& local, const Address& peer,
                                util::SharedBuffer payload) {
  enqueue_multicast(local, std::vector{peer}, std::move(payload));
}

void WindowedMulticast::enqueue_multicast(const Address& local,
                                          const std::vector<Address>& peers,
                                          util::SharedBuffer payload) {
  if (payload == nullptr || peers.empty()) return;
  std::vector<Action> actions;
  {
    std::lock_guard lock(mu_);
    auto it = endpoints_.find(local);
    if (it == endpoints_.end()) return;
    Endpoint& ep = it->second;
    for (const Address& peer : peers) {
      TxChannel& tx = tx_channel(ep, peer);
      if (tx.pending.size() >= options_.max_queue) {
        // Bounded queue: drop-newest and count. The coherence layer
        // recovers via resync.
        ++stats_.dropped_payloads;
        continue;
      }
      tx.pending.push_back(payload);
      ++stats_.datagrams_sent;
      stats_.queue_high_watermark =
          std::max(stats_.queue_high_watermark, tx.pending.size());
      if (!tx.paused && tx.pending.size() >= options_.max_queue / 2) {
        tx.paused = true;
        raise(ep, peer, PeerEvent::kPaused);
      }
    }
    flush_channels(ep, peers, actions);
  }
  run_actions(actions);
}

void WindowedMulticast::flush_channels(Endpoint& ep,
                                       const std::vector<Address>& peers,
                                       std::vector<Action>& actions) {
  // Frames whose (seq, payload run) match are encoded once and shared by
  // reference across channels — the steady multicast case, where every
  // subscriber sits at the same stream position and was fed the same
  // payloads. (ack_now falls out of queue depth, which matches whenever
  // the run matches, so it needs no key bit; reset frames never share.)
  std::map<std::pair<std::uint64_t, PayloadRun>, util::SharedBuffer> encoded;
  for (const Address& peer : peers) {
    auto ch = ep.tx.find(peer);
    if (ch == ep.tx.end()) continue;
    TxChannel& tx = ch->second;
    const std::size_t window = std::min<std::size_t>(
        options_.window_size, std::max<std::uint32_t>(tx.credit, 1));
    if (!tx.pending.empty() && tx.inflight.size() >= window) {
      ++stats_.credit_stalls;
    }
    while (!tx.pending.empty() && tx.inflight.size() < window) {
      // Coalesce queued payloads up to the MTU budget (always at least
      // one, so an oversized payload still travels — alone).
      std::vector<BytesView> bodies;
      PayloadRun run;
      std::vector<util::SharedBuffer> pinned;
      std::size_t bytes = 0;
      while (!tx.pending.empty() &&
             (bodies.empty() ||
              bytes + tx.pending.front()->size() <= kMtuBudget)) {
        util::SharedBuffer p = std::move(tx.pending.front());
        tx.pending.pop_front();
        bytes += p->size();
        bodies.emplace_back(*p);
        run.push_back(p.get());
        pinned.push_back(std::move(p));
      }
      const std::uint64_t seq = tx.next_seq++;
      const bool ack_now = tx.pending.empty() ||          // end of burst
                           tx.inflight.size() + 1 >= window;  // filling up
      util::SharedBuffer frame;
      const auto key = std::make_pair(seq, std::move(run));
      if (auto hit = encoded.find(key);
          !tx.send_reset && hit != encoded.end()) {
        frame = hit->second;
        ++stats_.frames_shared;
      } else {
        util::Writer w;
        DataFrame::encode(w, seq, ack_now, tx.send_reset, bodies);
        frame = std::make_shared<const Buffer>(w.take());
        ++stats_.frame_encodes;
        if (!tx.send_reset) encoded.emplace(key, frame);
      }
      tx.send_reset = false;
      tx.inflight.emplace(seq, frame);
      stats_.window_high_watermark =
          std::max(stats_.window_high_watermark, tx.inflight.size());
      ++stats_.data_frames_sent;
      if (bodies.size() > 1) stats_.datagrams_coalesced += bodies.size();
      actions.push_back(Action{&ep.transport->inner(), tx.peer, frame});
    }
#if defined(GLOBE_CHECKED) && GLOBE_CHECKED
    if (check::enabled()) report_channel(ep, tx);
#endif
  }
}

void WindowedMulticast::tick(const Address& local) {
  std::vector<Action> actions;
  {
    std::lock_guard lock(mu_);
    auto it = endpoints_.find(local);
    if (it == endpoints_.end()) return;
    Endpoint& ep = it->second;
    std::vector<Address> peers;
    peers.reserve(ep.tx.size());
    for (auto& [peer, tx] : ep.tx) {
      peers.push_back(peer);
      if (tx.inflight.empty()) continue;
      // Resend the oldest unacked frame: recovers tail loss on lossy
      // transports where no later frame will ever trigger a nack.
      ++stats_.retransmits;
      actions.push_back(
          Action{&ep.transport->inner(), peer, tx.inflight.begin()->second});
    }
    flush_channels(ep, peers, actions);
  }
  run_actions(actions);
}

// ---------------------------------------------------------------------
// Receiver side
// ---------------------------------------------------------------------

bool WindowedMulticast::on_receive(const Address& local, const Address& from,
                                   BytesView payload,
                                   const MessageHandler& deliver) {
  if (!is_flow_frame(payload)) return false;
  const auto kind = static_cast<std::uint8_t>(payload[0]);
  std::vector<Action> actions;
  std::vector<BytesView> deliver_now;
  std::vector<DrainedFrame> drained;
  {
    std::lock_guard lock(mu_);
    auto it = endpoints_.find(local);
    if (it == endpoints_.end()) return true;
    Endpoint& ep = it->second;
    if (kind == kAckFrameKind) {
      try {
        const AckFrame ack = AckFrame::decode(payload);
        handle_ack(ep, from, ack, actions);
        flush_channels(ep, {from}, actions);
      } catch (const CodecError&) {
        ++stats_.malformed_frames;
      }
    } else if (kind == kDataFrameKind) {
      handle_data(ep, from, payload, deliver_now, drained, actions);
    } else {
      ++stats_.malformed_frames;  // reserved flow-frame range
    }
  }
  // Handlers and inner sends run outside the lock: a delivery may
  // legitimately re-enter this host (the store replies with updates).
  // `deliver_now` views alias the live receive buffer, which outlives
  // this call; drained stash frames own their bytes.
  for (const BytesView& b : deliver_now) deliver(from, b);
  for (const DrainedFrame& d : drained) {
    for (const auto& [off, len] : d.ranges) {
      deliver(from, BytesView(d.frame).subspan(off, len));
    }
  }
  run_actions(actions);
  return true;
}

void WindowedMulticast::handle_data(Endpoint& ep, const Address& from,
                                    BytesView wire,
                                    std::vector<BytesView>& deliver_now,
                                    std::vector<DrainedFrame>& drained,
                                    std::vector<Action>& actions) {
  DataFrame f;
  try {
    f = DataFrame::decode(wire);
  } catch (const CodecError&) {
    ++stats_.malformed_frames;
    return;
  }
  RxChannel& rx = ep.rx[from];
  if (f.reset && f.seq >= rx.expected) {
    // (Re)started stream: adopt the sender's position; anything stashed
    // from before the reset belongs to a stream that no longer exists.
    rx.expected = f.seq;
    std::erase_if(rx.stash, [&](const auto& kv) { return kv.first < f.seq; });
  }

  bool want_ack = false;
  if (f.seq < rx.expected) {
    ++stats_.duplicate_frames;
    want_ack = true;  // re-ack so a retransmitting sender advances
  } else if (f.seq > rx.expected) {
    ++stats_.reordered_frames;
    if (rx.stash.size() >= kStashWindows * options_.window_size) {
      ++stats_.stash_drops;  // retransmission recovers it later
    } else if (!rx.stash.contains(f.seq)) {
      rx.stash.emplace(f.seq, Buffer(wire.begin(), wire.end()));
    }
    want_ack = true;  // immediate nack carrying the missing list
  } else {
    deliver_now = f.payloads;
    ++rx.expected;
    ++rx.since_ack;
    want_ack = f.ack_now;
    // Drain every stashed frame that is now in order.
    for (auto it = rx.stash.begin();
         it != rx.stash.end() && it->first == rx.expected;
         it = rx.stash.erase(it), ++rx.expected, ++rx.since_ack) {
      try {
        const DataFrame df = DataFrame::decode(BytesView(it->second));
        DrainedFrame d;
        d.ranges.reserve(df.payloads.size());
        const std::byte* base = it->second.data();
        for (const BytesView& b : df.payloads) {
          d.ranges.emplace_back(static_cast<std::size_t>(b.data() - base),
                                b.size());
        }
        d.frame = std::move(it->second);
        drained.push_back(std::move(d));
        want_ack = want_ack || df.ack_now;
      } catch (const CodecError&) {
        ++stats_.malformed_frames;  // validated at stash time; defensive
      }
    }
    if (rx.since_ack >= kAckEvery || !rx.stash.empty()) {
      want_ack = true;
    }
  }
  if (want_ack) send_ack(ep, from, rx, actions);
}

void WindowedMulticast::send_ack(Endpoint& ep, const Address& from,
                                 RxChannel& rx,
                                 std::vector<Action>& actions) {
  AckFrame ack;
  ack.cumulative = rx.expected;
  const std::size_t stashed = std::min(options_.window_size, rx.stash.size());
  ack.credit = static_cast<std::uint32_t>(
      std::max<std::size_t>(1, options_.window_size - stashed));
  // Selective-retransmit list: the holes below the highest stashed seq.
  if (!rx.stash.empty()) {
    const std::uint64_t horizon = rx.stash.rbegin()->first;
    for (std::uint64_t s = rx.expected;
         s < horizon && ack.missing.size() < 64; ++s) {
      if (!rx.stash.contains(s)) ack.missing.push_back(s);
    }
  }
  util::Writer w;
  ack.encode(w);
  rx.since_ack = 0;
  ++stats_.acks_sent;
  actions.push_back(Action{&ep.transport->inner(), from,
                           std::make_shared<const Buffer>(w.take())});
}

void WindowedMulticast::handle_ack(Endpoint& ep, const Address& from,
                                   const AckFrame& ack,
                                   std::vector<Action>& actions) {
  TxChannel& tx = tx_channel(ep, from);
  ++stats_.acks_received;
  while (!tx.inflight.empty() &&
         tx.inflight.begin()->first < ack.cumulative) {
    tx.inflight.erase(tx.inflight.begin());
  }
  tx.ack_base = std::max(tx.ack_base, ack.cumulative);
  tx.credit = std::max<std::uint32_t>(1, ack.credit);
  // Selective retransmit straight from the inflight copies; sent by the
  // caller after the lock is released.
  for (std::uint64_t seq : ack.missing) {
    if (auto it = tx.inflight.find(seq); it != tx.inflight.end()) {
      ++stats_.retransmits;
      actions.push_back(Action{&ep.transport->inner(), from, it->second});
    }
  }
  if (tx.paused && tx.pending.size() <= options_.max_queue / 4) {
    tx.paused = false;
    raise(ep, from, PeerEvent::kResumed);
  }
#if defined(GLOBE_CHECKED) && GLOBE_CHECKED
  if (check::enabled()) report_channel(ep, tx);
#endif
}

void WindowedMulticast::run_actions(std::vector<Action>& actions) {
  for (Action& a : actions) a.via->send_shared(a.to, std::move(a.wire));
  actions.clear();
}

}  // namespace globe::net
