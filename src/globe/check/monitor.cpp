#include "globe/check/monitor.hpp"

#include <atomic>
#include <cinttypes>
#include <cstdarg>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace globe::check {

namespace {

// -------------------------------------------------------------- rings

/// One recorded transition: a tag plus up to four values, formatted only
/// when a trip needs the dump (recording must stay cheap on hot paths).
struct Transition {
  const char* tag = nullptr;
  std::uint64_t v[4] = {0, 0, 0, 0};
};

constexpr std::size_t kRingCapacity = 16;

struct Ring {
  Transition entries[kRingCapacity];
  std::size_t next = 0;
  std::size_t count = 0;

  void record(const char* tag, std::uint64_t a = 0, std::uint64_t b = 0,
              std::uint64_t c = 0, std::uint64_t d = 0) {
    entries[next] = Transition{tag, {a, b, c, d}};
    next = (next + 1) % kRingCapacity;
    if (count < kRingCapacity) ++count;
  }

  [[nodiscard]] std::string dump() const {
    std::string out;
    const std::size_t start = (next + kRingCapacity - count) % kRingCapacity;
    for (std::size_t i = 0; i < count; ++i) {
      const Transition& t = entries[(start + i) % kRingCapacity];
      char line[160];
      std::snprintf(line, sizeof(line),
                    "  [%2zu] %s %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                    "\n",
                    i, t.tag, t.v[0], t.v[1], t.v[2], t.v[3]);
      out += line;
    }
    return out;
  }
};

// ------------------------------------------------------------ monitors

/// Last-seen floors for one (store, object) replication state.
struct GseqState {
  bool seen = false;
  std::uint64_t gseq = 0;
  bool adopted = false;  // last move was a state adoption (jump allowed)
  Ring ring;
};

struct WriterState {
  std::map<ClientId, std::uint64_t> floors;
  Ring ring;
};

struct EpochState {
  bool seen = false;
  std::uint64_t epoch = 0;
  Ring ring;
};

struct PlacementState {
  bool seen = false;
  std::uint64_t version = 0;
  std::uint64_t layout_epoch = 0;
  Ring ring;
};

struct WindowState {
  Ring ring;
};

struct SessionState {
  bool seen = false;
  std::uint64_t write_seq = 0;
  std::uint64_t read_total = 0;
  std::uint64_t gseq_floor = 0;
  Ring ring;
};

/// Everything monitored under one owner pointer.
struct OwnerState {
  std::map<std::uint64_t, GseqState> gseq;          // by object
  std::map<std::uint64_t, WriterState> writers;     // by object
  std::map<std::pair<std::uint64_t, std::uint64_t>, EpochState> epochs;
  PlacementState placement;
  std::map<const void*, WindowState> windows;       // by channel
  std::map<std::uint64_t, SessionState> sessions;   // by object
  std::map<std::uint64_t, Ring> parked;             // by peer key
  Ring deltas;
  std::string context;  // component stamp (store id + view epoch)
};

struct Registry {
  std::mutex mu;
  std::unordered_map<const void*, OwnerState> owners;
  TripHandler handler;  // empty = default print+abort
  TripObserver observer;
  std::atomic<bool> enabled{true};
  std::atomic<std::uint64_t> trips{0};
  // Dump emission is serialized separately from the monitor registry:
  // the sink may be slow (file I/O) and must not block hot-path hooks,
  // only other dumps.
  std::mutex dump_mu;
  DumpSink dump_sink;
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: outlives static dtors
  return *r;
}

/// Formats + dispatches one violation. Called with the registry lock
/// held; the observer and handler run outside it (they may destroy
/// testbeds, install handlers, or abort).
void trip(std::unique_lock<std::mutex>& lock, const void* owner,
          const char* monitor, std::string key, std::string message,
          const Ring& ring) {
  Registry& r = registry();
  r.trips.fetch_add(1, std::memory_order_relaxed);
  TripReport report{monitor, std::move(key), std::move(message),
                    r.owners[owner].context, ring.dump()};
  TripHandler handler = r.handler;
  TripObserver observer = r.observer;
  lock.unlock();
  if (observer) observer(report);
  if (handler) {
    handler(report);
    return;
  }
  emit_dump(report.str());
  std::abort();
}

std::string key_store_object(StoreId store, ObjectId object) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "store=%u object=%" PRIu64, store, object);
  return buf;
}

std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* format, ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

}  // namespace

std::string TripReport::str() const {
  std::string out = "GLOBE_CHECKED invariant violation\n";
  out += "  monitor: " + monitor + "\n";
  out += "  key:     " + key + "\n";
  if (!context.empty()) out += "  where:   " + context + "\n";
  out += "  what:    " + message + "\n";
  out += "  recent transitions (oldest first):\n";
  out += history;
  return out;
}

bool enabled() {
  return registry().enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on) {
  registry().enabled.store(on, std::memory_order_relaxed);
}

std::uint64_t trip_count() {
  return registry().trips.load(std::memory_order_relaxed);
}

void set_trip_handler(TripHandler handler) {
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  r.handler = std::move(handler);
}

ScopedTripCapture::ScopedTripCapture()
    : reports_(std::make_shared<std::vector<TripReport>>()) {
  auto sink = reports_;
  set_trip_handler([sink](const TripReport& r) { sink->push_back(r); });
}

ScopedTripCapture::~ScopedTripCapture() { set_trip_handler(nullptr); }

void set_trip_observer(TripObserver observer) {
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  r.observer = std::move(observer);
}

void set_dump_sink(DumpSink sink) {
  Registry& r = registry();
  std::lock_guard lock(r.dump_mu);
  r.dump_sink = std::move(sink);
}

void emit_dump(const std::string& text) {
  Registry& r = registry();
  std::lock_guard lock(r.dump_mu);
  if (r.dump_sink) {
    r.dump_sink(text);
    return;
  }
  std::fputs(text.c_str(), stderr);
  std::fflush(stderr);
}

void note_owner_context(const void* owner, StoreId store,
                        std::uint64_t view_epoch) {
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  r.owners[owner].context =
      fmt("store=%u view_epoch=%" PRIu64, store, view_epoch);
}

void release(const void* owner) {
  Registry& r = registry();
  std::lock_guard lock(r.mu);
  r.owners.erase(owner);
  // The last owner takes the bucket array with it, so the next
  // deployment grows the table from scratch again and allocates exactly
  // what this one did.
  if (r.owners.empty()) decltype(r.owners)().swap(r.owners);
}

// ---------------------------------------------------------------------
// StoreEngine hooks
// ---------------------------------------------------------------------

void on_gseq_apply(const void* owner, StoreId store, ObjectId object,
                   bool sequential, std::uint64_t gseq) {
  Registry& r = registry();
  std::unique_lock lock(r.mu);
  GseqState& st = r.owners[owner].gseq[object];
  st.ring.record("apply", gseq, sequential ? 1 : 0);
  if (st.seen && gseq < st.gseq) {
    auto msg = fmt("applied gseq regressed %" PRIu64 " -> %" PRIu64, st.gseq,
                   gseq);
    const Ring ring = st.ring;
    st.gseq = gseq;  // re-anchor so one corruption = one trip
    st.adopted = false;
    trip(lock, owner, "gseq", key_store_object(store, object), std::move(msg), ring);
    return;
  }
  if (sequential && st.seen && !st.adopted && gseq != st.gseq + 1) {
    auto msg = fmt("sequential gseq skipped %" PRIu64 " -> %" PRIu64
                   " (contiguity requires +1 between state adoptions)",
                   st.gseq, gseq);
    const Ring ring = st.ring;
    st.seen = true;
    st.gseq = gseq;
    st.adopted = false;
    trip(lock, owner, "gseq", key_store_object(store, object), std::move(msg), ring);
    return;
  }
  st.seen = true;
  st.gseq = gseq;
  st.adopted = false;
}

void on_state_adoption(const void* owner, StoreId store, ObjectId object,
                       std::uint64_t gseq) {
  Registry& r = registry();
  std::unique_lock lock(r.mu);
  OwnerState& os = r.owners[owner];
  GseqState& st = os.gseq[object];
  st.ring.record("adopt", gseq);
  if (st.seen && gseq < st.gseq) {
    auto msg = fmt("state adoption regressed gseq %" PRIu64 " -> %" PRIu64,
                   st.gseq, gseq);
    const Ring ring = st.ring;
    st.gseq = gseq;
    trip(lock, owner, "gseq", key_store_object(store, object), std::move(msg), ring);
    return;
  }
  st.seen = true;
  st.gseq = gseq;
  st.adopted = true;
  // Adoption replaces the document + clocks wholesale: the per-writer
  // floors re-anchor on whatever the adopted clock covers (the next
  // apply per writer re-seeds them).
  os.writers[object].floors.clear();
}

void on_fetch_floor(const void* owner, StoreId store, ObjectId object,
                    bool sequential, std::uint64_t floor) {
  if (sequential || floor == 0) return;
  Registry& r = registry();
  std::unique_lock lock(r.mu);
  GseqState& st = r.owners[owner].gseq[object];
  st.ring.record("floor", floor, sequential ? 1 : 0);
  trip(lock, owner, "gseq-floor", key_store_object(store, object),
       fmt("non-sequential store claimed total-order fetch floor %" PRIu64
           " (max-semantics gseq must not filter missed records)",
           floor),
       st.ring);
}

void on_writer_apply(const void* owner, StoreId store, ObjectId object,
                     ClientId writer, std::uint64_t seq) {
  Registry& r = registry();
  std::unique_lock lock(r.mu);
  WriterState& st = r.owners[owner].writers[object];
  st.ring.record("writer-apply", writer, seq);
  auto [it, fresh] = st.floors.try_emplace(writer, seq);
  if (!fresh) {
    if (seq <= it->second) {
      auto msg = fmt("writer %u sequence regressed past the MW filter: "
                     "applied seq %" PRIu64 " after %" PRIu64,
                     writer, seq, it->second);
      const Ring ring = st.ring;
      it->second = seq;
      trip(lock, owner, "mw-filter", key_store_object(store, object), std::move(msg),
           ring);
      return;
    }
    it->second = seq;
  }
}

// ---------------------------------------------------------------------
// Membership / placement hooks
// ---------------------------------------------------------------------

void on_view_publish(const void* owner, std::uint64_t scope, ShardId shard,
                     std::uint64_t epoch) {
  Registry& r = registry();
  std::unique_lock lock(r.mu);
  EpochState& st = r.owners[owner].epochs[{scope, shard}];
  st.ring.record("publish", epoch);
  if (st.seen && epoch <= st.epoch) {
    auto msg = fmt("published view epoch did not advance: %" PRIu64
                   " after %" PRIu64,
                   epoch, st.epoch);
    const Ring ring = st.ring;
    st.epoch = epoch;
    trip(lock, owner, "view-epoch",
         fmt("scope=%" PRIu64 " shard=%u (publisher)", scope, shard),
         std::move(msg), ring);
    return;
  }
  st.seen = true;
  st.epoch = epoch;
}

void on_view_adopt(const void* owner, const char* role, std::uint64_t id,
                   std::uint64_t epoch) {
  Registry& r = registry();
  std::unique_lock lock(r.mu);
  EpochState& st = r.owners[owner].epochs[{0, 0}];
  st.ring.record("adopt", epoch);
  if (st.seen && epoch < st.epoch) {
    auto msg = fmt("applied view epoch rolled back %" PRIu64 " -> %" PRIu64,
                   st.epoch, epoch);
    const Ring ring = st.ring;
    st.epoch = epoch;
    trip(lock, owner, "view-epoch", fmt("%s=%" PRIu64, role, id), std::move(msg),
         ring);
    return;
  }
  st.seen = true;
  st.epoch = epoch;
}

void on_placement_state(const void* owner, std::uint64_t version,
                        std::uint64_t layout_epoch) {
  Registry& r = registry();
  std::unique_lock lock(r.mu);
  PlacementState& st = r.owners[owner].placement;
  st.ring.record("state", version, layout_epoch);
  if (st.seen && (version < st.version || layout_epoch < st.layout_epoch)) {
    auto msg = fmt("placement state regressed: version %" PRIu64 " -> %" PRIu64
                   ", layout epoch %" PRIu64 " -> %" PRIu64,
                   st.version, version, st.layout_epoch, layout_epoch);
    const Ring ring = st.ring;
    st.version = version;
    st.layout_epoch = layout_epoch;
    trip(lock, owner, "placement", fmt("placement@%p", owner), std::move(msg), ring);
    return;
  }
  st.seen = true;
  st.version = version;
  st.layout_epoch = layout_epoch;
}

// ---------------------------------------------------------------------
// Flow-control hooks
// ---------------------------------------------------------------------

void on_window_channel(const void* owner, const void* channel,
                       std::uint64_t local_key, std::uint64_t peer_key,
                       const WindowChannelState& st) {
  Registry& r = registry();
  std::unique_lock lock(r.mu);
  WindowState& ws = r.owners[owner].windows[channel];
  ws.ring.record("channel", st.next_seq, st.ack_base, st.inflight, st.pending);
  const char* what = nullptr;
  std::string detail;
  if (st.ack_base > st.next_seq) {
    what = "window";
    detail = fmt("ack base %" PRIu64 " beyond next seq %" PRIu64
                 " (forged cumulative ack?)",
                 st.ack_base, st.next_seq);
  } else if (st.next_seq - st.ack_base != st.inflight) {
    what = "window";
    detail = fmt("credit conservation broken: issued %" PRIu64
                 " != acked %" PRIu64 " + in-flight %zu",
                 st.next_seq, st.ack_base, st.inflight);
  } else if (st.inflight > st.window_size) {
    what = "window";
    detail = fmt("in-flight frames %zu exceed window %zu", st.inflight,
                 st.window_size);
  } else if (st.credit > st.window_size) {
    what = "window";
    detail = fmt("granted credit %u exceeds window %zu (forged grant?)",
                 st.credit, st.window_size);
  } else if (st.pending > st.max_queue) {
    what = "window";
    detail = fmt("pending queue %zu exceeds bound %zu", st.pending,
                 st.max_queue);
  }
  if (what != nullptr) {
    const Ring ring = ws.ring;
    // Re-anchor: drop the channel's monitor so the (corrupt) state does
    // not retrip on every subsequent frame.
    r.owners[owner].windows.erase(channel);
    trip(lock, owner, what,
         fmt("channel %" PRIu64 " -> %" PRIu64, local_key, peer_key),
         std::move(detail), ring);
  }
}

void on_parked_batches(const void* owner, StoreId store, std::uint64_t peer_key,
                       std::size_t depth, std::size_t bound) {
  if (bound == 0) return;
  Registry& r = registry();
  std::unique_lock lock(r.mu);
  Ring& ring = r.owners[owner].parked[peer_key];
  ring.record("parked", depth, bound);
  if (depth > bound) {
    const Ring copy = ring;
    r.owners[owner].parked.erase(peer_key);
    trip(lock, owner, "parked",
         fmt("store=%u subscriber=%" PRIu64, store, peer_key),
         fmt("parked lazy batches %zu exceed the drop deadline %zu", depth,
             bound),
         copy);
  }
}

// ---------------------------------------------------------------------
// Delta-snapshot / session hooks
// ---------------------------------------------------------------------

void on_delta_serve(const void* owner, StoreId store, ObjectId object,
                    std::uint64_t floor, std::uint64_t horizon,
                    std::uint64_t version, bool refused) {
  Registry& r = registry();
  std::unique_lock lock(r.mu);
  Ring& ring = r.owners[owner].deltas;
  ring.record(refused ? "refused" : "served", floor, horizon, version);
  if (!refused && (floor < horizon || floor > version)) {
    const Ring copy = ring;
    trip(lock, owner, "horizon", key_store_object(store, object),
         fmt("floor delta served below the tombstone horizon: floor %" PRIu64
             ", horizon %" PRIu64 ", version %" PRIu64
             " (deletion knowledge was discarded)",
             floor, horizon, version),
         copy);
  }
}

void on_session_floors(const void* owner, ClientId client, ObjectId object,
                       std::uint64_t write_seq, std::uint64_t read_total,
                       std::uint64_t gseq_floor) {
  Registry& r = registry();
  std::unique_lock lock(r.mu);
  SessionState& st = r.owners[owner].sessions[object];
  st.ring.record("floors", write_seq, read_total, gseq_floor);
  if (st.seen && (write_seq < st.write_seq || read_total < st.read_total ||
                  gseq_floor < st.gseq_floor)) {
    auto msg = fmt("session floors regressed: writes %" PRIu64 " -> %" PRIu64
                   ", read total %" PRIu64 " -> %" PRIu64 ", gseq %" PRIu64
                   " -> %" PRIu64,
                   st.write_seq, write_seq, st.read_total, read_total,
                   st.gseq_floor, gseq_floor);
    const Ring ring = st.ring;
    st.write_seq = write_seq;
    st.read_total = read_total;
    st.gseq_floor = gseq_floor;
    trip(lock, owner, "session",
         fmt("client=%u object=%" PRIu64, client, object), std::move(msg),
         ring);
    return;
  }
  st.seen = true;
  st.write_seq = write_seq;
  st.read_total = read_total;
  st.gseq_floor = gseq_floor;
}

}  // namespace globe::check
