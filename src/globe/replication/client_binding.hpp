// Client binding: the client-side local object.
//
// "Binding results in an interface belonging to the object being placed
//  in the client's address space, along with an implementation of that
//  interface." (Section 2)
//
// A ClientBinding translates method calls into invocation messages sent
// to the store the client is bound to (Section 4.2: "clients only
// translate method calls to messages"). Its replication sub-object is
// the *session filter*: it maintains the client-based coherence state
// (own-writes clock, read-set clock, sequential floor) and attaches the
// corresponding requirements to every request, which the stores then
// guarantee — the paper's strengthening of Bayou's checked guarantees.
//
// One binding serves MANY objects: each object the client touches gets
// its own session (clocks, write sequence, serialization queues,
// document cache) keyed by ObjectId, sharing the endpoint. With a
// placement server configured, read/write stores are resolved per
// object through the cached layout (object -> shard -> contacts) and
// re-resolved when the placement version moves — the layout-epoch
// invalidation protocol.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "globe/coherence/history.hpp"
#include "globe/coherence/models.hpp"
#include "globe/core/comm.hpp"
#include "globe/core/policy.hpp"
#include "globe/core/semantics.hpp"
#include "globe/membership/follower.hpp"
#include "globe/metrics/stats.hpp"
#include "globe/placement/service.hpp"
#include "globe/replication/protocol.hpp"

namespace globe::replication {

using coherence::ClientModel;
using core::TransportFactory;
using net::Address;

/// Store layer a binding prefers for reads, at bind time and when a view
/// or placement change re-resolves them: the client-initiated cache,
/// falling back upward (naming::choose_read_contact).
inline constexpr naming::StoreClass kPreferredReadLayer =
    naming::StoreClass::kClientInitiated;

struct BindOptions {
  ObjectId object = 1;
  ClientId client = 1;
  /// Client-based coherence models to enforce (Section 3.2.2).
  ClientModel session = ClientModel::kNone;
  /// Store serving this client's reads of `object` (its cache,
  /// typically). May be left invalid when `placement` is set: stores then
  /// resolve lazily.
  Address read_store;
  /// Store accepting this client's writes of `object` (the primary for
  /// the single-writer example of Section 4); invalid = read_store.
  Address write_store;
  /// Object-based model of the bound object; used to skip session
  /// requirements the object already subsumes.
  coherence::ObjectModel object_model = coherence::ObjectModel::kPram;
  /// Optional request timeout/retries (used over lossy transports).
  sim::SimDuration timeout{};
  int retries = 0;
  /// Membership service endpoint; when valid the binding watches the
  /// object's replica view and re-resolves its read/write stores when a
  /// view change removes them (eviction, crash, leave).
  net::Address membership;
  /// Placement server endpoint; when valid the binding resolves every
  /// object's stores through the cached shard layout, and re-resolves
  /// sessions whose resolution predates the current placement version.
  net::Address placement;
};

struct ReadResult {
  bool ok = false;
  std::string error;
  std::string content;
  std::string mime;
  coherence::WriteId writer;            // write that produced the content
  std::uint64_t store_global_seq = 0;   // serving store's applied seq
  coherence::VectorClock store_clock;   // serving store's applied clock
  StoreId store = kInvalidStore;
  util::SimTime issued_at;
  util::SimTime completed_at;
  [[nodiscard]] sim::SimDuration latency() const {
    return completed_at - issued_at;
  }
};

struct WriteResult {
  bool ok = false;
  std::string error;
  coherence::WriteId wid;
  std::uint64_t global_seq = 0;
  StoreId store = kInvalidStore;
  util::SimTime issued_at;
  util::SimTime completed_at;
  [[nodiscard]] sim::SimDuration latency() const {
    return completed_at - issued_at;
  }
};

struct DocumentResult {
  bool ok = false;
  std::string error;
  web::WebDocument document;
  StoreId store = kInvalidStore;
};

class ClientBinding {
 public:
  using ReadHandler = std::function<void(ReadResult)>;
  using WriteHandler = std::function<void(WriteResult)>;
  using DocumentHandler = std::function<void(DocumentResult)>;

  ClientBinding(const TransportFactory& factory, sim::Simulator& sim,
                BindOptions options, coherence::History* history = nullptr,
                metrics::MetricsSink* metrics = nullptr);
  ~ClientBinding();

  ClientBinding(const ClientBinding&) = delete;
  ClientBinding& operator=(const ClientBinding&) = delete;

  [[nodiscard]] ClientId id() const { return options_.client; }
  /// Client-based coherence models this binding enforces.
  [[nodiscard]] ClientModel session_models() const { return options_.session; }
  [[nodiscard]] Address address() const { return comm_.local_address(); }

  /// Reads one page from the object's bound read store.
  void read(ObjectId object, const std::string& page, ReadHandler cb);
  void read(const std::string& page, ReadHandler cb) {
    read(options_.object, page, std::move(cb));
  }

  /// Writes (replaces) one page via the object's bound write store.
  void write(ObjectId object, const std::string& page,
             const std::string& content, WriteHandler cb,
             const std::string& mime = "text/html");
  void write(const std::string& page, const std::string& content,
             WriteHandler cb, const std::string& mime = "text/html") {
    write(options_.object, page, content, std::move(cb), mime);
  }

  /// Deletes a page.
  void remove(ObjectId object, const std::string& page, WriteHandler cb);
  void remove(const std::string& page, WriteHandler cb) {
    remove(options_.object, page, std::move(cb));
  }

  /// Fetches the entire document. The binding keeps a client-side
  /// document cache and asks the store for a delta against it (the
  /// cache's page summary, or a bare version floor while the cache
  /// mirrors the store's lineage), so only changed pages travel.
  void get_document(ObjectId object, DocumentHandler cb);
  void get_document(DocumentHandler cb) {
    get_document(options_.object, std::move(cb));
  }

  /// Rebinds reads to a different store (mobile client; exercises the
  /// monotonic-reads guarantee). Default-object session.
  void switch_read_store(const Address& store) {
    default_session().read_store = store;
  }
  void switch_write_store(const Address& store) {
    default_session().write_store = store;
  }

  /// The default-object session's stores and floors.
  [[nodiscard]] Address read_store() const {
    return default_session().read_store;
  }
  [[nodiscard]] Address write_store() const {
    return default_session().write_store;
  }
  [[nodiscard]] const coherence::VectorClock& read_set() const {
    return default_session().read_set;
  }
  [[nodiscard]] std::uint64_t writes_issued() const {
    return default_session().write_seq;
  }

  /// Replica-view epoch last applied (0 = none; membership disabled or
  /// no change seen yet) and how often a view or placement change forced
  /// a session onto different stores.
  [[nodiscard]] std::uint64_t view_epoch() const {
    return follower_.view().epoch;
  }
  [[nodiscard]] std::uint64_t rebinds() const { return rebinds_; }

 private:
  /// Per-object session: the client-based coherence state plus the
  /// serialization queues, all scoped to one object. Heap-allocated and
  /// never removed, so `&s` captured by callbacks stays valid.
  struct Session {
    ObjectId object = 0;
    Address read_store;
    Address write_store;
    // Placement version the stores were resolved under (0 = static
    // binding or never resolved).
    std::uint64_t resolved_version = 0;

    std::uint64_t write_seq = 0;        // WiD sequence numbers
    coherence::VectorClock read_set;    // store clocks observed by reads
    std::uint64_t max_gseq_seen = 0;    // sequential-model floor
    // Under the sequential model a read's floor includes the client's
    // own in-flight writes, whose total-order position is unknown until
    // the ack arrives; such reads are deferred behind the pending
    // writes.
    int pending_writes = 0;
    std::vector<std::function<void()>> deferred_reads;
    // Per-writer order through loss and retries: one write request on
    // the wire at a time, the rest queue here in program order. Reads
    // serialize among themselves the same way (the monotonic-reads
    // floor of a read must include the previous read's observation).
    // Vectors: most sessions never queue an op, and a vector holds no
    // heap until its first element (a deque holds a map and a 512-byte
    // block from birth). Queues stay a few ops deep, so popping the
    // front is cheap.
    bool write_inflight = false;
    std::vector<std::function<void()>> queued_writes;
    bool read_inflight = false;
    std::vector<std::function<void()>> queued_reads;

    // Delta-mode document cache plus the lineage of its last transfer:
    // which store sent it, at which document version, and from which
    // read-store binding. While the binding is unchanged, the next
    // fetch is a bare floor request.
    web::WebDocument doc_cache;
    StoreId doc_source = kInvalidStore;
    net::Address doc_source_addr;
    std::uint64_t doc_source_version = 0;
  };

  Session& session(ObjectId object);
  /// The default object's session, which the constructor creates.
  Session& default_session() { return *sessions_.at(options_.object); }
  [[nodiscard]] const Session& default_session() const {
    return *sessions_.at(options_.object);
  }
  /// Ensures `s` has fresh store addresses (placement resolution when
  /// configured), then runs `then`.
  void resolve(Session& s, std::function<void()> then);
  void apply_resolution(Session& s);
  void read_impl(Session& s, const std::string& page, ReadHandler cb);
  void get_document_delta(Session& s, DocumentHandler cb);
  ClientRequest base_request(Session& s, msg::Invocation inv);
  void send_write(Session& s, msg::Invocation inv, WriteHandler cb);
  void transmit_write(Session& s, ClientRequest req, WriteHandler cb);
  void next_queued_write(Session& s);
  void next_queued_read(Session& s);
  void flush_deferred_reads(Session& s);
  /// The follower adopted `view`: rebinds the default session off the
  /// stores that left it.
  void on_view_change(const membership::View& view);
  void announce_watch(bool subscribe);
  void on_operation_failed(Session& s);
  [[nodiscard]] bool wants(ClientModel m) const;

  sim::Simulator& sim_;
  BindOptions options_;

  std::uint64_t op_index_ = 0;  // program order, across all sessions
  std::map<ObjectId, std::unique_ptr<Session>> sessions_;
  std::unique_ptr<placement::PlacementCache> placement_;

  std::uint64_t rebinds_ = 0;

  coherence::History* history_;
  metrics::MetricsSink* metrics_;
  // The watched object's view (epoch 0 while membership is off). It
  // fetches over comm_, so it must outlive the endpoint.
  membership::ViewFollower follower_;

  // Declared last, so it is destroyed first: a reply delivered while the
  // endpoint closes still finds the sessions and the follower.
  core::CommunicationObject comm_;
};

}  // namespace globe::replication
