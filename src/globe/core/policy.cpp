#include "globe/core/policy.hpp"

namespace globe::core {

const char* to_string(Propagation v) {
  return v == Propagation::kUpdate ? "update" : "invalidate";
}
const char* to_string(StoreScope v) {
  switch (v) {
    case StoreScope::kPermanent: return "permanent";
    case StoreScope::kPermanentAndObject: return "permanent+object-initiated";
    case StoreScope::kAll: return "all";
  }
  return "?";
}
const char* to_string(WriteSet v) {
  return v == WriteSet::kSingle ? "single" : "multiple";
}
const char* to_string(TransferInitiative v) {
  return v == TransferInitiative::kPush ? "push" : "pull";
}
const char* to_string(TransferInstant v) {
  return v == TransferInstant::kImmediate ? "immediate" : "lazy";
}
const char* to_string(AccessTransfer v) {
  return v == AccessTransfer::kPartial ? "partial" : "full";
}
const char* to_string(CoherenceTransfer v) {
  switch (v) {
    case CoherenceTransfer::kNotification: return "notification";
    case CoherenceTransfer::kPartial: return "partial";
    case CoherenceTransfer::kFull: return "full";
  }
  return "?";
}
const char* to_string(OutdateReaction v) {
  return v == OutdateReaction::kWait ? "wait" : "demand";
}

std::string ReplicationPolicy::validate() const {
  using coherence::ObjectModel;
  if (model == ObjectModel::kSequential &&
      coherence_transfer == CoherenceTransfer::kNotification &&
      object_outdate_reaction == OutdateReaction::kWait &&
      initiative == TransferInitiative::kPush) {
    return "sequential model with notification-only push and wait reaction "
           "never delivers data to replicas; use demand or a data-carrying "
           "transfer type";
  }
  if (propagation == Propagation::kInvalidate &&
      coherence_transfer == CoherenceTransfer::kNotification) {
    return "invalidate propagation already implies notification-like "
           "traffic; coherence transfer must be partial or full to name "
           "the invalidated pages";
  }
  if (instant == TransferInstant::kLazy &&
      lazy_period.count_micros() <= 0) {
    return "lazy transfer instant requires a positive period";
  }
  const bool multi_master = coherence::multi_master(model);
  if (multi_master && propagation == Propagation::kInvalidate) {
    return "invalidate propagation requires a single data root; "
           "multi-master models (causal/eventual) accept writes at any "
           "store, so an invalidated replica has no authoritative place "
           "to refetch from — use update propagation";
  }
  if (multi_master && coherence_transfer == CoherenceTransfer::kFull) {
    return "full-state coherence transfer would overwrite concurrent "
           "local writes under a multi-master model; use partial "
           "(per-record) transfer";
  }
  if (multi_master && coherence_transfer == CoherenceTransfer::kNotification) {
    return "notification-only transfer cannot carry multi-master writes "
           "to the rest of the object; use partial transfer";
  }
  return {};
}

std::string ReplicationPolicy::describe() const {
  std::string out;
  out += "Coherence model:          ";
  out += coherence::to_string(model);
  out += "\nCoherence propagation:    ";
  out += to_string(propagation);
  out += "\nStore:                    ";
  out += to_string(store_scope);
  out += "\nWrite set:                ";
  out += to_string(write_set);
  out += "\nTransfer initiative:      ";
  out += to_string(initiative);
  out += "\nTransfer instant:         ";
  out += to_string(instant);
  if (instant == TransferInstant::kLazy) {
    out += " (period " + std::to_string(lazy_period.count_micros() / 1000) +
           "ms)";
  }
  out += "\nAccess transfer type:     ";
  out += to_string(access_transfer);
  out += "\nCoherence transfer type:  ";
  out += to_string(coherence_transfer);
  out += "\nObject-outdate reaction:  ";
  out += to_string(object_outdate_reaction);
  out += "\nClient-outdate reaction:  ";
  out += to_string(client_outdate_reaction);
  return out;
}

void ReplicationPolicy::encode(util::Writer& w) const {
  w.u8(static_cast<std::uint8_t>(model));
  w.u8(static_cast<std::uint8_t>(propagation));
  w.u8(static_cast<std::uint8_t>(store_scope));
  w.u8(static_cast<std::uint8_t>(write_set));
  w.u8(static_cast<std::uint8_t>(initiative));
  w.u8(static_cast<std::uint8_t>(instant));
  w.u8(static_cast<std::uint8_t>(access_transfer));
  w.u8(static_cast<std::uint8_t>(coherence_transfer));
  w.u8(static_cast<std::uint8_t>(object_outdate_reaction));
  w.u8(static_cast<std::uint8_t>(client_outdate_reaction));
  w.varint_i64(lazy_period.count_micros());
}

ReplicationPolicy ReplicationPolicy::decode(util::Reader& r) {
  ReplicationPolicy p;
  p.model = static_cast<coherence::ObjectModel>(r.u8());
  p.propagation = static_cast<Propagation>(r.u8());
  p.store_scope = static_cast<StoreScope>(r.u8());
  p.write_set = static_cast<WriteSet>(r.u8());
  p.initiative = static_cast<TransferInitiative>(r.u8());
  p.instant = static_cast<TransferInstant>(r.u8());
  p.access_transfer = static_cast<AccessTransfer>(r.u8());
  p.coherence_transfer = static_cast<CoherenceTransfer>(r.u8());
  p.object_outdate_reaction = static_cast<OutdateReaction>(r.u8());
  p.client_outdate_reaction = static_cast<OutdateReaction>(r.u8());
  p.lazy_period = util::SimDuration(r.varint_i64());
  return p;
}

ReplicationPolicy ReplicationPolicy::conference_example() {
  // Table 2 of the paper, verbatim.
  ReplicationPolicy p;
  p.model = coherence::ObjectModel::kPram;
  p.propagation = Propagation::kUpdate;
  p.store_scope = StoreScope::kAll;
  p.write_set = WriteSet::kSingle;
  p.initiative = TransferInitiative::kPush;
  p.instant = TransferInstant::kLazy;  // periodic
  p.access_transfer = AccessTransfer::kFull;
  p.coherence_transfer = CoherenceTransfer::kPartial;
  p.object_outdate_reaction = OutdateReaction::kWait;
  p.client_outdate_reaction = OutdateReaction::kDemand;
  return p;
}

ReplicationPolicy ReplicationPolicy::groupware_sequential() {
  ReplicationPolicy p;
  p.model = coherence::ObjectModel::kSequential;
  p.propagation = Propagation::kUpdate;
  p.store_scope = StoreScope::kAll;
  p.write_set = WriteSet::kMultiple;
  p.initiative = TransferInitiative::kPush;
  p.instant = TransferInstant::kImmediate;
  p.access_transfer = AccessTransfer::kPartial;
  p.coherence_transfer = CoherenceTransfer::kPartial;
  p.object_outdate_reaction = OutdateReaction::kDemand;
  p.client_outdate_reaction = OutdateReaction::kDemand;
  return p;
}

ReplicationPolicy ReplicationPolicy::forum_causal() {
  ReplicationPolicy p;
  p.model = coherence::ObjectModel::kCausal;
  p.propagation = Propagation::kUpdate;
  p.store_scope = StoreScope::kAll;
  p.write_set = WriteSet::kMultiple;
  p.initiative = TransferInitiative::kPush;
  p.instant = TransferInstant::kImmediate;
  p.access_transfer = AccessTransfer::kPartial;
  p.coherence_transfer = CoherenceTransfer::kPartial;
  p.object_outdate_reaction = OutdateReaction::kWait;
  p.client_outdate_reaction = OutdateReaction::kDemand;
  return p;
}

ReplicationPolicy ReplicationPolicy::eventual_lazy() {
  ReplicationPolicy p;
  p.model = coherence::ObjectModel::kEventual;
  p.propagation = Propagation::kUpdate;
  p.store_scope = StoreScope::kPermanent;
  p.write_set = WriteSet::kMultiple;
  p.initiative = TransferInitiative::kPush;
  p.instant = TransferInstant::kLazy;
  p.access_transfer = AccessTransfer::kPartial;
  p.coherence_transfer = CoherenceTransfer::kPartial;
  p.object_outdate_reaction = OutdateReaction::kWait;
  p.client_outdate_reaction = OutdateReaction::kWait;
  return p;
}

}  // namespace globe::core
