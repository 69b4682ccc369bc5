#include "globe/msg/envelope.hpp"

namespace globe::msg {

const char* to_string(MsgType t) {
  switch (t) {
    case MsgType::kInvokeRequest: return "InvokeRequest";
    case MsgType::kInvokeReply: return "InvokeReply";
    case MsgType::kWriteForward: return "WriteForward";
    case MsgType::kUpdate: return "Update";
    case MsgType::kSnapshot: return "Snapshot";
    case MsgType::kInvalidate: return "Invalidate";
    case MsgType::kNotify: return "Notify";
    case MsgType::kFetchRequest: return "FetchRequest";
    case MsgType::kFetchReply: return "FetchReply";
    case MsgType::kSubscribe: return "Subscribe";
    case MsgType::kSubscribeAck: return "SubscribeAck";
    case MsgType::kAntiEntropyRequest: return "AntiEntropyRequest";
    case MsgType::kAntiEntropyReply: return "AntiEntropyReply";
    case MsgType::kPolicyUpdate: return "PolicyUpdate";
    case MsgType::kNameRequest: return "NameRequest";
    case MsgType::kNameReply: return "NameReply";
    case MsgType::kLocateRequest: return "LocateRequest";
    case MsgType::kLocateReply: return "LocateReply";
    case MsgType::kMembershipJoin: return "MembershipJoin";
    case MsgType::kMembershipJoinAck: return "MembershipJoinAck";
    case MsgType::kMembershipLeave: return "MembershipLeave";
    case MsgType::kMembershipHeartbeat: return "MembershipHeartbeat";
    case MsgType::kMembershipWatch: return "MembershipWatch";
    case MsgType::kSnapshotDeltaRequest: return "SnapshotDeltaRequest";
    case MsgType::kSnapshotDeltaReply: return "SnapshotDeltaReply";
    case MsgType::kViewDelta: return "ViewDelta";
    case MsgType::kViewFetchRequest: return "ViewFetchRequest";
    case MsgType::kViewFetchReply: return "ViewFetchReply";
    case MsgType::kPlacementFetch: return "PlacementFetch";
    case MsgType::kPlacementFetchReply: return "PlacementFetchReply";
    case MsgType::kPlacementWatch: return "PlacementWatch";
    case MsgType::kPlacementInvalidate: return "PlacementInvalidate";
    case MsgType::kStabilityHorizon: return "StabilityHorizon";
    case MsgType::kUnsubscribe: return "Unsubscribe";
  }
  return "Unknown";
}

}  // namespace globe::msg
