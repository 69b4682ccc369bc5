#include "globe/membership/follower.hpp"

namespace globe::membership {

void ViewFollower::on_delta(const ViewDelta& delta,
                            core::CommunicationObject& comm) {
  if (!newer(delta)) return;
  if (delta.epoch == view_.epoch + 1) {
    // Before the first view the base is the empty epoch-0 view, which is
    // exactly what a group's first broadcast diffs against. The copy is
    // sized for the joiners up front: the adopted view lives until the
    // next one, so it must not keep a grown vector's slack.
    View next{view_.object, view_.shard, view_.epoch, {}};
    next.members.reserve(view_.members.size() + delta.joined.size());
    next.members = view_.members;
    delta.apply_to(next);
    on_view(std::move(next));
    return;
  }
  // Epoch gap (broadcasts missed across a partition, a lost datagram), or
  // no base yet (a watcher registered after the group's first
  // broadcast): re-anchor on the full view. One fetch at a time: a churn
  // burst delivers several gapped diffs inside one round trip, and each
  // would otherwise send its own full-view request, the amplification
  // diffs exist to avoid.
  if (fetch_in_flight_ || !service_.valid()) return;
  fetch_in_flight_ = true;
  comm.request_with(
      service_, msg::MsgType::kViewFetchRequest, view_.object,
      [this](util::Writer& w) { ViewFetchMsg{view_.shard}.encode(w); },
      [this](bool ok, const net::Address&, const msg::EnvelopeView& env) {
        fetch_in_flight_ = false;
        if (!ok) return;  // the next broadcast (or heartbeat) retries
        on_view(ViewMsg::decode(env.body).view);
      },
      sim::SimDuration::millis(250), /*retries=*/2);
}

}  // namespace globe::membership
