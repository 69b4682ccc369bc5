// View follower: how a store or a watching client follows the view of
// one replica subgroup.
//
// The membership service broadcasts every epoch as a ViewDelta diff
// (view.hpp). A follower holds the last view it applied, and is the one
// place the receiver rule lives:
//
//   * a diff of another subgroup, or one not newer than the last view,
//     is dropped;
//   * a diff of the next epoch is applied onto a copy of the last view;
//   * any other diff (broadcasts were missed, or there is no base yet)
//     re-anchors with a full-view fetch (kViewFetchRequest naming the
//     shard) over the owner's endpoint, at most one in flight;
//   * a full view (a join ack, a fetch reply) is adopted when newer.
//
// Each adoption hands the owner the view it replaced and the adopted
// one. StoreEngine and ClientBinding each own one follower and keep only
// what they do with a view.
#pragma once

#include <functional>
#include <utility>

#include "globe/core/comm.hpp"
#include "globe/membership/view.hpp"

namespace globe::membership {

class ViewFollower {
 public:
  /// Follows subgroup `shard` of `scope` at the membership service
  /// `service`; an invalid `service` means membership is off, and the
  /// follower never fetches. `on_adopt` runs once per adoption, with the
  /// view it replaced (epoch 0 and no members before the first) and the
  /// adopted one.
  ViewFollower(net::Address service, ObjectId scope, ShardId shard,
               std::function<void(const View&, const View&)> on_adopt)
      : service_(service),
        on_adopt_(std::move(on_adopt)),
        view_{scope, shard, 0, {}} {}

  ViewFollower(const ViewFollower&) = delete;
  ViewFollower& operator=(const ViewFollower&) = delete;

  /// A kViewDelta body: adopted, dropped, or the cue for a fetch over
  /// `comm`, the owner's endpoint. The follower must outlive `comm`: a
  /// reply delivered while the endpoint closes reaches the follower.
  void on_delta(const ViewDelta& delta, core::CommunicationObject& comm);
  /// A full view: a join ack or a fetch reply.
  void on_view(View view) {
    if (!newer(view)) return;
    const View previous = std::exchange(view_, std::move(view));
    on_adopt_(previous, view_);
  }
  /// Forgets the fetch in flight (the owner crashed), so the next gap
  /// fetches at once. A reply that still arrives is adopted if newer.
  void forget_fetch() { fetch_in_flight_ = false; }

  /// The last applied view.
  [[nodiscard]] const View& view() const { return view_; }

 private:
  /// True for a view or a diff of the followed subgroup past the last
  /// applied epoch.
  [[nodiscard]] bool newer(const auto& v) const {
    return v.object == view_.object && v.shard == view_.shard &&
           v.epoch > view_.epoch;
  }

  net::Address service_;
  std::function<void(const View&, const View&)> on_adopt_;
  View view_;
  bool fetch_in_flight_ = false;
};

}  // namespace globe::membership
