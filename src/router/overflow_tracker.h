// Incremental overflow bookkeeping for negotiated rip-up-and-reroute.
//
// The seed router re-derived "which Gcells overflow" with a full W x H
// scan at the top of every round and re-checked every segment's path
// cell-by-cell to decide whether it touches overflow -- O(W x H +
// total path length) per round even when almost nothing changed. The
// tracker maintains that state incrementally from the +/-1 demand deltas
// of rip/apply:
//
//   * a per-resource overflow bit ((Gcell, direction), dmd > cap) kept
//     exact under every +/-1 demand update;
//   * a lazily compacted list of overflowed resources per direction, so
//     growing history visits only overflowed cells (list entries whose
//     bit has cleared are dropped on the next sweep);
//   * per-resource user lists (which segments currently route through
//     the cell in that direction) so an overflow flip updates the
//     touch-count of exactly the affected segments;
//   * a per-segment count of currently-overflowed resources on its path
//     ("touches overflow" == count > 0), so per-round segment selection
//     is a flat O(#segments) integer scan.
//
// All updates run on the serial commit path of the batched router, in
// segment order, so the tracker state -- like the demand maps -- is
// independent of the worker count.
#pragma once

#include <cstdint>
#include <vector>

#include "grid/gcell.h"
#include "grid/map2d.h"
#include "grid/routing_maps.h"

namespace puffer {

class OverflowTracker {
 public:
  // Captures grid shape + current demand/capacity (one full scan -- the
  // only one) and resets all per-segment state to "no path registered".
  void init(const RoutingMaps& maps, std::size_t num_segments);

  // Registers a routed path for `seg` without changing demand: fills the
  // user lists and the segment's overflow-touch count from the current
  // bits. Call once per segment after initial routing is applied.
  void register_path(std::size_t seg, const std::vector<GcellIndex>& path,
                     const RoutingMaps& maps);

  // Removes (rip) / adds (apply) one track-equivalent of demand along
  // the path in `maps`, maintaining overflow bits, lists and touch
  // counts. The demand arithmetic is exactly apply_path_demand's.
  void rip(std::size_t seg, const std::vector<GcellIndex>& path,
           RoutingMaps& maps);
  void apply(std::size_t seg, const std::vector<GcellIndex>& path,
             RoutingMaps& maps);

  // True when the segment's current path crosses at least one overflowed
  // resource in a direction it uses.
  bool touches_overflow(std::size_t seg) const { return otouch_[seg] > 0; }

  // Number of currently overflowed (Gcell, direction) resources.
  std::int64_t overflowed_resources() const { return of_count_; }
  bool any_overflow() const { return of_count_ > 0; }

  // Adds `step` to the history maps at every currently overflowed
  // resource, compacting the lazy lists as it goes. Replaces the seed's
  // per-round full-grid scan.
  void grow_history(Map2D<double>& hist_h, Map2D<double>& hist_v,
                    double step);

 private:
  // dir: 0 = horizontal, 1 = vertical.
  void delta(std::size_t seg, int gx, int gy, int dir, double sign,
             RoutingMaps& maps);

  int nx_ = 0, ny_ = 0;
  std::vector<std::uint8_t> of_bit_[2];    // dmd > cap, exact
  std::vector<std::uint8_t> in_list_[2];   // member of of_list_ (lazy)
  std::vector<std::int32_t> of_list_[2];   // flat cell indices, lazy
  std::vector<std::vector<std::int32_t>> users_[2];
  std::vector<std::int32_t> otouch_;       // overflowed resources per seg
  std::int64_t of_count_ = 0;
};

}  // namespace puffer
