// Shared demand semantics of a routed path (the router's unit of
// resource accounting): a path is an inclusive 4-connected Gcell
// sequence, and each cell consumes the direction(s) of its adjacent
// moves -- a turning cell consumes both. Exposed as a header so the
// router, the incremental overflow tracker and the property tests all
// agree on one definition.
#pragma once

#include <vector>

#include "grid/gcell.h"
#include "grid/map2d.h"

namespace puffer {

// Calls fn(gx, gy, h_used, v_used) for every cell of `path` with the
// direction(s) the path uses at that cell. Paths shorter than two cells
// consume nothing.
template <typename Fn>
inline void for_each_path_use(const std::vector<GcellIndex>& path, Fn&& fn) {
  const std::size_t n = path.size();
  if (n < 2) return;
  for (std::size_t i = 0; i < n; ++i) {
    bool h = false, v = false;
    if (i > 0) {
      if (path[i - 1].gy == path[i].gy) h = true;
      else v = true;
    }
    if (i + 1 < n) {
      if (path[i + 1].gy == path[i].gy) h = true;
      else v = true;
    }
    fn(path[i].gx, path[i].gy, h, v);
  }
}

// Adds (sign=+1) or removes (sign=-1) one track-equivalent of demand
// along the path. All contributions are +/-1.0 -- exact IEEE-double
// integer arithmetic -- so apply followed by rip restores the maps
// bit-identically (see congestion/demand_quantum.h).
inline void apply_path_demand(const std::vector<GcellIndex>& path,
                              Map2D<double>& dmd_h, Map2D<double>& dmd_v,
                              double sign) {
  for_each_path_use(path, [&](int gx, int gy, bool h, bool v) {
    if (h) dmd_h.at(gx, gy) += sign;
    if (v) dmd_v.at(gx, gy) += sign;
  });
}

}  // namespace puffer
