// Aggregate routing-resource state: capacity + demand per Gcell, the
// signed congestion measure of Eqs. (10)-(11), the local-net pin demand
// layer, overflow statistics (Eq. 7-style) and map export for Fig. 5-like
// congestion pictures.
#pragma once

#include <cstdint>
#include <string>

#include "grid/capacity.h"
#include "grid/gcell.h"
#include "grid/map2d.h"
#include "netlist/design.h"

namespace puffer {

struct RoutingMaps {
  GcellGrid grid;
  Map2D<double> cap_h, cap_v;  // capacity (tracks)
  Map2D<double> dmd_h, dmd_v;  // demand (track-equivalents)

  RoutingMaps() = default;
  RoutingMaps(const GcellGrid& g, CapacityMaps caps);

  // Signed per-direction congestion, Eq. (11):
  //   Cg_{H/V}(g) = (Dmd - Cap) / max(Cap, 1).
  double cg_h(int gx, int gy) const;
  double cg_v(int gx, int gy) const;

  // Per-direction overflow predicate (dmd > cap, strict) -- the single
  // definition shared by compute_overflow and the router's per-round
  // history growth and segment selection.
  bool overflowed_h(int gx, int gy) const {
    return dmd_h.at(gx, gy) > cap_h.at(gx, gy);
  }
  bool overflowed_v(int gx, int gy) const {
    return dmd_v.at(gx, gy) > cap_v.at(gx, gy);
  }

  // Combined congestion, Eq. (10): when the two directions disagree in
  // sign take the max; otherwise their sum.
  double cg(int gx, int gy) const;

  // Map of cg() over all Gcells.
  Map2D<double> cg_map() const;
};

// Local-net pin demand, the one pin model of the congestion estimator and
// the evaluation router: each Gcell holding pins gets pin_penalty per pin
// plus, for every pin beyond its pin-access capacity (two pins per
// placement site, at least one per Gcell), crowding/2 track-equivalents
// -- the escape wiring a detailed router would need. The sum is quantized
// (grid/demand_quantum.h) and added to both directions. The router uses
// crowding 1.0, which keeps the evaluator honest on clumped placements
// that would otherwise score better than spread ones because their nets
// collapse into one Gcell; the estimator uses 0.0 to keep the paper's
// pure topology demand.
void add_pin_demand(const Design& design, double pin_penalty, double crowding,
                    RoutingMaps& maps);

// Overflow statistics used as the evaluation objective and the HOF/VOF
// numbers of Table II: total overflow normalized by total capacity, in %.
struct OverflowStats {
  double hof_pct = 0.0;       // horizontal overflow ratio (%)
  double vof_pct = 0.0;       // vertical overflow ratio (%)
  double total_overflow = 0.0;  // raw sum over both directions (tracks)
  int overflowed_gcells = 0;

  double total_pct() const { return hof_pct + vof_pct; }
};

OverflowStats compute_overflow(const RoutingMaps& maps);

// FNV-1a over the raw bit patterns of both demand maps. Bit-identical maps
// (and only those) hash equal, so tests and benches can compare two
// estimates or routes with a single number.
std::uint64_t demand_checksum(const RoutingMaps& maps);

// Pearson correlation between two equally-sized maps; used by the
// estimation-accuracy ablation. Returns 0 when either map is constant.
double map_correlation(const Map2D<double>& a, const Map2D<double>& b);

// Dumps a signed map to ASCII art (one char per Gcell, '.'=slack through
// '9'/'#'=heavy overflow) and to a PPM heatmap (blue=slack, red=overflow).
std::string map_to_ascii(const Map2D<double>& map);
void write_map_ppm(const Map2D<double>& map, const std::string& path);

}  // namespace puffer
