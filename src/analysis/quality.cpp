#include "analysis/quality.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "grid/gcell.h"

namespace puffer {

namespace {
// Side of a density bin, in standard-cell rows.
constexpr double kRowsPerBin = 3.0;
}  // namespace

Percentiles compute_percentiles(std::vector<double> values) {
  Percentiles p;
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  const auto at = [&](double q) {
    const double idx = q * static_cast<double>(values.size() - 1);
    return values[static_cast<std::size_t>(std::llround(idx))];
  };
  p.p50 = at(0.50);
  p.p90 = at(0.90);
  p.p99 = at(0.99);
  p.max = values.back();
  return p;
}

QualityReport analyze_quality(const Design& design, const RoutingMaps* routed) {
  QualityReport report;

  // --- wirelength ---------------------------------------------------------
  std::vector<double> lengths;
  lengths.reserve(design.nets.size());
  for (NetId n = 0; n < static_cast<NetId>(design.nets.size()); ++n) {
    if (design.nets[static_cast<std::size_t>(n)].pins.size() < 2) continue;
    lengths.push_back(design.net_hpwl(n));
  }
  report.nets = lengths.size();
  report.hpwl = design.total_hpwl();
  report.net_hpwl = compute_percentiles(std::move(lengths));

  // --- density -------------------------------------------------------------
  report.design_utilization = design.utilization();
  const GcellGrid bins = GcellGrid::from_row_pitch(
      design.die, design.tech.row_height, kRowsPerBin);
  Map2D<double> movable(bins.nx(), bins.ny());
  Map2D<double> blocked(bins.nx(), bins.ny());
  for (const Cell& c : design.cells) {
    if (c.kind == CellKind::kTerminal) continue;
    const Rect r = c.rect().clamped(design.die);
    if (r.empty()) continue;
    GcellIndex lo, hi;
    bins.range_of(r, lo, hi);
    for (int gy = lo.gy; gy <= hi.gy; ++gy) {
      for (int gx = lo.gx; gx <= hi.gx; ++gx) {
        const double a = bins.gcell_rect(gx, gy).overlap_area(r);
        (c.movable() ? movable : blocked).at(gx, gy) += a;
      }
    }
  }
  std::vector<double> utils;
  utils.reserve(movable.size());
  const double bin_area = bins.gcell_w() * bins.gcell_h();
  for (int gy = 0; gy < bins.ny(); ++gy) {
    for (int gx = 0; gx < bins.nx(); ++gx) {
      const double free = bin_area - blocked.at(gx, gy);
      if (free <= bin_area * 0.05) continue;  // essentially macro-covered
      utils.push_back(movable.at(gx, gy) / free);
    }
  }
  report.bin_utilization = compute_percentiles(std::move(utils));

  // --- congestion ------------------------------------------------------------
  if (routed != nullptr) {
    report.has_congestion = true;
    std::vector<double> h, v;
    int over = 0;
    const int n = routed->grid.nx() * routed->grid.ny();
    h.reserve(static_cast<std::size_t>(n));
    v.reserve(static_cast<std::size_t>(n));
    for (int gy = 0; gy < routed->grid.ny(); ++gy) {
      for (int gx = 0; gx < routed->grid.nx(); ++gx) {
        const double rh = routed->dmd_h.at(gx, gy) /
                          std::max(routed->cap_h.at(gx, gy), 1.0);
        const double rv = routed->dmd_v.at(gx, gy) /
                          std::max(routed->cap_v.at(gx, gy), 1.0);
        h.push_back(rh);
        v.push_back(rv);
        if (rh > 1.0 || rv > 1.0) ++over;
      }
    }
    report.overflowed_gcell_frac = n > 0 ? static_cast<double>(over) / n : 0.0;
    report.cg_h = compute_percentiles(std::move(h));
    report.cg_v = compute_percentiles(std::move(v));
  }
  return report;
}

std::string QualityReport::to_string() const {
  std::ostringstream os;
  const auto line = [&](const char* name, const Percentiles& p) {
    os << "  " << name << ": p50 " << p.p50 << "  p90 " << p.p90 << "  p99 "
       << p.p99 << "  max " << p.max << '\n';
  };
  os << "quality report\n";
  os << "  HPWL " << hpwl << " over " << nets << " nets\n";
  line("net HPWL", net_hpwl);
  os << "  utilization " << design_utilization << '\n';
  line("bin util", bin_utilization);
  if (has_congestion) {
    line("H dmd/cap", cg_h);
    line("V dmd/cap", cg_v);
    os << "  overflowed Gcells " << 100.0 * overflowed_gcell_frac << "%\n";
  }
  return os.str();
}

}  // namespace puffer
