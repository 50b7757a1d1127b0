#include "grid/routing_maps.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "grid/demand_quantum.h"

namespace puffer {

namespace {

// Pins a placement site gives access to before its pins need escape wires.
constexpr double kPinsPerSite = 2.0;

}  // namespace

RoutingMaps::RoutingMaps(const GcellGrid& g, CapacityMaps caps)
    : grid(g),
      cap_h(std::move(caps.cap_h)),
      cap_v(std::move(caps.cap_v)),
      dmd_h(g.nx(), g.ny()),
      dmd_v(g.nx(), g.ny()) {}

double RoutingMaps::cg_h(int gx, int gy) const {
  const double cap = cap_h.at(gx, gy);
  return (dmd_h.at(gx, gy) - cap) / std::max(cap, 1.0);
}

double RoutingMaps::cg_v(int gx, int gy) const {
  const double cap = cap_v.at(gx, gy);
  return (dmd_v.at(gx, gy) - cap) / std::max(cap, 1.0);
}

double RoutingMaps::cg(int gx, int gy) const {
  const double h = cg_h(gx, gy);
  const double v = cg_v(gx, gy);
  if (h * v < 0.0) return std::max(h, v);
  return h + v;
}

Map2D<double> RoutingMaps::cg_map() const {
  Map2D<double> out(grid.nx(), grid.ny());
  for (int gy = 0; gy < grid.ny(); ++gy) {
    for (int gx = 0; gx < grid.nx(); ++gx) out.at(gx, gy) = cg(gx, gy);
  }
  return out;
}

void add_pin_demand(const Design& design, double pin_penalty, double crowding,
                    RoutingMaps& maps) {
  if (pin_penalty <= 0.0 && crowding <= 0.0) return;
  const GcellGrid& grid = maps.grid;
  Map2D<double> pin_cnt(grid.nx(), grid.ny());
  for (const Pin& pin : design.pins) {
    const Cell& c = design.cells[static_cast<std::size_t>(pin.cell)];
    const GcellIndex g = grid.index_of(c.x + pin.dx, c.y + pin.dy);
    pin_cnt.at(g.gx, g.gy) += 1.0;
  }
  const double site_w = std::max(design.tech.site_width, 1e-9);
  const double row_h = std::max(design.tech.row_height, 1e-9);
  const double pin_cap =
      std::max(1.0, (grid.gcell_w() / site_w) * (grid.gcell_h() / row_h) *
                        kPinsPerSite);
  for (int gy = 0; gy < grid.ny(); ++gy) {
    for (int gx = 0; gx < grid.nx(); ++gx) {
      const double cnt = pin_cnt.at(gx, gy);
      if (cnt <= 0.0) continue;
      const double excess = std::max(0.0, cnt - pin_cap);
      const double add =
          quantize_demand(pin_penalty * cnt + 0.5 * crowding * excess);
      if (add <= 0.0) continue;
      maps.dmd_h.at(gx, gy) += add;
      maps.dmd_v.at(gx, gy) += add;
    }
  }
}

OverflowStats compute_overflow(const RoutingMaps& maps) {
  OverflowStats stats;
  double of_h = 0.0, of_v = 0.0, cap_h_sum = 0.0, cap_v_sum = 0.0;
  for (int gy = 0; gy < maps.grid.ny(); ++gy) {
    for (int gx = 0; gx < maps.grid.nx(); ++gx) {
      const double ch = maps.cap_h.at(gx, gy);
      const double cv = maps.cap_v.at(gx, gy);
      const double oh = std::max(0.0, maps.dmd_h.at(gx, gy) - ch);
      const double ov = std::max(0.0, maps.dmd_v.at(gx, gy) - cv);
      of_h += oh;
      of_v += ov;
      cap_h_sum += ch;
      cap_v_sum += cv;
      if (oh > 0.0 || ov > 0.0) ++stats.overflowed_gcells;
    }
  }
  stats.hof_pct = cap_h_sum > 0.0 ? 100.0 * of_h / cap_h_sum : 0.0;
  stats.vof_pct = cap_v_sum > 0.0 ? 100.0 * of_v / cap_v_sum : 0.0;
  stats.total_overflow = of_h + of_v;
  return stats;
}

std::uint64_t demand_checksum(const RoutingMaps& maps) {
  constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
  constexpr std::uint64_t kFnvPrime = 1099511628211ull;
  std::uint64_t h = kFnvOffset;
  const auto mix = [&h](const Map2D<double>& m) {
    for (const double v : m.raw()) {
      std::uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      for (int i = 0; i < 8; ++i) {
        h ^= (bits >> (i * 8)) & 0xffu;
        h *= kFnvPrime;
      }
    }
  };
  mix(maps.dmd_h);
  mix(maps.dmd_v);
  return h;
}

double map_correlation(const Map2D<double>& a, const Map2D<double>& b) {
  if (a.size() != b.size() || a.size() == 0) {
    throw std::invalid_argument("map_correlation: size mismatch");
  }
  const std::size_t n = a.size();
  double ma = 0.0, mb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    ma += a.raw()[i];
    mb += b.raw()[i];
  }
  ma /= static_cast<double>(n);
  mb /= static_cast<double>(n);
  double cov = 0.0, va = 0.0, vb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double da = a.raw()[i] - ma;
    const double db = b.raw()[i] - mb;
    cov += da * db;
    va += da * da;
    vb += db * db;
  }
  if (va <= 0.0 || vb <= 0.0) return 0.0;
  return cov / std::sqrt(va * vb);
}

std::string map_to_ascii(const Map2D<double>& map) {
  std::ostringstream os;
  // Print top row (max gy) first so the picture is upright.
  for (int gy = map.ny() - 1; gy >= 0; --gy) {
    for (int gx = 0; gx < map.nx(); ++gx) {
      const double v = map.at(gx, gy);
      char c;
      if (v <= -0.5) c = ' ';
      else if (v <= 0.0) c = '.';
      else if (v >= 0.9) c = '#';
      else c = static_cast<char>('1' + static_cast<int>(v * 10.0));
      os << c;
    }
    os << '\n';
  }
  return os.str();
}

void write_map_ppm(const Map2D<double>& map, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "P6\n" << map.nx() << ' ' << map.ny() << "\n255\n";
  for (int gy = map.ny() - 1; gy >= 0; --gy) {
    for (int gx = 0; gx < map.nx(); ++gx) {
      const double v = map.at(gx, gy);
      unsigned char r, g, b;
      if (v <= 0.0) {
        // Slack: dark blue (deep slack) to light blue (near capacity).
        const double t = clamp(1.0 + v, 0.0, 1.0);  // v in [-1, 0]
        r = static_cast<unsigned char>(40 * t);
        g = static_cast<unsigned char>(90 + 110 * t);
        b = 255;
      } else {
        // Overflow: yellow to saturated red as v goes 0 -> 1+.
        const double t = clamp(v, 0.0, 1.0);
        r = 255;
        g = static_cast<unsigned char>(230 * (1.0 - t));
        b = 0;
      }
      out.put(static_cast<char>(r));
      out.put(static_cast<char>(g));
      out.put(static_cast<char>(b));
    }
  }
}

}  // namespace puffer
