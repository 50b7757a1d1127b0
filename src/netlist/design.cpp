#include "netlist/design.h"

#include <cmath>
#include <initializer_list>
#include <limits>
#include <sstream>

namespace puffer {

CellId Design::add_cell(Cell cell) {
  cells.push_back(std::move(cell));
  return static_cast<CellId>(cells.size() - 1);
}

NetId Design::add_net(std::string net_name, double weight) {
  Net net;
  net.name = std::move(net_name);
  net.weight = weight;
  nets.push_back(std::move(net));
  return static_cast<NetId>(nets.size() - 1);
}

PinId Design::connect(CellId cell, NetId net, double dx, double dy) {
  Pin pin;
  pin.cell = cell;
  pin.net = net;
  pin.dx = dx;
  pin.dy = dy;
  pins.push_back(pin);
  const PinId id = static_cast<PinId>(pins.size() - 1);
  cells[static_cast<std::size_t>(cell)].pins.push_back(id);
  nets[static_cast<std::size_t>(net)].pins.push_back(id);
  return id;
}

double Design::net_hpwl(NetId net_id) const {
  const Net& net = nets[static_cast<std::size_t>(net_id)];
  if (net.pins.size() < 2) return 0.0;
  double xlo = std::numeric_limits<double>::max();
  double xhi = std::numeric_limits<double>::lowest();
  double ylo = xlo, yhi = xhi;
  for (PinId pid : net.pins) {
    const Point p = pin_position(pid);
    xlo = std::min(xlo, p.x);
    xhi = std::max(xhi, p.x);
    ylo = std::min(ylo, p.y);
    yhi = std::max(yhi, p.y);
  }
  return (xhi - xlo) + (yhi - ylo);
}

double Design::total_hpwl() const {
  double sum = 0.0;
  for (NetId n = 0; n < static_cast<NetId>(nets.size()); ++n) {
    sum += nets[static_cast<std::size_t>(n)].weight * net_hpwl(n);
  }
  return sum;
}

std::size_t Design::num_movable() const {
  std::size_t n = 0;
  for (const Cell& c : cells) n += c.movable() ? 1 : 0;
  return n;
}

std::size_t Design::num_macros() const {
  std::size_t n = 0;
  for (const Cell& c : cells) n += c.is_macro() ? 1 : 0;
  return n;
}

std::size_t Design::num_movable_pins() const {
  std::size_t n = 0;
  for (const Cell& c : cells) {
    if (c.movable()) n += c.pins.size();
  }
  return n;
}

double Design::movable_area() const {
  double a = 0.0;
  for (const Cell& c : cells) {
    if (c.movable()) a += c.area();
  }
  return a;
}

double Design::utilization() const {
  double macro_area = 0.0;
  for (const Cell& c : cells) {
    if (c.is_macro()) macro_area += c.rect().clamped(die).area();
  }
  const double free_area = die.area() - macro_area;
  return free_area > 0.0 ? movable_area() / free_area : 0.0;
}

namespace {

bool all_finite(std::initializer_list<double> values) {
  for (const double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

}  // namespace

std::string Design::validate() const {
  std::ostringstream err;
  if (!all_finite({tech.site_width, tech.row_height}) ||
      !(tech.site_width > 0.0) || !(tech.row_height > 0.0)) {
    err << "technology site width and row height must be positive and "
           "finite\n";
  }
  for (std::size_t i = 0; i < tech.layers.size(); ++i) {
    const MetalLayer& l = tech.layers[i];
    if (!all_finite({l.wire_width, l.wire_spacing}) || !(l.pitch() > 0.0)) {
      err << "layer " << i << " is not finite or has a non-positive pitch\n";
    }
  }
  if (!all_finite({die.xlo, die.ylo, die.xhi, die.yhi}) ||
      !(die.xhi > die.xlo) || !(die.yhi > die.ylo)) {
    err << "die must be finite with positive extent\n";
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    if (!all_finite({r.y, r.x_lo, r.site_width, r.height}) ||
        !(r.site_width > 0.0) || !(r.height > 0.0)) {
      err << "row " << i
          << " is not finite or has a non-positive height or site width\n";
    }
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    if (!all_finite({c.x, c.y, c.width, c.height}) || c.width < 0.0 ||
        c.height < 0.0) {
      err << "cell " << i << " is not finite or has a negative size\n";
    }
  }
  for (std::size_t i = 0; i < nets.size(); ++i) {
    if (!std::isfinite(nets[i].weight)) {
      err << "net " << i << " has a non-finite weight\n";
    }
  }
  for (std::size_t i = 0; i < pins.size(); ++i) {
    const Pin& p = pins[i];
    if (!all_finite({p.dx, p.dy})) {
      err << "pin " << i << " has a non-finite offset\n";
    }
    if (p.cell < 0 || p.cell >= static_cast<CellId>(cells.size())) {
      err << "pin " << i << " has invalid cell id\n";
      continue;
    }
    if (p.net < 0 || p.net >= static_cast<NetId>(nets.size())) {
      err << "pin " << i << " has invalid net id\n";
      continue;
    }
  }
  for (std::size_t c = 0; c < cells.size(); ++c) {
    for (PinId pid : cells[c].pins) {
      if (pid < 0 || pid >= static_cast<PinId>(pins.size()) ||
          pins[static_cast<std::size_t>(pid)].cell != static_cast<CellId>(c)) {
        err << "cell " << c << " references pin " << pid
            << " that does not point back\n";
      }
    }
  }
  for (std::size_t n = 0; n < nets.size(); ++n) {
    for (PinId pid : nets[n].pins) {
      if (pid < 0 || pid >= static_cast<PinId>(pins.size()) ||
          pins[static_cast<std::size_t>(pid)].net != static_cast<NetId>(n)) {
        err << "net " << n << " references pin " << pid
            << " that does not point back\n";
      }
    }
  }
  return err.str();
}

void Design::clamp_to_die(CellId id) {
  Cell& c = cells[static_cast<std::size_t>(id)];
  c.x = clamp(c.x, die.xlo, std::max(die.xlo, die.xhi - c.width));
  c.y = clamp(c.y, die.ylo, std::max(die.ylo, die.yhi - c.height));
}

}  // namespace puffer
