// Design database: the circuit netlist H = (V, E) plus physical context
// (rows, die area, technology). This is the hub structure shared by the
// placer, the routability optimizer, the legalizer and the router.
//
// Storage is index-based (int32 ids into flat vectors) for cache locality;
// names are kept only for I/O and debugging.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geometry/geometry.h"
#include "netlist/technology.h"

namespace puffer {

using CellId = std::int32_t;
using NetId = std::int32_t;
using PinId = std::int32_t;

inline constexpr std::int32_t kInvalidId = -1;

enum class CellKind : std::uint8_t {
  kMovable,    // standard cell placed by the global placer
  kMacro,      // fixed macro block; acts as placement and routing blockage
  kTerminal,   // fixed I/O terminal; zero routing blockage
};

struct Cell {
  std::string name;
  CellKind kind = CellKind::kMovable;
  double width = 0.0;
  double height = 0.0;
  // Lower-left corner.
  double x = 0.0;
  double y = 0.0;
  std::vector<PinId> pins;

  bool movable() const { return kind == CellKind::kMovable; }
  bool is_macro() const { return kind == CellKind::kMacro; }
  double area() const { return width * height; }
  Rect rect() const { return {x, y, x + width, y + height}; }
  Point center() const { return {x + width * 0.5, y + height * 0.5}; }
};

struct Pin {
  CellId cell = kInvalidId;
  NetId net = kInvalidId;
  // Offset of the pin from the owning cell's lower-left corner.
  double dx = 0.0;
  double dy = 0.0;
};

struct Net {
  std::string name;
  std::vector<PinId> pins;
  double weight = 1.0;
};

struct Row {
  double y = 0.0;        // bottom of the row
  double x_lo = 0.0;     // left edge of first site
  int num_sites = 0;
  double site_width = 1.0;
  double height = 1.0;

  double x_hi() const { return x_lo + num_sites * site_width; }
};

class Design {
 public:
  std::string name;
  Technology tech;
  Rect die;  // placement region

  std::vector<Cell> cells;
  std::vector<Pin> pins;
  std::vector<Net> nets;
  std::vector<Row> rows;

  // --- construction helpers -------------------------------------------
  CellId add_cell(Cell cell);
  NetId add_net(std::string net_name, double weight = 1.0);
  // Creates a pin on `cell` connected to `net` at offset (dx, dy).
  PinId connect(CellId cell, NetId net, double dx, double dy);

  // --- queries ---------------------------------------------------------
  Point pin_position(PinId pin) const {
    const Pin& p = pins[static_cast<std::size_t>(pin)];
    const Cell& c = cells[static_cast<std::size_t>(p.cell)];
    return {c.x + p.dx, c.y + p.dy};
  }

  // Half-perimeter wirelength of one net; 0 for degree<2 nets.
  double net_hpwl(NetId net) const;

  // Total weighted HPWL over all nets.
  double total_hpwl() const;

  std::size_t num_movable() const;
  std::size_t num_macros() const;
  // Total pins on movable cells (the "#Pins" statistic of Table I).
  std::size_t num_movable_pins() const;

  double movable_area() const;
  // Placement utilization: movable area / (die area - macro area).
  double utilization() const;

  // Checks that every number is finite, that cell sizes are non-negative
  // (zero-size terminals are valid), that the die has positive extent,
  // rows and technology a positive height and site width and every metal
  // layer a positive pitch, that every row has at least one site and no
  // movable cell is wider than the widest row, and that the
  // pin<->cell<->net cross-references agree. Returns an explanatory
  // string, empty when valid.
  std::string validate() const;

  // Clamp cell (x,y) so the cell stays inside the die.
  void clamp_to_die(CellId id);
};

}  // namespace puffer
