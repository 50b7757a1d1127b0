#include "gp/initial_place.h"

#include <cstdint>

#include "common/rng.h"

namespace puffer {

namespace {
constexpr int kSweeps = 12;            // Gauss-Seidel iterations
constexpr double kJitterFrac = 0.003;  // jitter as a fraction of the die extent
constexpr std::uint64_t kSeed = 7;
}  // namespace

void initial_place(Design& design) {
  Rng rng(kSeed);
  const Point c = design.die.center();
  const double jx = design.die.width() * kJitterFrac;
  const double jy = design.die.height() * kJitterFrac;

  for (Cell& cell : design.cells) {
    if (!cell.movable()) continue;
    cell.x = c.x - cell.width * 0.5 + rng.uniform(-jx, jx);
    cell.y = c.y - cell.height * 0.5 + rng.uniform(-jy, jy);
  }

  // Gauss-Seidel star-model sweeps: move each cell to the mean position
  // of all pins on its nets (excluding its own pins). Fixed pins anchor
  // the system; without them this is a no-op around the center.
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    for (CellId cid = 0; cid < static_cast<CellId>(design.cells.size()); ++cid) {
      Cell& cell = design.cells[static_cast<std::size_t>(cid)];
      if (!cell.movable()) continue;
      double sx = 0.0, sy = 0.0;
      int count = 0;
      for (PinId pid : cell.pins) {
        const Pin& pin = design.pins[static_cast<std::size_t>(pid)];
        const Net& net = design.nets[static_cast<std::size_t>(pin.net)];
        for (PinId other : net.pins) {
          if (other == pid) continue;
          const Point p = design.pin_position(other);
          sx += p.x;
          sy += p.y;
          ++count;
        }
      }
      if (count == 0) continue;
      cell.x = sx / count - cell.width * 0.5;
      cell.y = sy / count - cell.height * 0.5;
      design.clamp_to_die(cid);
    }
  }
}

}  // namespace puffer
