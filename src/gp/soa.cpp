#include "gp/soa.h"

#include <algorithm>
#include <cstring>

#include "common/parallel.h"

namespace puffer {

void GpSoA::build(const Design& design) {
  const std::size_t n_cells = design.cells.size();
  cell_ids.clear();
  ordinal_of_cell.assign(n_cells, -1);
  for (CellId c = 0; c < static_cast<CellId>(n_cells); ++c) {
    if (design.cells[static_cast<std::size_t>(c)].movable()) {
      ordinal_of_cell[static_cast<std::size_t>(c)] =
          static_cast<std::int32_t>(cell_ids.size());
      cell_ids.push_back(c);
    }
  }
  const std::size_t n_mov = cell_ids.size();
  cw.resize(n_mov);
  chh.resize(n_mov);
  for (std::size_t i = 0; i < n_mov; ++i) {
    const Cell& c = design.cells[static_cast<std::size_t>(cell_ids[i])];
    cw[i] = c.width;
    chh[i] = c.height;
  }
  pin_count.assign(n_mov, 0.0);

  // Net-major slot CSR over nets of degree >= 2, in design net order --
  // ascending slot order is the serial net-walk order of the scalar
  // kernels, which the gradient gather replays.
  net_start.clear();
  net_weight.clear();
  pin_ord.clear();
  pin_ox.clear();
  pin_oy.clear();
  slot_net.clear();
  net_start.push_back(0);
  for (const Net& net : design.nets) {
    if (net.pins.size() < 2) continue;
    const std::int32_t ni = static_cast<std::int32_t>(net_weight.size());
    net_weight.push_back(net.weight);
    for (PinId pid : net.pins) {
      const Pin& pin = design.pins[static_cast<std::size_t>(pid)];
      const Cell& cell = design.cells[static_cast<std::size_t>(pin.cell)];
      const std::int32_t ord = ordinal_of_cell[static_cast<std::size_t>(pin.cell)];
      pin_ord.push_back(ord);
      if (ord >= 0) {
        // Offset from the cell center: pins ride with the center.
        pin_ox.push_back(pin.dx - cell.width * 0.5);
        pin_oy.push_back(pin.dy - cell.height * 0.5);
        pin_count[static_cast<std::size_t>(ord)] += 1.0;
      } else {
        pin_ox.push_back(cell.x + pin.dx);
        pin_oy.push_back(cell.y + pin.dy);
      }
      slot_net.push_back(ni);
    }
    net_start.push_back(static_cast<std::int64_t>(pin_ord.size()));
  }

  // Fixed chunk id per net (worker-count independent by construction).
  const std::int64_t n_nets = static_cast<std::int64_t>(net_weight.size());
  net_chunks_ = par::chunk_count(n_nets, kNetGrain, kMaxNetChunks);
  std::vector<std::int32_t> net_chunk(static_cast<std::size_t>(n_nets), 0);
  for (int c = 0; c < net_chunks_; ++c) {
    const auto [b, e] = par::chunk_range(n_nets, net_chunks_, c);
    for (std::int64_t ni = b; ni < e; ++ni) {
      net_chunk[static_cast<std::size_t>(ni)] = c;
    }
  }
  max_degree_ = 0;
  for (std::size_t ni = 0; ni + 1 < net_start.size(); ++ni) {
    max_degree_ = std::max(max_degree_, net_start[ni + 1] - net_start[ni]);
  }

  // Transposed CSR (cell -> slots) by counting sort; walking slots in
  // ascending order keeps each cell's slot list ascending too.
  cell_start.assign(n_mov + 1, 0);
  for (std::int32_t ord : pin_ord) {
    if (ord >= 0) ++cell_start[static_cast<std::size_t>(ord) + 1];
  }
  for (std::size_t i = 0; i < n_mov; ++i) cell_start[i + 1] += cell_start[i];
  cell_slots.assign(static_cast<std::size_t>(cell_start[n_mov]), 0);
  cell_slot_chunk.assign(cell_slots.size(), 0);
  std::vector<std::int64_t> fill(cell_start.begin(), cell_start.end() - 1);
  for (std::size_t s = 0; s < pin_ord.size(); ++s) {
    const std::int32_t ord = pin_ord[s];
    if (ord < 0) continue;
    const std::size_t k =
        static_cast<std::size_t>(fill[static_cast<std::size_t>(ord)]++);
    cell_slots[k] = static_cast<std::int64_t>(s);
    cell_slot_chunk[k] = net_chunk[static_cast<std::size_t>(slot_net[s])];
  }

  pull_positions(design);
}

void GpSoA::pull_positions(const Design& design) {
  const std::size_t n_mov = cell_ids.size();
  cx.resize(n_mov);
  cy.resize(n_mov);
  for (std::size_t i = 0; i < n_mov; ++i) {
    const Cell& c = design.cells[static_cast<std::size_t>(cell_ids[i])];
    cx[i] = c.x + c.width * 0.5;
    cy[i] = c.y + c.height * 0.5;
  }
}

void GpSoA::push_positions(Design& design) const {
  for (std::size_t i = 0; i < cell_ids.size(); ++i) {
    Cell& c = design.cells[static_cast<std::size_t>(cell_ids[i])];
    c.x = cx[i] - c.width * 0.5;
    c.y = cy[i] - c.height * 0.5;
  }
}

bool GpSoA::matches(const Design& design) const {
  if (cx.size() != cell_ids.size() || cy.size() != cell_ids.size()) {
    return false;
  }
  for (std::size_t i = 0; i < cell_ids.size(); ++i) {
    const Cell& c = design.cells[static_cast<std::size_t>(cell_ids[i])];
    const double dx = c.x + c.width * 0.5;
    const double dy = c.y + c.height * 0.5;
    if (std::memcmp(&dx, &cx[i], sizeof(double)) != 0 ||
        std::memcmp(&dy, &cy[i], sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

namespace {
std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}
}  // namespace

std::uint64_t GpSoA::position_checksum() const {
  std::uint64_t h = 1469598103934665603ull;
  h = fnv1a(cx.data(), cx.size() * sizeof(double), h);
  h = fnv1a(cy.data(), cy.size() * sizeof(double), h);
  return h;
}

}  // namespace puffer
