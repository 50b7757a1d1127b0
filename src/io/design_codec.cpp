#include "io/design_codec.h"

#include "io/checkpoint.h"

namespace puffer {

namespace {

// Frame type of a design blob: "PD", layout 2. A new layout takes a new
// type, so a reader never misreads an older one.
constexpr std::uint32_t kDesignFrame = 0x50440002;

// A garbled count prefix must not trigger a huge allocation: every list
// is bounded by the bytes that could plausibly encode it.
void check_count(std::uint64_t n, std::size_t remaining, std::size_t min_size,
                 const char* what) {
  if (min_size > 0 && n > remaining / min_size) {
    throw CheckpointError(std::string("design: ") + what +
                          " count exceeds buffer");
  }
}

}  // namespace

std::string encode_design(const Design& d) {
  BinaryWriter w;
  w.put_string(d.name);

  // Technology.
  w.put_f64(d.tech.site_width);
  w.put_f64(d.tech.row_height);
  w.put_i32(d.tech.macro_blocked_layers);
  w.put_u64(d.tech.layers.size());
  for (const MetalLayer& l : d.tech.layers) {
    w.put_string(l.name);
    w.put_u8(l.dir == RouteDir::kHorizontal ? 0 : 1);
    w.put_f64(l.wire_width);
    w.put_f64(l.wire_spacing);
  }

  // Die.
  w.put_f64(d.die.xlo);
  w.put_f64(d.die.ylo);
  w.put_f64(d.die.xhi);
  w.put_f64(d.die.yhi);

  // Cells (pin lists are reconstructed from the pin table).
  w.put_u64(d.cells.size());
  for (const Cell& c : d.cells) {
    w.put_string(c.name);
    w.put_u8(static_cast<std::uint8_t>(c.kind));
    w.put_f64(c.width);
    w.put_f64(c.height);
    w.put_f64(c.x);
    w.put_f64(c.y);
  }

  // Nets (names + weights; their pin lists are also reconstructed).
  w.put_u64(d.nets.size());
  for (const Net& n : d.nets) {
    w.put_string(n.name);
    w.put_f64(n.weight);
  }

  // Pins, in table order, so reconstructed cell/net pin lists preserve
  // the original ordinal order (the SoA mirror and structure key depend
  // on it).
  w.put_u64(d.pins.size());
  for (const Pin& p : d.pins) {
    w.put_i32(p.cell);
    w.put_i32(p.net);
    w.put_f64(p.dx);
    w.put_f64(p.dy);
  }

  // Rows.
  w.put_u64(d.rows.size());
  for (const Row& r : d.rows) {
    w.put_f64(r.y);
    w.put_f64(r.x_lo);
    w.put_i32(r.num_sites);
    w.put_f64(r.site_width);
    w.put_f64(r.height);
  }

  return encode_frame(kDesignFrame, w.buffer());
}

Design decode_design(const std::string& bytes) {
  // The frame trailer is verified before any count in the payload is
  // trusted.
  const std::string payload = decode_frame(bytes, kDesignFrame, "design");
  BinaryReader r(payload);

  Design d;
  d.name = r.get_string();

  d.tech.site_width = r.get_f64();
  d.tech.row_height = r.get_f64();
  d.tech.macro_blocked_layers = r.get_i32();
  const std::uint64_t nlayers = r.get_u64();
  check_count(nlayers, r.remaining(), 8 + 1 + 16, "layer");
  d.tech.layers.resize(static_cast<std::size_t>(nlayers));
  for (MetalLayer& l : d.tech.layers) {
    l.name = r.get_string();
    l.dir = r.get_u8() == 0 ? RouteDir::kHorizontal : RouteDir::kVertical;
    l.wire_width = r.get_f64();
    l.wire_spacing = r.get_f64();
  }

  d.die.xlo = r.get_f64();
  d.die.ylo = r.get_f64();
  d.die.xhi = r.get_f64();
  d.die.yhi = r.get_f64();

  const std::uint64_t ncells = r.get_u64();
  check_count(ncells, r.remaining(), 8 + 1 + 32, "cell");
  d.cells.resize(static_cast<std::size_t>(ncells));
  for (Cell& c : d.cells) {
    c.name = r.get_string();
    const std::uint8_t kind = r.get_u8();
    if (kind > static_cast<std::uint8_t>(CellKind::kTerminal)) {
      throw CheckpointError("design: invalid cell kind");
    }
    c.kind = static_cast<CellKind>(kind);
    c.width = r.get_f64();
    c.height = r.get_f64();
    c.x = r.get_f64();
    c.y = r.get_f64();
  }

  const std::uint64_t nnets = r.get_u64();
  check_count(nnets, r.remaining(), 8 + 8, "net");
  d.nets.resize(static_cast<std::size_t>(nnets));
  for (Net& n : d.nets) {
    n.name = r.get_string();
    n.weight = r.get_f64();
  }

  const std::uint64_t npins = r.get_u64();
  check_count(npins, r.remaining(), 4 + 4 + 16, "pin");
  d.pins.resize(static_cast<std::size_t>(npins));
  for (std::size_t i = 0; i < d.pins.size(); ++i) {
    Pin& p = d.pins[i];
    p.cell = r.get_i32();
    p.net = r.get_i32();
    p.dx = r.get_f64();
    p.dy = r.get_f64();
    if (p.cell < 0 || static_cast<std::uint64_t>(p.cell) >= ncells ||
        p.net < 0 || static_cast<std::uint64_t>(p.net) >= nnets) {
      throw CheckpointError("design: pin references out-of-range cell/net");
    }
    const PinId pid = static_cast<PinId>(i);
    d.cells[static_cast<std::size_t>(p.cell)].pins.push_back(pid);
    d.nets[static_cast<std::size_t>(p.net)].pins.push_back(pid);
  }

  const std::uint64_t nrows = r.get_u64();
  check_count(nrows, r.remaining(), 16 + 4 + 16, "row");
  d.rows.resize(static_cast<std::size_t>(nrows));
  for (Row& row : d.rows) {
    row.y = r.get_f64();
    row.x_lo = r.get_f64();
    row.num_sites = r.get_i32();
    row.site_width = r.get_f64();
    row.height = r.get_f64();
  }

  if (!r.at_end()) {
    throw CheckpointError("design: trailing bytes after payload");
  }
  const std::string problem = d.validate();
  if (!problem.empty()) {
    throw CheckpointError("design: decoded design is inconsistent: " +
                          problem);
  }
  return d;
}

}  // namespace puffer
