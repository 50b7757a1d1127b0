#include "io/design_codec.h"

#include "io/checkpoint.h"

namespace puffer {

// --- field walks: the one layout of the blob payload ------------------------

template <class IO, FieldsOf<MetalLayer> M>
void fields(IO& io, M& l) {
  io.str(l.name);
  io.byte(l.dir, RouteDir::kVertical);
  io.f64(l.wire_width);
  io.f64(l.wire_spacing);
}

// Cell and net pin lists are not stored: decode_design rebuilds them
// from the pin table.
template <class IO, FieldsOf<Cell> M>
void fields(IO& io, M& c) {
  io.str(c.name);
  io.byte(c.kind, CellKind::kTerminal);
  io.f64(c.width);
  io.f64(c.height);
  io.f64(c.x);
  io.f64(c.y);
}

template <class IO, FieldsOf<Net> M>
void fields(IO& io, M& n) {
  io.str(n.name);
  io.f64(n.weight);
}

template <class IO, FieldsOf<Pin> M>
void fields(IO& io, M& p) {
  io.i32(p.cell);
  io.i32(p.net);
  io.f64(p.dx);
  io.f64(p.dy);
}

template <class IO, FieldsOf<Row> M>
void fields(IO& io, M& r) {
  io.f64(r.y);
  io.f64(r.x_lo);
  io.i32(r.num_sites);
  io.f64(r.site_width);
  io.f64(r.height);
}

// Pins come in table order, so the rebuilt cell/net pin lists keep the
// original ordinal order (the SoA mirror and structure key depend on it).
template <class IO, FieldsOf<Design> M>
void fields(IO& io, M& d) {
  io.str(d.name);
  io.f64(d.tech.site_width);
  io.f64(d.tech.row_height);
  io.i32(d.tech.macro_blocked_layers);
  io.list(d.tech.layers);
  io.f64(d.die.xlo);
  io.f64(d.die.ylo);
  io.f64(d.die.xhi);
  io.f64(d.die.yhi);
  io.list(d.cells);
  io.list(d.nets);
  io.list(d.pins);
  io.list(d.rows);
}

namespace {

// Frame type of a design blob: "PD", layout 2. A new layout takes a new
// type, so a reader never misreads an older one.
constexpr std::uint32_t kDesignFrame = 0x50440002;

}  // namespace

std::string encode_design(const Design& d) {
  return encode_frame(kDesignFrame, encode_fields(d));
}

Design decode_design(const std::string& bytes) {
  // The frame trailer is verified before any count in the payload is
  // trusted.
  Design d = decode_fields<Design>(
      decode_frame(bytes, kDesignFrame, "design"), "design");
  for (std::size_t i = 0; i < d.pins.size(); ++i) {
    const Pin& p = d.pins[i];
    if (p.cell < 0 || static_cast<std::size_t>(p.cell) >= d.cells.size() ||
        p.net < 0 || static_cast<std::size_t>(p.net) >= d.nets.size()) {
      throw CheckpointError("design: pin references out-of-range cell/net");
    }
    const PinId pid = static_cast<PinId>(i);
    d.cells[static_cast<std::size_t>(p.cell)].pins.push_back(pid);
    d.nets[static_cast<std::size_t>(p.net)].pins.push_back(pid);
  }
  const std::string problem = d.validate();
  if (!problem.empty()) {
    throw CheckpointError("design: decoded design is inconsistent: " +
                          problem);
  }
  return d;
}

}  // namespace puffer
