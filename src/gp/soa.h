// Structure-of-arrays mirror of the global-placement hot state.
//
// The Nesterov loop touches the netlist tens of thousands of times per
// flow; walking Design's pointer-rich Cell/Net/Pin objects there costs a
// cache miss per hop. GpSoA flattens exactly the state the GP kernels
// read into contiguous arrays, built once per flow:
//
//   * movable cells in ordinal order: center x/y, width/height, pin count;
//   * nets of degree >= 2 as a CSR over "pin slots" (net_start / per-slot
//     ordinal + offset), net-major so ascending slot order equals the
//     serial net walk order of the scalar kernels;
//   * the transposed cell -> pin-slot CSR (cell_start / cell_slots, slots
//     ascending) that lets the gradient scatter run as a per-cell gather
//     with no write conflicts and no per-chunk gradient buffers;
//   * beside each cell_slots entry, the owning net's chunk id in the
//     fixed kNetGrain/kMaxNetChunks decomposition, so the per-cell gather
//     can replicate the scalar path's chunk-grouped summation association
//     bit-for-bit while streaming both arrays in order.
//
// Sync contract (see docs/architecture.md): the mirror's positions are
// valid only at commit points. pull_positions() re-syncs from Design
// after an external stage (legalization, detailed placement, a snapshot
// restore) has moved cells; push_positions() is the engine's commit of
// GP results back into Design. matches() is the test/debug probe for
// "mirror and Design agree bitwise right now".
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/design.h"

namespace puffer {

// Net chunking constants for the WA wirelength fan-out. The chunk
// decomposition (not the worker count) fixes the floating-point fold
// order, so these are part of the numeric contract and shared between
// the scalar and SoA paths.
inline constexpr std::int64_t kNetGrain = 128;
inline constexpr int kMaxNetChunks = 16;

struct GpSoA {
  // --- movable cells, ordinal order ---------------------------------
  std::vector<CellId> cell_ids;           // ordinal -> design cell id
  std::vector<std::int32_t> ordinal_of_cell;  // design cell id -> ordinal / -1
  std::vector<double> cx, cy;             // committed centers (mirror)
  std::vector<double> cw, chh;            // width / height
  std::vector<double> pin_count;          // pins on nets of degree >= 2

  // --- nets (degree >= 2), net-major pin-slot CSR --------------------
  std::vector<std::int64_t> net_start;    // size num_nets()+1
  std::vector<double> net_weight;
  std::vector<std::int32_t> pin_ord;      // slot -> movable ordinal or -1
  // Movable slots: offset from the cell center. Fixed slots: absolute
  // pin position (so coord = (ord >= 0 ? pos[ord] : 0) + offset never
  // needs a second array).
  std::vector<double> pin_ox, pin_oy;
  std::vector<std::int32_t> slot_net;     // slot -> net index

  // --- transposed CSR: movable cell -> its slots, ascending ----------
  std::vector<std::int64_t> cell_start;   // size num_movable()+1
  std::vector<std::int64_t> cell_slots;
  // Aligned with cell_slots: the owning net's fixed-decomposition chunk.
  std::vector<std::int32_t> cell_slot_chunk;

  std::size_t num_movable() const { return cell_ids.size(); }
  std::size_t num_nets() const { return net_weight.size(); }
  std::size_t num_slots() const { return pin_ord.size(); }
  int num_net_chunks() const { return net_chunks_; }
  std::int64_t max_net_degree() const { return max_degree_; }

  // Builds topology and pulls positions. Invalidated by netlist
  // structure changes (never during a flow).
  void build(const Design& design);

  // Design -> mirror: re-sync centers after an external commit.
  void pull_positions(const Design& design);
  // Mirror -> Design: write centers back as lower-left corners.
  void push_positions(Design& design) const;
  // True iff every movable's mirrored center equals the Design position
  // bitwise (center = x + width*0.5, the same expression pull uses).
  bool matches(const Design& design) const;

  // FNV-1a over the raw bits of (cx, cy), for bench/CI checksums.
  std::uint64_t position_checksum() const;

 private:
  int net_chunks_ = 1;
  std::int64_t max_degree_ = 0;
};

}  // namespace puffer
