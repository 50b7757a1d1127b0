// Integer-cost maze kernel for the rip-up-and-reroute rounds.
//
// Directional entry costs are quantized to an integer grid (kQCostScale
// units per track-equivalent, clamped to kQCostMax) so the open list can
// be a monotone bucket (Dial) queue instead of a binary heap: with a
// consistent integer heuristic the popped f-values never decrease and
// every queued entry lies within one maximum edge weight of the current
// front, so a fixed-size circular bucket ring replaces O(log n) heap
// operations with O(1) pushes.
//
// The search state is direction-aware (two states per Gcell: arrived
// horizontally / vertically) so horizontal and vertical resources are
// priced separately; a direction change charges the turn cell's
// perpendicular entry cost (a turning cell consumes both directions'
// tracks in the demand model) plus the via-ish qturn penalty, so the
// accumulated g equals the commit comparator's path cost exactly.
// Costs are memoized per window cell on first touch
// (epoch-stamped), so cost_h/cost_v are evaluated once per touched cell
// instead of once per push.
//
// All scratch lives in a MazeArena owned by the calling thread; the
// kernel reads only the arena and its arguments, so concurrent searches
// with per-thread arenas are race-free and the result depends only on
// the inputs -- the thread-count-determinism contract of the batched
// router rests on that.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "grid/gcell.h"

namespace puffer {

// Cost quantization: 1.0 (the base cost of entering a free Gcell) maps
// to kQCostScale units; per-entry costs clamp to kQCostMax. The
// Manhattan heuristic uses kQCostScale per step, so it stays admissible
// as long as every entry cost is >= kQCostScale (quantize_cost enforces
// the lower bound).
//
// The scale is deliberately coarse: the monotone front advances one
// bucket at a time, so a congested search walks
// kQCostScale * (path cost - Manhattan distance) empty buckets -- the
// queue's only non-O(1) cost -- and halving the scale halves that walk.
// 1/8 track-equivalent resolution is far finer than the negotiation
// signal (the router's history grows in steps of 2.0).
constexpr std::int32_t kQCostScale = 8;
constexpr std::int32_t kQCostMax = 1 << 11;

std::int32_t quantize_cost(double cost);

// Inclusive search window [x0, x0+ww) x [y0, y0+wh) in grid coordinates.
struct MazeWindow {
  int x0 = 0, y0 = 0;
  int ww = 0, wh = 0;
  bool contains(int gx, int gy) const {
    return gx >= x0 && gx < x0 + ww && gy >= y0 && gy < y0 + wh;
  }
};

// Fills the quantized horizontal/vertical entry costs of one Gcell.
using CellCostFn = std::function<void(int gx, int gy, std::int32_t& qch,
                                      std::int32_t& qcv)>;

// Per-thread scratch for maze_route: search state, the bucket ring and
// the memoized window cost fields. Reused across calls; sized lazily.
// Plain aggregate -- maze_route owns the invariants.
struct MazeArena {
  std::vector<std::int64_t> gscore;
  std::vector<std::int32_t> parent;
  std::vector<std::uint32_t> visit;       // epoch stamp per state
  std::vector<std::uint32_t> closed;      // epoch stamp per state
  std::vector<std::int32_t> qcost_h, qcost_v;  // memoized window costs
  std::vector<std::uint32_t> cost_epoch;  // stamp per window cell
  std::vector<std::vector<std::uint32_t>> buckets;  // circular f-ring
  std::vector<std::uint64_t> occupied;  // one bit per ring slot
  std::vector<std::int32_t> touched;  // ring slots dirtied this search
  std::uint32_t epoch = 0;
};

// Routes a..b inside `w` (both must be inside). `cell_cost` is called at
// most once per touched cell per search. `qturn` is the quantized
// direction-change penalty (clamped internally to the bucket-ring
// bound). Returns the inclusive, deduplicated, 4-connected cell sequence
// from a to b, or an empty vector when b is unreachable.
//
// `qbound` (> 0) aborts the search -- returning empty -- as soon as the
// monotone front reaches it: with a consistent heuristic the front is a
// lower bound on every remaining completion, so no path cheaper than
// qbound exists past that point. The batched router passes the old
// path's frozen-field cost, which turns the searches whose candidate
// could never be admitted (the vast majority in a congested design) into
// early exits. 0 disables the bound.
std::vector<GcellIndex> maze_route(const MazeWindow& w, GcellIndex a,
                                   GcellIndex b, std::int32_t qturn,
                                   MazeArena& arena,
                                   const CellCostFn& cell_cost,
                                   std::int64_t qbound = 0);

}  // namespace puffer
