// Evaluation global router (substitute for the commercial global router
// the paper uses as its evaluator).
//
// A negotiation-based 2D global router over the Gcell grid:
//
//   1. nets are decomposed into two-point segments with the RSMT builder;
//   2. every segment gets an initial route along the cheaper of its two
//      L-shapes (candidates are priced concurrently against the frozen
//      pin-demand field, then committed in segment order);
//   3. batched rip-up-and-reroute rounds. Each round starts with two
//      passes over the current state: one over the maps grows the
//      history cost of every overflowed resource (Gcell, direction) --
//      so persistent overflow is negotiated away, PathFinder-style --
//      and ends the rounds when none overflows; one over the segments
//      whose backoff has elapsed selects those whose path uses an
//      overflowed resource in a direction it uses. The demand + history
//      field is then frozen, the selected segments are maze-routed
//      concurrently with the integer bucket-queue kernel (router/maze.h)
//      inside an expanded bounding box, and the candidate paths are
//      committed serially in segment order: each segment rips its old
//      path and adopts the candidate only if it is cheaper under the
//      *live* demand at commit time, which damps the herding
//      oscillation batched negotiation is otherwise prone to.
//
// Two scheduling policies keep the rounds from grinding on proven-
// useless work (the dominant cost of naive negotiation, where ~95% of
// searches find no admissible improvement):
//
//   - failure backoff: a segment whose search found no improvement sits
//     out exponentially more rounds (1, 2, 4, capped at 8) before it is
//     selected again; history keeps growing on its overflowed cells in
//     the meantime, so the retry faces a genuinely changed price.
//     Adoption resets the backoff.
//   - convergence exit: when fewer than 1/64 of a round's searches
//     improve anything, the remaining rounds are skipped.
//
// Each maze search is additionally bounded by its segment's old-path
// cost on the frozen field (see maze.h): a search aborts the moment its
// monotone front proves no admissible candidate exists.
//
// Determinism contract (shared with the congestion estimator): the maze
// phase reads only the frozen round-start field plus the segment's own
// path, per-thread arenas hold all scratch, and every demand mutation
// happens on the serial commit path in segment order -- so RouteResult
// (demand maps, HOF/VOF, wirelength, reroute counts) is bit-identical
// for any PUFFER_THREADS value.
//
// Demand accounting matches the Gcell-based resource model used by the
// congestion estimator: every Gcell a path crosses in a direction
// consumes one track-equivalent of that direction's capacity, and a
// turning Gcell consumes both. The static pin layer is the estimator's
// (add_pin_demand in grid/routing_maps.h) with pin crowding on. The
// negotiation costs (overflow slope, history step, turn cost) are fixed
// constants of global_router.cpp.
//
// The router reports the Table II metrics: HOF/VOF (total overflow over
// total capacity, per direction, in %) and the routed wirelength.
#pragma once

#include <cstdint>

#include "grid/routing_maps.h"
#include "netlist/design.h"

namespace puffer {

// The Gcell grid is fixed at three standard-cell rows per Gcell, the
// congestion estimator's default.
struct RouterConfig {
  double pin_penalty = 0.04;  // local-net demand per pin (both dirs)
  int rr_rounds = 5;          // rip-up-and-reroute rounds (>= 0)
  int bbox_margin = 8;        // maze search window margin, in Gcells (>= 0)
};

// Returns `config` with out-of-range knobs clamped to sane values
// (negative rr_rounds / bbox_margin -> 0). GlobalRouter validates on
// construction.
RouterConfig validate_router_config(RouterConfig config);

struct RouteResult {
  RoutingMaps maps;        // final capacity + routed demand
  OverflowStats overflow;  // HOF / VOF
  double wirelength = 0.0; // total routed length (DBU)
  int segments = 0;
  int rerouted = 0;        // adopted reroutes across all rounds
  int reroute_attempts = 0;  // maze searches across all rounds
  int rounds_used = 0;     // rip-up-and-reroute rounds actually run
  double route_time_s = 0.0;  // total route() wall time
  double rrr_time_s = 0.0;    // rip-up-and-reroute phase wall time
};

class GlobalRouter {
 public:
  // `config` is validated with validate_router_config.
  GlobalRouter(const Design& design, RouterConfig config = {});

  // Routes all nets from the design's current cell positions.
  RouteResult route() const;

  const GcellGrid& grid() const { return grid_; }

 private:
  const Design& design_;
  RouterConfig config_;
  GcellGrid grid_;
  CapacityMaps capacity_;
};

}  // namespace puffer
