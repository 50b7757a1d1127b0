// Detailed placement: legality-preserving wirelength refinement after
// legalization (an extension beyond the paper's flow, which evaluates
// directly after legalization; kept off by default in the Table II
// reproduction and exercised by tests/examples).
//
// Two move classes, both exactly legality-preserving:
//   * adjacent-pair reordering within a row: two neighbouring cells swap
//     order inside their combined span (white space between them is
//     preserved in total, so inherited padding gaps survive);
//   * cross-row swaps of identically-sized cells: positions are exchanged
//     verbatim.
//
// Each pass is batched in the router's snapshot/commit shape: candidate
// moves are generated and scored concurrently against the frozen
// pass-start state, then committed serially in candidate order with
// strictly-improving admission re-checked against the live state (a move
// is skipped when either of its cells was already touched this phase).
// The result is bit-identical for any PUFFER_THREADS value.
#pragma once

#include "netlist/design.h"

namespace puffer {

// The move classes and the swap window; every call runs at most four
// passes.
struct DetailedPlaceConfig {
  bool adjacent_reorder = true;
  bool cross_row_swaps = true;
  // Cross-row candidate search window around a cell's optimal position,
  // in row heights / site widths.
  double swap_window_rows = 6.0;
};

struct DetailedPlaceResult {
  int accepted_moves = 0;
  int passes = 0;
  double hpwl_before = 0.0;
  double hpwl_after = 0.0;
  // Stage observability (wired into FlowMetrics / the experiment log).
  int evaluated_moves = 0;  // frozen-viable candidates reaching the commit loop
  double time_s = 0.0;
  double improvement_pct() const {
    return hpwl_before > 0.0
               ? 100.0 * (hpwl_before - hpwl_after) / hpwl_before
               : 0.0;
  }
};

// Refines the (legal) placement in place. Fixed cells never move.
DetailedPlaceResult detailed_place(Design& design,
                                   const DetailedPlaceConfig& config = {});

}  // namespace puffer
