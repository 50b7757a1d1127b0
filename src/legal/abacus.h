// Abacus legalization (Spindler et al. [20]) over macro-aware row
// segments, extended with white-space-assisted padding (paper §III-D):
// each cell's effective width during legalization is its physical width
// plus its discrete padding, so congested-region cells keep the
// surrounding white space they earned during global placement.
//
// The implementation follows a deterministic snapshot/commit pattern:
//
//  * All segment arithmetic (widths, segment bounds, cluster positions,
//    occupancy) is carried in integer *site units* relative to each
//    row's origin, so capacity and overlap guards are exact comparisons
//    instead of the absolute 1e-9/1e-12 epsilons of the original code
//    (which fall below double ULP once the core sits at a 1e7-DBU
//    offset). Doubles appear only at the world<->site conversion
//    boundary and in the cluster weight recurrence.
//  * A serial, deterministic *assignment* pass fixes each cell's
//    (row, segment) and its padded slot, processing cells in (x, id)
//    order with a displacement-bounded candidate-row window; then all
//    rows *finalize concurrently* (cluster snapping + position
//    write-back) — row contents are independent once assignment is
//    frozen, so the result is bit-identical for any PUFFER_THREADS.
//
// Every call legalizes from scratch: the flow legalizes once per run,
// after global placement has moved every cell.
#pragma once

#include <vector>

#include "netlist/design.h"

namespace puffer {

struct LegalizeConfig {
  // Rows examined per cell, around the cell's global-placement row; the
  // search stops early once the row's y-displacement alone exceeds the
  // best complete cost.
  int max_row_search = 64;
};

// Returns `config` unchanged when it is usable; throws
// std::invalid_argument for a non-positive max_row_search. legalize()
// validates per call, PufferFlow at construction.
LegalizeConfig validate_legalize_config(LegalizeConfig config);

struct LegalizeResult {
  bool success = true;
  int failed_cells = 0;       // cells that fit in no segment (left unmoved)
  double total_displacement = 0.0;
  double max_displacement = 0.0;
  int placed = 0;
  // Stage observability (wired into FlowMetrics / the experiment log).
  double time_s = 0.0;

  double avg_displacement() const {
    return placed > 0 ? total_displacement / placed : 0.0;
  }
};

// Legalizes all movable cells in place. `pad_sites` is the per-CellId
// discrete padding in sites (empty = no padding). Cell positions are
// updated to legal, non-overlapping, row/site-aligned locations centered
// inside their padded slots.
LegalizeResult legalize(Design& design, const std::vector<int>& pad_sites = {},
                        const LegalizeConfig& config = {});

}  // namespace puffer
