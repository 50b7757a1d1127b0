// Initial placement for the analytic engine.
//
// Strategy: start all movable cells at the die center (with a small
// deterministic jitter to break symmetry), then run a few Gauss-Seidel
// sweeps of the quadratic star model -- each cell moves to the average
// position of the pins it connects to -- which pulls cells toward their
// fixed anchors (terminals, macro pins) and gives the Nesterov engine a
// well-conditioned start. The sweep count, jitter and seed are fixed
// constants of initial_place.cpp.
#pragma once

#include "netlist/design.h"

namespace puffer {

void initial_place(Design& design);

}  // namespace puffer
