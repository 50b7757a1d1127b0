// Bookshelf-format reader and writer.
//
// Supports the classic academic placement exchange format used by the
// ISPD contests: .aux (file list), .nodes (cell sizes), .nets
// (connectivity with pin offsets), .pl (locations), .scl (rows) and the
// ISPD-2011 .route extension (routing grid, per-direction capacities and
// wire width/spacing, which we map onto our Technology layer stack).
//
// Pin offsets in Bookshelf are measured from the cell *center*; the design
// database stores offsets from the lower-left corner, and the converter
// translates between the two.
#pragma once

#include <stdexcept>
#include <string>

#include "netlist/design.h"

namespace puffer {

struct BookshelfError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Reads a design given the .aux file path. Throws BookshelfError on
// malformed input, missing files, or a design Design::validate() refuses
// (the message names the .aux file).
Design read_bookshelf(const std::string& aux_path);

// Writes the design as <prefix>.aux/.nodes/.nets/.pl/.scl (and .route with
// the technology routing information). `prefix` includes the directory.
void write_bookshelf(const Design& design, const std::string& prefix);

// Writes only the .pl file (placement snapshot), the common way to save
// intermediate placements.
void write_pl(const Design& design, const std::string& path);

// Loads cell positions from a .pl into an existing design (matched by
// cell name). Throws if a name is unknown.
void read_pl_into(Design& design, const std::string& path);

}  // namespace puffer
