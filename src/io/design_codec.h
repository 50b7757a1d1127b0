// Binary codec for a whole Design -- the wire form of a placement job.
//
// The serve daemon (src/serve/) accepts netlists only in this form:
// clients encode the Design they hold in memory (a synthetic benchmark,
// a Bookshelf design parsed locally) once and ship the blob. Same
// conventions as the checkpoint codec (io/checkpoint.h): versioned,
// little-endian, doubles as IEEE-754 bit patterns (a decode -> encode
// round trip is byte-identical), FNV-1a trailer over the payload.
// decode_design throws CheckpointError on malformed input.
#pragma once

#include <string>

#include "netlist/design.h"

namespace puffer {

std::string encode_design(const Design& design);
Design decode_design(const std::string& bytes);

}  // namespace puffer
