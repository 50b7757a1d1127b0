// Textual (key = value) serialization of the PUFFER strategy
// configuration, so explored strategies can be saved, diffed and fed
// back to the CLI (`puffer_place --config strategy.cfg`).
//
// Format: one `key = value` per line, `#` comments, unknown keys are an
// error (typos must not silently fall back to defaults). Keys cover the
// strategy-relevant fields of PufferConfig; everything else keeps the
// value of the `base` configuration passed to the parser.
#pragma once

#include <stdexcept>
#include <string>

#include "core/flow.h"

namespace puffer {

struct ConfigError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Serializes the strategy-relevant fields, with comments.
std::string config_to_text(const PufferConfig& config);

// Parses `text`, overriding fields of `base`. Throws ConfigError, naming
// the line, on unknown keys, malformed or non-finite values, and values
// of integer keys outside the int range.
PufferConfig config_from_text(const std::string& text,
                              const PufferConfig& base = {});

void save_config(const PufferConfig& config, const std::string& path);
PufferConfig load_config(const std::string& path,
                         const PufferConfig& base = {});

}  // namespace puffer
