#include "core/config_io.h"

#include <cmath>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <sstream>

#include "common/str_util.h"

namespace puffer {
namespace {

// Value of an integer key: rounded like std::llround, and rejected with
// std::out_of_range when the result does not fit in an int.
int to_int(double v) {
  const double r = std::round(v);
  if (!(r >= std::numeric_limits<int>::min() &&
        r <= std::numeric_limits<int>::max())) {
    throw std::out_of_range("integer key out of range");
  }
  return static_cast<int>(r);
}

// One registry drives both directions: name -> {getter, setter}.
struct Field {
  std::function<double(const PufferConfig&)> get;
  std::function<void(PufferConfig&, double)> set;
  const char* comment;
};

const std::map<std::string, Field>& registry() {
  static const std::map<std::string, Field> fields = {
      // Padding formula (Eq. 14).
      {"padding.alpha_local_cg",
       {[](const PufferConfig& c) { return c.padding.alpha[0]; },
        [](PufferConfig& c, double v) { c.padding.alpha[0] = v; },
        "feature weight: local congestion"}},
      {"padding.alpha_local_pin",
       {[](const PufferConfig& c) { return c.padding.alpha[1]; },
        [](PufferConfig& c, double v) { c.padding.alpha[1] = v; },
        "feature weight: local pin density"}},
      {"padding.alpha_sur_cg",
       {[](const PufferConfig& c) { return c.padding.alpha[2]; },
        [](PufferConfig& c, double v) { c.padding.alpha[2] = v; },
        "feature weight: surrounding congestion (CNN)"}},
      {"padding.alpha_sur_pin",
       {[](const PufferConfig& c) { return c.padding.alpha[3]; },
        [](PufferConfig& c, double v) { c.padding.alpha[3] = v; },
        "feature weight: surrounding pin density (CNN)"}},
      {"padding.alpha_pin_cg",
       {[](const PufferConfig& c) { return c.padding.alpha[4]; },
        [](PufferConfig& c, double v) { c.padding.alpha[4] = v; },
        "feature weight: pin congestion (GNN)"}},
      {"padding.beta",
       {[](const PufferConfig& c) { return c.padding.beta; },
        [](PufferConfig& c, double v) { c.padding.beta = v; },
        "formula offset"}},
      {"padding.mu",
       {[](const PufferConfig& c) { return c.padding.mu; },
        [](PufferConfig& c, double v) { c.padding.mu = v; },
        "padding magnitude"}},
      {"padding.zeta",
       {[](const PufferConfig& c) { return c.padding.zeta; },
        [](PufferConfig& c, double v) { c.padding.zeta = v; },
        "recycling effort (Eq. 15)"}},
      {"padding.pu_low",
       {[](const PufferConfig& c) { return c.padding.pu_low; },
        [](PufferConfig& c, double v) { c.padding.pu_low = v; },
        "utilization ramp start (Eq. 16)"}},
      {"padding.pu_high",
       {[](const PufferConfig& c) { return c.padding.pu_high; },
        [](PufferConfig& c, double v) { c.padding.pu_high = v; },
        "utilization ramp end (Eq. 16)"}},
      {"padding.xi",
       {[](const PufferConfig& c) { return static_cast<double>(c.padding.xi); },
        [](PufferConfig& c, double v) { c.padding.xi = to_int(v); },
        "max optimization rounds"}},
      {"padding.tau",
       {[](const PufferConfig& c) { return c.padding.tau; },
        [](PufferConfig& c, double v) { c.padding.tau = v; },
        "density-overflow trigger"}},
      {"padding.eta",
       {[](const PufferConfig& c) { return c.padding.eta; },
        [](PufferConfig& c, double v) { c.padding.eta = v; },
        "utilization trigger threshold"}},
      {"padding.spacing_iters",
       {[](const PufferConfig& c) { return static_cast<double>(c.padding.spacing_iters); },
        [](PufferConfig& c, double v) { c.padding.spacing_iters = to_int(v); },
        "GP iterations between rounds"}},
      {"padding.kernel_gcells",
       {[](const PufferConfig& c) { return static_cast<double>(c.padding.feature.kernel_gcells); },
        [](PufferConfig& c, double v) { c.padding.feature.kernel_gcells = to_int(v); },
        "CNN kernel margin (Gcells)"}},
      {"padding.z_candidates",
       {[](const PufferConfig& c) { return static_cast<double>(c.padding.feature.z_candidates); },
        [](PufferConfig& c, double v) { c.padding.feature.z_candidates = to_int(v); },
        "Z-path samples for pin congestion"}},
      {"padding.use_legacy_extractor",
       {[](const PufferConfig& c) { return c.padding.feature.use_legacy_extractor ? 1.0 : 0.0; },
        [](PufferConfig& c, double v) { c.padding.feature.use_legacy_extractor = v >= 0.5; },
        "0/1: serial oracle feature path"}},
      // Congestion estimation.
      {"congestion.pin_penalty",
       {[](const PufferConfig& c) { return c.congestion.pin_penalty; },
        [](PufferConfig& c, double v) { c.congestion.pin_penalty = v; },
        "local-net demand per pin"}},
      {"congestion.expand_radius",
       {[](const PufferConfig& c) { return static_cast<double>(c.congestion.expand_radius); },
        [](PufferConfig& c, double v) { c.congestion.expand_radius = to_int(v); },
        "detour expansion radius (Gcells)"}},
      {"congestion.detour_expansion",
       {[](const PufferConfig& c) { return c.congestion.enable_detour_expansion ? 1.0 : 0.0; },
        [](PufferConfig& c, double v) { c.congestion.enable_detour_expansion = v >= 0.5; },
        "0/1: detour-imitating expansion"}},
      {"congestion.rows_per_gcell",
       {[](const PufferConfig& c) { return c.congestion.rows_per_gcell; },
        [](PufferConfig& c, double v) { c.congestion.rows_per_gcell = v; },
        "Gcell height in rows"}},
      {"congestion.congested_ratio",
       {[](const PufferConfig& c) { return c.congestion.congested_ratio; },
        [](PufferConfig& c, double v) { c.congestion.congested_ratio = v; },
        "expansion trigger demand/capacity"}},
      // Global placement.
      {"gp.target_density",
       {[](const PufferConfig& c) { return c.gp.target_density; },
        [](PufferConfig& c, double v) { c.gp.target_density = v; },
        "equilibrium density"}},
      {"gp.max_iters",
       {[](const PufferConfig& c) { return static_cast<double>(c.gp.max_iters); },
        [](PufferConfig& c, double v) { c.gp.max_iters = to_int(v); },
        "Nesterov iteration cap"}},
      {"gp.bin_dim",
       {[](const PufferConfig& c) { return static_cast<double>(c.gp.bin_dim); },
        [](PufferConfig& c, double v) { c.gp.bin_dim = to_int(v); },
        "density bins per axis (0 = auto)"}},
      {"gp.lambda_freeze_overflow",
       {[](const PufferConfig& c) { return c.gp.lambda_freeze_overflow; },
        [](PufferConfig& c, double v) { c.gp.lambda_freeze_overflow = v; },
        "lambda latch threshold"}},
      // Legalization.
      {"discrete.theta",
       {[](const PufferConfig& c) { return c.discrete.theta; },
        [](PufferConfig& c, double v) { c.discrete.theta = v; },
        "discrete padding levels (Eq. 17)"}},
      {"discrete.max_pad_area_frac",
       {[](const PufferConfig& c) { return c.discrete.max_pad_area_frac; },
        [](PufferConfig& c, double v) { c.discrete.max_pad_area_frac = v; },
        "legalization padding cap"}},
      {"legal.max_row_search",
       {[](const PufferConfig& c) { return static_cast<double>(c.legal.max_row_search); },
        [](PufferConfig& c, double v) { c.legal.max_row_search = to_int(v); },
        "Abacus row search width"}},
      // Flow.
      {"flow.final_overflow",
       {[](const PufferConfig& c) { return c.final_overflow; },
        [](PufferConfig& c, double v) { c.final_overflow = v; },
        "post-padding convergence target"}},
  };
  return fields;
}

}  // namespace

std::string config_to_text(const PufferConfig& config) {
  std::ostringstream os;
  os << "# PUFFER strategy configuration\n";
  for (const auto& [key, field] : registry()) {
    os << key << " = " << field.get(config) << "  # " << field.comment << '\n';
  }
  return os.str();
}

PufferConfig config_from_text(const std::string& text,
                              const PufferConfig& base) {
  PufferConfig config = base;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::string_view t = trim(line);
    if (t.empty()) continue;
    const auto eq = t.find('=');
    if (eq == std::string_view::npos) {
      throw ConfigError("line " + std::to_string(line_no) + ": expected key = value");
    }
    const std::string key{trim(t.substr(0, eq))};
    const std::string value{trim(t.substr(eq + 1))};
    const auto it = registry().find(key);
    if (it == registry().end()) {
      throw ConfigError("line " + std::to_string(line_no) + ": unknown key '" + key + "'");
    }
    const std::string where = "line " + std::to_string(line_no) + ": ";
    double v = 0.0;
    try {
      std::size_t used = 0;
      v = std::stod(value, &used);
      if (used != value.size()) throw std::invalid_argument(value);
    } catch (const std::exception&) {
      throw ConfigError(where + "bad value '" + value + "' for " + key);
    }
    // std::stod accepts "nan" and "inf"; no key has a use for them.
    if (!std::isfinite(v)) {
      throw ConfigError(where + "value '" + value + "' for " + key +
                        " is not finite");
    }
    try {
      it->second.set(config, v);
    } catch (const std::out_of_range&) {
      throw ConfigError(where + "value '" + value + "' for " + key +
                        " is outside the int range");
    }
  }
  return config;
}

void save_config(const PufferConfig& config, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw ConfigError("cannot write " + path);
  out << config_to_text(config);
}

PufferConfig load_config(const std::string& path, const PufferConfig& base) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return config_from_text(ss.str(), base);
}

}  // namespace puffer
