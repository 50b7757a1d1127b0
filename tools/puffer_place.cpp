// puffer_place: command-line routability-driven placer.
//
// Usage:
//   puffer_place --aux design.aux [options]            # Bookshelf input
//   puffer_place --bench MEDIA_SUBSYS [--scale 64]     # synthetic suite
//
// Options:
//   --placer puffer|replace|commercial   placement flow (default puffer)
//   --config FILE        load strategy parameters (see config_io.h)
//   --save-config FILE   write the effective strategy parameters
//   --out PREFIX         write PREFIX.pl (and PREFIX.svg with --svg)
//   --svg                also render the placement + congestion overlay
//   --dp                 run detailed placement after legalization, before
//                        the evaluation (PUFFER flow only)
//   --seed N             synthetic generator seed override
//   --report             print the routed HOF/VOF/WL report
//   --quality            print the placement quality analysis
//   --quiet              warnings and errors only
#include <cstdio>
#include <cstring>
#include <string>

#include "analysis/quality.h"
#include "common/cli.h"
#include "common/logger.h"
#include "core/config_io.h"
#include "core/experiment.h"
#include "io/bookshelf.h"
#include "viz/svg.h"

namespace {

const std::string kUsage =
    "usage: puffer_place (--aux design.aux | --bench NAME [--scale N])\n"
    "       [--placer puffer|replace|commercial] [--out PREFIX]\n"
    "       [--config FILE] [--save-config FILE] [--svg] [--dp]\n"
    "       [--seed N] [--report] [--quality] [--quiet]\n"
    "       [--help] [--version]\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace puffer;
  handle_help_version(argc, argv, "puffer_place", kUsage);

  std::string aux, bench, out, placer = "puffer";
  std::string config_path, save_config_path;
  int scale = 64;
  bool svg = false, dp = false, report = false, quality = false;
  std::uint64_t seed = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage_error(kUsage, arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--aux") aux = next();
    else if (arg == "--bench") bench = next();
    else if (arg == "--scale") scale = std::atoi(next());
    else if (arg == "--placer") placer = next();
    else if (arg == "--out") out = next();
    else if (arg == "--config") config_path = next();
    else if (arg == "--save-config") save_config_path = next();
    else if (arg == "--quality") quality = true;
    else if (arg == "--seed") seed = std::strtoull(next(), nullptr, 10);
    else if (arg == "--svg") svg = true;
    else if (arg == "--dp") dp = true;
    else if (arg == "--report") report = true;
    else if (arg == "--quiet") Logger::instance().set_level(LogLevel::kWarn);
    else {
      usage_error(kUsage, "unknown option " + arg);
    }
  }
  if (aux.empty() == bench.empty()) {  // exactly one input source
    usage_error(kUsage, "need exactly one of --aux / --bench");
  }

  PlacerKind kind;
  if (placer == "puffer") kind = PlacerKind::kPuffer;
  else if (placer == "replace") kind = PlacerKind::kReplaceRc;
  else if (placer == "commercial") kind = PlacerKind::kCommercialProxy;
  else {
    usage_error(kUsage, "unknown placer '" + placer + "'");
  }
  if (dp && kind != PlacerKind::kPuffer) {
    usage_error(kUsage,
                "--dp is a PUFFER flow setting; it needs --placer puffer");
  }

  Design design;
  try {
    if (!aux.empty()) {
      design = read_bookshelf(aux);
    } else {
      SyntheticSpec spec = table1_spec(bench, scale);
      if (seed != 0) spec.seed = seed;
      design = generate_synthetic(spec);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "failed to load design: %s\n", e.what());
    return 1;
  }
  std::printf("design %s: %zu cells, %zu nets, %zu macros\n",
              design.name.c_str(), design.num_movable(), design.nets.size(),
              design.num_macros());

  ExperimentConfig config;
  try {
    if (!config_path.empty()) {
      config.puffer = load_config(config_path, config.puffer);
      std::printf("loaded strategy from %s\n", config_path.c_str());
    }
    if (!save_config_path.empty()) {
      save_config(config.puffer, save_config_path);
      std::printf("wrote strategy to %s\n", save_config_path.c_str());
    }
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "config error: %s\n", e.what());
    return 1;
  }
  config.puffer.run_dp = dp;
  const ExperimentResult result = run_experiment(design, kind, config);
  if (dp) {
    const DetailedPlaceResult& dpr = result.flow.dp;
    std::printf("detailed placement: %d moves, HPWL %.4g -> %.4g (%.2f%%)\n",
                dpr.accepted_moves, dpr.hpwl_before, dpr.hpwl_after,
                dpr.improvement_pct());
  }

  std::printf("placer        : %s\n", placer_name(kind));
  std::printf("HPWL (legal)  : %.6g\n", design.total_hpwl());
  std::printf("legality      : %s\n", result.flow.legality.summary().c_str());
  std::printf("runtime       : %.1f s\n", result.runtime_s());
  if (report) {
    std::printf("HOF / VOF     : %.2f %% / %.2f %%  (pass: %s/%s)\n",
                result.hof_pct(), result.vof_pct(),
                result.pass_h() ? "yes" : "no", result.pass_v() ? "yes" : "no");
    std::printf("routed WL     : %.6g\n", result.routed_wl());
  }

  if (quality) {
    const QualityReport q = analyze_quality(design, &result.route.maps);
    std::printf("%s", q.to_string().c_str());
  }

  if (!out.empty()) {
    write_pl(design, out + ".pl");
    std::printf("wrote %s.pl\n", out.c_str());
    if (svg) {
      write_placement_svg(design, result.route.maps.grid,
                          result.route.maps.cg_map(), out + ".svg");
      std::printf("wrote %s.svg\n", out.c_str());
    }
  }
  return 0;
}
