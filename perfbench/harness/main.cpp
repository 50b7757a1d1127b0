// perfbench: the end-to-end benchmark harness (driven by run.py).
//
//   perfbench gen --workload W --seed N --out DIR
//       writes the workload's seeded inputs into DIR
//   perfbench run --workload W --inputs DIR --work DIR --out FILE
//                 [--seconds S] [--trace-out FILE] [--pufferd PATH]
//                 [--inject-fault]
//       runs the workload for about S seconds, checks every output and
//       writes raw samples to FILE (and spans to the trace file)
//
// Exit status: 0 when every output checked out, 1 when one failed,
// 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.h"
#include "common/logger.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "io/net.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench gen --workload W --seed N --out DIR\n"
               "       perfbench run --workload W --inputs DIR --work DIR "
               "--out FILE\n"
               "                     [--seconds S] [--trace-out FILE] "
               "[--pufferd PATH] [--inject-fault]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return usage("missing command");
  const std::string command = argv[1];
  RunOptions opt;
  std::uint64_t seed = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--inject-fault") {
      opt.inject_fault = true;
      continue;
    }
    if (i + 1 >= argc) return usage((arg + " needs a value").c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") opt.workload = value;
    else if (arg == "--seed") seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (arg == "--inputs") opt.inputs = value;
    else if (arg == "--work") opt.work = value;
    else if (arg == "--out") opt.out = value;
    else if (arg == "--trace-out") opt.trace_out = value;
    else if (arg == "--pufferd") opt.pufferd = value;
    else if (arg == "--seconds") opt.seconds = std::atof(value.c_str());
    else return usage(("unknown option " + arg).c_str());
  }
  puffer::Logger::instance().set_level(puffer::LogLevel::kWarn);
  puffer::ignore_sigpipe();

  try {
    if (command == "gen") {
      if (opt.workload.empty() || opt.out.empty()) {
        return usage("gen needs --workload and --out");
      }
      std::filesystem::create_directories(opt.out);
      generate_inputs(opt.workload, seed, opt.out);
      return 0;
    }
    if (command != "run") return usage("unknown command");
    if (opt.workload.empty() || opt.inputs.empty() || opt.work.empty() ||
        opt.out.empty()) {
      return usage("run needs --workload, --inputs, --work and --out");
    }
    std::filesystem::create_directories(opt.work);
    Tracer tracer(!opt.trace_out.empty());
    RawResult raw;
    raw.workload = opt.workload;
    raw.info["puffer_threads"] = std::to_string(puffer::par::num_threads());
    raw.info["simd_isa"] = puffer::simd::active_isa();
    raw.info["build_type"] = PERFBENCH_BUILD_TYPE;
    if (opt.workload == "place_congested") {
      run_place(opt, tracer, raw);
    } else if (opt.workload == "serve_small_jobs") {
      if (opt.pufferd.empty()) return usage("serve_small_jobs needs --pufferd");
      run_serve(opt, tracer, raw);
    } else if (opt.workload == "explore_trials") {
      run_explore(opt, tracer, raw);
    } else {
      return usage(("unknown workload " + opt.workload).c_str());
    }
    raw.write_json(opt.out);
    if (tracer.enabled()) tracer.write_chrome_json(opt.trace_out);
    for (const std::string& f : raw.failures) {
      std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
    }
    return raw.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
