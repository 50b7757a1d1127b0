// Seeded input generation. Everything a run reads is written here,
// before any timing: the same seed gives byte-identical files, a
// different seed a different design of the same Table I class.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "io/bookshelf.h"
#include "io/design_codec.h"
#include "io/synthetic.h"

namespace perfbench {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Uniform integer in [lo, hi].
int uniform(std::uint64_t& state, int lo, int hi) {
  return lo + static_cast<int>(splitmix64(state) %
                               static_cast<std::uint64_t>(hi - lo + 1));
}

std::string design_entry(const puffer::Design& d) {
  return "{\"name\":\"" + d.name +
         "\",\"cells\":" + std::to_string(d.num_movable()) +
         ",\"nets\":" + std::to_string(d.nets.size()) +
         ",\"pins\":" + std::to_string(d.num_movable_pins()) + "}";
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text;
  if (!f.flush()) throw std::runtime_error("cannot write " + path);
}

// `count` distinct designs of one Table I class at the given scale,
// written as Bookshelf files named by design_base().
void write_table1_designs(const std::string& name, int scale, int count,
                          std::uint64_t seed, const std::string& out_dir,
                          std::string* manifest) {
  std::uint64_t state = seed;
  for (int i = 0; i < count; ++i) {
    puffer::SyntheticSpec spec = puffer::table1_spec(name, scale);
    spec.seed = splitmix64(state);
    const puffer::Design design = puffer::generate_synthetic(spec);
    puffer::write_bookshelf(design, out_dir + "/" + design_base(i));
    if (i) *manifest += ",\n";
    *manifest += design_entry(design);
  }
}

// Classes the serve jobs are drawn from (Table I names with the cell
// count of the paper's design, in thousands). OR1200 is left out: the
// legalizer leaves a cell unplaced on some of its ~270-cell designs.
struct JobClass {
  const char* name;
  double cells_k;
};
constexpr JobClass kJobClasses[] = {
    {"ASIC_ENTITY", 149},      {"BIT_COIN", 760},
    {"MEDIA_SUBSYS", 1228},    {"MEDIA_PG_MODIFY", 1228},
    {"A53_ADB_WRAP", 1232},    {"CT_SCAN", 1249},
    {"CT_TOP", 1270},          {"E31_ECOREPLEX", 1533},
    {"OPENC910", 1590},
};
// Whole blocks of five jobs and whole turns of the classes.
constexpr int kServeJobs = 270;

// A seeded sequence of distinct small designs, pre-encoded as daemon
// job blobs. Exactly one job in each block of five is a ~2k-cell design;
// the rest have ~300 cells. The classes take turns from a seeded start,
// so every run sees the same class mix and only the designs differ.
void write_serve_jobs(std::uint64_t seed, const std::string& out_dir,
                      std::string* manifest) {
  std::uint64_t state = seed;
  std::ofstream jobs(out_dir + "/jobs.bin",
                     std::ios::binary | std::ios::trunc);
  const int classes = static_cast<int>(std::size(kJobClasses));
  const int first_class = uniform(state, 0, classes - 1);
  int large_slot = 0;
  for (int j = 0; j < kServeJobs; ++j) {
    if (j % 5 == 0) large_slot = uniform(state, 0, 4);
    const bool large = j % 5 == large_slot;
    const JobClass& cls = kJobClasses[(first_class + j) % classes];
    const int target = large ? uniform(state, 1800, 2200)
                             : uniform(state, 270, 330);
    const int scale =
        static_cast<int>(std::lround(cls.cells_k * 1000.0 / target));
    puffer::SyntheticSpec spec = puffer::table1_spec(cls.name, scale);
    spec.seed = splitmix64(state);
    puffer::Design design = puffer::generate_synthetic(spec);
    design.name = std::string(cls.name) + "_job" + std::to_string(j);
    const std::string blob = puffer::encode_design(design);
    const std::uint64_t size = blob.size();
    jobs.write(reinterpret_cast<const char*>(&size), sizeof(size));
    jobs.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    if (j) *manifest += ",\n";
    *manifest += design_entry(design);
  }
  if (!jobs.flush()) throw std::runtime_error("cannot write jobs.bin");
}

}  // namespace

void generate_inputs(const std::string& workload, std::uint64_t seed,
                     const std::string& out_dir) {
  std::string designs;
  if (workload == "place_congested") {
    write_table1_designs("MEDIA_SUBSYS", 64, 1, seed, out_dir, &designs);
  } else if (workload == "explore_trials") {
    write_table1_designs("OR1200", 64, kExploreDesigns, seed, out_dir,
                         &designs);
  } else if (workload == "serve_small_jobs") {
    write_serve_jobs(seed, out_dir, &designs);
  } else {
    throw std::invalid_argument("unknown workload " + workload);
  }
  write_text(out_dir + "/manifest.json",
             "{\"workload\":\"" + workload + "\",\"seed\":" +
                 std::to_string(seed) + ",\"designs\":[\n" + designs +
                 "]}\n");
}

std::vector<std::string> read_job_blobs(const std::string& inputs) {
  std::ifstream f(inputs + "/jobs.bin", std::ios::binary);
  if (!f) throw std::runtime_error("missing " + inputs + "/jobs.bin");
  std::vector<std::string> blobs;
  std::uint64_t size = 0;
  while (f.read(reinterpret_cast<char*>(&size), sizeof(size))) {
    std::string blob(size, '\0');
    if (!f.read(blob.data(), static_cast<std::streamsize>(size))) {
      throw std::runtime_error("truncated jobs.bin");
    }
    blobs.push_back(std::move(blob));
  }
  return blobs;
}

}  // namespace perfbench
