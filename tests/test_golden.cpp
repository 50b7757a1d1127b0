// Golden placement checksums: position_checksum values of complete flows,
// pinned as constants. Every other bit-identity test compares two code
// paths of the same build, so a change that moved every path the same
// way would still pass them; these constants catch it in tier-1.
//
// Like scripts/perf_smoke.sh and
// bench_results/REFERENCE_perf_smoke_checksums.txt, the values are tied
// to x86-64 with gcc/glibc: a different libm or compiler may move the
// bits legitimately. After an intentional numeric change, re-record them
// from the failure messages of this test.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/flow.h"
#include "io/checkpoint.h"
#include "io/synthetic.h"

namespace puffer {
namespace {

// Restores the global worker count after each test.
class GoldenTest : public ::testing::Test {
 protected:
  ~GoldenTest() override { par::set_num_threads(0); }
};

// Two small designs, starved in different routing directions, that are
// congested enough for the flow to run several padding rounds.
SyntheticSpec golden_spec(int which) {
  SyntheticSpec spec;
  spec.name = "golden";
  spec.num_macros = 2;
  spec.target_utilization = 0.78;
  if (which == 0) {
    spec.seed = 17;
    spec.num_cells = 300;
    spec.num_nets = 450;
    spec.v_capacity_factor = 0.45;
  } else {
    spec.seed = 5;
    spec.num_cells = 260;
    spec.num_nets = 400;
    spec.h_capacity_factor = 0.55;
  }
  return spec;
}

PufferConfig golden_config() {
  PufferConfig cfg;
  cfg.gp.max_iters = 250;
  cfg.padding.xi = 3;
  return cfg;
}

constexpr int kThreads[2] = {1, 8};
constexpr std::uint64_t kRunChecksum[2] = {5335562877582582171ull,
                                           17940895420372392108ull};
constexpr std::uint64_t kPrefixChecksum = 2599164385732625827ull;
constexpr std::uint64_t kRunFromChecksum = 12581770096606996840ull;

TEST_F(GoldenTest, RunMatchesRecordedChecksums) {
  for (int which = 0; which < 2; ++which) {
    for (const int threads : kThreads) {
      par::set_num_threads(threads);
      Design d = generate_synthetic(golden_spec(which));
      PufferFlow flow(d, golden_config());
      const FlowMetrics m = flow.run();
      EXPECT_GE(m.padding_rounds, 2) << "design " << which;
      EXPECT_EQ(position_checksum(d), kRunChecksum[which])
          << "design " << which << " threads " << threads;
    }
  }
}

TEST_F(GoldenTest, PrefixThenRunFromMatchesRecordedChecksums) {
  for (const int threads : kThreads) {
    par::set_num_threads(threads);
    Design d = generate_synthetic(golden_spec(0));
    PufferFlow flow(d, golden_config());
    FlowSnapshot snap;
    flow.run_prefix(0.45, &snap);
    EXPECT_EQ(position_checksum(d), kPrefixChecksum) << "threads " << threads;

    Design fresh = generate_synthetic(golden_spec(0));
    PufferFlow resumed(fresh, golden_config());
    const FlowMetrics m = resumed.run_from(snap);
    EXPECT_GE(m.padding_rounds, 2);
    EXPECT_EQ(position_checksum(fresh), kRunFromChecksum)
        << "threads " << threads;
  }
}

}  // namespace
}  // namespace puffer
