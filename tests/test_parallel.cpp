// Determinism suite for the parallel runtime (common/parallel.h) and its
// users: results must be bit-identical across PUFFER_THREADS=1,2,8 and
// across repeated runs, because the chunk decomposition -- not the worker
// count -- fixes every floating-point fold order.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "congestion/estimator.h"
#include "core/flow.h"
#include "fft/dct.h"
#include "gp/engine.h"
#include "gp/wirelength.h"
#include "io/synthetic.h"

namespace puffer {
namespace {

// Restores the default worker count after each test so suites sharing the
// binary are unaffected.
class ParallelTest : public ::testing::Test {
 protected:
  ~ParallelTest() override { par::set_num_threads(0); }
};

Design small_design(std::uint64_t seed = 17) {
  SyntheticSpec spec;
  spec.name = "par";
  spec.seed = seed;
  spec.num_cells = 400;
  spec.num_nets = 600;
  spec.num_macros = 2;
  return generate_synthetic(spec);
}

TEST_F(ParallelTest, ChunkRangesPartitionTheRange) {
  for (const std::int64_t n : {1, 7, 100, 4097}) {
    for (const std::int64_t grain : {1, 8, 1000}) {
      const int c = par::chunk_count(n, grain);
      std::int64_t expect_begin = 0;
      for (int i = 0; i < c; ++i) {
        const auto [b, e] = par::chunk_range(n, c, i);
        EXPECT_EQ(b, expect_begin);
        EXPECT_GE(e, b);
        expect_begin = e;
      }
      EXPECT_EQ(expect_begin, n);
    }
  }
}

TEST_F(ParallelTest, ChunkCountIgnoresWorkerCount) {
  par::set_num_threads(1);
  const int c1 = par::chunk_count(1000, 16);
  par::set_num_threads(8);
  EXPECT_EQ(par::chunk_count(1000, 16), c1);
}

TEST_F(ParallelTest, ParallelForVisitsEveryIndexOnce) {
  par::set_num_threads(4);
  std::vector<int> hits(1000, 0);
  par::parallel_for(0, 1000, 16, [&](std::int64_t b, std::int64_t e, int) {
    for (std::int64_t i = b; i < e; ++i) hits[static_cast<std::size_t>(i)]++;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST_F(ParallelTest, ParallelReduceBitIdenticalAcrossThreads) {
  const auto run = [] {
    return par::parallel_reduce(0, 100000, 1024, 0.0,
                                [](std::int64_t b, std::int64_t e) {
                                  double s = 0.0;
                                  for (std::int64_t i = b; i < e; ++i) {
                                    s += std::sin(static_cast<double>(i)) /
                                         (1.0 + static_cast<double>(i));
                                  }
                                  return s;
                                });
  };
  par::set_num_threads(1);
  const double r1 = run();
  par::set_num_threads(2);
  const double r2 = run();
  par::set_num_threads(8);
  const double r8 = run();
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r1, r8);
  EXPECT_EQ(r8, run());  // repeated run
}

TEST_F(ParallelTest, NestedParallelForRunsInline) {
  par::set_num_threads(4);
  std::vector<int> hits(256, 0);
  par::parallel_for(0, 16, 1, [&](std::int64_t ob, std::int64_t oe, int) {
    for (std::int64_t o = ob; o < oe; ++o) {
      par::parallel_for(0, 16, 1, [&](std::int64_t b, std::int64_t e, int) {
        for (std::int64_t i = b; i < e; ++i) {
          hits[static_cast<std::size_t>(o * 16 + i)]++;
        }
      });
    }
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST_F(ParallelTest, WirelengthGradientBitIdenticalAcrossThreads) {
  const Design d = small_design();
  WaWirelength wl(d);
  std::vector<double> xc, yc;
  for (CellId c : wl.movable_cells()) {
    const Cell& cell = d.cells[static_cast<std::size_t>(c)];
    xc.push_back(cell.x + cell.width * 0.5);
    yc.push_back(cell.y + cell.height * 0.5);
  }
  const auto run = [&](std::vector<double>& gx, std::vector<double>& gy) {
    return wl.evaluate(xc, yc, 4.0, gx, gy);
  };
  std::vector<double> gx1, gy1, gx2, gy2, gx8, gy8;
  par::set_num_threads(1);
  const double w1 = run(gx1, gy1);
  const double h1 = wl.hpwl(xc, yc);
  par::set_num_threads(2);
  const double w2 = run(gx2, gy2);
  par::set_num_threads(8);
  const double w8 = run(gx8, gy8);
  const double h8 = wl.hpwl(xc, yc);
  EXPECT_EQ(w1, w2);
  EXPECT_EQ(w1, w8);
  EXPECT_EQ(h1, h8);
  ASSERT_EQ(gx1.size(), gx8.size());
  for (std::size_t i = 0; i < gx1.size(); ++i) {
    EXPECT_EQ(gx1[i], gx2[i]) << "grad_x mismatch at " << i;
    EXPECT_EQ(gx1[i], gx8[i]) << "grad_x mismatch at " << i;
    EXPECT_EQ(gy1[i], gy8[i]) << "grad_y mismatch at " << i;
  }
}

TEST_F(ParallelTest, EstimatorDemandBitIdenticalAcrossThreads) {
  const Design d = small_design(23);
  const auto run = [&d](int threads) {
    par::set_num_threads(threads);
    CongestionEstimator est(d, CongestionConfig{});
    return est.estimate();
  };
  const CongestionResult r1 = run(1);
  const CongestionResult r2 = run(2);
  const CongestionResult r8 = run(8);
  EXPECT_EQ(r1.expanded_segments, r8.expanded_segments);
  ASSERT_EQ(r1.maps.dmd_h.raw().size(), r8.maps.dmd_h.raw().size());
  for (std::size_t i = 0; i < r1.maps.dmd_h.raw().size(); ++i) {
    EXPECT_EQ(r1.maps.dmd_h.raw()[i], r2.maps.dmd_h.raw()[i]);
    EXPECT_EQ(r1.maps.dmd_h.raw()[i], r8.maps.dmd_h.raw()[i]);
    EXPECT_EQ(r1.maps.dmd_v.raw()[i], r8.maps.dmd_v.raw()[i]);
  }
  // RSMT wirelength of every tree is identical as well.
  ASSERT_EQ(r1.trees.size(), r8.trees.size());
  for (std::size_t n = 0; n < r1.trees.size(); ++n) {
    EXPECT_EQ(r1.trees[n].length(), r8.trees[n].length());
  }
}

// Regression: the engine's gradient uses thread_local scratch vectors,
// and thread_local names are not lambda-captured -- pool workers used to
// resolve them to their own empty instances and crash. Only designs with
// > 4096 elements split the gradient reduce into multiple chunks, so this
// needs a larger design than the other tests.
TEST_F(ParallelTest, LargeGradientBitIdenticalAcrossThreads) {
  SyntheticSpec spec;
  spec.name = "par_large";
  spec.seed = 41;
  spec.num_cells = 4600;
  spec.num_nets = 5200;
  spec.num_macros = 4;
  const auto run = [&spec](int threads) {
    par::set_num_threads(threads);
    Design d = generate_synthetic(spec);
    initial_place(d);
    GpConfig cfg;
    cfg.max_iters = 6;
    EPlaceEngine engine(d, cfg);
    for (int i = 0; i < 5; ++i) engine.step();
    return std::make_pair(engine.last_hpwl(), engine.density_overflow());
  };
  const auto r1 = run(1);
  const auto r8 = run(8);
  EXPECT_EQ(r1.first, r8.first);
  EXPECT_EQ(r1.second, r8.second);
}

TEST_F(ParallelTest, Fft2dBitIdenticalAcrossThreads) {
  const std::size_t nx = 64, ny = 64;
  std::vector<double> data(nx * ny);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::sin(0.37 * static_cast<double>(i)) +
              0.1 * static_cast<double>(i % 7);
  }
  par::set_num_threads(1);
  const std::vector<double> a = dct2_2d(data, nx, ny);
  const std::vector<double> ai = idxst_dct3_2d(data, nx, ny);
  par::set_num_threads(8);
  const std::vector<double> b = dct2_2d(data, nx, ny);
  const std::vector<double> bi = idxst_dct3_2d(data, nx, ny);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);
    EXPECT_EQ(ai[i], bi[i]);
  }
}

TEST_F(ParallelTest, FullFlowBitIdenticalAcrossThreads) {
  const auto run = [](int threads, std::vector<double>& xs) {
    Design d = small_design(31);
    PufferConfig cfg;
    cfg.gp.max_iters = 120;
    cfg.padding.xi = 2;
    par::set_num_threads(threads);
    PufferFlow flow(d, cfg);
    const FlowMetrics m = flow.run();
    for (const Cell& c : d.cells) {
      xs.push_back(c.x);
      xs.push_back(c.y);
    }
    return m;
  };
  std::vector<double> pos1, pos8;
  const FlowMetrics m1 = run(1, pos1);
  const FlowMetrics m8 = run(8, pos8);
  EXPECT_EQ(m1.hpwl_gp, m8.hpwl_gp);
  EXPECT_EQ(m1.hpwl_legal, m8.hpwl_legal);
  EXPECT_EQ(m1.padding_rounds, m8.padding_rounds);
  EXPECT_EQ(m1.padding_area, m8.padding_area);
  ASSERT_EQ(pos1.size(), pos8.size());
  for (std::size_t i = 0; i < pos1.size(); ++i) {
    EXPECT_EQ(pos1[i], pos8[i]) << "position mismatch at " << i;
  }
}

TEST_F(ParallelTest, WorkerLeaseRespectsBudget) {
  par::set_num_threads(4);
  EXPECT_EQ(par::lease_budget_available(), 4);
  {
    par::WorkerLease a(3);
    EXPECT_EQ(a.workers(), 3);
    EXPECT_EQ(par::lease_budget_available(), 1);
    {
      // The budget is exhausted down to the owning thread: a second lease
      // on this thread's remaining budget gets only itself.
      par::WorkerLease b(3);
      EXPECT_EQ(b.workers(), 1);
      EXPECT_EQ(par::lease_budget_available(), 0);
    }
    EXPECT_EQ(par::lease_budget_available(), 1);
  }
  EXPECT_EQ(par::lease_budget_available(), 4);

  // A lease can never be granted less than the owning thread itself,
  // even from an empty budget.
  par::set_num_threads(1);
  par::WorkerLease c(8);
  EXPECT_EQ(c.workers(), 1);
}

TEST_F(ParallelTest, WorkerLeaseDoesNotChangeResults) {
  // Identical fold result with and without a lease, for several grants:
  // the lease only moves where chunks execute.
  const std::int64_t n = 10007;
  const auto fold = [&] {
    return par::parallel_reduce(
        0, n, 64, 0.0,
        [](std::int64_t b, std::int64_t e) {
          double s = 0.0;
          for (std::int64_t i = b; i < e; ++i) {
            s += std::sin(static_cast<double>(i)) * 1e-3;
          }
          return s;
        });
  };
  par::set_num_threads(4);
  const double base = fold();
  for (const int want : {1, 2, 4}) {
    par::WorkerLease lease(want);
    const double leased = fold();
    EXPECT_EQ(leased, base);
  }
}

TEST_F(ParallelTest, ConcurrentLeasedSessionsMatchSerial) {
  // K threads, each holding a lease and running the same deterministic
  // kernel, produce exactly the serial result.
  par::set_num_threads(4);
  const std::int64_t n = 4096;
  const auto kernel = [&](std::uint64_t salt) {
    std::vector<std::uint64_t> out(static_cast<std::size_t>(n), 0);
    par::parallel_for(0, n, 32, [&](std::int64_t b, std::int64_t e, int) {
      for (std::int64_t i = b; i < e; ++i) {
        std::uint64_t h = static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL;
        h ^= salt + (h >> 29);
        out[static_cast<std::size_t>(i)] = h * 0xbf58476d1ce4e5b9ULL;
      }
    });
    std::uint64_t sum = 0;
    for (const std::uint64_t v : out) sum += v;
    return sum;
  };
  std::vector<std::uint64_t> serial(4);
  for (std::uint64_t s = 0; s < 4; ++s) serial[s] = kernel(s);

  std::vector<std::uint64_t> concurrent(4);
  std::vector<std::thread> threads;
  for (std::uint64_t s = 0; s < 4; ++s) {
    threads.emplace_back([&, s] {
      par::WorkerLease lease(2);
      concurrent[s] = kernel(s);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(concurrent, serial);
}

TEST_F(ParallelTest, KeepWarmScopeDoesNotChangeResults) {
  // Back-to-back kernels inside a keep-warm region (the GP loop shape)
  // fold to exactly the cold-pool result. Force the spin path with an
  // explicit budget so the test exercises it even when the pool
  // oversubscribes the hardware (where the auto policy disables it), and
  // run enough kernel rounds that workers hit both the spin-hit and the
  // spin-timeout-then-park paths. Runs under TSAN in the sanitizer lane.
  par::set_num_threads(4);
  const std::int64_t n = 10007;
  const auto fold = [&] {
    double total = 0.0;
    for (int round = 0; round < 50; ++round) {
      total += par::parallel_reduce(
          0, n, 64, 0.0, [round](std::int64_t b, std::int64_t e) {
            double s = 0.0;
            for (std::int64_t i = b; i < e; ++i) {
              s += std::sin(static_cast<double>(i + round)) * 1e-3;
            }
            return s;
          });
    }
    return total;
  };
  const double cold = fold();

  par::set_warm_spin_iters(2000);
  {
    par::KeepWarmScope warm;
    EXPECT_EQ(fold(), cold);
    {
      par::KeepWarmScope nested;  // scopes nest (a counter)
      EXPECT_EQ(fold(), cold);
    }
    EXPECT_EQ(fold(), cold);
  }
  // Spinning disabled entirely: still the same bits.
  par::set_warm_spin_iters(0);
  {
    par::KeepWarmScope warm;
    EXPECT_EQ(fold(), cold);
  }
  par::set_warm_spin_iters(-1);  // restore the auto policy
  EXPECT_EQ(fold(), cold);
}

}  // namespace
}  // namespace puffer
