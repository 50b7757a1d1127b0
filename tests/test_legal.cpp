// Tests for discretized padding (Eq. 17) and Abacus legalization with
// macro-aware row segments and white-space preservation, plus the
// integer site-unit engine: the 1e7-DBU core-offset regression, config
// validation, zero-area cells, the randomized padded-slot legality
// property suite, and thread-count invariance of legalization and
// batched detailed placement.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/flow.h"
#include "dp/detailed_place.h"
#include "io/synthetic.h"
#include "legal/abacus.h"
#include "legal/discrete_padding.h"
#include "legal/legality.h"

namespace puffer {
namespace {

Design base_design(double die_w = 240, double die_h = 240) {
  Design d;
  d.die = {0, 0, die_w, die_h};
  d.tech = Technology::make_default(1.0, 8.0, 8);
  const int rows = static_cast<int>(die_h / 8.0);
  for (int r = 0; r < rows; ++r) {
    d.rows.push_back({r * 8.0, 0, static_cast<int>(die_w), 1.0, 8.0});
  }
  return d;
}

CellId add_cell_at(Design& d, double x, double y, double w = 2.0) {
  Cell c;
  c.name = "c" + std::to_string(d.cells.size());
  c.width = w;
  c.height = 8;
  c.x = x;
  c.y = y;
  return d.add_cell(std::move(c));
}

TEST(DiscretePadding, RoundsToLevels) {
  Design d = base_design();
  const CellId a = add_cell_at(d, 0, 0);
  const CellId b = add_cell_at(d, 10, 0);
  const CellId c = add_cell_at(d, 20, 0);
  std::vector<double> pad(d.cells.size(), 0.0);
  pad[static_cast<std::size_t>(a)] = 8.0;  // mp
  pad[static_cast<std::size_t>(b)] = 4.0;
  pad[static_cast<std::size_t>(c)] = 0.4;
  DiscretePaddingConfig cfg;
  cfg.theta = 8.0;
  cfg.max_pad_area_frac = 10.0;  // no budget pressure in this test
  const auto levels = discretize_padding(d, pad, cfg);
  EXPECT_EQ(levels[static_cast<std::size_t>(a)], 8);  // round(8*8/8)
  EXPECT_EQ(levels[static_cast<std::size_t>(b)], 4);  // round(8*4/8)
  EXPECT_EQ(levels[static_cast<std::size_t>(c)], 0);  // round(0.4)
}

TEST(DiscretePadding, ZeroPaddingYieldsZeroLevels) {
  Design d = base_design();
  add_cell_at(d, 0, 0);
  const auto levels = discretize_padding(d, std::vector<double>(1, 0.0));
  EXPECT_EQ(levels[0], 0);
}

TEST(DiscretePadding, BudgetRelegatesSmallestFirst) {
  Design d = base_design(80, 16);
  std::vector<double> pad;
  for (int i = 0; i < 10; ++i) {
    add_cell_at(d, i * 4.0, 0);
    pad.push_back(2.0 + 0.1 * i);  // increasing padding
  }
  DiscretePaddingConfig cfg;
  cfg.theta = 4.0;
  cfg.max_pad_area_frac = 0.25;  // movable area = 10*2*8 = 160 -> 40 DBU^2
  // site area 8 -> budget of 5 site-pads; initial levels are ~4 each.
  const auto levels = discretize_padding(d, pad, cfg);
  double area = 0.0;
  for (int lv : levels) area += lv * 8.0;
  EXPECT_LE(area, 0.25 * 160.0 + 1e-9);
  // The largest-padding cell retains at least as much as the smallest.
  EXPECT_GE(levels[9], levels[0]);
}

TEST(Legalize, SimpleRowPlacementIsLegal) {
  Design d = base_design();
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    add_cell_at(d, rng.uniform(0, 230), rng.uniform(0, 230),
                std::floor(rng.uniform(1, 5)));
  }
  const LegalizeResult res = legalize(d);
  EXPECT_TRUE(res.success);
  EXPECT_EQ(res.failed_cells, 0);
  EXPECT_EQ(res.placed, 200);
  const LegalityReport rep = check_legality(d);
  EXPECT_TRUE(rep.legal) << rep.summary();
}

TEST(Legalize, AvoidsMacros) {
  Design d = base_design();
  Cell m;
  m.name = "m";
  m.kind = CellKind::kMacro;
  m.x = 80;
  m.y = 80;
  m.width = 80;
  m.height = 80;
  d.add_cell(m);
  Rng rng(23);
  // Drop many cells right on top of the macro.
  for (int i = 0; i < 150; ++i) {
    add_cell_at(d, rng.uniform(70, 150), rng.uniform(70, 150), 2);
  }
  const LegalizeResult res = legalize(d);
  EXPECT_TRUE(res.success);
  const LegalityReport rep = check_legality(d);
  EXPECT_TRUE(rep.legal) << rep.summary();
  // No movable cell overlaps the macro.
  const Rect macro_rect{80, 80, 160, 160};
  for (const Cell& c : d.cells) {
    if (c.movable()) {
      EXPECT_DOUBLE_EQ(c.rect().overlap_area(macro_rect), 0.0);
    }
  }
}

TEST(Legalize, MinimalDisplacementForAlreadyLegalCells) {
  Design d = base_design();
  for (int i = 0; i < 10; ++i) add_cell_at(d, 10.0 * i, 16.0, 4.0);
  const LegalizeResult res = legalize(d);
  EXPECT_TRUE(res.success);
  EXPECT_NEAR(res.total_displacement, 0.0, 1e-6);
}

TEST(Legalize, SnapsToSitesAndRows) {
  Design d = base_design();
  add_cell_at(d, 10.37, 13.2, 3);
  legalize(d);
  const Cell& c = d.cells[0];
  EXPECT_NEAR(c.x, std::round(c.x), 1e-9);        // site width 1.0
  EXPECT_NEAR(c.y / 8.0, std::round(c.y / 8.0), 1e-9);  // row height 8
}

TEST(Legalize, PaddingReservesWhitespace) {
  Design d = base_design(80, 8);  // single row, 80 sites
  // Three 4-wide cells side by side, middle one padded by 6 sites.
  const CellId a = add_cell_at(d, 10, 0, 4);
  const CellId b = add_cell_at(d, 14, 0, 4);
  const CellId c = add_cell_at(d, 18, 0, 4);
  std::vector<int> pad(d.cells.size(), 0);
  pad[static_cast<std::size_t>(b)] = 6;
  const LegalizeResult res = legalize(d, pad);
  EXPECT_TRUE(res.success);
  EXPECT_TRUE(check_legality(d).legal);
  // The padded slot keeps >= 6 sites of air around b in total.
  const Cell& ca = d.cells[static_cast<std::size_t>(a)];
  const Cell& cb = d.cells[static_cast<std::size_t>(b)];
  const Cell& cc = d.cells[static_cast<std::size_t>(c)];
  const double air_left = cb.x - (ca.x + ca.width);
  const double air_right = cc.x - (cb.x + cb.width);
  EXPECT_GE(air_left + air_right, 6.0 - 1e-9);
}

TEST(Legalize, OverfullRowSpillsToNeighbours) {
  Design d = base_design(40, 24);  // 3 rows of 40 sites
  // 30 cells of width 4 = 120 sites > 40 -> must fill 3 rows.
  for (int i = 0; i < 30; ++i) add_cell_at(d, 2.0 * i, 8.0, 4.0);
  const LegalizeResult res = legalize(d);
  EXPECT_TRUE(res.success);
  EXPECT_TRUE(check_legality(d).legal);
  std::vector<int> per_row(3, 0);
  for (const Cell& c : d.cells) {
    per_row[static_cast<std::size_t>(c.y / 8.0)]++;
  }
  EXPECT_EQ(per_row[0] + per_row[1] + per_row[2], 30);
  EXPECT_EQ(per_row[0], 10);
  EXPECT_EQ(per_row[1], 10);
  EXPECT_EQ(per_row[2], 10);
}

TEST(Legalize, FailsGracefullyWhenImpossible) {
  Design d = base_design(16, 8);  // one row, 16 sites
  for (int i = 0; i < 5; ++i) add_cell_at(d, 0, 0, 8);  // 40 sites demanded
  const LegalizeResult res = legalize(d);
  EXPECT_FALSE(res.success);
  EXPECT_GT(res.failed_cells, 0);
}

TEST(Legalize, EmptyRowsReportFailure) {
  Design d;
  d.die = {0, 0, 10, 10};
  add_cell_at(d, 0, 0);
  EXPECT_FALSE(legalize(d).success);
}

TEST(Legalize, SyntheticDesignEndToEnd) {
  SyntheticSpec spec;
  spec.num_cells = 600;
  spec.num_nets = 900;
  spec.num_macros = 4;
  spec.target_utilization = 0.7;
  Design d = generate_synthetic(spec);
  const double hpwl_before = d.total_hpwl();
  const LegalizeResult res = legalize(d);
  EXPECT_TRUE(res.success);
  EXPECT_TRUE(check_legality(d).legal) << check_legality(d).summary();
  // Legalization does not explode the wirelength of a spread placement.
  EXPECT_LT(d.total_hpwl(), hpwl_before * 2.5);
}

TEST(Legality, DetectsOverlap) {
  Design d = base_design();
  add_cell_at(d, 10, 0, 4);
  add_cell_at(d, 12, 0, 4);
  const LegalityReport rep = check_legality(d);
  EXPECT_FALSE(rep.legal);
  EXPECT_GT(rep.overlaps, 0);
}

TEST(Legality, DetectsOffGridAndOutOfDie) {
  Design d = base_design();
  add_cell_at(d, 10, 3.3, 4);    // off-row
  add_cell_at(d, 239, 0, 4);     // sticks out of the die
  const LegalityReport rep = check_legality(d);
  EXPECT_FALSE(rep.legal);
  EXPECT_GE(rep.off_grid, 1);
  EXPECT_GE(rep.out_of_die, 1);
}

// Restores the global worker-pool setting after a test that changes it.
struct ThreadGuard {
  ~ThreadGuard() { par::set_num_threads(0); }
};

Design offset_design(double x0, double site, int num_sites, int num_rows,
                     double row_h = 8.0) {
  Design d;
  d.die = {x0, 0.0, x0 + site * num_sites, row_h * num_rows};
  d.tech = Technology::make_default(site, row_h);
  for (int r = 0; r < num_rows; ++r) {
    d.rows.push_back({r * row_h, x0, num_sites, site, row_h});
  }
  return d;
}

CellId add_cell(Design& d, double x, double y, double w, double h = 8.0) {
  Cell c;
  c.name = "c" + std::to_string(d.cells.size());
  c.width = w;
  c.height = h;
  c.x = x;
  c.y = y;
  return d.add_cell(std::move(c));
}

// The seed implementation compared world coordinates at a 1e7-DBU core
// offset against absolute 1e-9 epsilons — below double ULP at that
// magnitude, so the segment builder dropped a site and an exactly-full
// row failed to legalize. The integer site-unit arithmetic must place
// every cell.
TEST(LegalLargeOffset, ExactlyFullRowAtTenMillionDbu) {
  const double x0 = 1e7;
  const double site = 0.1;
  const int num_sites = 96;
  Design d = offset_design(x0, site, num_sites, 1);
  // 48 cells of width 0.2 fill the 96-site row exactly.
  for (int i = 0; i < 48; ++i) {
    add_cell(d, x0 + 0.2 * i, 0.0, 0.2);
  }
  const LegalizeResult r = legalize(d);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.failed_cells, 0);
  EXPECT_EQ(r.placed, 48);
  const LegalityReport rep = check_legality(d);
  EXPECT_TRUE(rep.legal) << rep.summary();
}

TEST(LegalConfig, ValidationThrowsAndClamps) {
  LegalizeConfig bad;
  bad.max_row_search = 0;
  EXPECT_THROW(validate_legalize_config(bad), std::invalid_argument);
  // The flow rejects a bad config at construction, not after GP.
  PufferConfig flow_cfg;
  flow_cfg.legal = bad;
  Design flow_design = offset_design(0.0, 1.0, 64, 2);
  EXPECT_THROW({ PufferFlow flow(flow_design, flow_cfg); },
               std::invalid_argument);

  LegalizeConfig good;
  good.max_row_search = 5;
  EXPECT_EQ(validate_legalize_config(good).max_row_search, 5);

  Design d = offset_design(0.0, 1.0, 64, 2);
  add_cell(d, 3.0, 0.0, 2.0);
  EXPECT_THROW(legalize(d, {}, bad), std::invalid_argument);
}

// Zero-area cells (filler with zero width or height) previously divided
// by zero in the cluster recurrence and could be skipped by the slot
// write-back; they now occupy at least one site and get a real position.
TEST(LegalZeroWeight, ZeroAreaCellsArePlaced) {
  Design d = offset_design(0.0, 1.0, 64, 2);
  const CellId z = add_cell(d, 10.0, 0.0, 0.0);   // zero width
  const CellId f = add_cell(d, 12.0, 0.0, 2.0, 0.0);  // zero height
  add_cell(d, 10.5, 0.0, 2.0);
  const LegalizeResult r = legalize(d);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.placed, 3);
  for (CellId c : {z, f}) {
    const Cell& cell = d.cells[static_cast<std::size_t>(c)];
    EXPECT_TRUE(std::isfinite(cell.x));
    EXPECT_TRUE(std::isfinite(cell.y));
  }
  // The zero-width cell owns a full site: no other cell may share it.
  const double zx = d.cells[static_cast<std::size_t>(z)].x;
  for (CellId c = 0; c < static_cast<CellId>(d.cells.size()); ++c) {
    if (c == z) continue;
    const Cell& o = d.cells[static_cast<std::size_t>(c)];
    if (o.y != d.cells[static_cast<std::size_t>(z)].y) continue;
    EXPECT_TRUE(o.x + o.width <= zx + 1e-9 || o.x >= zx + 1.0 - 1e-9);
  }
}

Design random_design(std::uint64_t seed, double x0 = 0.0) {
  Rng rng(seed);
  const int num_rows = 12;
  const int num_sites = 160;
  Design d = offset_design(x0, 1.0, num_sites, num_rows);
  // A couple of fixed macros.
  for (int m = 0; m < 2; ++m) {
    Cell c;
    c.name = "m" + std::to_string(m);
    c.kind = CellKind::kMacro;
    c.width = 24.0;
    c.height = 24.0;
    c.x = x0 + 16.0 + 80.0 * m;
    c.y = 16.0 + 24.0 * m;
    d.add_cell(std::move(c));
  }
  const int n = 120 + static_cast<int>(rng.uniform_int(0, 60));
  const CellId first = static_cast<CellId>(d.cells.size());
  for (int i = 0; i < n; ++i) {
    add_cell(d, x0 + rng.uniform(0.0, num_sites - 8.0),
             rng.uniform(0.0, num_rows * 8.0 - 8.0),
             static_cast<double>(rng.uniform_int(1, 6)), 8.0);
  }
  // Random 2-4 pin nets so detailed placement has real work to do.
  for (int i = 0; i < n; ++i) {
    const NetId net = d.add_net("n" + std::to_string(i));
    const int degree = 2 + static_cast<int>(rng.uniform_int(0, 2));
    for (int p = 0; p < degree; ++p) {
      const CellId c =
          first + static_cast<CellId>(rng.uniform_int(0, n - 1));
      d.connect(c, net, rng.uniform(0.0, 1.0), rng.uniform(0.0, 4.0));
    }
  }
  return d;
}

std::vector<int> random_pads(const Design& d, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<int> pads(d.cells.size(), 0);
  for (std::size_t i = 0; i < pads.size(); ++i) {
    if (rng.uniform(0.0, 1.0) < 0.3) {
      pads[i] = static_cast<int>(rng.uniform_int(1, 4));
    }
  }
  return pads;
}

// Padded slots must not overlap: cell i's slot is
// [x - (pad/2)*site, x - (pad/2)*site + (ceil(w/site) max 1 + pad)*site).
void expect_padded_slots_respected(const Design& d,
                                   const std::vector<int>& pads) {
  struct Slot {
    double lo, hi;
  };
  std::vector<std::vector<Slot>> by_row(d.rows.size());
  const double row_h = d.rows.front().height;
  const double site = d.rows.front().site_width;
  for (CellId c = 0; c < static_cast<CellId>(d.cells.size()); ++c) {
    const Cell& cell = d.cells[static_cast<std::size_t>(c)];
    if (!cell.movable()) continue;
    const int r = static_cast<int>(std::llround(cell.y / row_h));
    ASSERT_GE(r, 0);
    ASSERT_LT(r, static_cast<int>(d.rows.size()));
    const int pad = pads[static_cast<std::size_t>(c)];
    const double phys =
        std::max<double>(1.0, std::ceil(cell.width / site - 1e-6));
    const double lo = cell.x - (pad / 2) * site;
    by_row[static_cast<std::size_t>(r)].push_back(
        {lo, lo + (phys + pad) * site});
  }
  for (auto& row : by_row) {
    std::sort(row.begin(), row.end(),
              [](const Slot& a, const Slot& b) { return a.lo < b.lo; });
    for (std::size_t i = 0; i + 1 < row.size(); ++i) {
      EXPECT_LE(row[i].hi, row[i + 1].lo + 1e-6);
    }
  }
}

TEST(LegalProperties, RandomizedLegalityWithPadding) {
  for (std::uint64_t seed : {11ull, 29ull, 47ull}) {
    for (double x0 : {0.0, 1e7}) {
      Design d = random_design(seed, x0);
      const std::vector<int> pads = random_pads(d, seed * 31);
      const LegalizeResult r = legalize(d, pads);
      EXPECT_TRUE(r.success) << "seed " << seed << " x0 " << x0;
      const LegalityReport rep = check_legality(d);
      EXPECT_TRUE(rep.legal) << rep.summary() << " seed " << seed;
      expect_padded_slots_respected(d, pads);

      // Detailed placement must keep the placement legal and not hurt.
      const double before = d.total_hpwl();
      const DetailedPlaceResult dp = detailed_place(d);
      EXPECT_LE(d.total_hpwl(), before + 1e-9);
      EXPECT_GE(dp.passes, 1);
      const LegalityReport rep2 = check_legality(d);
      EXPECT_TRUE(rep2.legal) << rep2.summary() << " seed " << seed;
    }
  }
}

std::uint64_t position_bits_checksum(const Design& d) {
  std::uint64_t h = 1469598103934665603ull;
  for (const Cell& c : d.cells) {
    std::uint64_t bx, by;
    std::memcpy(&bx, &c.x, sizeof(bx));
    std::memcpy(&by, &c.y, sizeof(by));
    for (std::uint64_t bits : {bx, by}) {
      for (int i = 0; i < 8; ++i) {
        h ^= (bits >> (8 * i)) & 0xffu;
        h *= 1099511628211ull;
      }
    }
  }
  return h;
}

// Legalization and batched detailed placement are each bit-identical for
// any thread count.
TEST(DetailedPlaceBatched, BitIdenticalAcrossThreads) {
  ThreadGuard guard;
  std::vector<std::uint64_t> legal_sums, dp_sums;
  for (int threads : {1, 2, 8}) {
    par::set_num_threads(threads);
    Design d = random_design(321);
    legalize(d, random_pads(d, 5));
    legal_sums.push_back(position_bits_checksum(d));
    detailed_place(d);
    dp_sums.push_back(position_bits_checksum(d));
    EXPECT_TRUE(check_legality(d).legal);
  }
  EXPECT_EQ(legal_sums[0], legal_sums[1]);
  EXPECT_EQ(legal_sums[1], legal_sums[2]);
  EXPECT_EQ(dp_sums[0], dp_sums[1]);
  EXPECT_EQ(dp_sums[1], dp_sums[2]);
}

}  // namespace
}  // namespace puffer
