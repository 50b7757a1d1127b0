// Tests for Bookshelf I/O (round-trip, error handling) and the synthetic
// benchmark generator (invariants, determinism, Table I suite).
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "io/bookshelf.h"
#include "io/synthetic.h"

namespace puffer {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("puffer_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    fs::create_directories(dir_);
  }
  ~TempDir() { fs::remove_all(dir_); }
  std::string path(const std::string& name) const { return (dir_ / name).string(); }

 private:
  fs::path dir_;
  static int counter_;
};
int TempDir::counter_ = 0;

SyntheticSpec small_spec() {
  SyntheticSpec spec;
  spec.name = "tiny";
  spec.num_cells = 400;
  spec.num_nets = 600;
  spec.num_macros = 4;
  spec.num_terminals = 16;
  spec.seed = 5;
  return spec;
}

TEST(Synthetic, GeneratesValidDesign) {
  const Design d = generate_synthetic(small_spec());
  EXPECT_EQ(d.validate(), "");
  EXPECT_EQ(d.num_movable(), 400u);
  EXPECT_EQ(d.nets.size(), 600u);
  EXPECT_LE(d.num_macros(), 4u);
  EXPECT_FALSE(d.rows.empty());
  EXPECT_GT(d.die.area(), 0.0);
}

TEST(Synthetic, UtilizationNearTarget) {
  SyntheticSpec spec = small_spec();
  spec.target_utilization = 0.7;
  const Design d = generate_synthetic(spec);
  EXPECT_NEAR(d.utilization(), 0.7, 0.08);
}

TEST(Synthetic, DeterministicForSameSeed) {
  const Design a = generate_synthetic(small_spec());
  const Design b = generate_synthetic(small_spec());
  ASSERT_EQ(a.cells.size(), b.cells.size());
  ASSERT_EQ(a.pins.size(), b.pins.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.cells[i].x, b.cells[i].x);
    EXPECT_DOUBLE_EQ(a.cells[i].width, b.cells[i].width);
  }
}

TEST(Synthetic, DifferentSeedsDiffer) {
  SyntheticSpec s2 = small_spec();
  s2.seed = 6;
  const Design a = generate_synthetic(small_spec());
  const Design b = generate_synthetic(s2);
  int same = 0;
  for (std::size_t i = 0; i < std::min(a.cells.size(), b.cells.size()); ++i) {
    same += (a.cells[i].x == b.cells[i].x) ? 1 : 0;
  }
  EXPECT_LT(same, static_cast<int>(a.cells.size() / 4));
}

TEST(Synthetic, MacrosDoNotOverlap) {
  const Design d = generate_synthetic(small_spec());
  std::vector<Rect> macros;
  for (const Cell& c : d.cells) {
    if (c.is_macro()) macros.push_back(c.rect());
  }
  for (std::size_t i = 0; i < macros.size(); ++i) {
    for (std::size_t j = i + 1; j < macros.size(); ++j) {
      EXPECT_DOUBLE_EQ(macros[i].overlap_area(macros[j]), 0.0);
    }
  }
}

TEST(Synthetic, AllNetsHaveAtLeastTwoPins) {
  const Design d = generate_synthetic(small_spec());
  for (const Net& n : d.nets) EXPECT_GE(n.pins.size(), 2u);
}

TEST(Synthetic, RowsCoverDie) {
  const Design d = generate_synthetic(small_spec());
  double covered = 0.0;
  for (const Row& r : d.rows) covered += (r.x_hi() - r.x_lo) * r.height;
  EXPECT_NEAR(covered, d.die.area(), 1e-6);
}

TEST(Table1Suite, HasTenPaperBenchmarks) {
  const auto suite = table1_suite(40);
  ASSERT_EQ(suite.size(), 10u);
  EXPECT_EQ(suite.front().name, "OR1200");
  EXPECT_EQ(suite.back().name, "OPENC910");
  // Relative sizes follow Table I: OPENC910 is the largest.
  EXPECT_GT(suite.back().num_cells, suite.front().num_cells);
  // Macro counts are NOT scaled.
  EXPECT_EQ(suite.back().num_macros, 332);
  EXPECT_EQ(suite[5].name, "A53_ADB_WRAP");
  EXPECT_EQ(suite[5].num_macros, 7);
}

TEST(Table1Suite, ScalingDividesCells) {
  const auto s40 = table1_spec("BIT_COIN", 40);
  const auto s80 = table1_spec("BIT_COIN", 80);
  EXPECT_NEAR(static_cast<double>(s40.num_cells) / s80.num_cells, 2.0, 0.01);
}

TEST(Table1Suite, UnknownNameThrows) {
  EXPECT_THROW(table1_spec("NOT_A_BENCH", 40), std::out_of_range);
  EXPECT_THROW(table1_suite(0), std::out_of_range);
}

TEST(Bookshelf, RoundTripPreservesStructure) {
  TempDir tmp;
  const Design a = generate_synthetic(small_spec());
  write_bookshelf(a, tmp.path("tiny"));
  const Design b = read_bookshelf(tmp.path("tiny.aux"));

  ASSERT_EQ(b.cells.size(), a.cells.size());
  ASSERT_EQ(b.nets.size(), a.nets.size());
  ASSERT_EQ(b.pins.size(), a.pins.size());
  ASSERT_EQ(b.rows.size(), a.rows.size());
  EXPECT_EQ(b.validate(), "");
  EXPECT_NEAR(b.die.width(), a.die.width(), 1e-9);

  // Cell geometry and positions survive.
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(b.cells[i].name, a.cells[i].name);
    EXPECT_NEAR(b.cells[i].width, a.cells[i].width, 1e-9);
    EXPECT_NEAR(b.cells[i].x, a.cells[i].x, 1e-6);
    EXPECT_EQ(b.cells[i].movable(), a.cells[i].movable());
  }
  // HPWL identical (pin offsets survive the center-based conversion).
  EXPECT_NEAR(b.total_hpwl(), a.total_hpwl(), a.total_hpwl() * 1e-9);
}

TEST(Bookshelf, PlRoundTrip) {
  TempDir tmp;
  Design a = generate_synthetic(small_spec());
  write_pl(a, tmp.path("x.pl"));
  // Perturb and restore.
  Design b = a;
  for (Cell& c : b.cells) {
    if (c.movable()) c.x += 13.0;
  }
  read_pl_into(b, tmp.path("x.pl"));
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_NEAR(b.cells[i].x, a.cells[i].x, 1e-9);
  }
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(Bookshelf, WriteReadWriteIsByteStable) {
  // Round-trip double formatting: the files a re-read design writes are
  // byte-identical to the originals, and the parsed coordinates are
  // bit-equal to the placed ones.
  TempDir tmp;
  Design a = generate_synthetic(small_spec());
  // Fractional positions that 6- or 15-digit formatting would mangle.
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    if (a.cells[i].movable()) {
      a.cells[i].x += 0.1 + static_cast<double>(i) / 3.0;
      a.cells[i].y += 0.30000000000000004;
    }
  }
  write_bookshelf(a, tmp.path("gen1"));
  const Design b = read_bookshelf(tmp.path("gen1.aux"));
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(b.cells[i].x, a.cells[i].x) << i;  // exact, not NEAR
    EXPECT_EQ(b.cells[i].y, a.cells[i].y) << i;
  }
  write_bookshelf(b, tmp.path("gen2"));
  for (const char* ext : {".nodes", ".nets", ".pl", ".scl"}) {
    EXPECT_EQ(slurp(tmp.path(std::string("gen1") + ext)),
              slurp(tmp.path(std::string("gen2") + ext)))
        << ext;
  }
}

TEST(Bookshelf, MissingAuxThrows) {
  EXPECT_THROW(read_bookshelf("/nonexistent/file.aux"), BookshelfError);
}

TEST(Bookshelf, MalformedAuxThrows) {
  TempDir tmp;
  std::ofstream(tmp.path("bad.aux")) << "RowBasedPlacement : only.nodes\n";
  EXPECT_THROW(read_bookshelf(tmp.path("bad.aux")), BookshelfError);
}

TEST(Bookshelf, UnknownCellInNetsThrows) {
  TempDir tmp;
  std::ofstream(tmp.path("t.aux"))
      << "RowBasedPlacement : t.nodes t.nets t.pl t.scl\n";
  std::ofstream(tmp.path("t.nodes")) << "UCLA nodes 1.0\n a 2 8\n";
  std::ofstream(tmp.path("t.nets"))
      << "UCLA nets 1.0\nNetDegree : 2 n\n a B : 0 0\n ghost B : 0 0\n";
  std::ofstream(tmp.path("t.pl")) << "UCLA pl 1.0\n a 0 0 : N\n";
  std::ofstream(tmp.path("t.scl"))
      << "UCLA scl 1.0\nCoreRow Horizontal\n Coordinate : 0\n Height : 8\n"
      << " Sitewidth : 1\n SubrowOrigin : 0 NumSites : 10\nEnd\n";
  EXPECT_THROW(read_bookshelf(tmp.path("t.aux")), BookshelfError);
}

TEST(Bookshelf, InvalidDesignThrowsNamingTheFile) {
  TempDir tmp;
  std::ofstream(tmp.path("v.aux"))
      << "RowBasedPlacement : v.nodes v.nets v.pl v.scl\n";
  std::ofstream(tmp.path("v.nodes")) << "UCLA nodes 1.0\n a nan 8\n b 2 8\n";
  std::ofstream(tmp.path("v.nets"))
      << "UCLA nets 1.0\nNetDegree : 2 n\n a B : 0 0\n b B : 0 0\n";
  std::ofstream(tmp.path("v.pl")) << "UCLA pl 1.0\n a 0 0 : N\n b 4 0 : N\n";
  std::ofstream(tmp.path("v.scl"))
      << "UCLA scl 1.0\nCoreRow Horizontal\n Coordinate : 0\n Height : 8\n"
      << " Sitewidth : 1\n SubrowOrigin : 0 NumSites : 10\nEnd\n";
  try {
    read_bookshelf(tmp.path("v.aux"));
    FAIL() << "accepted a nan width";
  } catch (const BookshelfError& e) {
    EXPECT_NE(std::string(e.what()).find(tmp.path("v.aux")), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("cell 0"), std::string::npos)
        << e.what();
  }
}

TEST(Bookshelf, ParsesMinimalHandWrittenDesign) {
  TempDir tmp;
  std::ofstream(tmp.path("m.aux"))
      << "RowBasedPlacement : m.nodes m.nets m.pl m.scl\n";
  std::ofstream(tmp.path("m.nodes"))
      << "UCLA nodes 1.0\n# comment\nNumNodes : 3\nNumTerminals : 1\n"
      << " a 2 8\n b 3 8\n pad 0 0 terminal_NI\n";
  std::ofstream(tmp.path("m.nets"))
      << "UCLA nets 1.0\nNumNets : 1\nNumPins : 3\n"
      << "NetDegree : 3 n0\n a I : 0.5 1\n b O : -1 0\n pad B\n";
  std::ofstream(tmp.path("m.pl"))
      << "UCLA pl 1.0\n a 4 8 : N\n b 10 16 : N\n pad 0 0 : N /FIXED\n";
  std::ofstream(tmp.path("m.scl"))
      << "UCLA scl 1.0\nNumRows : 2\n"
      << "CoreRow Horizontal\n  Coordinate : 0\n  Height : 8\n"
      << "  Sitewidth : 1\n  SubrowOrigin : 0  NumSites : 20\nEnd\n"
      << "CoreRow Horizontal\n  Coordinate : 8\n  Height : 8\n"
      << "  Sitewidth : 1\n  SubrowOrigin : 0  NumSites : 20\nEnd\n";

  const Design d = read_bookshelf(tmp.path("m.aux"));
  EXPECT_EQ(d.cells.size(), 3u);
  EXPECT_EQ(d.num_movable(), 2u);
  EXPECT_EQ(d.nets.size(), 1u);
  EXPECT_EQ(d.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(d.die.width(), 20.0);
  EXPECT_DOUBLE_EQ(d.die.height(), 16.0);
  // Pin offset: cell a center (1, 4) + (0.5, 1) -> cell pos (4, 8) gives
  // absolute (5.5, 13).
  EXPECT_EQ(d.pin_position(0), (Point{5.5, 13.0}));
}

}  // namespace
}  // namespace puffer
