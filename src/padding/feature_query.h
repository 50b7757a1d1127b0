// O(1) range queries over quantized-int64 feature maps.
//
// Two structures back the padding feature pipeline (padding/features.h):
//
//  * RowColRmq -- per-row and per-column sparse-table range-maximum
//    queries over a row-major int64 grid. Build is O(nx*ny*log) once;
//    row_max/col_max answer any span in O(1), turning best_path_cg's
//    Eq. 13 span maxima from O(span) scans into constant time.
//
//  * SummedAreaTable -- inclusive 2D prefix sums of an int64 grid, so any
//    window sum (the CNN-style sur_cg/sur_pin means, Eq. 11/12) is four
//    lookups. Because the inputs are quantized integers the prefix sums
//    are exact and a window sum is independent of evaluation order --
//    the bit-identity anchor of the parallel feature pipeline.
//
// Both operate on plain vectors (row-major, index gy * nx + gx) rather
// than Map2D so the extractor can share one quantized buffer between
// them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace puffer {

class RowColRmq {
 public:
  // Tabulates both directions over `vals` (row-major nx * ny).
  void build(const std::vector<std::int64_t>& vals, int nx, int ny);

  // Max over [x0, x1] of row gy (inclusive, x0 <= x1).
  std::int64_t row_max(int gy, int x0, int x1) const {
    const int k = log2_[static_cast<std::size_t>(x1 - x0 + 1)];
    const std::size_t base =
        static_cast<std::size_t>(k) * cells_ +
        static_cast<std::size_t>(gy) * static_cast<std::size_t>(nx_);
    return std::max(row_table_[base + static_cast<std::size_t>(x0)],
                    row_table_[base + static_cast<std::size_t>(x1 - (1 << k) + 1)]);
  }
  // Max over [y0, y1] of column gx (inclusive, y0 <= y1).
  std::int64_t col_max(int gx, int y0, int y1) const {
    const int k = log2_[static_cast<std::size_t>(y1 - y0 + 1)];
    const std::size_t base =
        static_cast<std::size_t>(k) * cells_ +
        static_cast<std::size_t>(gx) * static_cast<std::size_t>(ny_);
    return std::max(col_table_[base + static_cast<std::size_t>(y0)],
                    col_table_[base + static_cast<std::size_t>(y1 - (1 << k) + 1)]);
  }

  int nx() const { return nx_; }
  int ny() const { return ny_; }

 private:
  void tabulate_row(const std::vector<std::int64_t>& vals, int gy);
  void tabulate_col(const std::vector<std::int64_t>& vals, int gx);

  int nx_ = 0, ny_ = 0;
  int row_levels_ = 0, col_levels_ = 0;
  std::size_t cells_ = 0;  // nx_ * ny_, the per-level stride
  // Level-major tables: row_table_[k][gy][x] = max over [x, x + 2^k) of
  // row gy; col_table_[k][gx][y] likewise, column-major for locality.
  std::vector<std::int64_t> row_table_, col_table_;
  std::vector<int> log2_;  // floor(log2(len)) for len in [0, max(nx,ny)]
};

class SummedAreaTable {
 public:
  // Builds inclusive prefix sums over `vals` (row-major nx * ny).
  void build(const std::vector<std::int64_t>& vals, int nx, int ny);

  // Sum over the inclusive window [x0, x1] x [y0, y1] (x0 <= x1, y0 <= y1).
  std::int64_t window_sum(int x0, int x1, int y0, int y1) const {
    const std::size_t stride = static_cast<std::size_t>(nx_) + 1;
    const std::size_t top = static_cast<std::size_t>(y0) * stride;
    const std::size_t bot = static_cast<std::size_t>(y1 + 1) * stride;
    return prefix_[bot + static_cast<std::size_t>(x1 + 1)] -
           prefix_[bot + static_cast<std::size_t>(x0)] -
           prefix_[top + static_cast<std::size_t>(x1 + 1)] +
           prefix_[top + static_cast<std::size_t>(x0)];
  }

 private:
  int nx_ = 0, ny_ = 0;
  // (nx+1) x (ny+1) with a zero top row / left column.
  std::vector<std::int64_t> prefix_;
};

}  // namespace puffer
