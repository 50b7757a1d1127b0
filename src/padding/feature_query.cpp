#include "padding/feature_query.h"

namespace puffer {

namespace {

int levels_for(int n) {
  int lv = 1;
  while ((1 << lv) <= n) ++lv;
  return lv;  // 2^(lv-1) <= n < 2^lv
}

}  // namespace

void RowColRmq::build(const std::vector<std::int64_t>& vals, int nx, int ny) {
  nx_ = nx;
  ny_ = ny;
  cells_ = static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny);
  row_levels_ = levels_for(nx);
  col_levels_ = levels_for(ny);
  const int max_len = std::max(nx, ny);
  log2_.assign(static_cast<std::size_t>(max_len) + 1, 0);
  for (int len = 2; len <= max_len; ++len) {
    log2_[static_cast<std::size_t>(len)] =
        log2_[static_cast<std::size_t>(len / 2)] + 1;
  }
  row_table_.assign(static_cast<std::size_t>(row_levels_) * cells_, 0);
  col_table_.assign(static_cast<std::size_t>(col_levels_) * cells_, 0);
  for (int gy = 0; gy < ny_; ++gy) tabulate_row(vals, gy);
  for (int gx = 0; gx < nx_; ++gx) tabulate_col(vals, gx);
}

void RowColRmq::tabulate_row(const std::vector<std::int64_t>& vals, int gy) {
  const std::size_t row =
      static_cast<std::size_t>(gy) * static_cast<std::size_t>(nx_);
  std::int64_t* t0 = row_table_.data() + row;
  const std::int64_t* src = vals.data() + row;
  for (int x = 0; x < nx_; ++x) t0[x] = src[x];
  for (int k = 1; k < row_levels_; ++k) {
    const std::int64_t* prev = row_table_.data() + (k - 1) * cells_ + row;
    std::int64_t* cur = row_table_.data() + k * cells_ + row;
    const int half = 1 << (k - 1);
    for (int x = 0; x + (1 << k) <= nx_; ++x) {
      cur[x] = std::max(prev[x], prev[x + half]);
    }
  }
}

void RowColRmq::tabulate_col(const std::vector<std::int64_t>& vals, int gx) {
  const std::size_t col =
      static_cast<std::size_t>(gx) * static_cast<std::size_t>(ny_);
  std::int64_t* t0 = col_table_.data() + col;
  for (int y = 0; y < ny_; ++y) {
    t0[y] = vals[static_cast<std::size_t>(y) * static_cast<std::size_t>(nx_) +
                 static_cast<std::size_t>(gx)];
  }
  for (int k = 1; k < col_levels_; ++k) {
    const std::int64_t* prev = col_table_.data() + (k - 1) * cells_ + col;
    std::int64_t* cur = col_table_.data() + k * cells_ + col;
    const int half = 1 << (k - 1);
    for (int y = 0; y + (1 << k) <= ny_; ++y) {
      cur[y] = std::max(prev[y], prev[y + half]);
    }
  }
}

void SummedAreaTable::build(const std::vector<std::int64_t>& vals, int nx,
                            int ny) {
  nx_ = nx;
  ny_ = ny;
  const std::size_t stride = static_cast<std::size_t>(nx) + 1;
  prefix_.assign(stride * (static_cast<std::size_t>(ny) + 1), 0);
  for (int gy = 0; gy < ny; ++gy) {
    const std::int64_t* src =
        vals.data() + static_cast<std::size_t>(gy) * static_cast<std::size_t>(nx);
    const std::int64_t* up = prefix_.data() + static_cast<std::size_t>(gy) * stride;
    std::int64_t* out = prefix_.data() + (static_cast<std::size_t>(gy) + 1) * stride;
    std::int64_t run = 0;
    for (int gx = 0; gx < nx; ++gx) {
      run += src[gx];
      out[gx + 1] = up[gx + 1] + run;
    }
  }
}

}  // namespace puffer
