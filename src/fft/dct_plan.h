// Preplanned, allocation-free 2D cosine/sine transforms.
//
// The free functions in dct.h recompute twiddle factors and allocate
// several vectors per line transform; fine for one-off use, but the
// electrostatic solver runs a forward spectrum plus two inverse field
// evaluations per Nesterov gradient -- thousands of times per flow. A
// DctPlan2D hoists everything reusable out of the loop:
//
//   * bit-reversal permutations and per-stage FFT twiddle tables (built
//     with the same recurrence the free fft() uses, so every transform
//     is bit-identical to its dct.h counterpart);
//   * the DCT-II / DCT-III boundary rotations exp(+-i*pi*k/(2N));
//   * per-chunk line and column-block scratch -- so a transform performs
//     no heap allocation after construction.
//
// A 2D transform is a row pass (contiguous lines of length nx, `in` ->
// `out`) followed by a column pass in place on `out`: each chunk copies
// blocks of 8 adjacent columns (kColBlock) into its scratch as contiguous
// lines, transforms them there and copies them back, so no pass needs a
// full-grid transpose or intermediate. fields_2d() batches the two
// inverse field evaluations of the Poisson solve into one row pass and
// one column pass. Lines are transformed two at a time as the two lanes
// of a simd pair (common/simd.h): each lane runs the single-line scalar
// arithmetic unchanged, so pairing changes no bits, with the SIMD
// helpers on or off. Every pass fans out with the deterministic chunk
// decomposition; chunk c writes only its own lines (or columns) and
// scratch, so results are worker-count independent.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace puffer {

class DctPlan2D {
 public:
  // nx, ny: grid sizes, powers of two. Throws std::invalid_argument
  // otherwise (same contract as the free transforms).
  DctPlan2D(std::size_t nx, std::size_t ny);

  // Each transform reads `in` (size nx*ny, row-major, x fastest) and
  // writes `out` (resized to nx*ny). `in` and `out` may alias.
  // Semantics match the same-named free functions in dct.h bit-for-bit.
  void dct2_2d(const std::vector<double>& in, std::vector<double>& out) const;
  void dct3_raw_2d(const std::vector<double>& in,
                   std::vector<double>& out) const;
  void idxst_dct3_2d(const std::vector<double>& in,
                     std::vector<double>& out) const;
  void dct3_idxst_2d(const std::vector<double>& in,
                     std::vector<double>& out) const;

  // Both field evaluations of the Poisson solve in one batched pipeline:
  // out_x = idxst_dct3_2d(in_x) and out_y = dct3_idxst_2d(in_y), bit for
  // bit. in_x may alias out_x and in_y out_y; the pairs must not overlap.
  void fields_2d(const std::vector<double>& in_x,
                 const std::vector<double>& in_y, std::vector<double>& out_x,
                 std::vector<double>& out_y) const;

  std::size_t nx() const { return nx_; }
  std::size_t ny() const { return ny_; }

 private:
  using cd = std::complex<double>;

  // 1D machinery for one line length.
  struct LinePlan {
    std::size_t n = 0;
    std::vector<std::uint32_t> bitrev;
    std::vector<cd> tw_fwd, tw_inv;  // per-stage twiddles, concatenated
    std::vector<cd> rot_fwd;         // exp(-i*pi*k/(2N)) (DCT-II output)
    std::vector<cd> rot_inv;         // exp(+i*pi*k/(2N)) (IDCT input)
  };

  // Per-chunk scratch: the lane-interleaved real and imaginary parts of
  // a line pair (4 * line doubles), staging for two flipped lines, and
  // the column pass's block of kColBlock columns (contiguous lines of ny).
  struct Scratch {
    std::vector<double> pair;
    std::vector<double> flip;
    std::vector<double> block;
  };

  enum class LineOp { kDct2, kDct3, kIdxst };

  // One grid of a (possibly batched) 2D transform.
  struct Grid {
    const double* in;
    double* out;
    LineOp op_x, op_y;
  };

  static LinePlan make_line_plan(std::size_t n);

  // Line-pair kernels: lane 0 transforms in0 -> out0 and lane 1 in1 ->
  // out1 with exactly the scalar single-line arithmetic. Each reads its
  // whole input before writing, so in == out is safe; a single line is
  // run as a pair with itself (in0 == in1, out0 == out1).
  template <class P>
  static void fft_pair(double* re, double* im, const LinePlan& p,
                       bool invert);
  template <class P>
  static void dct2_pair(const double* x0, const double* x1, double* out0,
                        double* out1, const LinePlan& p, Scratch& s);
  template <class P>
  static void dct3_pair(const double* x0, const double* x1, double* out0,
                        double* out1, const LinePlan& p, Scratch& s);
  static void run_pair(LineOp op, const double* in0, const double* in1,
                       double* out0, double* out1, const LinePlan& p,
                       Scratch& s);

  // Applies `op_x` along x then `op_y` along y.
  void apply(const std::vector<double>& in, std::vector<double>& out,
             LineOp op_x, LineOp op_y) const;
  // Row pass then column pass over `n` grids whose outputs are sized.
  void run_grids(const Grid* grids, std::size_t n) const;

  std::size_t nx_, ny_;
  LinePlan px_, py_;
  mutable std::vector<Scratch> scratch_;  // indexed by chunk id
};

}  // namespace puffer
