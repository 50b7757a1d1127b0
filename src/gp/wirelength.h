// Weighted-average (WA) wirelength model and its analytic gradient
// (paper Eq. 2, from Hsu et al. [15], [16]).
//
// The model smooths max/min over the pins of a net:
//   W_ex = sum_j x_j e^{x_j/g} / sum_j e^{x_j/g}
//        - sum_j x_j e^{-x_j/g} / sum_j e^{-x_j/g}
// and analogously in y. Exponentials are shifted by the per-net max/min
// for numerical stability. The gradient is accumulated per *cell* (all
// pins of a cell move rigidly with it during global placement).
//
// The default implementation runs over the GpSoA flat arrays in two
// passes: pass A (parallel over nets, fixed kNetGrain/kMaxNetChunks
// decomposition) computes each net's accumulator sums in L1-resident
// per-net buffers -- calling std::exp only for values not known in
// advance (1 at the max/min pins; the min pin's max-side value equals
// the max pin's min-side one) -- and stores one finished gradient term
// per movable slot; pass B (parallel over cells) gathers those terms
// through the transposed cell->slot CSR, folding them grouped by net
// chunk in chunk order -- exactly the association the scalar path's
// per-chunk-buffer merge produces, so the result is bit-identical to the
// legacy kernel and, as always, to itself across PUFFER_THREADS. The
// x and y derivative terms of a pin are the two lanes of one simd pair
// (common/simd.h), bit-identical with the SIMD helpers on or off. The legacy
// scalar path (per-chunk gradient buffers + ordered merge) is kept
// behind use_legacy_kernels() for one PR as the bit-identity oracle and
// bench baseline replica.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gp/soa.h"
#include "netlist/design.h"

namespace puffer {

class WaWirelength {
 public:
  // Snapshots the netlist structure (net->pin->cell topology and pin
  // offsets). Cell positions are passed per evaluation, so the engine can
  // evaluate at Nesterov reference points without mutating the design.
  explicit WaWirelength(const Design& design);
  // Shares an existing mirror (the engine's) instead of building one.
  explicit WaWirelength(std::shared_ptr<const GpSoA> soa);

  // Test/bench hook (one-PR lifetime): route evaluate() through the
  // legacy scalar kernel instead of the SoA two-pass kernel. Both paths
  // produce bit-identical results; the hook exists to prove it.
  void use_legacy_kernels(bool on) { legacy_ = on; }

  // Evaluates total weighted WA wirelength at the given movable-cell
  // center positions, and writes dW/dx, dW/dy per movable cell. Needs
  // gamma > 0 and finite positions.
  // `xc`, `yc` are indexed by movable-cell ordinal (see movable_cells());
  // entries past the movable count (engine filler elements) are ignored.
  double evaluate(const std::vector<double>& xc, const std::vector<double>& yc,
                  double gamma, std::vector<double>& grad_x,
                  std::vector<double>& grad_y) const;

  // True HPWL at the same positions (for reporting and the lambda update).
  double hpwl(const std::vector<double>& xc, const std::vector<double>& yc) const;

  // HPWL computed by the last evaluate() on the SoA path, at the same
  // positions, for free out of pass A's per-net min/max (bit-identical
  // to hpwl() at those positions). Valid only after evaluate() and only
  // when the legacy hook is off.
  double last_hpwl() const { return hpwl_last_; }

  // Movable cell ids in ordinal order; the engine shares this indexing.
  const std::vector<CellId>& movable_cells() const { return soa_->cell_ids; }
  // Ordinal of a cell id, or -1 if the cell is fixed.
  const std::vector<std::int32_t>& ordinal_of() const {
    return soa_->ordinal_of_cell;
  }

  // Number of pins on each movable cell (Nesterov preconditioner term).
  const std::vector<double>& pin_counts() const { return soa_->pin_count; }

  const GpSoA& soa() const { return *soa_; }

 private:
  double evaluate_soa(const std::vector<double>& xc,
                      const std::vector<double>& yc, double gamma,
                      std::vector<double>& grad_x,
                      std::vector<double>& grad_y) const;
  double evaluate_legacy(const std::vector<double>& xc,
                         const std::vector<double>& yc, double gamma,
                         std::vector<double>& grad_x,
                         std::vector<double>& grad_y) const;
  double hpwl_chunk(const std::vector<double>& xc,
                    const std::vector<double>& yc, std::int64_t nb,
                    std::int64_t ne) const;

  std::shared_ptr<const GpSoA> soa_;
  bool legacy_ = false;

  // --- SoA pass-A scratch ---------------------------------------------
  // Per-slot gradient terms w * (d_plus - d_minus), x/y interleaved
  // (dw_[2s], dw_[2s+1]) so pass B streams one array; chunk c writes
  // only its nets' slot range (net-major ranges are disjoint per chunk),
  // so the array is safely shared across workers. Fixed-pin slots are
  // never read by pass B and stay unwritten.
  mutable std::vector<double> dw_;
  // Per-chunk net-local buffers (coordinates and the max-/min-side
  // shifted exponentials, x/y interleaved), sized once to twice the
  // maximum net degree.
  struct NetScratch {
    std::vector<double> c, ep, em;
  };
  mutable std::vector<NetScratch> net_scratch_;
  mutable std::vector<double> chunk_total_, chunk_hpwl_;
  mutable double hpwl_last_ = 0.0;

  // --- legacy per-chunk gradient scratch ------------------------------
  mutable std::vector<std::vector<double>> scratch_gx_, scratch_gy_;
  // AoS netlist replica of the retired kernel (one heap-allocated pin
  // vector per net), built on first legacy evaluate. The baseline
  // benchmark leg must pay the same pointer-chasing the old kernel paid,
  // or the measured speedup would be against a strawman.
  struct LegacyNetPin {
    std::int32_t ordinal;
    double ox, oy, fx, fy;
  };
  struct LegacyNet {
    double weight;
    std::vector<LegacyNetPin> pins;
  };
  mutable std::vector<LegacyNet> legacy_nets_;
  void build_legacy_nets() const;
};

}  // namespace puffer
