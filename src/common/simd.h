// Guarded SIMD helpers for the element-wise placement kernels.
//
// Only operations that are bit-identical to the scalar loop are offered:
// per-lane IEEE add/sub/mul/div/min/max on independent elements (no FMA
// contraction, no reassociated reductions). That keeps the determinism
// contract symmetric: switching the vector path off never changes a
// single bit of any kernel's output, so the SIMD path needs no separate
// golden data.
//
// Dispatch is runtime (simd::enabled()), compiled in only when the
// target supports SSE2 (always true on x86-64); everything falls back to
// the scalar loop otherwise. The vector path is on by default; tests and
// benches switch it off with simd::set_enabled() to prove the contract.
#pragma once

#include <algorithm>
#include <cstddef>

#if defined(__SSE2__) || defined(_M_X64) || defined(__x86_64__)
#define PUFFER_SIMD_SSE2 1
#include <emmintrin.h>
#endif

namespace puffer::simd {

// Runtime switch, on until set_enabled(false).
bool enabled();
void set_enabled(bool on);

// "sse2" when the vector path is compiled in and enabled, else "scalar".
const char* active_isa();

// out[i] = a[i] - s * b[i]  (the Nesterov position update).
inline void sub_scaled(const double* a, const double* b, double s, double* out,
                       std::size_t n) {
#if PUFFER_SIMD_SSE2
  if (enabled()) {
    const __m128d vs = _mm_set1_pd(s);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      const __m128d va = _mm_loadu_pd(a + i);
      const __m128d vb = _mm_loadu_pd(b + i);
      _mm_storeu_pd(out + i, _mm_sub_pd(va, _mm_mul_pd(vs, vb)));
    }
    for (; i < n; ++i) out[i] = a[i] - s * b[i];
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] - s * b[i];
}

// out[i] = a[i] + s * (a[i] - b[i])  (the Nesterov extrapolation).
inline void extrapolate(const double* a, const double* b, double s,
                        double* out, std::size_t n) {
#if PUFFER_SIMD_SSE2
  if (enabled()) {
    const __m128d vs = _mm_set1_pd(s);
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      const __m128d va = _mm_loadu_pd(a + i);
      const __m128d vb = _mm_loadu_pd(b + i);
      _mm_storeu_pd(out + i,
                    _mm_add_pd(va, _mm_mul_pd(vs, _mm_sub_pd(va, vb))));
    }
    for (; i < n; ++i) out[i] = a[i] + s * (a[i] - b[i]);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + s * (a[i] - b[i]);
}

// out[i] = a[i] + b[i]  (density-map accumulation).
inline void add(const double* a, const double* b, double* out,
                std::size_t n) {
#if PUFFER_SIMD_SSE2
  if (enabled()) {
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      _mm_storeu_pd(out + i,
                    _mm_add_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i)));
    }
    for (; i < n; ++i) out[i] = a[i] + b[i];
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

// x[i] = clamp(x[i], lo[i], hi[i]); lo/hi are per-element (per-cell half
// extents). The scalar path mirrors MAXPD/MINPD operand semantics
// ((a > b) ? a : b, second operand on ties) so on/off stays bit-equal
// even in the +-0 corner.
inline void clamp_to(double* x, const double* lo, const double* hi,
                     std::size_t n) {
#if PUFFER_SIMD_SSE2
  if (enabled()) {
    std::size_t i = 0;
    for (; i + 2 <= n; i += 2) {
      __m128d v = _mm_loadu_pd(x + i);
      v = _mm_max_pd(v, _mm_loadu_pd(lo + i));
      v = _mm_min_pd(v, _mm_loadu_pd(hi + i));
      _mm_storeu_pd(x + i, v);
    }
    for (; i < n; ++i) {
      double v = x[i];
      v = v > lo[i] ? v : lo[i];
      v = v < hi[i] ? v : hi[i];
      x[i] = v;
    }
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    double v = x[i];
    v = v > lo[i] ? v : lo[i];
    v = v < hi[i] ? v : hi[i];
    x[i] = v;
  }
}

// Two independent double lanes -- e.g. the x and y terms of one pin --
// for kernels that evaluate the same expression on both. ScalarPair is
// the plain form and VecPair one SSE2 register; each operator is one
// per-lane IEEE operation, so a kernel templated on the pair type gets
// the same bits from either. Kernels pick VecPair when enabled() and
// ScalarPair otherwise, once per call, like the helpers above.
struct ScalarPair {
  double x, y;
  static ScalarPair set(double a, double b) { return {a, b}; }
  static ScalarPair splat(double v) { return {v, v}; }
  static ScalarPair load(const double* p) { return {p[0], p[1]}; }
  void store(double* p) const {
    p[0] = x;
    p[1] = y;
  }
  // Lane 0 to *a, lane 1 to *b.
  void split(double* a, double* b) const {
    *a = x;
    *b = y;
  }
  friend ScalarPair operator+(ScalarPair a, ScalarPair b) {
    return {a.x + b.x, a.y + b.y};
  }
  friend ScalarPair operator-(ScalarPair a, ScalarPair b) {
    return {a.x - b.x, a.y - b.y};
  }
  friend ScalarPair operator*(ScalarPair a, ScalarPair b) {
    return {a.x * b.x, a.y * b.y};
  }
  friend ScalarPair operator/(ScalarPair a, ScalarPair b) {
    return {a.x / b.x, a.y / b.y};
  }
};

#if PUFFER_SIMD_SSE2
struct VecPair {
  __m128d v;
  static VecPair set(double a, double b) { return {_mm_set_pd(b, a)}; }
  static VecPair splat(double s) { return {_mm_set1_pd(s)}; }
  static VecPair load(const double* p) { return {_mm_loadu_pd(p)}; }
  void store(double* p) const { _mm_storeu_pd(p, v); }
  void split(double* a, double* b) const {
    _mm_storel_pd(a, v);
    _mm_storeh_pd(b, v);
  }
  friend VecPair operator+(VecPair a, VecPair b) {
    return {_mm_add_pd(a.v, b.v)};
  }
  friend VecPair operator-(VecPair a, VecPair b) {
    return {_mm_sub_pd(a.v, b.v)};
  }
  friend VecPair operator*(VecPair a, VecPair b) {
    return {_mm_mul_pd(a.v, b.v)};
  }
  friend VecPair operator/(VecPair a, VecPair b) {
    return {_mm_div_pd(a.v, b.v)};
  }
};
#else
using VecPair = ScalarPair;
#endif

}  // namespace puffer::simd
