#!/usr/bin/env bash
# Perf-smoke gate for the SoA global-placement core and the padding
# feature pipeline.
#
# Runs bench_parallel_hotpaths and bench_padding_features at a small
# PUFFER_SCALE and checks the determinism evidence they emit:
#
#   1. bit_identical must be "yes" in both -- the final placement (and
#      feature) checksums agree across PUFFER_THREADS 1/2/8, with
#      the SIMD helpers off, with the legacy scalar GP kernels, and across the
#      padding feature extractors (fast path, legacy oracle), all within
#      this run (machine-independent).
#   2. Every checksum_* field must equal the committed reference, so a
#      placement-changing regression cannot land silently even if it
#      changes all configurations consistently (tests/test_golden.cpp
#      pins the same kind of checksum in tier-1). The reference is tied
#      to the CI toolchain (x86-64, gcc/glibc): libm differences move the
#      bits legitimately. After an intentional numeric change, or a
#      toolchain bump, run this script once (it fails on the diff but
#      still writes this run's fields, and leaves the committed
#      full-scale BENCH_*.json untouched), then adopt them:
#
#        cp bench_results/perf_smoke_checksums.txt \
#           bench_results/REFERENCE_perf_smoke_checksums.txt
#
# Timings in the JSON are informational at smoke scale (CI machines are
# noisy); the full-scale numbers live in the committed BENCH_*.json.
#
# Usage: scripts/perf_smoke.sh  [BUILD_DIR=build] [PUFFER_SCALE=512]
set -euo pipefail

BUILD_DIR="${BUILD_DIR:-build}"
SCALE="${PUFFER_SCALE:-512}"
REF="bench_results/REFERENCE_perf_smoke_checksums.txt"
BENCHES=(parallel_hotpaths padding_features)

for name in "${BENCHES[@]}"; do
  if [ ! -x "$BUILD_DIR/bench/bench_$name" ]; then
    echo "missing $BUILD_DIR/bench/bench_$name -- build the repo first" >&2
    exit 2
  fi
done
if [ ! -f "$REF" ]; then
  echo "missing reference $REF -- see the header of this script" >&2
  exit 2
fi

# The benches overwrite the committed full-scale JSONs; keep copies so
# the smoke run leaves the checkout clean.
SAVED_DIR="$(mktemp -d)"
for name in "${BENCHES[@]}"; do
  OUT="bench_results/BENCH_$name.json"
  [ -f "$OUT" ] && cp "$OUT" "$SAVED_DIR/"
done
restore() {
  for name in "${BENCHES[@]}"; do
    [ -f "$SAVED_DIR/BENCH_$name.json" ] &&
      mv "$SAVED_DIR/BENCH_$name.json" "bench_results/BENCH_$name.json"
  done
  rmdir "$SAVED_DIR" 2>/dev/null || true
}

GOT="$(mktemp)"
for name in "${BENCHES[@]}"; do
  echo "== bench_$name (PUFFER_SCALE=$SCALE, PUFFER_THREADS=8) =="
  PUFFER_SCALE="$SCALE" PUFFER_THREADS=8 "$BUILD_DIR/bench/bench_$name"
  echo "== $name ==" >> "$GOT"
  grep -E '"(checksum_|bit_identical)' "bench_results/BENCH_$name.json" \
    >> "$GOT"
done

mkdir -p bench_results
cp "$GOT" bench_results/perf_smoke_checksums.txt  # CI artifact
restore

if [ "$(grep -c '"bit_identical": "yes"' "$GOT")" -ne "${#BENCHES[@]}" ]; then
  echo "FAIL: a run is not bit-identical across threads/SIMD/extractor paths:"
  cat "$GOT"
  exit 1
fi
if ! diff -u "$REF" "$GOT"; then
  echo "FAIL: checksum_* fields differ from the committed reference $REF."
  echo "If the numeric change is intentional, adopt this run's fields:"
  echo "  cp bench_results/perf_smoke_checksums.txt $REF"
  exit 1
fi
echo "PASS: bit-identical runs, checksums match the committed reference"
