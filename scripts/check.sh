#!/usr/bin/env bash
# Strict pre-merge gate: configure with warnings-as-errors, build everything,
# run the full test suite. Uses a separate build tree (build-check/) so the
# -Werror flags don't dirty an existing developer build/.
#
#   $ scripts/check.sh            # or: cmake --build build --target check
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${GBMO_CHECK_BUILD_DIR:-$repo/build-check}"

cmake -B "$build" -S "$repo" -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$build" -j "$(nproc)"
ctest --test-dir "$build" --output-on-failure -j "$(nproc)"

# Race/memory-checker stage: the fast-labeled suite again with the sim
# substrate's checker forced on (GBMO_SIM_CHECK=1 arms report mode; any
# violation shows up in the checker suite's zero-violation assertions and the
# fuzz harness's hard-fail runs). See src/sim/checker.h and DESIGN.md §7.
GBMO_SIM_CHECK=1 ctest --test-dir "$build" --output-on-failure \
  -j "$(nproc)" -L fast
echo "check: sim-check stage OK (fast suite with GBMO_SIM_CHECK=1)"

# Chaos stage: the fault-injection suite (deterministic transient faults,
# device-loss failover, checkpoint/resume, serve fallback) — every trained
# model must be bitwise-identical to its clean run. The "distributed" label's
# chaos subset (whole-node kill mid-round, all-devices-lost collective edges,
# leader re-election) rides along via the shared chaos label routing below.
# See src/sim/faults.h and DESIGN.md §9/§13.
ctest --test-dir "$build" --output-on-failure -j "$(nproc)" -L chaos
echo "check: chaos stage OK (fault-injection suite)"

# Distributed stage: the multi-node topology suite (DESIGN.md §13). The fast
# subset (per-mode bitwise identity, tie-break and traffic-accounting
# regressions) plus the full thread x topology sweep and the node-kill
# failover tests — all three distribution strategies must train the
# bitwise-identical model to one device on every topology.
ctest --test-dir "$build" --output-on-failure -j "$(nproc)" -L distributed
echo "check: distributed stage OK (topology sweep + node-kill failover)"

# Distributed crossover bench smoke at reduced scale: exits non-zero unless
# every mode/bandwidth run is bitwise-identical to the single-device model
# and voting-parallel moves strictly fewer inter-node bytes than
# data-parallel. Writes BENCH_distributed.json.
"$build/bench/bench_distributed" --rows 600 --features 32 --trees 6 --depth 4
echo "check: bench_distributed smoke OK (bitwise + voting < data inter-bytes)"

# Chaos fuzz stage: the differential harness with the fault injector armed —
# transient faults fire inside every registry system's kernels and the
# 1-vs-4-thread bitwise and reference-agreement invariants must still hold.
GBMO_FUZZ_FAULT_RATE=0.02 GBMO_FUZZ_ITERS=8 "$build/tests/gbmo_fuzz"
echo "check: chaos fuzz stage OK (GBMO_FUZZ_FAULT_RATE=0.02)"

# Retry-overhead bench at reduced scale: exits non-zero unless every faulted
# run reproduces the clean model bitwise.
"$build/bench/bench_faults" --rows 1200 --trees 10 --depth 5 --rates "0,0.05"
echo "check: bench_faults smoke OK (faulted models bitwise identical)"

# Inference engine smoke: reduced-scale bench run; exits non-zero unless the
# compiled engine's predictions are bitwise identical to the reference
# device path (NaN cells included).
"$build/bench/bench_inference" --rows 4000 --train-rows 1200 --trees 20 --repeat 1
echo "check: bench_inference smoke OK (engines bitwise identical)"

# Multi-tenant serve smoke: reduced-scale load run against three deployed
# models with a mid-flight hot-swap; exits non-zero unless zero requests were
# dropped or failed, the swap was observed by live traffic, and every score
# matched the serving version's scalar reference bitwise. See DESIGN.md §10.
"$build/bench/bench_serve_load" --clients 4 --requests 80 --train-rows 400 \
  --trees 8 --rows 256
echo "check: bench_serve_load smoke OK (hot-swap with zero dropped requests)"

# Missing-value fuzz stage: the differential harness with a heavier NaN cell
# fraction, exercising quantize->train->predict routing across the registry.
GBMO_FUZZ_NAN_FRAC=0.15 GBMO_FUZZ_ITERS=10 "$build/tests/gbmo_fuzz"
echo "check: NaN fuzz stage OK (GBMO_FUZZ_NAN_FRAC=0.15)"

# Growth-policy & sampling fuzz stage: a longer differential run so the
# leaf-wise / max_leaves / EFB / GOSS draws (see draw_case) all land multiple
# times, each checked for 1-vs-4-thread bitwise equality and scalar-reference
# agreement. DESIGN.md §11.
GBMO_FUZZ_ITERS=24 "$build/tests/gbmo_fuzz"
echo "check: growth/sampling fuzz stage OK (leaf-wise + EFB + GOSS draws)"

# Bin-sweep bench smoke at reduced scale: exits non-zero unless leaf-wise
# models >= level-wise seconds at an equal leaf budget on the dense workload
# and EFB cuts histogram-phase time >= 2x vs the dense scan on the sparse one.
"$build/bench/bench_bins" 2
echo "check: bench_bins smoke OK (growth-policy + EFB acceptance shapes)"

# Out-of-core stage: streaming-equivalence suite (sketch contract + budget
# ladder, already in the full ctest run above, re-run here by name so a
# regression is attributed to this stage) plus the budget-sweep bench at
# reduced scale — exits non-zero unless every out-of-core model is
# bitwise-identical to in-core and modeled time is monotone in the budget.
# DESIGN.md §12.
ctest --test-dir "$build" --output-on-failure -j "$(nproc)" \
  -R 'Sketch|OutOfCore|MemoryLedger'
"$build/bench/bench_out_of_core" --rows 1024 --trees 8 --depth 5 \
  --chunk-rows 128
echo "check: out-of-core stage OK (streaming equivalence + budget sweep)"

# Workloads stage: categorical features + pairwise ranking (DESIGN.md §14).
# The labeled ctest subset covers the ordered-statistics encoder property
# tests, the hand-computed NDCG/LambdaRank fixtures, the golden-file
# round-trips, the bitwise thread x topology x fault sweeps, and a fuzz
# smoke that forces categorical columns on every draw while alternating the
# ranking objective. The bench exits non-zero unless every distributed model
# is bitwise-identical to one device and both quality gates hold.
ctest --test-dir "$build" --output-on-failure -j "$(nproc)" -L workloads
"$build/bench/bench_workloads" --rows 1200 --queries 120 --trees 8 --depth 4
echo "check: workloads stage OK (categorical + ranking, bitwise + quality gates)"

# Optional ThreadSanitizer stage for the parallel block scheduler and thread
# pool (GBMO_CHECK_TSAN=0 skips; also skipped when the toolchain can't link
# -fsanitize=thread, e.g. missing libtsan).
if [[ "${GBMO_CHECK_TSAN:-1}" != "0" ]]; then
  tsan_probe="$(mktemp -d)"
  trap 'rm -rf "$tsan_probe"' EXIT
  echo 'int main(){return 0;}' > "$tsan_probe/probe.cpp"
  if "${CXX:-c++}" -fsanitize=thread "$tsan_probe/probe.cpp" -o "$tsan_probe/probe" 2>/dev/null; then
    tsan_build="${GBMO_CHECK_TSAN_BUILD_DIR:-$repo/build-tsan}"
    cmake -B "$tsan_build" -S "$repo" -DGBMO_SANITIZE=thread
    cmake --build "$tsan_build" -j "$(nproc)" --target gbmo_tests
    # Force multiple scheduler workers so TSan sees cross-thread traffic even
    # on small grids / 1-core hosts. Only commit-free launches fan out
    # (ordered ones run inline at any width, sim/launch.h): gradients, score
    # updates and the compiled engine's route and reduce kernels, which
    # CompiledModel runs at 1 and 4 threads.
    GBMO_SIM_THREADS=4 ctest --test-dir "$tsan_build" --output-on-failure \
      -R 'ThreadPool|SimParallel|CompiledModel|Registry\.|ModelServer\.|Serve\.Batcher|OutOfCore|Distributed|Workloads'
    echo "check: TSan stage OK (ThreadPool + SimParallel + CompiledModel + serve registry/batcher + out-of-core + distributed + workloads under -fsanitize=thread)"
  else
    echo "check: TSan stage skipped (toolchain cannot link -fsanitize=thread)"
  fi
fi

# Optional AddressSanitizer stage (GBMO_CHECK_ASAN=0 skips; also skipped when
# the toolchain can't link -fsanitize=address) over the checker's own tests
# (the shadow bookkeeping plus deliberately out-of-bounds toy kernels must
# stay memory-safe under suppression), the data/bin-pack property tests, the
# model loader's golden and malformed-file tests, the compiled engine and
# serving tests (the engine's routing loop reads the model through raw
# pointers), and the accessor, histogram, split and grower tests (the
# builders' row compaction, the views' bulk adds and the dense histogram
# passes index through raw and __restrict pointers).
if [[ "${GBMO_CHECK_ASAN:-1}" != "0" ]]; then
  asan_probe="$(mktemp -d)"
  trap 'rm -rf "$asan_probe"' EXIT
  echo 'int main(){return 0;}' > "$asan_probe/probe.cpp"
  if "${CXX:-c++}" -fsanitize=address "$asan_probe/probe.cpp" -o "$asan_probe/probe" 2>/dev/null; then
    asan_build="${GBMO_CHECK_ASAN_BUILD_DIR:-$repo/build-asan}"
    cmake -B "$asan_build" -S "$repo" -DGBMO_SANITIZE=address
    cmake --build "$asan_build" -j "$(nproc)" --target gbmo_tests
    GBMO_SIM_CHECK=1 ctest --test-dir "$asan_build" --output-on-failure \
      -R 'SimChecker|QuantizeProperties|BinPackProperties|ModelGolden|Faults|Checkpoint|Sketch|OutOfCore|CompiledModel|Serve|ModelServer|Registry\.|BuilderEquivalence|AdaptiveBuilder|HistogramLayoutTest|SubtractHistogramsTest|HistogramBuilders|AccessorsTest|Split|GrowerTest'
    echo "check: ASan stage OK (checker + data property + model loader + fault-injection + out-of-core + compiled engine + serving + accessor/histogram/split/grower tests under -fsanitize=address)"
  else
    echo "check: ASan stage skipped (toolchain cannot link -fsanitize=address)"
  fi
fi
echo "check: OK (warnings-as-errors build + full test suite)"
