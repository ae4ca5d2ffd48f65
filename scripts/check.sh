#!/usr/bin/env bash
# Strict pre-merge gate: configure with warnings-as-errors, build everything,
# run the full test suite. Uses a separate build tree (build-check/) so the
# -Werror flags don't dirty an existing developer build/.
#
#   $ scripts/check.sh            # or: cmake --build build --target check
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${GBMO_CHECK_BUILD_DIR:-$repo/build-check}"

# True when the toolchain can link -fsanitize=$1. The probe directory is
# removed before returning.
sanitizer_links() {
  local probe status=0
  probe="$(mktemp -d)"
  echo 'int main(){return 0;}' > "$probe/probe.cpp"
  "${CXX:-c++}" -fsanitize="$1" "$probe/probe.cpp" -o "$probe/probe" \
    2>/dev/null || status=$?
  rm -rf "$probe"
  return "$status"
}

cmake -B "$build" -S "$repo" -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$build" -j "$(nproc)"
# Every test once, whatever its label (fast, slow, chaos, distributed,
# workloads, fuzz — tests/CMakeLists.txt): the fault-injection suite, the
# multi-node topology sweep and node-kill failover, the streaming-equivalence
# suite, the categorical + ranking workloads and the 50-iteration
# differential fuzz run all ride this one run. The later stages re-run tests
# only under a different environment (checker armed, fault rate, NaN
# fraction, sanitizers), plus the bench smokes.
ctest --test-dir "$build" --output-on-failure -j "$(nproc)"

# Race/memory-checker stage: the fast-labeled suite again with the sim
# substrate's checker forced on (GBMO_SIM_CHECK=1 arms report mode; any
# violation shows up in the checker suite's zero-violation assertions and the
# fuzz harness's hard-fail runs). See src/sim/checker.h and DESIGN.md §7.
GBMO_SIM_CHECK=1 ctest --test-dir "$build" --output-on-failure \
  -j "$(nproc)" -L fast
echo "check: sim-check stage OK (fast suite with GBMO_SIM_CHECK=1)"

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

# Bin-sweep bench smoke at reduced scale: exits non-zero unless leaf-wise
# models >= level-wise seconds at an equal leaf budget on the dense workload
# and EFB cuts histogram-phase time >= 2x vs the dense scan on the sparse one.
"$build/bench/bench_bins" 2
echo "check: bench_bins smoke OK (growth-policy + EFB acceptance shapes)"

# Out-of-core budget-sweep bench at reduced scale: exits non-zero unless
# every out-of-core model is bitwise-identical to in-core and modeled time
# is monotone in the budget. DESIGN.md §12.
"$build/bench/bench_out_of_core" --rows 1024 --trees 8 --depth 5 \
  --chunk-rows 128
echo "check: bench_out_of_core smoke OK (budget sweep)"

# Workloads bench smoke: categorical features + pairwise ranking (DESIGN.md
# §14). Exits non-zero unless every distributed model is bitwise-identical
# to one device and both quality gates hold.
"$build/bench/bench_workloads" --rows 1200 --queries 120 --trees 8 --depth 4
echo "check: bench_workloads smoke OK (categorical + ranking, bitwise + quality gates)"

# Benchmark self-check: builds perfbench from src/ (perfbench/run.py, into
# .bench_build/) and runs all three workloads in both modes at tiny scale. It
# checks every fit, batch and reply bitwise and that every metric
# BENCHMARK.json names is reported, so a change that breaks an API the
# benchmark compiles against, or its results, fails here.
(cd "$repo" && python3 perfbench/selfcheck.py)
echo "check: perfbench self-check OK (all workloads, both modes, tiny scale)"

# Optional ThreadSanitizer stage for the parallel block scheduler and thread
# pool (GBMO_CHECK_TSAN=0 skips; also skipped when the toolchain can't link
# -fsanitize=thread, e.g. missing libtsan).
if [[ "${GBMO_CHECK_TSAN:-1}" != "0" ]]; then
  if sanitizer_links thread; then
    tsan_build="${GBMO_CHECK_TSAN_BUILD_DIR:-$repo/build-tsan}"
    cmake -B "$tsan_build" -S "$repo" -DGBMO_SANITIZE=thread
    cmake --build "$tsan_build" -j "$(nproc)" --target gbmo_tests
    # Force multiple scheduler workers so TSan sees cross-thread traffic even
    # on small grids / 1-core hosts. Only commit-free launches fan out
    # (ordered ones run inline at any width, sim/launch.h): gradients, score
    # updates and the compiled engine's route and reduce kernels, which
    # CompiledModel runs at 1 and 4 threads. ServeFaults carries engine
    # exceptions through the batcher's futures and drains in_flight_ on the
    # throw path.
    GBMO_SIM_THREADS=4 ctest --test-dir "$tsan_build" --output-on-failure \
      -R 'ThreadPool|SimParallel|CompiledModel|Registry\.|ModelServer\.|Serve\.Batcher|ServeFaults|OutOfCore|Distributed|Workloads'
    echo "check: TSan stage OK (ThreadPool + SimParallel + CompiledModel + serve registry/batcher + ServeFaults batcher fault path + out-of-core + distributed + workloads under -fsanitize=thread)"
  else
    echo "check: TSan stage skipped (toolchain cannot link -fsanitize=thread)"
  fi
fi

# Optional AddressSanitizer stage (GBMO_CHECK_ASAN=0 skips; also skipped when
# the toolchain can't link -fsanitize=address) over the checker's own tests
# (the shadow bookkeeping plus deliberately out-of-bounds toy kernels must
# stay memory-safe under suppression), the data/bin-pack property tests, the
# model loader's golden and malformed-file tests, the CSV/libsvm reader tests
# and the fault-spec and CLI malformed-number tests (all parse outside
# input), the compiled engine and
# serving tests (the engine's routing loop reads the model through raw
# pointers), the accessor, histogram, split and grower tests (the
# builders' row compaction, the views' bulk adds and the dense histogram
# passes index through raw and __restrict pointers), and the growth-policy
# and histogram-budget suites (both growth policies move node histograms
# between levels, owners and the free list; LevelWise includes the test
# that pins the host's histogram bytes), and the suites that drive every
# system's charge path through a profiler (sinks read each event's kernel
# name through a pointer valid only during the callback).
if [[ "${GBMO_CHECK_ASAN:-1}" != "0" ]]; then
  if sanitizer_links address; then
    asan_build="${GBMO_CHECK_ASAN_BUILD_DIR:-$repo/build-asan}"
    cmake -B "$asan_build" -S "$repo" -DGBMO_SANITIZE=address
    cmake --build "$asan_build" -j "$(nproc)" --target gbmo_tests
    GBMO_SIM_CHECK=1 ctest --test-dir "$asan_build" --output-on-failure \
      -R 'SimChecker|QuantizeProperties|BinPackProperties|ModelGolden|IoTest|FaultPlan|CliErrors|Faults|Checkpoint|SketchBoostTest|BaselineShapes\.SketchBoostSketchSmallerThanOutputs|OutOfCore|CompiledModel|Serve|ModelServer|Registry\.|BuilderEquivalence|AdaptiveBuilder|HistogramLayoutTest|SubtractHistogramsTest|HistogramBuilders|AccessorsTest|Split|GrowerTest|LeafWise|LevelWise|HistBudget|AllSystemsTest|ProfilerRegistry|ProfilerTrace|SoBoosterTest|ObliviousTest'
    echo "check: ASan stage OK (checker + data property + model loader + CSV/libsvm readers + fault-spec/CLI parsing + fault-injection + out-of-core + compiled engine + serving + accessor/histogram/split/grower + growth-policy/histogram-budget + every system's profiled charge path tests under -fsanitize=address)"
  else
    echo "check: ASan stage skipped (toolchain cannot link -fsanitize=address)"
  fi
fi
echo "check: OK (warnings-as-errors build + full test suite)"
