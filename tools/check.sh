#!/usr/bin/env bash
# One-shot correctness gate, suitable as a CI entrypoint:
#   1. tools/lint.py (repo-local static rules)
#   2. release preset:    configure + build + kernel equivalence tests
#      (tier1 tests matching Kernels|Hnsw — the vectorized-vs-reference
#      suite on the optimized, runtime-dispatched build)
#   3. buildcheck:        release-preset configure + ctest -L buildcheck —
#      rebuilds the library once per compile-time toggle turned off
#      (metrics, contracts, lock ranks, program cache) under -Werror, so
#      a compiled-out configuration that stops compiling fails here
#   4. asan-ubsan preset: configure + build + ctest -L tier1
#   5. tsan preset:       configure + build + ctest -L tier1
#   6. clang-threadsafety preset: clang -Wthread-safety -Werror compile of
#      the whole tree + ctest -L tier1 — the compile-time locking gate
#      (skipped with a notice when clang++ is not installed)
#   7. serving bench smoke: bench_serving in UNIMATCH_BENCH_SMOKE mode —
#      hard-gates request correctness + the under-load snapshot swap,
#      records (never gates) latency, since runners may be single-core
#   8. quant bench smoke: bench_quant in UNIMATCH_BENCH_SMOKE mode —
#      hard-gates recall@10 >= 0.95 (int8 flat and IVF-PQ vs the exact
#      f32 scan) and >= 3x int8 table compression; latency is recorded
#      in BENCH_quant.json, never gated
#   9. program bench smoke: bench_program_cache in UNIMATCH_BENCH_SMOKE
#      mode — hard-gates bitwise tape/replay parity (losses, metrics,
#      inference embeddings) and a >= 99% steady-state cache hit rate;
#      step latency and speedup land in BENCH_program.json, never gated
#  10. batch-exec bench smoke: bench_batch_exec in UNIMATCH_BENCH_SMOKE
#      mode — hard-gates MultiSearch/Search bitwise parity across all six
#      ANN backends, zero pool acquires per steady-state query, and a
#      >= 2x batch-32 speedup for the flat and quantized-flat scans;
#      graph/IVF speedups are recorded warn-only in BENCH_batch_exec.json
#
# Usage: tools/check.sh [--jobs N] [--skip-release] [--skip-buildcheck]
#                       [--skip-tsan] [--skip-asan] [--skip-threadsafety]
#                       [--skip-bench]
# Runs from any cwd; exits non-zero on the first failing stage.

set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 2)"
RUN_RELEASE=1
RUN_BUILDCHECK=1
RUN_ASAN=1
RUN_TSAN=1
RUN_THREADSAFETY=1
RUN_BENCH=1
while [[ $# -gt 0 ]]; do
  case "$1" in
    --jobs) JOBS="$2"; shift 2 ;;
    --skip-release) RUN_RELEASE=0; shift ;;
    --skip-buildcheck) RUN_BUILDCHECK=0; shift ;;
    --skip-asan) RUN_ASAN=0; shift ;;
    --skip-tsan) RUN_TSAN=0; shift ;;
    --skip-threadsafety) RUN_THREADSAFETY=0; shift ;;
    --skip-bench) RUN_BENCH=0; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

stage() { printf '\n==== %s ====\n' "$*"; }

stage "lint (tools/lint.py)"
python3 tools/lint.py --self-test
python3 tools/lint.py

run_preset() {
  local preset="$1"
  stage "configure [$preset]"
  cmake --preset "$preset"
  stage "build [$preset]"
  cmake --build --preset "$preset" -j "$JOBS"
  stage "ctest -L tier1 [$preset]"
  ctest --test-dir "build-$preset" -L tier1 --output-on-failure -j "$JOBS"
}

if [[ "$RUN_RELEASE" == 1 ]]; then
  stage "configure [release]"
  cmake --preset release
  stage "build [release]"
  cmake --build --preset release -j "$JOBS" --target unimatch_tests
  stage "kernel equivalence tests [release]"
  ctest --test-dir build -L tier1 -R 'Kernels|Hnsw' --output-on-failure \
    -j "$JOBS"
fi

if [[ "$RUN_BUILDCHECK" == 1 ]]; then
  stage "configure [release]"
  cmake --preset release
  # Each buildcheck runs its own library build in a subdirectory of build/
  # (the tests are RUN_SERIAL), so only the configure above is needed.
  # --no-tests=error fails the stage if the label ever matches nothing.
  stage "ctest -L buildcheck [release]"
  ctest --test-dir build -L buildcheck --no-tests=error --output-on-failure
fi

[[ "$RUN_ASAN" == 1 ]] && run_preset asan-ubsan
[[ "$RUN_TSAN" == 1 ]] && run_preset tsan

if [[ "$RUN_THREADSAFETY" == 1 ]]; then
  if command -v clang++ >/dev/null 2>&1; then
    run_preset clang-threadsafety
  else
    stage "clang-threadsafety SKIPPED (clang++ not installed)"
    echo "The -Wthread-safety annotations only compile as checks under" \
         "Clang; install clang or rely on the CI matrix leg."
  fi
fi

if [[ "$RUN_BENCH" == 1 ]]; then
  stage "serving bench smoke (bench_serving)"
  cmake --preset release
  cmake --build --preset release -j "$JOBS" --target bench_serving
  # Hard gate: any error response, or any failed request during the
  # under-load snapshot swap, exits non-zero. Latency/QPS are recorded in
  # BENCH_serving.json but never gated here (runners may be single-core).
  (cd build/bench && UNIMATCH_BENCH_SMOKE=1 ./bench_serving)

  stage "quant bench smoke (bench_quant)"
  cmake --build --preset release -j "$JOBS" --target bench_quant
  # Hard gate: exits non-zero unless int8 flat AND IVF-PQ reach recall@10
  # >= 0.95 against the exact f32 scan and the int8 table is >= 3x smaller
  # per row. Latency lands in BENCH_quant.json but is never gated here.
  (cd build/bench && UNIMATCH_BENCH_SMOKE=1 ./bench_quant)

  stage "program bench smoke (bench_program_cache)"
  cmake --build --preset release -j "$JOBS" --target bench_program_cache
  # Hard gate: replayed training runs and inference embeddings must match
  # the tape bitwise, and the steady-state cache hit rate must be >= 0.99.
  # Speedup/dispatch-overhead land in BENCH_program.json, never gated here.
  (cd build/bench && UNIMATCH_BENCH_SMOKE=1 ./bench_program_cache)

  stage "batch-exec bench smoke (bench_batch_exec)"
  cmake --build --preset release -j "$JOBS" --target bench_batch_exec
  # Hard gates: bitwise MultiSearch/Search parity on every backend, zero
  # pool acquires per steady-state query, and >= 2x batch-32 QPS for the
  # flat + quantized-flat scans. Graph/IVF speedups are warn-only.
  (cd build/bench && UNIMATCH_BENCH_SMOKE=1 ./bench_batch_exec)
fi

stage "all checks passed"
