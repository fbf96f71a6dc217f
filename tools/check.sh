#!/bin/sh
# Sanitizer gate for the concurrency-sensitive parts of the library.
#
#   tools/check.sh [build-root]
#
# Two out-of-tree builds under <build-root> (default: build-sanitize):
#   * tsan:  ThreadSanitizer over the mini-MPI runtime and the intra-rank
#            thread pool — the tests that exercise cross-thread mailboxes,
#            collectives, concurrent rank training, the blocked GEMM's
#            parallel_for fan-out, the grouped batched conv path
#            (bit-identity with a whole-batch lowering at 0 and 3 pool
#            workers), the rollout step's
#            begin/finish halo split (bit-identity under races), the
#            cross-rank trace collector's concurrent event buffers, the
#            int8 quantized rollout path, and the SurrogateServer's
#            scheduler/client handoff (coalesced batching under many
#            concurrent session threads).
#   * asan:  Address+UB sanitizers over the full ctest suite, with
#            PARPDE_CHECKED_TENSOR=ON so every Tensor access is also
#            bounds- and rank-checked, plus a second pass over the `chaos`
#            label with the runtime message validator on.
#
# Fault injection: any of these binaries also honours the PARPDE_FAULT
# environment variable (seeded message drop/delay/dup/corrupt and rank
# kills — grammar in docs/robustness.md), so a chaotic sanitizer run is
# e.g.  PARPDE_FAULT="seed=3;drop:tag=4096-4099,prob=0.3" tools/check.sh
# The deterministic crash/resume soak itself is the `chaos` ctest label:
#   ctest -L chaos --output-on-failure
#
# Exits non-zero on the first failing build or test.

set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
build_root=${1:-"$root/build-sanitize"}
jobs=$(nproc 2>/dev/null || echo 2)

echo "== ThreadSanitizer: minimpi + thread pool + parallel trainers =="
cmake -S "$root" -B "$build_root/tsan" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" >/dev/null
cmake --build "$build_root/tsan" -j "$jobs" --target \
  test_minimpi_p2p test_minimpi_collectives test_minimpi_cart \
  test_gemm_blocked test_conv_ops test_core_parallel \
  test_fault test_rollout_overlap test_trace test_quant_rollout \
  test_serve >/dev/null
(cd "$build_root/tsan" && ctest --output-on-failure -R \
  'test_minimpi_p2p|test_minimpi_collectives|test_minimpi_cart|test_gemm_blocked|test_conv_ops|test_core_parallel|test_fault|test_rollout_overlap|test_trace|test_quant_rollout|test_serve')

echo "== Address/UB sanitizer + checked tensor accessors: full test suite =="
cmake -S "$root" -B "$build_root/asan" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPARPDE_CHECKED_TENSOR=ON \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined" >/dev/null
cmake --build "$build_root/asan" -j "$jobs" >/dev/null
(cd "$build_root/asan" && ctest --output-on-failure -j "$jobs")

echo "== Chaos soak under ASan with the runtime message validator on =="
(cd "$build_root/asan" && PARPDE_MPI_VALIDATE=1 ctest --output-on-failure -L chaos)

echo "All sanitizer checks passed."
