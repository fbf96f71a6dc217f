#pragma once

// Single-precision matrix multiplication kernels. Training runs one GEMM
// per conv layer, the weight gradient dW += dY * im2row(x); the direct
// forward and data-gradient kernels in nn/conv_ops.cpp reproduce, bit for
// bit, the GEMM lowerings they replaced (the k-block contract below).
//
// The production kernels are cache-blocked and register-tiled: A is packed
// into MR-tall k-major panels, B is consumed in place when row-major (packed
// into NR-wide panels otherwise), and an MR x NR micro-kernel accumulates
// into registers (GotoBLAS loop structure). Work is split over the global
// util::ThreadPool across *row/column blocks only* — the k-summation of every
// C element always runs on one thread in one fixed order, so results are
// bit-identical at any thread count.
//
// The original triple loops are kept as gemm_naive_* reference
// implementations for tests and the kernel benchmark.

#include <cstdint>

namespace parpde {

// The k-block (KC) of the blocked kernels. Each C element's k-reduction is
// computed one kGemmKBlock-deep register partial at a time and the partials
// are added into C in ascending k order. Splitting k at multiples of
// kGemmKBlock into consecutive accumulating calls (gemm_acc, gemm_bt_acc)
// therefore performs exactly the same additions as one full-k call; the
// batched conv backward relies on this to lower the batch in sample groups.
inline constexpr std::int64_t kGemmKBlock = 32;

// C[m x n] = A[m x k] * B[k x n], row-major, C overwritten.
void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n);

// C[m x n] += A[m x k] * B[k x n].
void gemm_acc(const float* a, const float* b, float* c, std::int64_t m,
              std::int64_t k, std::int64_t n);

// C[m x n] = A^T * B where A is stored [k x m] and used transposed.
void gemm_at(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n);

// C[m x n] += A[m x k] * B^T where B is stored [n x k].
void gemm_bt_acc(const float* a, const float* b, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n);

// Single-threaded reference versions of the four kernels above (the seed
// repo's original i-k-j loops). Used by tests to validate the blocked path
// and by bench_kernels as the speedup baseline.
void gemm_naive(const float* a, const float* b, float* c, std::int64_t m,
                std::int64_t k, std::int64_t n);
void gemm_naive_acc(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t n);
void gemm_naive_at(const float* a, const float* b, float* c, std::int64_t m,
                   std::int64_t k, std::int64_t n);
void gemm_naive_bt_acc(const float* a, const float* b, float* c,
                       std::int64_t m, std::int64_t k, std::int64_t n);

}  // namespace parpde
