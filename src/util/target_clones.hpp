#pragma once

// Function multi-versioning for the fp32 compute kernels (the blocked GEMM
// micro-kernels and the direct conv forward and data-gradient kernels).
//
// target_clones compiles AVX-512/AVX2+FMA versions next to the baseline and
// picks one at load time, so the kernels run at full SIMD width without
// requiring -march=native for the whole build. Clone choice is fixed per
// machine, so it cannot break thread-count determinism. Kernels that must
// agree bit for bit (the direct conv kernels and the GEMM they replace) share
// the clone set and write their products as the same `x += a * b`, which a
// clone contracts the same way in both (src/CMakeLists.txt pins
// -ffp-contract=fast for the library). The dispatch runs through an
// IFUNC resolver during early relocation — before the TSan/ASan runtimes
// initialize — so sanitized builds (tools/check.sh) fall back to
// single-version kernels. Results are deterministic per clone, but not
// across clones: the x86-64-v3/v4 clones contract `x += a * b` into fused
// multiply-adds, while the baseline (the "default" clone on an older host,
// and every sanitized build) rounds the product first, so their fp32 bits
// differ.

#if defined(__x86_64__) && defined(__GNUC__) && \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define PARPDE_TARGET_CLONES \
  __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#define PARPDE_HAS_TARGET_CLONES 1
#else
#define PARPDE_TARGET_CLONES
#define PARPDE_HAS_TARGET_CLONES 0
#endif
