#pragma once
// Dense float kernels behind the nn/ layers: one GEMM, a transpose, im2col
// and its adjoint col2im.
//
// `gemm_acc` is the only GEMM.  Products with a transposed operand (the
// Conv2d backward pass) transpose that operand once into a local buffer and
// call it, so every layer shares one register-blocked micro-kernel instead
// of one kernel per operand layout.  `gemm_acc_naive` is its reference loop
// nest, kept as the test and bench baseline.
//
// The kernel tiles the output into 6x16 register blocks and streams SIMD
// lanes across the N dimension, but every output element still accumulates
// its K products in strictly ascending k order: blocking only reorders work
// *across* elements, never within one.  Compiler contraction is pinned off
// on this translation unit (-ffp-contract=off, see src/nn/CMakeLists.txt) so
// no code path can round differently from another behind our back.
//
// The contract that everything downstream relies on is PARTITION
// INVARIANCE: an output element computes identical bits no matter how the
// work around it is tiled or vectorized.  SIMD lanes are independent output
// elements, so vector width never changes an element's op sequence, and an
// element computes identically whether it lands in the 6-row block, a row
// tail, or the scalar column tail.  That keeps the layer outputs independent
// of the GEMM shape.
//
// The op sequence of one element depends on the build:
//  - No FMA (anything without __FMA__ && __AVX2__, e.g. the sanitizer
//    builds, which drop -march=native): out += a*b as a separate multiply
//    and add, skipping k-terms with a[i][k] == 0.  This is exactly the
//    naive kernel, so gemm_acc is bit-identical to gemm_acc_naive.
//  - FMA (__FMA__ && __AVX2__, e.g. MP_NATIVE_ARCH on a modern x86 host):
//    out = fma(a, b, out) for every k-term, with no zero skip.  Each term
//    rounds once instead of twice (~2x the arithmetic throughput), and six
//    compare-and-branch pairs per k-step would make the micro-kernel front-
//    end bound.
// Absolute values therefore differ between FMA and no-FMA *builds* (both
// are valid IEEE results); within one build every determinism property
// holds.
//
// Vector width follows whatever MP_NATIVE_ARCH gives the compiler: the
// kernel uses GCC/Clang vector extensions (8-float lanes, lowered to AVX
// when available and to pairs of SSE ops otherwise) with the naive nest as
// the fallback for other compilers.

namespace mp::nn {

/// out[M x N] += A[M x K] * B[K x N], all row-major.  Partition-invariant;
/// bit-identical to gemm_acc_naive on no-FMA builds (see file header).
void gemm_acc(const float* a, const float* b, float* out, int m, int k,
              int n);

/// The reference loop nest for gemm_acc (ikj order, zero-skipping).
/// bench_micro_kernels times the two side by side so the speedup stays
/// visible in results/BENCH_micro_kernels.json.
void gemm_acc_naive(const float* a, const float* b, float* out, int m, int k,
                    int n);

/// out[cols x rows] = in[rows x cols]^T, both row-major.
void transpose(const float* in, int rows, int cols, float* out);

/// im2col for a single [C, H, W] sample with a square kernel, stride 1 and
/// "same" zero padding: writes the [C*k*k, H*W] column matrix of `input`
/// into `col`.
void im2col(const float* input, int in_c, int h, int w, int k, float* col);

/// The adjoint of im2col: adds every entry of the [C*k*k, H*W] column matrix
/// `col` into the [C, H, W] sample `input` position it was gathered from
/// (pad entries are dropped).  Accumulates; callers zero `input` first.
/// Rows are visited in c -> ky -> kx -> y -> x order, so each input element
/// receives its adds in the same order as a per-element scatter loop.
void col2im(const float* col, int in_c, int h, int w, int k, float* input);

}  // namespace mp::nn
