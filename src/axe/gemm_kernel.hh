/**
 * @file
 * The one functional FP32 GEMM kernel: every dense product in the
 * repository (gnn::matmul, GemmEngine::matmul, the GraphSAGE layer)
 * runs here. GemmEngine adds the systolic-array cycle model on top;
 * this file only computes.
 *
 * The kernel is register-tiled and vectorized across output columns,
 * and picks its instruction set once, from the CPU it runs on
 * (AVX-512F, AVX2, or the baseline vector unit of the build target).
 * All variants return the same bits, and the same bits as the plain
 * scalar loop
 *
 *     c = +0; for k ascending: c = c + a[i][k] * b[k][j]
 *
 * because vectorizing across j never reorders a single element's sum,
 * each product is rounded before it is added (no fused multiply-add
 * contraction; see gemm_kernel.cc), and adding a zero product to a
 * sum that starts at +0 never changes it, so there is no zero skip.
 */

#ifndef LSDGNN_AXE_GEMM_KERNEL_HH
#define LSDGNN_AXE_GEMM_KERNEL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lsdgnn {
namespace axe {

/** Instruction-set variants of the kernel. */
enum class GemmIsa {
    Generic, ///< the build target's baseline vector unit
    Avx2,
    Avx512,
};

/** One product term: a[m x k] times b[k x n], rows lda / ldb apart. */
struct GemmTerm {
    const float *a = nullptr;
    std::size_t lda = 0;
    const float *b = nullptr;
    std::size_t ldb = 0;
};

/**
 * c[i][j] = relu?((first[i][j] + second[i][j]) + bias[j]), where each
 * term is a k-ascending sum from +0, and the second term, the bias and
 * the ReLU are each optional. Leading dimensions let a caller multiply
 * the top-left corner of a larger matrix without copying it.
 */
struct GemmArgs {
    std::uint32_t m = 0;
    std::uint32_t k = 0;
    std::uint32_t n = 0;
    GemmTerm first;
    /** Second product, added after the first; ignored when b is null. */
    GemmTerm second;
    /** n floats added to every row; none when null. */
    const float *bias = nullptr;
    /** Clamp negatives to zero as std::max(v, 0.0f) does. */
    bool relu = false;
    float *c = nullptr;
    std::size_t ldc = 0;
};

/** Run @p args on the fastest variant this CPU supports. */
void gemm(const GemmArgs &args);

/** Run @p args on @p isa, which must be in supportedGemmIsas(). */
void gemm(const GemmArgs &args, GemmIsa isa);

/** The variant gemm(args) uses on this CPU. */
GemmIsa gemmIsa();

/** Every variant this CPU can run, Generic first. */
std::vector<GemmIsa> supportedGemmIsas();

const char *gemmIsaName(GemmIsa isa);

} // namespace axe
} // namespace lsdgnn

#endif // LSDGNN_AXE_GEMM_KERNEL_HH
