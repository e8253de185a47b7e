/**
 * @file
 * Optional FP32 GEMM engine and vector processing unit (VPU).
 *
 * Paper Section 4.1: "an optional FP32 general matrix-multiplication
 * engine and an optional vector processing unit can be added to the
 * design... the FPGA compute units are preferable for reductions in
 * the sampling stages in order to reduce communication overhead,
 * such as the case for GCN."
 *
 * Both engines are functional (they compute real results) with a
 * cycle model matching a systolic array / SIMD lane datapath, so the
 * reduction ablation can quantify the communication win of
 * aggregating attributes on-FPGA before shipping them to the GPU. The
 * GEMM engine's results come from the repository's one GEMM kernel
 * (gemm_kernel.hh); only the cycle model is the engine's own.
 */

#ifndef LSDGNN_AXE_GEMM_HH
#define LSDGNN_AXE_GEMM_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/units.hh"

namespace lsdgnn {
namespace axe {

/** Result of one offloaded operation. */
struct ComputeResult {
    /** Datapath cycles consumed. */
    std::uint64_t cycles = 0;
    /** Simulated time at the engine clock. */
    Tick time = 0;
    /** Achieved arithmetic rate, FLOP/s. */
    double flops_per_s = 0;
};

/**
 * Output-stationary systolic GEMM array.
 */
class GemmEngine
{
  public:
    /**
     * @param rows Systolic array rows (PE grid).
     * @param cols Systolic array columns.
     * @param clock_mhz Datapath clock.
     */
    GemmEngine(std::uint32_t rows = 32, std::uint32_t cols = 32,
               double clock_mhz = 250.0);

    /**
     * c[MxN] = a[MxK] * b[KxN], row major. @p c is overwritten, with
     * the bits of the scalar k-ascending loop (gemm_kernel.hh).
     */
    ComputeResult matmul(std::span<const float> a,
                         std::span<const float> b, std::span<float> c,
                         std::uint32_t m, std::uint32_t k,
                         std::uint32_t n) const;

    /** Modeled cycles and time of an MxK by KxN product. */
    ComputeResult timing(std::uint32_t m, std::uint32_t k,
                         std::uint32_t n) const;

    /** Peak FP32 rate of this configuration. */
    double peakFlops() const;

    std::uint32_t rows() const { return rows_; }
    std::uint32_t cols() const { return cols_; }

  private:
    std::uint32_t rows_;
    std::uint32_t cols_;
    Clock clock;
};

/** Elementwise reduction kinds the VPU supports. */
enum class VpuReduceOp {
    Max,
    Sum,
    Mean,
};

/**
 * SIMD vector unit: lane-parallel elementwise reductions over groups
 * of attribute vectors (the GCN/GraphSAGE aggregation).
 */
class VpuEngine
{
  public:
    /**
     * @param lanes SIMD lanes (FP32 each).
     * @param clock_mhz Datapath clock.
     */
    explicit VpuEngine(std::uint32_t lanes = 16,
                       double clock_mhz = 250.0);

    /**
     * Reduce @p group_size consecutive vectors of @p dim floats from
     * @p input into one vector per group in @p output.
     *
     * @pre input.size() == groups * group_size * dim.
     * @pre output.size() == groups * dim.
     */
    ComputeResult reduce(std::span<const float> input,
                         std::span<float> output, std::uint32_t groups,
                         std::uint32_t group_size, std::uint32_t dim,
                         VpuReduceOp op) const;

    std::uint32_t lanes() const { return lanes_; }

  private:
    std::uint32_t lanes_;
    Clock clock;
};

/**
 * Communication saving of in-fabric aggregation: shipping one reduced
 * vector per parent instead of `fanout` raw vectors shrinks the
 * output stream by ~fanout (modulo the per-record header).
 *
 * @return Output bytes per parent with/without reduction.
 */
struct ReductionSaving {
    std::uint64_t raw_bytes;
    std::uint64_t reduced_bytes;
    double factor;
};
ReductionSaving reductionSaving(std::uint32_t fanout,
                                std::uint32_t attr_bytes,
                                std::uint32_t record_header = 8);

} // namespace axe
} // namespace lsdgnn

#endif // LSDGNN_AXE_GEMM_HH
