#include "gemm.hh"

#include <algorithm>

#include "axe/gemm_kernel.hh"
#include "common/logging.hh"

namespace lsdgnn {
namespace axe {

GemmEngine::GemmEngine(std::uint32_t rows, std::uint32_t cols,
                       double clock_mhz)
    : rows_(rows), cols_(cols), clock(clock_mhz)
{
    lsd_assert(rows > 0 && cols > 0, "array must have PEs");
}

double
GemmEngine::peakFlops() const
{
    // Each PE does one MAC (2 FLOPs) per cycle.
    return 2.0 * rows_ * cols_ * clock.frequencyHz();
}

ComputeResult
GemmEngine::matmul(std::span<const float> a, std::span<const float> b,
                   std::span<float> c, std::uint32_t m, std::uint32_t k,
                   std::uint32_t n) const
{
    lsd_assert(a.size() == static_cast<std::size_t>(m) * k,
               "A shape mismatch");
    lsd_assert(b.size() == static_cast<std::size_t>(k) * n,
               "B shape mismatch");
    lsd_assert(c.size() == static_cast<std::size_t>(m) * n,
               "C shape mismatch");

    GemmArgs args;
    args.m = m;
    args.k = k;
    args.n = n;
    args.first = {a.data(), k, b.data(), n};
    args.c = c.data();
    args.ldc = n;
    gemm(args);
    return timing(m, k, n);
}

ComputeResult
GemmEngine::timing(std::uint32_t m, std::uint32_t k, std::uint32_t n) const
{
    // Output-stationary tiling: each (rows x cols) output tile streams
    // K partial sums plus the array fill/drain latency.
    const std::uint64_t tiles =
        ((m + rows_ - 1) / rows_) *
        static_cast<std::uint64_t>((n + cols_ - 1) / cols_);
    const std::uint64_t fill = rows_ + cols_;
    ComputeResult result;
    result.cycles = tiles * (k + fill);
    result.time = clock.cycles(result.cycles);
    const double flops = 2.0 * m * n * static_cast<double>(k);
    result.flops_per_s = flops / toSeconds(result.time);
    return result;
}

VpuEngine::VpuEngine(std::uint32_t lanes, double clock_mhz)
    : lanes_(lanes), clock(clock_mhz)
{
    lsd_assert(lanes > 0, "VPU must have lanes");
}

ComputeResult
VpuEngine::reduce(std::span<const float> input, std::span<float> output,
                  std::uint32_t groups, std::uint32_t group_size,
                  std::uint32_t dim, VpuReduceOp op) const
{
    lsd_assert(group_size > 0, "group must contain vectors");
    lsd_assert(input.size() ==
               static_cast<std::size_t>(groups) * group_size * dim,
               "input shape mismatch");
    lsd_assert(output.size() == static_cast<std::size_t>(groups) * dim,
               "output shape mismatch");

    for (std::uint32_t g = 0; g < groups; ++g) {
        const std::size_t out_base = static_cast<std::size_t>(g) * dim;
        const std::size_t in_base =
            static_cast<std::size_t>(g) * group_size * dim;
        for (std::uint32_t d = 0; d < dim; ++d) {
            float acc = input[in_base + d];
            for (std::uint32_t v = 1; v < group_size; ++v) {
                const float x = input[in_base +
                    static_cast<std::size_t>(v) * dim + d];
                acc = op == VpuReduceOp::Max ? std::max(acc, x)
                                             : acc + x;
            }
            if (op == VpuReduceOp::Mean)
                acc /= static_cast<float>(group_size);
            output[out_base + d] = acc;
        }
    }

    // Timing: every input element passes a lane once.
    const std::uint64_t elements =
        static_cast<std::uint64_t>(groups) * group_size * dim;
    ComputeResult result;
    result.cycles = (elements + lanes_ - 1) / lanes_;
    result.time = clock.cycles(result.cycles);
    result.flops_per_s =
        static_cast<double>(elements) / toSeconds(result.time);
    return result;
}

ReductionSaving
reductionSaving(std::uint32_t fanout, std::uint32_t attr_bytes,
                std::uint32_t record_header)
{
    lsd_assert(fanout > 0, "fanout must be positive");
    ReductionSaving s;
    s.raw_bytes = static_cast<std::uint64_t>(fanout) *
        (record_header + attr_bytes);
    s.reduced_bytes = record_header + attr_bytes;
    s.factor = static_cast<double>(s.raw_bytes) /
        static_cast<double>(s.reduced_bytes);
    return s;
}

} // namespace axe
} // namespace lsdgnn
