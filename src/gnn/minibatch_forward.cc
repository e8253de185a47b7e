#include "minibatch_forward.hh"

#include <algorithm>
#include <cmath>

namespace lsdgnn {
namespace gnn {

Matrix
forwardGathered(const GraphSageModel &model,
                const sampling::SampleResult &batch,
                const std::vector<Matrix> &levels,
                const axe::GemmEngine &gemm, double width_scale,
                ForwardTelemetry *telemetry, const float *leaf_table)
{
    lsd_assert(width_scale > 0.0 && width_scale <= 1.0,
               "width_scale must be in (0, 1]");
    const std::size_t hidden = model.hiddenDim();
    const std::size_t width =
        width_scale >= 1.0
            ? hidden
            : std::max<std::size_t>(
                  1, static_cast<std::size_t>(std::lround(
                         static_cast<double>(hidden) * width_scale)));
    return model.forward(batch, levels, width, &gemm, telemetry,
                         leaf_table);
}

double
inBatchLoss(const Matrix &embeddings)
{
    const std::size_t n = embeddings.rows();
    if (n == 0)
        return 0.0;

    const auto dot = [](std::span<const float> a,
                        std::span<const float> b) {
        double acc = 0.0;
        for (std::size_t i = 0; i < a.size(); ++i)
            acc += static_cast<double>(a[i]) *
                   static_cast<double>(b[i]);
        return acc;
    };
    // Clamp probabilities away from 0 so saturated logits keep the
    // loss finite.
    const auto logClamped = [](double p) {
        return std::log(std::max(p, 1e-12));
    };

    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const auto anchor = embeddings.row(i);
        const double pos =
            dot(anchor, embeddings.row((i + 1) % n));
        const double neg =
            dot(anchor, embeddings.row((i + n / 2) % n));
        const double p_pos =
            sigmoid(static_cast<float>(pos));
        const double p_neg =
            sigmoid(static_cast<float>(neg));
        total += -logClamped(p_pos) - logClamped(1.0 - p_neg);
    }
    return total / static_cast<double>(n);
}

} // namespace gnn
} // namespace lsdgnn
