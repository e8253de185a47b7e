/**
 * @file
 * GraphSAGE forward pass over pre-gathered feature matrices — the
 * compute stage of the end-to-end service pipeline.
 *
 * GraphSageModel::embed() fetches attribute rows itself, which welds
 * the gather and compute stages together; the pipeline needs them
 * split so gather runs (and is paced, and is accounted) in its own
 * stage. forwardGathered() consumes the per-level matrices an
 * AttributeGatherer produced and runs the same GraphSageModel::forward()
 * that embed() runs, so the two agree bit for bit by construction.
 * The leaf level (deepest frontier) is either the last dense matrix
 * or, when the gatherer left it in its row table
 * (LeafRows::InTable, the service's path), read in place from that
 * table by node id; the values and the summation order are the same
 * either way.
 *
 * The dense transforms run on the one GEMM kernel
 * (axe/gemm_kernel.hh); the stage reports the GemmEngine's modeled
 * systolic-array cycles/time for them next to the measured wall time
 * — the number the FaaS capacity model (Fig. 3) wants for the NN
 * stage.
 *
 * Brown-out hook: width_scale in (0, 1] computes only a prefix of
 * each layer's output columns (and, chained, of the next layer's
 * input rows) — the compute-kind analogue of the sampling fan-out
 * scale-down. Degraded embeddings are a prefix of the full embedding
 * space: narrower but usable, never NaN-padded.
 */

#ifndef LSDGNN_GNN_MINIBATCH_FORWARD_HH
#define LSDGNN_GNN_MINIBATCH_FORWARD_HH

#include <vector>

#include "axe/gemm.hh"
#include "gnn/graphsage.hh"

namespace lsdgnn {
namespace gnn {

/**
 * Compute root embeddings from pre-gathered features.
 *
 * @param model Shared (const, thread-safe) model.
 * @param batch The sampled subgraph (parent indices drive
 *        aggregation); batch.frontier.size() must equal
 *        model.layers().
 * @param levels Per-level feature matrices: levels[0] = roots,
 *        levels[h+1] = frontier[h] (AttributeGatherer layout).
 * @param gemm Engine whose cycle model @p telemetry reports.
 * @param width_scale Layer-width degradation in (0, 1]; 1 = full
 *        width. The effective width is max(1, round(hidden * scale)).
 * @param leaf_table Null when @p levels holds the leaf level; else the
 *        node-indexed row table the leaf rows are read from, and
 *        @p levels stops above the leaf (GatheredFeatures::leaf_table).
 * @return One embedding row per root; hidden * width_scale columns.
 */
Matrix forwardGathered(const GraphSageModel &model,
                       const sampling::SampleResult &batch,
                       const std::vector<Matrix> &levels,
                       const axe::GemmEngine &gemm,
                       double width_scale = 1.0,
                       ForwardTelemetry *telemetry = nullptr,
                       const float *leaf_table = nullptr);

/**
 * In-batch link-prediction loss over root embeddings: every root's
 * positive is the next root in the batch (wrap-around) and its
 * negative is the root half a batch away, scored by logistic
 * regression on the dot products. A deterministic self-supervised
 * proxy objective — no labels, no RNG — so a TrainStep reply's loss
 * is reproducible from its embeddings alone.
 */
double inBatchLoss(const Matrix &embeddings);

} // namespace gnn
} // namespace lsdgnn

#endif // LSDGNN_GNN_MINIBATCH_FORWARD_HH
