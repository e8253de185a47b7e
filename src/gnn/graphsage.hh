/**
 * @file
 * GraphSAGE inference over sampled mini-batches, plus the DSSM end
 * model of Table 3.
 *
 * The layer follows the paper's Eq. (1)/(2), by default with a max
 * aggregator:
 *
 *   a_v = max(h_u : u in S(v))          (Aggregate)
 *   h'_v = ReLU(W_self h_v + W_neigh a_v + b)   (Combine)
 *
 * applied per hop from the deepest frontier inward, exactly over the
 * SampleResult trees the sampling substrate produces. There is one
 * implementation of it, GraphSageModel::forward(): embed() and the
 * service's compute stage (minibatch_forward.hh) both call it. The
 * raw leaf rows (the deepest frontier's features, which only feed the
 * first layer's deepest aggregation) come either from a dense level
 * matrix or, in the service, straight from the gatherer's
 * node-indexed row table (framework/gather.hh), so the service never
 * builds the leaf matrix. FLOPs
 * are accounted so the Fig. 3 end-to-end model uses the real
 * arithmetic volume of the configured model.
 */

#ifndef LSDGNN_GNN_GRAPHSAGE_HH
#define LSDGNN_GNN_GRAPHSAGE_HH

#include <cstdint>
#include <vector>

#include "axe/gemm.hh"
#include "gnn/tensor.hh"
#include "graph/attributes.hh"
#include "sampling/minibatch.hh"

namespace lsdgnn {
namespace gnn {

/**
 * Aggregation operator of Eq. (1) — "flexibly defined by model" in
 * the paper's programming model; Max is graphSAGE-max, Mean the
 * GCN-style variant.
 */
enum class Aggregator {
    Max,
    Mean,
};

/** One GraphSAGE layer's parameters. */
struct SageLayer {
    Matrix w_self;  ///< in_dim x out_dim
    Matrix w_neigh; ///< in_dim x out_dim
    std::vector<float> bias;

    static SageLayer random(std::size_t in_dim, std::size_t out_dim,
                            Rng &rng);

    std::size_t inDim() const { return w_self.rows(); }
    std::size_t outDim() const { return w_self.cols(); }

    /** Parameter count (storage-footprint comparison of Fig. 3). */
    std::uint64_t parameterCount() const;
};

/** Arithmetic accounting of one forward pass. */
struct ForwardTelemetry {
    /** FLOPs executed (matmuls; the dominant term). */
    std::uint64_t flops = 0;
    /** Modeled systolic-array cycles for those matmuls. */
    std::uint64_t gemm_cycles = 0;
    /** Modeled engine time for those cycles. */
    Tick gemm_time = 0;
};

/** Full multi-layer GraphSAGE-max model. */
class GraphSageModel
{
  public:
    /**
     * @param attr_dim Input attribute length.
     * @param hidden Hidden/embedding width per layer.
     * @param layers Number of layers (= sampling hops).
     * @param rng Weight-initialization stream.
     * @param aggregator Neighborhood aggregation operator.
     */
    GraphSageModel(std::size_t attr_dim, std::size_t hidden,
                   std::size_t layers, Rng &rng,
                   Aggregator aggregator = Aggregator::Max);

    Aggregator aggregator() const { return aggregator_; }

    /**
     * Compute root embeddings for one sampled batch.
     *
     * @param batch Sampled mini-batch (hops must equal layers()).
     * @param attrs Attribute source for the raw features.
     * @return One embedding row per root.
     */
    Matrix embed(const sampling::SampleResult &batch,
                 const graph::AttributeStore &attrs) const;

    /**
     * The forward pass: root embeddings from per-level raw features.
     *
     * Each layer is one fused kernel call per tree level computing
     * ReLU((self W_self + agg W_neigh) + b), where agg aggregates the
     * level's children in child order. The deepest level a layer
     * computes is never stored: its rows are folded straight into
     * the next layer's aggregate as they come out of the kernel.
     *
     * @param batch The sampled subgraph (parent indices drive
     *        aggregation); batch.frontier.size() must equal layers().
     * @param levels levels[0] = roots, levels[h+1] = frontier[h], one
     *        attrDim()-wide feature row per node (the leaf level may
     *        instead come from @p leaf_table).
     * @param width Output columns per layer, in [1, hiddenDim()]:
     *        every layer uses the top-left corner of its weights, so
     *        a narrower pass is a prefix of the full embedding space.
     * @param gemm Engine whose cycle model @p telemetry reports; may
     *        be null when @p telemetry is.
     * @param leaf_table Null: levels holds every level, leaf
     *        (frontier[layers() - 1]) included. Otherwise levels stops
     *        above the leaf, and the leaf rows are read in place from
     *        this node-indexed row table (row n = attrDim() floats of
     *        node n at leaf_table + n * attrDim()), in the same child
     *        order, so the result is bit-identical to the dense leaf.
     * @return One width-column embedding row per root.
     */
    Matrix forward(const sampling::SampleResult &batch,
                   const std::vector<Matrix> &levels, std::size_t width,
                   const axe::GemmEngine *gemm = nullptr,
                   ForwardTelemetry *telemetry = nullptr,
                   const float *leaf_table = nullptr) const;

    std::size_t layers() const { return layers_.size(); }
    std::size_t hiddenDim() const { return hidden_; }
    std::size_t attrDim() const { return layers_.front().inDim(); }

    /** Layer parameters, outermost (hop-deepest input) first. */
    const std::vector<SageLayer> &layerParams() const
    {
        return layers_;
    }

    /** FLOPs of embed() for a batch of the given shape. */
    std::uint64_t forwardFlops(std::uint64_t roots,
                               std::uint64_t fanout) const;

    std::uint64_t parameterCount() const;

  private:
    Matrix featuresOf(std::span<const graph::NodeId> nodes,
                      const graph::AttributeStore &attrs) const;

    std::size_t hidden_;
    std::vector<SageLayer> layers_;
    Aggregator aggregator_;
};

/**
 * DSSM-style two-tower end model (Table 3: DSSM 128-128): each tower
 * is a 2-layer MLP over the GNN embedding; the match score is the
 * cosine of the tower outputs.
 */
class DssmModel
{
  public:
    DssmModel(std::size_t in_dim, std::size_t hidden, Rng &rng);

    /** Score one (query, item) embedding pair in [-1, 1]. */
    float score(std::span<const float> query,
                std::span<const float> item) const;

    std::uint64_t parameterCount() const;

    /** FLOPs per scored pair. */
    std::uint64_t scoreFlops() const;

  private:
    Matrix applyTower(const Matrix &w1, const Matrix &w2,
                      std::span<const float> input) const;

    Matrix w1_, w2_; ///< shared-weight towers (siamese DSSM)
};

} // namespace gnn
} // namespace lsdgnn

#endif // LSDGNN_GNN_GRAPHSAGE_HH
