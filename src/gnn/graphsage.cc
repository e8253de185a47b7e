#include "graphsage.hh"

#include <algorithm>

#include "axe/gemm_kernel.hh"

namespace lsdgnn {
namespace gnn {

SageLayer
SageLayer::random(std::size_t in_dim, std::size_t out_dim, Rng &rng)
{
    const float scale =
        1.0f / std::max(1.0f, static_cast<float>(in_dim));
    SageLayer layer;
    layer.w_self = Matrix::random(in_dim, out_dim, rng, scale);
    layer.w_neigh = Matrix::random(in_dim, out_dim, rng, scale);
    layer.bias.assign(out_dim, 0.0f);
    return layer;
}

std::uint64_t
SageLayer::parameterCount() const
{
    return 2ull * w_self.rows() * w_self.cols() + bias.size();
}

GraphSageModel::GraphSageModel(std::size_t attr_dim, std::size_t hidden,
                               std::size_t layers, Rng &rng,
                               Aggregator aggregator)
    : hidden_(hidden), aggregator_(aggregator)
{
    lsd_assert(layers > 0, "model needs at least one layer");
    std::size_t in = attr_dim;
    for (std::size_t l = 0; l < layers; ++l) {
        layers_.push_back(SageLayer::random(in, hidden, rng));
        in = hidden;
    }
}

Matrix
GraphSageModel::featuresOf(std::span<const graph::NodeId> nodes,
                           const graph::AttributeStore &attrs) const
{
    Matrix out(nodes.size(), attrs.attrLen());
    for (std::size_t i = 0; i < nodes.size(); ++i)
        attrs.fetch(nodes[i], out.row(i));
    return out;
}

namespace {

/**
 * Neighborhood aggregation, one child row at a time in child order: a
 * parent's first child is copied, later ones are folded in (max, or a
 * sum that Mean divides by the child count at the end). Parents
 * without any children keep a zero row (padding for degree-0 nodes).
 */
class NeighborAggregate
{
  public:
    NeighborAggregate(std::size_t parents, std::size_t cols,
                      Aggregator op)
        : out_(parents, cols), count_(parents, 0), op_(op)
    {}

    void
    add(std::uint32_t parent, const float *row)
    {
        lsd_assert(parent < count_.size(), "parent index out of range");
        const std::size_t cols = out_.cols();
        float *dst = out_.data().data() + parent * cols;
        if (count_[parent]++ == 0)
            std::copy(row, row + cols, dst);
        else if (op_ == Aggregator::Max)
            for (std::size_t j = 0; j < cols; ++j)
                dst[j] = std::max(dst[j], row[j]);
        else
            for (std::size_t j = 0; j < cols; ++j)
                dst[j] += row[j];
    }

    Matrix
    finish()
    {
        if (op_ == Aggregator::Mean)
            for (std::size_t p = 0; p < count_.size(); ++p) {
                if (count_[p] <= 1)
                    continue;
                const float inv = 1.0f / static_cast<float>(count_[p]);
                for (float &v : out_.row(p))
                    v *= inv;
            }
        return std::move(out_);
    }

  private:
    Matrix out_;
    std::vector<std::uint32_t> count_;
    Aggregator op_;
};

/**
 * The child rows one aggregation reads: a dense level matrix (row c at
 * base + c * cols), or the leaf level read in place from a
 * node-indexed row table (row c at base + ids[c] * cols).
 */
struct ChildRows {
    const float *base;
    std::size_t rows;
    std::size_t cols;
    std::span<const graph::NodeId> ids; ///< empty = dense

    static ChildRows
    dense(const Matrix &m)
    {
        return {m.data().data(), m.rows(), m.cols(), {}};
    }

    const float *
    row(std::size_t c) const
    {
        return base + (ids.empty() ? c : std::size_t{ids[c]}) * cols;
    }
};

Matrix
aggregate(std::size_t num_parents, const ChildRows &children,
          std::span<const std::uint32_t> parent, Aggregator op)
{
    lsd_assert(parent.size() == children.rows,
               "parent index count mismatch");
    NeighborAggregate agg(num_parents, children.cols, op);
    for (std::size_t c = 0; c < children.rows; ++c)
        agg.add(parent[c], children.row(c));
    return agg.finish();
}

/**
 * Kernel arguments of one layer over rows [row, row + rows) of a
 * level: ReLU((self W_self + agg W_neigh) + b) on the first @p width
 * columns, written to @p out (rows x width).
 */
axe::GemmArgs
layerArgs(const SageLayer &layer, std::size_t width, const Matrix &self,
          const Matrix &agg, std::size_t row, std::size_t rows,
          float *out)
{
    axe::GemmArgs args;
    args.m = static_cast<std::uint32_t>(rows);
    args.k = static_cast<std::uint32_t>(self.cols());
    args.n = static_cast<std::uint32_t>(width);
    args.first = {self.data().data() + row * self.cols(), self.cols(),
                  layer.w_self.data().data(), layer.w_self.cols()};
    args.second = {agg.data().data() + row * agg.cols(), agg.cols(),
                   layer.w_neigh.data().data(), layer.w_neigh.cols()};
    args.bias = layer.bias.data();
    args.relu = true;
    args.c = out;
    args.ldc = width;
    return args;
}

/** Rows per kernel call when a level's output is folded, not stored. */
constexpr std::size_t kFoldRows = 16;

} // namespace

Matrix
GraphSageModel::forward(const sampling::SampleResult &batch,
                        const std::vector<Matrix> &levels,
                        std::size_t width, const axe::GemmEngine *gemm,
                        ForwardTelemetry *telemetry,
                        const float *leaf_table) const
{
    const std::size_t depth = layers_.size();
    lsd_assert(batch.frontier.size() == depth, "batch hops (",
               batch.frontier.size(), ") must equal model layers (",
               depth, ")");
    lsd_assert(levels.size() == (leaf_table != nullptr ? depth : depth + 1),
               "levels must cover roots + every frontier, less the "
               "leaf when it is read from a row table");
    lsd_assert(width >= 1 && width <= hidden_, "width ", width,
               " outside [1, ", hidden_, "]");

    // Layer k turns levels [0, depth - k] into [0, depth - k - 1]. h
    // holds its stored outputs; the deepest one only ever feeds the
    // next layer's aggregation, so it is folded into `folded` instead.
    std::vector<Matrix> h;
    Matrix folded;
    for (std::size_t k = 0; k < depth; ++k) {
        const SageLayer &layer = layers_[k];
        const auto level = [&](std::size_t lvl) -> const Matrix & {
            return k == 0 ? levels[lvl] : h[lvl];
        };
        // Layer 0's deepest aggregation reads the raw leaf level.
        const auto children = [&](std::size_t lvl) -> ChildRows {
            if (k == 0 && lvl == depth && leaf_table != nullptr)
                return {leaf_table, batch.frontier[depth - 1].size(),
                        attrDim(), batch.frontier[depth - 1]};
            return ChildRows::dense(level(lvl));
        };
        const std::size_t levels_out = depth - k;
        std::vector<Matrix> next;
        for (std::size_t lvl = 0; lvl < levels_out; ++lvl) {
            const Matrix &self = level(lvl);
            const bool deepest = lvl + 1 == levels_out;
            const Matrix agg =
                k > 0 && deepest
                    ? std::move(folded)
                    : aggregate(self.rows(), children(lvl + 1),
                                batch.parent[lvl], aggregator_);
            if (telemetry != nullptr) {
                const auto m = static_cast<std::uint32_t>(self.rows());
                const auto in = static_cast<std::uint32_t>(self.cols());
                const auto n = static_cast<std::uint32_t>(width);
                telemetry->flops += 2 * matmulFlops(m, n, in);
                if (gemm != nullptr) {
                    const axe::ComputeResult t = gemm->timing(m, in, n);
                    telemetry->gemm_cycles += 2 * t.cycles;
                    telemetry->gemm_time += 2 * t.time;
                }
            }
            if (!deepest || levels_out == 1) {
                Matrix &out = next.emplace_back(self.rows(), width);
                axe::gemm(layerArgs(layer, width, self, agg, 0,
                                    self.rows(), out.data().data()));
                continue;
            }
            const std::span<const std::uint32_t> parent =
                batch.parent[lvl - 1];
            lsd_assert(parent.size() == self.rows(),
                       "parent index count mismatch");
            NeighborAggregate fold(level(lvl - 1).rows(), width,
                                   aggregator_);
            std::vector<float> panel(kFoldRows * width);
            for (std::size_t row = 0; row < self.rows();
                 row += kFoldRows) {
                const std::size_t rows =
                    std::min(kFoldRows, self.rows() - row);
                axe::gemm(layerArgs(layer, width, self, agg, row, rows,
                                    panel.data()));
                for (std::size_t r = 0; r < rows; ++r)
                    fold.add(parent[row + r], panel.data() + r * width);
            }
            folded = fold.finish();
        }
        h = std::move(next);
    }
    lsd_assert(h.size() == 1, "layer reduction must end at the roots");
    return std::move(h[0]);
}

Matrix
GraphSageModel::embed(const sampling::SampleResult &batch,
                      const graph::AttributeStore &attrs) const
{
    std::vector<Matrix> levels;
    levels.reserve(batch.frontier.size() + 1);
    levels.push_back(featuresOf(batch.roots, attrs));
    for (const auto &frontier : batch.frontier)
        levels.push_back(featuresOf(frontier, attrs));
    return forward(batch, levels, hidden_);
}

std::uint64_t
GraphSageModel::forwardFlops(std::uint64_t roots,
                             std::uint64_t fanout) const
{
    std::uint64_t flops = 0;
    // Number of nodes at each level of the sampled tree.
    std::vector<std::uint64_t> level_nodes(layers_.size() + 1);
    level_nodes[0] = roots;
    for (std::size_t l = 1; l <= layers_.size(); ++l)
        level_nodes[l] = level_nodes[l - 1] * fanout;

    for (std::size_t k = 0; k < layers_.size(); ++k) {
        const auto in = static_cast<std::uint64_t>(layers_[k].inDim());
        const auto out = static_cast<std::uint64_t>(layers_[k].outDim());
        for (std::size_t lvl = 0; lvl + k < layers_.size(); ++lvl) {
            // Self + neighbor transform per node at this level.
            flops += 2 * matmulFlops(level_nodes[lvl], out, in);
        }
    }
    return flops;
}

std::uint64_t
GraphSageModel::parameterCount() const
{
    std::uint64_t total = 0;
    for (const auto &layer : layers_)
        total += layer.parameterCount();
    return total;
}

DssmModel::DssmModel(std::size_t in_dim, std::size_t hidden, Rng &rng)
    : w1_(Matrix::random(in_dim, hidden, rng,
                         1.0f / static_cast<float>(in_dim))),
      w2_(Matrix::random(hidden, hidden, rng,
                         1.0f / static_cast<float>(hidden)))
{
}

Matrix
DssmModel::applyTower(const Matrix &w1, const Matrix &w2,
                      std::span<const float> input) const
{
    Matrix x(1, input.size());
    for (std::size_t i = 0; i < input.size(); ++i)
        x.at(0, i) = input[i];
    Matrix h = matmul(x, w1);
    tanhInplace(h);
    Matrix out = matmul(h, w2);
    tanhInplace(out);
    return out;
}

float
DssmModel::score(std::span<const float> query,
                 std::span<const float> item) const
{
    const Matrix q = applyTower(w1_, w2_, query);
    const Matrix d = applyTower(w1_, w2_, item);
    return cosine(q.row(0), d.row(0));
}

std::uint64_t
DssmModel::parameterCount() const
{
    return static_cast<std::uint64_t>(w1_.rows()) * w1_.cols() +
           static_cast<std::uint64_t>(w2_.rows()) * w2_.cols();
}

std::uint64_t
DssmModel::scoreFlops() const
{
    return 2 * (matmulFlops(1, w1_.cols(), w1_.rows()) +
                matmulFlops(1, w2_.cols(), w2_.rows()));
}

} // namespace gnn
} // namespace lsdgnn
