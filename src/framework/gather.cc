#include "gather.hh"

#include <algorithm>

#include "common/logging.hh"

namespace lsdgnn {
namespace framework {

AttributeGatherer::AttributeGatherer(const graph::AttributeStore &attrs,
                                     const graph::Partitioner *partitioner,
                                     cache::HotVertexCache *tier,
                                     std::uint32_t home_server,
                                     GatherFabricModel fabric)
    : attrs_(attrs), part_(partitioner), tier_(tier), home_(home_server),
      fabric_(fabric)
{
    lsd_assert(part_ != nullptr, "gatherer needs a partitioner");
}

void
AttributeGatherer::fillTable()
{
    const std::size_t len = attrs_.attrLen();
    table_.resize(part_->numNodes() * len);
    for (std::uint64_t n = 0; n < part_->numNodes(); ++n)
        attrs_.fetch(static_cast<graph::NodeId>(n),
                     std::span<float>(table_.data() + n * len, len));
}

void
AttributeGatherer::account(graph::NodeId node,
                           GatherTelemetry *telemetry) const
{
    if (telemetry == nullptr || part_->serverOf(node) == home_)
        return;
    ++telemetry->remote_rows;
    // Read-through probe: a resident replica answers the row locally
    // and never enters the modeled fabric transfer.
    if (tier_ != nullptr && tier_->lookupAttributes(node))
        ++telemetry->cache_hits;
}

void
AttributeGatherer::gatherLevel(std::span<const graph::NodeId> nodes,
                               gnn::Matrix &out,
                               GatherTelemetry *telemetry) const
{
    const std::size_t len = attrs_.attrLen();
    if (out.rows() != nodes.size() || out.cols() != len)
        out = gnn::Matrix(nodes.size(), len);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const graph::NodeId node = nodes[i];
        lsd_assert(node < part_->numNodes(), "node ", node,
                   " outside the row table");
        account(node, telemetry);
        const float *row = table_.data() + std::size_t{node} * len;
        std::copy(row, row + len, out.row(i).begin());
    }
    if (telemetry != nullptr) {
        telemetry->rows += nodes.size();
        telemetry->bytes += nodes.size() * attrs_.bytesPerNode();
    }
}

void
AttributeGatherer::gather(const sampling::SampleResult &batch,
                          GatheredFeatures &out,
                          GatherTelemetry *telemetry, LeafRows leaf)
{
    if (table_.empty())
        fillTable();
    const bool in_table = leaf == LeafRows::InTable;
    lsd_assert(!in_table || !batch.frontier.empty(),
               "an in-table leaf needs at least one hop");
    const std::size_t dense =
        batch.frontier.size() + (in_table ? 0 : 1);
    out.levels.resize(dense);
    out.leaf_table = in_table ? table_.data() : nullptr;
    gatherLevel(batch.roots, out.levels[0], telemetry);
    for (std::size_t h = 0; h + 1 < dense; ++h)
        gatherLevel(batch.frontier[h], out.levels[h + 1], telemetry);
    if (in_table)
        for (const graph::NodeId node : batch.frontier.back())
            account(node, telemetry);

    if (telemetry != nullptr && fabric_.gbps > 0.0) {
        const std::uint64_t residual =
            telemetry->remote_rows - telemetry->cache_hits;
        const double residual_bytes = static_cast<double>(
            residual * attrs_.bytesPerNode());
        telemetry->modeled_fabric_us =
            residual_bytes / (fabric_.gbps * 1e3) + fabric_.rtt_us;
    }
}

} // namespace framework
} // namespace lsdgnn
