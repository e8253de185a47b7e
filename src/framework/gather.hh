/**
 * @file
 * Attribute-row gather: the middle stage of the end-to-end pipeline.
 *
 * The paper's Fig. 3 pipeline is sample -> gather -> NN compute; this
 * stage materializes the dense per-level feature matrices the GNN
 * forward pass consumes from the sampled subgraph.
 *
 * Row source. Each gatherer owns a row table: one contiguous
 * numNodes() x attrLen() float array, row n = AttributeStore::fetch(n).
 * It is filled once, on the first gather(), and every row after that
 * is a copy out of it. The AttributeStore stays the only generator, so
 * a table row is bit-identical to a fetch. The fill is lazy because
 * the service builds a gatherer per worker even when a worker only
 * ever runs sample jobs; those never pay for the table.
 *
 * Dense levels. gather() copies every level by default (LeafRows::
 * Dense): roots and each frontier. With LeafRows::InTable it copies
 * only the levels that feed a GEMM (roots .. frontier[hops - 2]); the
 * forward then reads the leaf level (the deepest frontier) straight
 * from the table by node id (GatheredFeatures::leaf_table).
 *
 * Telemetry. rows/bytes count rows actually copied. remote_rows and
 * cache_hits count every level's entries, leaf included, whether
 * copied or read in place: the shard's HotVertexCache tier (when the
 * distributed backend has one) is probed read-through for every
 * remote-owned entry, so the fabric accounting matches what a real
 * disaggregated store would transfer. modeled_fabric_us is the
 * modeled fabric time of the residual remote bytes (bytes /
 * gather_gbps + RTT), which the worker pool uses to pace the stage
 * like a real DMA wait.
 *
 * Threading. One gatherer serves one pipeline: gather() fills the
 * table on first use, so it must not run concurrently with itself.
 * The table is never written again, so another thread may read it
 * (the worker's compute stage does) once a happens-before edge
 * orders it after that first gather(), such as a mailbox handoff.
 */

#ifndef LSDGNN_FRAMEWORK_GATHER_HH
#define LSDGNN_FRAMEWORK_GATHER_HH

#include <cstdint>
#include <span>
#include <vector>

#include "cache/hot_vertex_cache.hh"
#include "gnn/tensor.hh"
#include "graph/attributes.hh"
#include "graph/partition.hh"
#include "sampling/minibatch.hh"

namespace lsdgnn {
namespace framework {

/** What one gather() call touched and what it would have moved. */
struct GatherTelemetry {
    /** Attribute rows copied into the level matrices. */
    std::uint64_t rows = 0;
    /** Bytes of those rows (rows * AttributeStore::bytesPerNode). */
    std::uint64_t bytes = 0;
    /**
     * Entries of every level (leaf included) owned by a server other
     * than the gatherer's home.
     */
    std::uint64_t remote_rows = 0;
    /** Remote entries answered by the hot-vertex cache tier. */
    std::uint64_t cache_hits = 0;
    /**
     * Modeled fabric transfer time of the residual remote rows
     * (post-cache), zero when the gatherer has no bandwidth model.
     */
    double modeled_fabric_us = 0.0;
};

/** Where the forward reads the leaf level (deepest frontier) from. */
enum class LeafRows {
    /** levels holds every level, leaf included. */
    Dense,
    /** levels stops above the leaf; leaf rows come from the table. */
    InTable,
};

/**
 * Per-level feature matrices of one sampled batch: levels[0] = root
 * rows, levels[h + 1] = frontier[h] rows. Row i of a level is the
 * attribute vector of that level's i-th node, so the SampleResult's
 * parent indices address rows directly. Under LeafRows::InTable the
 * leaf level has no matrix, and leaf_table points at the gatherer's
 * row table instead.
 */
struct GatheredFeatures {
    std::vector<gnn::Matrix> levels;
    /**
     * Node-indexed row table holding the leaf level (row n = node n);
     * null when levels holds the leaf densely.
     */
    const float *leaf_table = nullptr;
};

/** Fabric model of the gather stage (0 = no modeled time). */
struct GatherFabricModel {
    /** Modeled gather bandwidth, GB/s; 0 disables the model. */
    double gbps = 0.0;
    /** Fixed per-batch fabric latency, microseconds. */
    double rtt_us = 0.0;
};

/** Gathers attribute rows for sampled batches. */
class AttributeGatherer
{
  public:
    /**
     * @param attrs Row generator the table is filled from.
     * @param partitioner Row-ownership map; its numNodes() sizes the
     *        row table, so it must not be null.
     * @param tier Home shard's hot-vertex cache; null = no tier.
     * @param home_server Server the gatherer is colocated with.
     */
    AttributeGatherer(const graph::AttributeStore &attrs,
                      const graph::Partitioner *partitioner,
                      cache::HotVertexCache *tier,
                      std::uint32_t home_server,
                      GatherFabricModel fabric = {});

    /**
     * Copy @p batch's level rows into @p out (level matrices are
     * reused when shapes repeat, so a steady-state worker re-gathers
     * into the same heap blocks). @p leaf picks whether the leaf level
     * is copied too or left in the row table. The first call fills
     * the row table.
     */
    void gather(const sampling::SampleResult &batch,
                GatheredFeatures &out,
                GatherTelemetry *telemetry = nullptr,
                LeafRows leaf = LeafRows::Dense);

    const graph::AttributeStore &attrs() const { return attrs_; }

    /** The row table (row n = node n); empty until the first gather(). */
    std::span<const float> table() const { return table_; }

  private:
    void fillTable();
    void account(graph::NodeId node, GatherTelemetry *telemetry) const;
    void gatherLevel(std::span<const graph::NodeId> nodes,
                     gnn::Matrix &out, GatherTelemetry *telemetry) const;

    const graph::AttributeStore &attrs_;
    const graph::Partitioner *part_;
    cache::HotVertexCache *tier_;
    std::uint32_t home_;
    GatherFabricModel fabric_;
    std::vector<float> table_;
};

} // namespace framework
} // namespace lsdgnn

#endif // LSDGNN_FRAMEWORK_GATHER_HH
