/**
 * @file
 * Node attribute (feature) storage.
 *
 * Paper-scale graphs carry 72-152 float features per node — tens of
 * terabytes in total, which is exactly why the original system needs a
 * distributed store. For the functional reproduction we keep the
 * attribute *interface* (fetch a node's feature vector, account the
 * bytes moved) but generate the values procedurally: each float is a
 * deterministic hash of (node id, dimension), so the store itself
 * holds no features and paper-scale figures keep their analytic
 * footprint. The service's gather stage does hold rows: each
 * framework::AttributeGatherer fills one node-indexed table from this
 * store on its first gather (nodes x attr_len x 4 B, about 0.5 MB for
 * the scaled service graphs) and copies rows out of it, because
 * hashing every float on every fetch made gather the slowest stage.
 * value() stays the only generator, so a table row is bit-identical
 * to a fetch.
 */

#ifndef LSDGNN_GRAPH_ATTRIBUTES_HH
#define LSDGNN_GRAPH_ATTRIBUTES_HH

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr_graph.hh"

namespace lsdgnn {
namespace graph {

/**
 * Procedural per-node feature source.
 *
 * fetch() fills a caller buffer with the node's attribute vector;
 * values are uniform in [-1, 1) and deterministic in (seed, node, dim).
 */
class AttributeStore
{
  public:
    /**
     * @param attr_len Number of float32 features per node.
     * @param seed Determinism seed; distinct stores give distinct data.
     */
    AttributeStore(std::uint32_t attr_len, std::uint64_t seed = 7);

    /**
     * Give nodes community-correlated features: node n belongs to
     * community n % communities, and dimensions congruent to its
     * community get @p boost added. Homophilous synthetic graphs
     * (edges within communities) then carry a learnable
     * attribute-similarity signal for training experiments.
     */
    void setCommunityBias(std::uint32_t communities, float boost);

    std::uint32_t attrLen() const { return attrLen_; }

    /** Bytes occupied by one node's attribute vector. */
    std::uint64_t
    bytesPerNode() const
    {
        return static_cast<std::uint64_t>(attrLen_) * sizeof(float);
    }

    /**
     * Fill @p out with the attribute vector of @p node.
     * @pre out.size() == attrLen().
     */
    void fetch(NodeId node, std::span<float> out) const;

    /** Allocating convenience wrapper around fetch(). */
    std::vector<float> fetch(NodeId node) const;

    /** Single attribute value (property tests address dims directly). */
    float value(NodeId node, std::uint32_t dim) const;

  private:
    std::uint32_t attrLen_;
    std::uint64_t seed_;
    std::uint32_t communities_ = 0; ///< 0 disables the bias
    float communityBoost = 0.0f;
};

} // namespace graph
} // namespace lsdgnn

#endif // LSDGNN_GRAPH_ATTRIBUTES_HH
