/**
 * @file
 * Node-to-server partitioning for the distributed in-memory store.
 *
 * AliGraph-style stores spread a graph over S "servers" (logical
 * vCPU groups). The partitioner answers two questions the rest of the
 * stack asks constantly: which server owns a node, and what fraction
 * of a node's neighborhood is remote (the locality that determines
 * communication volume).
 */

#ifndef LSDGNN_GRAPH_PARTITION_HH
#define LSDGNN_GRAPH_PARTITION_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "graph/csr_graph.hh"

namespace lsdgnn {
namespace graph {

/** Identifier of a logical storage server. */
using ServerId = std::uint32_t;

/** Placement policies for nodes onto servers. */
enum class PartitionPolicy {
    /** node % servers — maximally scattered, the paper's worst case. */
    Hash,
    /** contiguous ID ranges — best locality a static scheme can get. */
    Range,
};

/**
 * Static node partitioning over a fixed server count.
 */
class Partitioner
{
  public:
    /**
     * @param num_nodes Total node count of the partitioned graph.
     * @param num_servers Number of storage servers (>0).
     * @param policy Placement policy.
     */
    Partitioner(std::uint64_t num_nodes, ServerId num_servers,
                PartitionPolicy policy = PartitionPolicy::Hash);

    ServerId numServers() const { return servers; }

    /** Node count of the partitioned graph (valid IDs: [0, numNodes)). */
    std::uint64_t numNodes() const { return nodes; }

    /**
     * Owning server of @p node.
     *
     * Inlined and division-free: the sampling hot loop classifies
     * every access through here, so the Hash policy's `% servers` is
     * strength-reduced to Lemire's exact multiply-shift modulo (the
     * hashed key is 32-bit, for which the identity is exact), and the
     * Range policy's per-server width is precomputed once.
     */
    ServerId
    serverOf(NodeId node) const
    {
        lsd_assert(node < nodes, "serverOf: node out of range");
        switch (policy_) {
          case PartitionPolicy::Hash: {
            // Multiplicative hash decorrelates server choice from the
            // popularity skew baked into low node IDs.
            const std::uint32_t h = static_cast<std::uint32_t>(
                node * 0x9e3779b97f4a7c15ull >> 32);
            // h % servers without the div: lowbits carries the
            // fractional part of h / servers in 64-bit fixed point;
            // multiplying by servers recovers the remainder exactly.
            const std::uint64_t lowbits = modMagic * h;
            return static_cast<ServerId>(
                (static_cast<unsigned __int128>(lowbits) * servers) >> 64);
          }
          case PartitionPolicy::Range:
            return static_cast<ServerId>(node / rangePer);
        }
        lsd_panic("unknown partition policy");
    }

    /** Number of nodes placed on @p server. */
    std::uint64_t nodesOnServer(ServerId server) const;

    /**
     * Fraction of edges whose endpoint lives on a different server
     * than the source node (communication fraction).
     */
    double remoteEdgeFraction(const CsrGraph &graph) const;

  private:
    std::uint64_t nodes;
    ServerId servers;
    PartitionPolicy policy_;
    std::uint64_t modMagic;  ///< UINT64_MAX / servers + 1 (fastmod)
    std::uint64_t rangePer;  ///< ceil(nodes / servers) (Range policy)
};

/**
 * The CSR slice one storage server actually holds: adjacency lists of
 * the nodes the Partitioner places on it, indexed by *global* node ID
 * through a global->local translation table. Targets keep their
 * global IDs — an adjacency list routinely points at nodes owned by
 * other shards, which is exactly the traffic the distributed sampling
 * backend turns into MoF packages.
 *
 * Immutable after construction and safe to share across threads
 * read-only, like CsrGraph itself.
 */
class GraphShard
{
  public:
    /**
     * Slice @p graph down to the nodes @p part places on @p shard.
     * @pre shard < part.numServers() and the partitioner was built
     *      for this graph's node count.
     */
    GraphShard(const CsrGraph &graph, const Partitioner &part,
               ServerId shard);

    ServerId shard() const { return shard_; }

    /** Nodes this shard owns. */
    std::uint64_t numLocalNodes() const { return localNodes_.size(); }

    /** Whether @p node lives on this shard. */
    bool
    owns(NodeId node) const
    {
        lsd_assert(node < localIndex_.size(), "owns: node out of range");
        return localIndex_[node] != npos;
    }

    /** Out-degree of owned node @p node (global ID). */
    std::uint64_t
    degree(NodeId node) const
    {
        return slice_.degree(localOf(node));
    }

    /** Neighbor list (global target IDs) of owned node @p node. */
    std::span<const NodeId>
    neighbors(NodeId node) const
    {
        return slice_.neighbors(localOf(node));
    }

    /** Byte offset of the adjacency list within this shard's arrays. */
    std::uint64_t
    adjacencyByteOffset(NodeId node) const
    {
        return slice_.adjacencyByteOffset(localOf(node));
    }

    /** Owned nodes in ascending global-ID order. */
    const std::vector<NodeId> &localNodes() const { return localNodes_; }

    /** The underlying local-indexed CSR slice. */
    const CsrGraph &slice() const { return slice_; }

  private:
    static constexpr std::uint32_t npos = ~std::uint32_t(0);

    std::uint32_t
    localOf(NodeId node) const
    {
        lsd_assert(node < localIndex_.size(),
                   "shard ", shard_, ": node ", node, " out of range");
        const std::uint32_t local = localIndex_[node];
        lsd_assert(local != npos, "shard ", shard_,
                   " does not own node ", node);
        return local;
    }

    static CsrGraph buildSlice(const CsrGraph &graph,
                               const Partitioner &part, ServerId shard,
                               std::vector<std::uint32_t> &local_index,
                               std::vector<NodeId> &local_nodes);

    ServerId shard_;
    std::vector<std::uint32_t> localIndex_; ///< global -> local (npos)
    std::vector<NodeId> localNodes_;        ///< local -> global
    CsrGraph slice_;
};

} // namespace graph
} // namespace lsdgnn

#endif // LSDGNN_GRAPH_PARTITION_HH
