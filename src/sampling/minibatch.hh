/**
 * @file
 * Mini-batch multi-hop sampling plan and functional engine.
 *
 * This is the workload every other layer of the repo executes: given
 * a batch of root nodes, sample `fanout[h]` neighbors per frontier
 * node for each hop, then fetch attributes for everything touched.
 * The engine also keeps the byte-level traffic accounting (structure
 * vs attribute, local vs remote) behind Fig. 2(c) and the baseline
 * characterization.
 *
 * The execution path is allocation-free in steady state: the engine
 * threads a SampleScratch (see scratch.hh) through every hop, writes
 * samples into pre-sized arenas inside the caller's SampleResult, and
 * de-duplicates the GetAttribute stage with a CoalescingSet — the
 * software analogue of the paper's AxE pipeline buffers and 8 KB
 * coalescing cache. Traffic accounting reports both the raw access
 * stream (what a cache-less baseline would issue, Fig. 2(c)) and the
 * deduplicated unique stream (what survives the coalescing stage).
 */

#ifndef LSDGNN_SAMPLING_MINIBATCH_HH
#define LSDGNN_SAMPLING_MINIBATCH_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "graph/attributes.hh"
#include "graph/csr_graph.hh"
#include "graph/partition.hh"
#include "sampling/sampler.hh"
#include "sampling/scratch.hh"

namespace lsdgnn {
namespace sampling {

/** Static description of one sampling task. */
struct SamplePlan {
    /** Roots per mini-batch. */
    std::uint32_t batch_size = 512;
    /** Neighbors to sample per frontier node, one entry per hop. */
    std::vector<std::uint32_t> fanouts = {10, 10};
    /** Fetch node attributes for sampled nodes. */
    bool fetch_attributes = true;

    std::uint32_t hops() const
    {
        return static_cast<std::uint32_t>(fanouts.size());
    }

    /**
     * Upper bound on nodes touched per batch (roots + all hops).
     * Saturates at UINT64_MAX instead of overflowing on pathological
     * fanout products.
     */
    std::uint64_t maxNodesPerBatch() const;
};

/** One sampled mini-batch: per-hop frontiers. */
struct SampleResult {
    /** Roots of the batch. */
    std::vector<graph::NodeId> roots;
    /**
     * frontier[h] holds the hop-h samples; entry i*fanout..(i+1)*fanout
     * are the children of frontier[h-1][i] (or of roots when h == 0).
     * Nodes with no neighbors contribute no children, so rows are
     * tracked by the companion parent index vector.
     */
    std::vector<std::vector<graph::NodeId>> frontier;
    /** parent[h][j] = index into previous frontier of sample j. */
    std::vector<std::vector<std::uint32_t>> parent;

    /** Total sampled nodes across all hops (excluding roots). */
    std::uint64_t totalSampled() const;

    /** Empty the result while keeping every buffer's capacity. */
    void clearForReuse();
};

/**
 * Free list of SampleResults that keeps vector capacities alive, so a
 * worker that executes the same plan shape repeatedly reuses the same
 * heap blocks batch after batch. Single-owner (one worker thread), no
 * locking.
 */
class SampleResultPool
{
  public:
    /** Get a result (recycled, contents unspecified, when available). */
    SampleResult
    acquire()
    {
        if (free_.empty())
            return SampleResult{};
        SampleResult r = std::move(free_.back());
        free_.pop_back();
        return r;
    }

    /**
     * Return a result to the pool. Its contents become unspecified —
     * deliberately not cleared, so a full-overwrite consumer like
     * sampleBatchInto() can reuse the still-sized buffers without
     * re-initialization.
     */
    void
    release(SampleResult &&r)
    {
        free_.push_back(std::move(r));
    }

    std::size_t size() const { return free_.size(); }

  private:
    std::vector<SampleResult> free_;
};

/** Byte and request accounting for one or more batches. */
struct TrafficStats {
    std::uint64_t structure_requests = 0; ///< degree/adjacency reads
    std::uint64_t structure_bytes = 0;
    std::uint64_t attribute_requests = 0; ///< raw (pre-coalescing)
    std::uint64_t attribute_bytes = 0;
    /** Unique attribute reads after frontier dedup (coalescing). */
    std::uint64_t attribute_requests_unique = 0;
    std::uint64_t attribute_bytes_unique = 0;
    std::uint64_t remote_requests = 0; ///< requests leaving home server
    std::uint64_t local_requests = 0;

    std::uint64_t totalBytes() const
    {
        return structure_bytes + attribute_bytes;
    }

    std::uint64_t totalRequests() const
    {
        return structure_requests + attribute_requests;
    }

    /** Fraction of requests that are fine-grained structure reads. */
    double structureRequestFraction() const;

    /** Fraction of requests that cross servers. */
    double remoteFraction() const;

    /**
     * Fraction of raw attribute reads absorbed by the coalescing
     * dedup stage (0 when no attributes were fetched).
     */
    double attributeDedupRate() const;

    TrafficStats &operator+=(const TrafficStats &o);
};

/**
 * Functional mini-batch sampler over one CSR graph.
 *
 * Partition-awareness is optional: when a Partitioner is supplied the
 * engine classifies every access as local/remote relative to the
 * issuing server (server 0 by convention — the worker's colocated
 * storage process).
 *
 * Not thread-safe: the engine owns per-batch scratch arenas and
 * traffic accounting, matching the Session threading contract (one
 * engine per worker thread).
 */
class MiniBatchSampler
{
  public:
    /**
     * @param graph Graph to sample.
     * @param attrs Attribute store (sizes drive byte accounting).
     * @param sampler K-of-N algorithm to use per frontier node.
     * @param partitioner Optional placement for local/remote split.
     */
    MiniBatchSampler(const graph::CsrGraph &graph,
                     const graph::AttributeStore &attrs,
                     const NeighborSampler &sampler,
                     const graph::Partitioner *partitioner = nullptr);

    /**
     * Sample one mini-batch with roots drawn uniformly at random.
     */
    SampleResult sampleBatch(const SamplePlan &plan, Rng &rng);

    /**
     * Sample one mini-batch from the given roots.
     */
    SampleResult sampleBatch(const SamplePlan &plan,
                             std::span<const graph::NodeId> roots,
                             Rng &rng);

    /**
     * Hot-path variant: sample with random roots into @p out, reusing
     * whatever capacity @p out already holds. Zero heap allocation in
     * steady state (same plan shape batch over batch).
     */
    void sampleBatchInto(const SamplePlan &plan, Rng &rng,
                         SampleResult &out);

    /** Hot-path variant with explicit roots. */
    void sampleBatchInto(const SamplePlan &plan,
                         std::span<const graph::NodeId> roots, Rng &rng,
                         SampleResult &out);

    /** Accumulated traffic accounting since construction/reset. */
    const TrafficStats &traffic() const { return traffic_; }

    void resetTraffic() { traffic_ = TrafficStats{}; }

    /**
     * Coalescing-stage hit rate so far: fraction of attribute
     * lookups answered by the dedup set instead of the store.
     */
    double
    coalesceHitRate() const
    {
        const std::uint64_t lookups = coalesceLookups.value();
        return lookups == 0
            ? 0.0
            : static_cast<double>(coalesceHits.value()) /
              static_cast<double>(lookups);
    }

    /** Engine statistics ("sampling.coalesce.*"). */
    const stats::StatGroup &stats() const { return group; }

  private:
    const graph::CsrGraph &graph_;
    const graph::AttributeStore &attrs_;
    const NeighborSampler &sampler_;
    const graph::Partitioner *part;
    TrafficStats traffic_;
    SampleScratch scratch_;
    stats::Counter coalesceLookups; ///< raw GetAttribute accesses
    stats::Counter coalesceHits;    ///< duplicates absorbed by dedup
    stats::StatGroup group{"sampling.coalesce"}; ///< after its stats
};

/** Size in bytes of one graph-structure pointer/ID word. */
inline constexpr std::uint64_t structure_word_bytes = 8;

} // namespace sampling
} // namespace lsdgnn

#endif // LSDGNN_SAMPLING_MINIBATCH_HH
