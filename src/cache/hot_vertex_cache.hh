/**
 * @file
 * Shard-aware hot-vertex cache tier.
 *
 * Power-law graphs concentrate sampling traffic on a tiny high-degree
 * hot set; hash partitioning still scatters those vertices across
 * shards, so every touch of a remote hot vertex pays a MoF round
 * trip. This tier replicates the hot set into each shard's local
 * memory — a vertex entry carries its adjacency slice (global target
 * IDs, byte-identical to the owner shard's) and/or its attribute row
 * — so the distributed backend can answer those reads without staging
 * anything on a shard channel. The same mechanism is AliGraph's
 * framework-level cache and the paper's mem-opt architecture point.
 *
 * Policy:
 *  - Admission: W-TinyLFU — a candidate enters only when its recent
 *    lookup frequency (FrequencySketch) plus a degree prior beats the
 *    eviction victim's. The degree prior admits structurally hot
 *    vertices (the CSR already knows them) before any traffic has
 *    been observed, which is what makes top-K degree warmup and
 *    on-miss admission the same code path.
 *  - Eviction: segmented LRU under a hard byte budget. New entries
 *    start in probation; a hit promotes to the protected segment
 *    (bounded to a fraction of the budget, demoting its LRU back to
 *    probation). Victims come from probation first, so one-hit
 *    wonders can never flush the established hot set.
 *  - Invalidation: epoch-based. bumpEpoch() atomically drops every
 *    replica and forgets sketch history; a future graph-mutation path
 *    bumps the epoch instead of chasing individual stale entries.
 *
 * Thread-safety: fully thread-safe behind one internal mutex; lookups
 * return shared_ptr payloads so a concurrent eviction or epoch bump
 * never invalidates data a reader already holds. The flight-recorder
 * trip on a hit-rate collapse is deferred until after the lock is
 * released (gauges registered by this cache re-enter the mutex).
 *
 * Determinism: for a single-threaded access sequence the full cache
 * state (residency, segments, sketch) is a pure function of that
 * sequence. Concurrent use may interleave differently run to run —
 * which is safe for the distributed backend because cache contents
 * only decide whether a read crosses the fabric, never what the
 * sampler draws (the replicated adjacency is byte-identical to the
 * owner's).
 */

#ifndef LSDGNN_CACHE_HOT_VERTEX_CACHE_HH
#define LSDGNN_CACHE_HOT_VERTEX_CACHE_HH

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/frequency_sketch.hh"
#include "common/stats.hh"
#include "graph/csr_graph.hh"

namespace lsdgnn {
namespace cache {

/** Construction knobs for one shard's cache. */
struct HotVertexCacheParams {
    /** Hard budget for replicated bytes (adjacency + attrs + index). */
    std::uint64_t capacity_bytes = 0;
    /** Bytes one replicated attribute row is charged. */
    std::uint32_t attr_bytes = 0;
    /** Budget share the protected segment may occupy. */
    double protected_fraction = 0.8;
    /** Expected resident entries (sizes the admission sketch). */
    std::size_t entries_hint = 1024;
    /** Lookups per hit-rate window (collapse detection). */
    std::uint64_t collapse_window = 2048;
    /** StatRegistry group name, e.g. "cache.shard0". */
    std::string stat_name = "cache";
    /** Register occupancy/hit-rate gauges with the FlightRecorder. */
    bool flight_gauges = false;
};

/**
 * One shard's replicated hot-vertex set: bounded, admission-filtered,
 * epoch-invalidated. See the file comment for the policy.
 */
class HotVertexCache
{
  public:
    /** Immutable replicated adjacency slice, safe past eviction. */
    using AdjacencyRef = std::shared_ptr<const std::vector<graph::NodeId>>;

    explicit HotVertexCache(HotVertexCacheParams params);
    ~HotVertexCache();

    HotVertexCache(const HotVertexCache &) = delete;
    HotVertexCache &operator=(const HotVertexCache &) = delete;

    /** Both residency facets of one vertex, from a single probe. */
    struct VertexView {
        AdjacencyRef adjacency; ///< null when no replicated slice
        bool has_attrs = false;
    };

    /**
     * Read-through lookup of @p node's adjacency slice. Counts a hit
     * or miss, feeds the admission sketch, and promotes on hit.
     * @return the replica, or null on miss.
     */
    AdjacencyRef lookupAdjacency(graph::NodeId node);

    /**
     * One-probe lookup of both facets, for callers that memoize per
     * batch (the distributed backend): one lock, one sketch feed, one
     * hit/miss count — a hit is any residency at all.
     */
    VertexView lookupVertex(graph::NodeId node);

    /**
     * Read-through lookup of @p node's attribute-row residency.
     * Counts and promotes like lookupAdjacency().
     */
    bool lookupAttributes(graph::NodeId node);

    /**
     * Offer @p node's adjacency for admission (read-through fill or
     * warmup). Idempotent for resident entries; an attribute-only
     * entry is upgraded in place. @return true when the replica is
     * resident afterwards.
     */
    bool admitAdjacency(graph::NodeId node,
                        std::span<const graph::NodeId> adjacency);

    /**
     * Offer @p node's attribute row for admission. @p degree_hint
     * feeds the degree prior for entries with no resident adjacency.
     */
    bool admitAttributes(graph::NodeId node,
                         std::uint64_t degree_hint = 0);

    /** Residency peek; no counters, no sketch, no promotion. */
    bool contains(graph::NodeId node) const;

    /**
     * Invalidate every replica at once: a mutation path bumps the
     * epoch instead of locating stale entries. Clears the sketch too
     * (post-mutation popularity must be re-learned).
     */
    void bumpEpoch();

    /** Epoch bumps so far (0 = never invalidated). */
    std::uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

    /** Replicated bytes currently resident. */
    std::uint64_t
    occupancyBytes() const
    {
        return occupancy_.load(std::memory_order_relaxed);
    }

    /** Hard byte budget. */
    std::uint64_t capacityBytes() const { return params_.capacity_bytes; }

    /** Resident entries. */
    std::size_t entries() const;

    std::uint64_t lookups() const { return lookups_.value(); }
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t admitted() const { return admitted_.value(); }
    std::uint64_t rejected() const { return rejected_.value(); }
    std::uint64_t evicted() const { return evicted_.value(); }
    std::uint64_t invalidated() const { return invalidated_.value(); }

    /** Lifetime hit rate over lookups (0 before any lookup). */
    double
    hitRate() const
    {
        const double total = static_cast<double>(hits() + misses());
        return total == 0.0 ? 0.0
                            : static_cast<double>(hits()) / total;
    }

    /** Index/bookkeeping bytes one entry is charged beyond payload. */
    static constexpr std::uint64_t entry_overhead_bytes = 96;

  private:
    enum class Segment : std::uint8_t { Probation, Protected };

    struct Entry {
        graph::NodeId node;
        AdjacencyRef adjacency; ///< null when only attrs are resident
        bool has_attrs = false;
        std::uint64_t degree = 0; ///< degree prior (adjacency or hint)
        std::uint64_t bytes = 0;
        Segment segment = Segment::Probation;
    };

    using EntryList = std::list<Entry>;

    /** Admission score: sketch frequency dominates, degree breaks ties. */
    std::uint64_t scoreLocked(graph::NodeId node,
                              std::uint64_t degree) const;
    std::uint64_t entryScoreLocked(const Entry &e) const;

    /** Move a just-hit entry toward the protected segment's MRU end. */
    void promoteLocked(EntryList::iterator it);

    /**
     * Make room for @p need more bytes; false = candidate loses (a
     * victim was at least as hot, or only @p exclude itself is left).
     */
    bool evictToFitLocked(std::uint64_t need,
                          std::uint64_t candidate_score,
                          graph::NodeId exclude);
    void evictLocked(EntryList::iterator it);

    /** Shared miss/hit accounting + collapse detection. */
    struct WindowVerdict {
        bool tripped = false;
        double rate = 0.0;
        double previous = 0.0;
    };
    WindowVerdict countLookupLocked(bool hit);
    void fireCollapse(const WindowVerdict &verdict);

    HotVertexCacheParams params_;

    mutable std::mutex mutex_;
    EntryList probation_;
    EntryList protected_;
    std::uint64_t protectedBytes_ = 0;
    std::unordered_map<graph::NodeId, EntryList::iterator> index_;
    FrequencySketch sketch_;
    std::atomic<std::uint64_t> occupancy_{0};
    std::atomic<std::uint64_t> epoch_{0};

    std::uint64_t windowLookups_ = 0;
    std::uint64_t windowHits_ = 0;
    double prevWindowRate_ = -1.0; ///< <0 = no completed window yet

    stats::Counter lookups_;
    stats::Counter hits_;
    stats::Counter misses_;
    stats::Counter admitted_;
    stats::Counter rejected_;
    stats::Counter evicted_;
    stats::Counter invalidated_;
    stats::Counter epochBumps_;
    stats::Counter bytesAdmitted_;
    stats::Counter bytesEvicted_;
    stats::StatGroup group_; ///< after its stats

    std::uint64_t bytesGauge_ = 0;   ///< FlightRecorder handle (0 = none)
    std::uint64_t hitRateGauge_ = 0; ///< FlightRecorder handle (0 = none)
};

} // namespace cache
} // namespace lsdgnn

#endif // LSDGNN_CACHE_HOT_VERTEX_CACHE_HH
