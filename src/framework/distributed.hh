/**
 * @file
 * Distributed sharded sampling backend over the MoF fabric.
 *
 * The paper's deployment splits the graph store over many FPGA cards;
 * a sampling hop touching a node owned by another card crosses the
 * Memory-over-Fabric network as a packed multi-read request. This
 * module models that split:
 *
 *  - DistributedStore: the full graph instance plus one GraphShard
 *    per storage server, built once and shared read-only by every
 *    worker (each worker's Session aliases the store's graph and
 *    attributes instead of instantiating its own copy).
 *
 *  - DistributedBackend: one shard's sampling engine, now
 *    continuation-driven. Every root of a batch is an independent
 *    little state machine (RootState) with its own RNG stream: it
 *    expands hop by hop, sampling locally-owned frontier nodes inline
 *    and submitting remote ones into per-peer ShardChannels, then
 *    *parks* until the channel completions for exactly its reads
 *    arrive. Reads stream into the channels' staging buffers as they
 *    are discovered — across roots, across hops, and across the
 *    structure/attribute stages — so frames pack far fuller than the
 *    old one-flush-per-hop protocol, and a fast root races ahead
 *    through its hops while a slow one still awaits the wire. There
 *    is no hop barrier any more; one event-queue drain runs the whole
 *    batch. (DistributedConfig::async_fabric = false restores the
 *    lockstep round protocol — same per-root RNG streams, so both
 *    engines reproduce the same checked-in sampling digests,
 *    tests/golden.hh.)
 *
 *  - Degradation: a read that missed its per-package deadline or hit
 *    a down peer is answered by negative-resampling from the local
 *    shard and the batch Status comes back Degraded instead of
 *    failing.
 *
 *  - Hot-vertex cache tier (src/cache, DistributedConfig::cache_mb):
 *    each shard consults its replicated hot set before submitting any
 *    remote read. A hit is answered from local memory and never
 *    enters a shard channel; it still occupies its slot in the root's
 *    pending order, so the sampled output is byte-identical with the
 *    tier on or off.
 *
 * Determinism: roots are drawn with the caller's Rng (unchanged
 * sequence), then one extra draw forms a batch nonce from which every
 * root derives a private RNG stream. Each root consumes its own
 * stream in root-local discovery order, so the sampled *content* is
 * independent of completion scheduling; the output arrays are
 * assembled root-major from per-root blocks, making the *layout*
 * schedule-independent too. For a fixed config and seed the whole
 * schedule — sampling RNG, packing, simulated losses, retries,
 * hedges — replays exactly, because every random stream is seeded
 * from the config and the event-driven fabric is single-threaded per
 * backend.
 */

#ifndef LSDGNN_FRAMEWORK_DISTRIBUTED_HH
#define LSDGNN_FRAMEWORK_DISTRIBUTED_HH

#include <atomic>
#include <deque>
#include <memory>
#include <vector>

#include "cache/hot_vertex_cache.hh"
#include "framework/backend.hh"
#include "framework/session.hh"
#include "graph/partition.hh"
#include "mof/shard_channel.hh"
#include "sampling/scratch.hh"
#include "sim/event_queue.hh"

namespace lsdgnn {
namespace framework {

/**
 * The sharded graph store: one instance of the scaled dataset plus
 * its per-server CSR slices. Immutable after construction; share one
 * across every worker of a service (std::shared_ptr<const ...>).
 */
class DistributedStore
{
  public:
    /** Build from the session config (dataset, scale, shard count). */
    explicit DistributedStore(const SessionConfig &config);

    static std::shared_ptr<const DistributedStore>
    create(const SessionConfig &config);

    const graph::CsrGraph &graph() const { return graph_; }
    const graph::AttributeStore &attrs() const { return attrs_; }
    const graph::Partitioner &partitioner() const { return part_; }

    std::uint32_t
    numShards() const
    {
        return static_cast<std::uint32_t>(shards_.size());
    }

    const graph::GraphShard &
    shard(std::uint32_t k) const
    {
        lsd_assert(k < shards_.size(), "shard id out of range");
        return shards_[k];
    }

    /**
     * Shard @p k's hot-vertex cache tier, or nullptr when the tier is
     * disabled (DistributedConfig::cache_mb == 0). The cache is
     * internally thread-safe and mutable through the const store —
     * replicas are derived state, not graph data.
     */
    cache::HotVertexCache *
    cache(std::uint32_t k) const
    {
        lsd_assert(k < shards_.size(), "shard id out of range");
        return caches_.empty() ? nullptr : caches_[k].get();
    }

  private:
    /** Build + top-K-degree-warm the per-shard caches (cache_mb > 0). */
    void buildCaches(const SessionConfig &config);

    graph::CsrGraph graph_;
    graph::AttributeStore attrs_;
    graph::Partitioner part_;
    std::vector<graph::GraphShard> shards_;
    /** One tier per shard; empty when the tier is disabled. */
    std::vector<std::unique_ptr<cache::HotVertexCache>> caches_;
};

/**
 * One shard's sampling path against a shared DistributedStore.
 * Single-threaded; owns its EventQueue and per-peer ShardChannels.
 */
class DistributedBackend : public SamplingBackend
{
  public:
    DistributedBackend(const SessionConfig &config,
                       std::shared_ptr<const DistributedStore> store,
                       const sampling::NeighborSampler &sampler);
    ~DistributedBackend() override;

    Status sampleInto(const sampling::SamplePlan &plan,
                      const SampleOptions &options, Rng &rng,
                      sampling::SampleResult &out) override;

    std::string_view name() const override { return "distributed"; }

    std::uint32_t shard() const { return self_; }
    std::uint32_t numShards() const { return store_->numShards(); }

    /** Channel toward @p peer; nullptr for the home shard. */
    const mof::ShardChannel *
    channel(std::uint32_t peer) const
    {
        lsd_assert(peer < channels_.size(), "peer out of range");
        return channels_[peer].get();
    }

    /** Reads answered from the local shard. */
    std::uint64_t localReads() const { return localReads_.value(); }
    /** Reads that crossed the fabric (submitted onto a channel). */
    std::uint64_t remoteReads() const { return remoteReads_.value(); }
    /** Remote structure reads answered by the hot-vertex cache. */
    std::uint64_t cachedReads() const { return cached_.value(); }
    /** Remote attribute reads answered by the hot-vertex cache. */
    std::uint64_t attrCachedReads() const { return attrCached_.value(); }
    /** Remote reads served by another subscriber's submitted read. */
    std::uint64_t coalescedReads() const { return coalesced_.value(); }
    /** Remote reads answered by the degradation fallback. */
    std::uint64_t degradedReads() const { return degraded_.value(); }
    /** Flight-recorder trips on the in-flight read bound. */
    std::uint64_t stallTrips() const { return stallTrips_.value(); }
    /** Hedge re-issues across all channels, lifetime. */
    std::uint64_t
    hedges() const
    {
        std::uint64_t total = 0;
        for (const auto &ch : channels_)
            if (ch)
                total += ch->hedges();
        return total;
    }

    /**
     * Fraction of reads that actually crossed the fabric, over the
     * lifetime. Cache hits count toward the denominator but not the
     * numerator — the tier's whole point is pulling this below the
     * hash-partitioned (S-1)/S.
     */
    double
    remoteFraction() const
    {
        const double total = static_cast<double>(
            localReads_.value() + remoteReads_.value() +
            cached_.value() + attrCached_.value());
        return total == 0.0
                   ? 0.0
                   : static_cast<double>(remoteReads_.value()) / total;
    }

    /** The shard's cache tier; nullptr when disabled. */
    const cache::HotVertexCache *vertexCache() const { return cache_; }

  private:
    /**
     * One remote read a root is waiting to draw from. Either it was
     * submitted onto a channel (cached == false, slot is the channel
     * slot) or the hot-vertex cache answered it (cached == true, slot
     * indexes batchCachedRefs_). Cache hits keep their position in
     * the root's pending list so the root draws its RNG in exactly
     * discovery order — the sampled output is byte-identical with the
     * cache tier on or off.
     */
    struct PendingDraw {
        std::uint32_t parent; ///< local index into root's prev block
        graph::NodeId node;
        std::uint32_t peer;
        mof::ShardChannel::Slot slot;
        bool cached = false;
    };

    /** Continuation phases of one root's expansion. */
    enum class Phase : std::uint8_t {
        Expand,  ///< submit the current hop's reads
        Resolve, ///< pending settled; draw and advance the hop
        Attrs,   ///< structure done; submit attribute reads
        Finish,  ///< attribute reads settled; retire the root
    };

    /**
     * One root's continuation: private RNG stream, the current hop's
     * pending draws, and the count of unsettled channel slots the
     * root is parked on. The root owns no sample storage — it writes
     * straight into the caller's result arrays at a fixed worst-case
     * stride per hop (see assemble()), so completing out of order
     * never moves anybody else's bytes. Pooled across batches.
     */
    struct RootState {
        Rng rng{0};
        graph::NodeId root = 0;
        std::uint32_t hop = 0;
        std::uint32_t outstanding = 0;
        Phase phase = Phase::Expand;
        bool done = false;
        std::vector<PendingDraw> pending;
        std::vector<std::uint32_t> counts; ///< [hop] samples written
    };

    /** One batch-memoized tier probe (see batchCacheMemo_). */
    struct CachedVertex {
        cache::HotVertexCache::AdjacencyRef adjacency;
        bool has_attrs = false;
        bool admit_tried = false; ///< one admission offer per batch
    };

    /**
     * Epoch-stamped open-addressing node -> channel-slot map, the
     * structure-read twin of sampling::CoalescingSet. Now scoped to
     * the whole batch instead of one hop: any root, at any hop (and
     * the attribute stage through its own instance), that re-visits a
     * node some earlier read already covered shares that read's slot
     * — cross-root, cross-hop coalescing. Epoch stamping makes
     * begin() O(1) in steady state — no clearing.
     */
    class BatchDedup
    {
      public:
        /** Start a batch expecting at most @p expected inserts. */
        void begin(std::size_t expected);
        /**
         * One-probe find-or-claim: if @p key was seen this batch,
         * @p found is true and the returned pointer is its recorded
         * slot. Otherwise the key is claimed in place and the caller
         * must write the slot through the returned pointer (the hot
         * paths learn the slot only after submitting the read).
         */
        mof::ShardChannel::Slot *acquire(graph::NodeId key,
                                         bool &found);

      private:
        // 16-byte entries: the table covers every node instance a
        // batch touches (tens of thousands), so halving the footprint
        // versus a 64-bit stamp measurably cuts probe misses.
        struct Entry {
            graph::NodeId key = 0;
            mof::ShardChannel::Slot slot = 0;
            std::uint32_t epoch = 0;
        };
        std::size_t probe(graph::NodeId key) const;

        std::vector<Entry> table_;
        std::uint32_t epoch_ = 0;
        std::size_t mask_ = 0;
    };

    /** Per-peer slot-indexed bookkeeping for the current batch. */
    struct PeerBook {
        /** Roots parked on each slot (cleared as slots settle). */
        std::vector<std::vector<std::uint32_t>> waiters;
        /** True for attribute slots (failure accounting + admit). */
        std::vector<std::uint8_t> is_attr;
        /** Node behind each attribute slot (admission on arrival). */
        std::vector<graph::NodeId> node;
    };

    /** Continuation engine: run @p root until it parks or finishes. */
    void advanceRoot(std::uint32_t root);
    /** Drain the runnable worklist (trampoline; no re-entry). */
    void pump();
    /** Phase::Expand — inline local draws, submit remote reads. */
    void expandSubmit(std::uint32_t root);
    /** Phase::Resolve — draw the pending list in discovery order. */
    void expandResolve(std::uint32_t root);
    /** Phase::Attrs — submit this root's unseen attribute reads. */
    void submitAttrs(std::uint32_t root);
    /** Channel completion: wake roots parked on [first, first+n). */
    void onSlotsSettled(std::uint32_t peer, mof::ShardChannel &ch,
                        mof::ShardChannel::Slot first,
                        std::uint32_t count);
    /** Park @p root on @p slot of @p peer (slot must be unsettled). */
    void subscribe(std::uint32_t peer, mof::ShardChannel::Slot slot,
                   std::uint32_t root);
    /** Track the in-flight gauge/peak; trip the stall bound once. */
    void noteInFlight();
    /** Lockstep round-barrier driver (async_fabric = false). */
    void sampleBarrier();

    /** Emit one wall-clock stage slice for the span just run. */
    void emitStageTrace(const char *stage, std::size_t frontier,
                        std::uint64_t degraded, Tick wall_start);

    /** Compact the strided per-root segments of @p out in place. */
    void assemble(const sampling::SamplePlan &plan,
                  sampling::SampleResult &out);

    std::shared_ptr<const DistributedStore> store_;
    const sampling::NeighborSampler &sampler_;
    std::uint32_t self_;
    cache::HotVertexCache *cache_; ///< store's tier; null = disabled
    bool asyncFabric_;
    std::uint32_t maxInflightBound_;
    sim::EventQueue eq_;
    std::vector<std::unique_ptr<mof::ShardChannel>> channels_;
    std::vector<PeerBook> books_;

    std::vector<RootState> roots_;   ///< pooled continuations
    std::deque<std::uint32_t> runnable_;
    bool pumping_ = false;
    std::uint32_t liveRoots_ = 0;
    std::uint32_t batchRoots_ = 0;   ///< roots in the current batch
    const sampling::SamplePlan *plan_ = nullptr; ///< current batch
    sampling::SampleResult *batchOut_ = nullptr; ///< current batch
    /** Worst-case samples per root per hop: prod(fanouts[0..h]). */
    std::vector<std::uint32_t> hopStride_;
    std::vector<std::uint32_t> assemblePrev_; ///< assembly scratch
    std::vector<std::uint32_t> assembleCur_;  ///< assembly scratch
    BatchDedup structDedup_;
    BatchDedup attrDedup_;
    std::uint64_t degradedBatch_ = 0;
    std::uint64_t attrFailedBatch_ = 0;
    std::uint64_t inflightPeak_ = 0;
    bool stallTripped_ = false;

    /**
     * Batch-scoped memo of tier probes (node -> batchCachedRefs_
     * index). A batch revisits the same hot nodes thousands of times
     * across its hops and attribute stage; the tier is probed ONCE
     * per unique node per batch and every further read resolves
     * through this direct-mapped, epoch-stamped array — one L1 load,
     * no lock — so the mutexed cache is never on the per-read path.
     * Residency is sampled at first touch: a replica evicted
     * mid-batch is still served from the memoized ref (the slice is
     * an immutable snapshot, byte-identical to the owner's), and a
     * mid-batch admission is first visible to the next batch. The
     * arrays cost 8 bytes per graph node and are only allocated when
     * the tier is enabled.
     */
    std::vector<std::uint32_t> memoIndex_; ///< node -> refs index
    std::vector<std::uint32_t> memoEpoch_; ///< node -> batch stamp
    std::uint32_t memoCurrentEpoch_ = 0;
    std::vector<CachedVertex> batchCachedRefs_;

    /** Memoized probe of @p node, probing the tier on first touch. */
    CachedVertex &memoProbe(graph::NodeId node);
    sampling::SampleScratch scratch_;

    trace::TraceContext trace_;    ///< batch context (current call)
    trace::TraceContext batchCtx_; ///< child span of this batch
    Tick remoteWallPs_ = 0;     ///< wall ps in the event-queue drain
    std::uint64_t batchCacheLookups_ = 0; ///< this call's tier lookups
    std::uint64_t batchCacheHits_ = 0;    ///< this call's tier hits

    /**
     * Flight-recorder gauges ("mof.shard<k>.inflight_reads" /
     * ".staging_age_us"): dumps sample these from arbitrary threads
     * while the worker is mid-batch, so the backend mirrors the
     * values into atomics at submit/settle points instead of letting
     * the gauge walk live channel state.
     */
    std::atomic<std::uint32_t> gaugeInflight_{0};
    std::atomic<std::uint64_t> gaugeStageAgePs_{0};
    std::uint64_t inflightGaugeHandle_ = 0;
    std::uint64_t stageAgeGaugeHandle_ = 0;

    stats::Counter localReads_;
    stats::Counter remoteReads_;
    stats::Counter cached_;
    stats::Counter attrCached_;
    stats::Counter coalesced_;
    stats::Counter degraded_;
    stats::Counter batches_;
    stats::Counter stallTrips_;
    stats::StatGroup group_; ///< after its stats
};

} // namespace framework
} // namespace lsdgnn

#endif // LSDGNN_FRAMEWORK_DISTRIBUTED_HH
