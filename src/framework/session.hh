/**
 * @file
 * AliGraph-style session facade (paper Section 5).
 *
 * The paper integrates the hardware behind the framework so "users
 * can write the same model code" while sampling is transparently
 * offloaded. Session is that integration layer in this repo: one
 * object owns the graph store (scaled dataset instance, partitioning,
 * hot-node cache), exposes the GNN-operator-level API (k-hop
 * sampling, attribute fetch, negative sampling, fixed-model
 * graphSAGE embedding), and executes it on one of three backends
 * behind the SamplingBackend interface — the CPU software path, the
 * AxE offload path (Table 4 commands through the command decoder),
 * or the distributed sharded store over MoF shard channels. The
 * single-store backends produce identical functional results; they
 * differ in the performance model attached, which
 * estimatedSamplesPerSecond() reports.
 */

#ifndef LSDGNN_FRAMEWORK_SESSION_HH
#define LSDGNN_FRAMEWORK_SESSION_HH

#include <memory>
#include <optional>
#include <string>

#include "axe/analytic.hh"
#include "axe/command.hh"
#include "baseline/cpu_sampler.hh"
#include "baseline/hot_cache.hh"
#include "common/stats.hh"
#include "common/status.hh"
#include "framework/backend.hh"
#include "gnn/graphsage.hh"
#include "graph/datasets.hh"
#include "graph/partition.hh"
#include "sampling/minibatch.hh"

namespace lsdgnn {
namespace framework {

class DistributedStore;

/** Execution backend for the sampling stage. */
enum class Backend {
    /** CPU software path (the AliGraph baseline). */
    Software,
    /** AxE offload through Table 4 commands. */
    AxeOffload,
    /** Sharded store; remote hops cross MoF shard channels. */
    Distributed,
};

/** Options for the Distributed backend (ignored by the others). */
struct DistributedConfig {
    /** Shard count; 0 defers to SessionConfig::num_servers. */
    std::uint32_t num_shards = 0;
    /** Which shard this session's backend plays. */
    std::uint32_t shard = 0;
    /** Package/ACK loss probability on every shard channel. */
    double loss_probability = 0.0;
    /**
     * Per-round remote-read deadline, microseconds (simulated time).
     * A merged service batch can stage tens of thousands of remote
     * reads per hop, so the default is sized for the round's full
     * response serialization plus several ARQ recoveries — not for a
     * single package round trip.
     */
    double request_timeout_us = 1000.0;
    /**
     * Consecutive ARQ timeouts before a peer is declared down. Each
     * recovery cycle survives an independent package loss, so the
     * false-trip probability at loss p is ~p^retries: 8 keeps a 5%
     * lossy-but-alive fabric from being declared dead (0.05^8) while
     * still detecting a hard-down peer in bounded simulated time.
     */
    std::uint32_t max_retries = 8;
    /** Peers to mark administratively down at construction. */
    std::vector<std::uint32_t> down_shards;
    /**
     * Per-shard hot-vertex cache budget in MiB; 0 disables the tier.
     * When enabled, every shard of the store replicates the
     * highest-degree remote vertices (adjacency + attribute rows) at
     * load time and keeps admitting hotter-than-victim vertices from
     * returned frames (src/cache). Cache hits never enter a shard
     * channel round; the sampled output stays byte-identical with the
     * tier on or off.
     */
    double cache_mb = 0.0;
    /**
     * Continuation-driven async fabric (default). Remote reads stream
     * into per-peer staging buffers as roots discover them, pack
     * across hops/stages, and completions resume only the waiting
     * roots. `false` restores the hop-synchronous round barrier
     * (pass-1/stage-all, flush, pass-2) — same per-root RNG streams,
     * so the sampled output is byte-identical between the two modes.
     */
    bool async_fabric = true;
    /**
     * Staging-buffer age bound, microseconds (simulated): a partially
     * filled per-peer buffer flushes this long after its oldest read
     * arrived. Trades per-read (simulated) latency for pack occupancy;
     * 8 us lets late-hop and attribute reads ride the same frame train
     * without measurably moving the wall-clock batch time.
     */
    double stage_age_us = 8.0;
    /**
     * Hedged reads: when a package outlives this quantile of observed
     * package RTTs (times hedge_multiplier), re-issue it and take the
     * first answer. 0 disables hedging. Only the async fabric hedges.
     */
    double hedge_quantile = 0.95;
    /** Safety margin over the measured hedge quantile. */
    double hedge_multiplier = 2.0;
    /** Minimum hedge delay, microseconds (also pre-RTT-history). */
    double hedge_floor_us = 25.0;
    /**
     * Flight-recorder stall trip: fires when a batch's total
     * in-flight remote reads exceed this bound (0 disables).
     */
    std::uint32_t max_inflight_reads = 1u << 16;
    /**
     * Pre-built shared store. When null the Session builds a private
     * one; the service layer injects a single store so its workers
     * share one graph instance instead of instantiating per thread.
     */
    std::shared_ptr<const DistributedStore> store;
};

/** Session construction options. */
struct SessionConfig {
    /** Table 2 dataset name. */
    std::string dataset = "ls";
    /** Functional scale divisor for the in-memory instance. */
    std::uint64_t scale_divisor = 500'000;
    /** Logical storage servers the store is partitioned over. */
    std::uint32_t num_servers = 5;
    /** Sampling algorithm ("streaming-step", "standard", ...). */
    std::string sampler = "streaming-step";
    /** Sampling backend. */
    Backend backend = Backend::Software;
    /** Hot-node cache capacity as a fraction of nodes (0 = off). */
    double hot_cache_fraction = 0.0;
    /** GNN hidden width for the fixed-model embedding API. */
    std::uint32_t hidden_dim = 128;
    std::uint64_t seed = 1;
    /**
     * Extra offset folded into the *sampling stream* seed only — the
     * graph instance, attribute store and fixed model still derive
     * from `seed` alone. The service's worker pool sets this to the
     * worker id: every worker then serves the identical graph (as one
     * service must) while drawing from a decorrelated stream.
     */
    std::uint64_t stream_seed_offset = 0;
    /** Distributed-backend options. */
    DistributedConfig distributed;
};

/**
 * One LSD-GNN serving/training session.
 *
 * Thread-safety contract: a Session is NOT thread-safe. Sampling and
 * the modeled-throughput query mutate internal state (the RNG stream,
 * traffic accounting, the hot-node cache, stat counters) without any
 * locking, so all calls on one instance must come from a single
 * thread — the service layer (src/service) gives each worker thread
 * its own Session shard for exactly this reason, offsetting the seed
 * per worker to decorrelate streams.
 *
 * The exceptions are the pure const accessors over immutable
 * post-construction state — config(), graph(), dataset(),
 * nodeAttributes() and embed() — which may be called concurrently
 * with each other (but not with the mutating calls). traffic(),
 * hotCacheHitRate() and batchesSampled() are const but read state
 * written by sampleBatch(), so they are only safe once the sampling
 * thread has quiesced.
 */
class Session
{
  public:
    explicit Session(SessionConfig config);

    const SessionConfig &config() const { return config_; }
    const graph::CsrGraph &graph() const { return *graph_; }
    const graph::DatasetSpec &dataset() const { return spec; }

    /** GNN-operator level: sample one mini-batch. */
    sampling::SampleResult sampleBatch(const sampling::SamplePlan &plan);

    /**
     * Hot-path variant: sample into @p out, reusing its capacity.
     * Zero steady-state allocation on the Software backend; the AxE
     * backend moves the decoder read-back into @p out.
     *
     * Returns Ok, or Degraded when the distributed backend answered
     * part of the batch from its local fallback — @p out is a full,
     * usable batch either way (Status::hasPayload()).
     */
    Status sampleBatchInto(const sampling::SamplePlan &plan,
                           sampling::SampleResult &out,
                           const SampleOptions &options = {});

    /** The execution path sampleBatchInto() dispatches through. */
    const SamplingBackend &backend() const { return *backend_; }

    /** Shared sharded store; null unless Backend::Distributed. */
    const std::shared_ptr<const DistributedStore> &
    distributedStore() const
    {
        return store_;
    }

    /** GNN-operator level: fetch one node's attribute vector. */
    std::vector<float> nodeAttributes(graph::NodeId node) const;

    /**
     * The session's attribute store (immutable, thread-safe). The
     * service's gather stage reads rows through this from its own
     * pipeline thread.
     */
    const graph::AttributeStore &attributeStore() const
    {
        return *attrs;
    }

    /** Node-placement map (immutable after construction). */
    const graph::Partitioner &nodePartitioner() const
    {
        return partitioner;
    }

    /** GNN-operator level: negatives for a positive pair. */
    std::vector<graph::NodeId> negativeSample(graph::NodeId src,
                                              graph::NodeId dst,
                                              std::uint32_t rate);

    /** Fixed-model API: graphSAGE-max embeddings for a batch. */
    gnn::Matrix embed(const sampling::SampleResult &batch) const;

    /** Accumulated traffic accounting of the software path. */
    const sampling::TrafficStats &traffic() const;

    /**
     * Modeled sampling throughput of the configured backend on this
     * session's workload (samples/second): the CPU service model for
     * Software, the AxE analytical model (PoC configuration) for
     * AxeOffload.
     */
    double estimatedSamplesPerSecond(const sampling::SamplePlan &plan);

    /** Hot-cache hit rate so far (0 when the cache is off). */
    double hotCacheHitRate() const;

    /** Attribute-coalescing hit rate of the software engine. */
    double coalesceHitRate() const { return engine.coalesceHitRate(); }

    /** Batches sampled so far. */
    std::uint64_t batchesSampled() const { return batchCount.value(); }

    /** Session-level statistics ("framework.session.*"). */
    const stats::StatGroup &stats() const { return group; }

  private:
    SessionConfig config_;
    const graph::DatasetSpec &spec;
    /** Non-null iff the Distributed backend is selected. */
    std::shared_ptr<const DistributedStore> store_;
    /** Aliases store_'s graph when distributed, else privately owned. */
    std::shared_ptr<const graph::CsrGraph> graph_;
    std::shared_ptr<const graph::AttributeStore> attrs;
    graph::Partitioner partitioner;
    std::unique_ptr<sampling::NeighborSampler> sampler_;
    sampling::MiniBatchSampler engine;
    sampling::NegativeSampler negatives;
    std::optional<baseline::HotNodeCache> hotCache;
    std::optional<axe::CommandDecoder> decoder;
    Rng modelRng; ///< consumed while building the fixed model
    gnn::GraphSageModel model; ///< fixed 2-layer graphSAGE-max API
    Rng rng_;
    stats::Counter batchCount;
    stats::Average batchNodes;
    stats::StatGroup group{"framework.session"}; ///< after its stats
    /** Declared last: may borrow any of the members above. */
    std::unique_ptr<SamplingBackend> backend_;
};

} // namespace framework
} // namespace lsdgnn

#endif // LSDGNN_FRAMEWORK_SESSION_HH
