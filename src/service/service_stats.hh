/**
 * @file
 * Aggregated service-level statistics.
 *
 * One ServiceStats instance is shared by every worker and the
 * frontend; all mutation happens under an internal mutex, so it is
 * safe to record from any thread. The stats surface through the
 * process-wide StatRegistry as the "service" group:
 *
 *  - histograms `queue_wait_us`, `exec_us`, `e2e_us` (microseconds;
 *    JSON export carries p50/p90/p95/p99),
 *  - counters `completed`, `batches`,
 *  - averages `batch_requests`, `batch_roots`.
 *
 * Per-stage SLO breakdown lives in sibling groups, one histogram
 * ("us") each, so windowed exporters (stats::WindowedStats) can
 * report rolling per-stage percentiles by group prefix:
 *
 *  - `service.stage.queue`   admission-queue wait
 *  - `service.stage.batch`   micro-batch forming (aging window)
 *  - `service.stage.sample`  backend execution
 *  - `service.stage.remote`  remote-fabric wait inside execution
 *  - `service.stage.gather`  attribute-row gather (compute kinds)
 *  - `service.stage.compute` GNN forward pass (compute kinds)
 *
 * All four are sampled once per completed request (riders of one
 * batch each contribute the batch's shared stage times), keeping the
 * stage view request-weighted like `e2e_us`. A fifth group,
 * `service.stage.cache`, carries a `hit_pct` histogram (0-100) of the
 * hot-vertex-cache hit percentage per completed request; it is only
 * sampled when the batch actually probed the tier, so the windowed
 * view tracks live hit rate rather than averaging in cache-off noise.
 *
 * When tracing is enabled, end-to-end latency percentiles are also
 * emitted periodically as Perfetto counter series
 * (`service.e2e_p50_us` / `_p95_us` / `_p99_us`) so overload shows up
 * directly on the timeline next to `service.queue.depth`.
 */

#ifndef LSDGNN_SERVICE_SERVICE_STATS_HH
#define LSDGNN_SERVICE_SERVICE_STATS_HH

#include <mutex>

#include "common/stats.hh"
#include "service/request.hh"

namespace lsdgnn {
namespace service {

/** Thread-safe latency/throughput accounting for one service. */
class ServiceStats
{
  public:
    ServiceStats();

    /** Record one completed (Ok) request's latency split. */
    void recordCompletion(const Reply &reply);

    /** Record one executed micro-batch. */
    void recordBatch(std::size_t requests, std::uint64_t roots);

    /**
     * Record one completed request's per-stage latency split (all in
     * microseconds; see the file comment for stage definitions).
     * @p cache_lookups / @p cache_hits are the batch's hot-vertex
     * cache probe counts; hit percentage is only sampled when the
     * batch probed the tier at least once. @p hedges / @p
     * inflight_peak are the async fabric's hedge re-issues and peak
     * simultaneous in-flight remote reads for the batch; both are
     * only sampled when the batch actually had reads in flight, so
     * the windowed fabric view ignores all-local batches.
     */
    void recordStages(double queue_us, double batch_us,
                      double sample_us, double remote_us,
                      std::uint64_t cache_lookups = 0,
                      std::uint64_t cache_hits = 0,
                      std::uint64_t hedges = 0,
                      std::uint64_t inflight_peak = 0);

    /**
     * Record one completed compute-kind request's pipeline stages:
     * `service.stage.gather` (attribute-row materialization +
     * modeled-fabric pacing) and `service.stage.compute` (GraphSAGE
     * forward on the GEMM engine). Sampled only for Embed/TrainStep
     * completions, so the windowed view is not diluted by
     * sample-only traffic.
     */
    void recordComputeStages(double gather_us, double compute_us);

    /** Completed (Ok) requests so far. */
    std::uint64_t completed() const;

    /** Completed requests that rode @p lane. */
    std::uint64_t laneCompleted(Lane lane) const;

    /** Per-lane end-to-end latency percentile (us), q in [0,1]. */
    double laneE2ePercentile(Lane lane, double q) const;

    /** Micro-batches executed so far. */
    std::uint64_t batches() const;

    /** End-to-end latency percentile (us), q in [0,1]. */
    double e2ePercentile(double q) const;

    /** Queue-wait latency percentile (us), q in [0,1]. */
    double queueWaitPercentile(double q) const;

    /** Mean requests per executed micro-batch. */
    double meanBatchRequests() const;

    /** The registered "service" StatGroup (quiesce before reading). */
    const stats::StatGroup &group() const { return group_; }

    ServiceStats(const ServiceStats &) = delete;
    ServiceStats &operator=(const ServiceStats &) = delete;

  private:
    void traceLatencyLocked(Clock::time_point now);

    /** One per-stage breakdown group ("service.stage.<name>"). */
    struct Stage {
        explicit Stage(const std::string &name);
        stats::Histogram us;
        stats::StatGroup group;
    };

    /**
     * One per-lane view ("service.lane.<name>"): completions,
     * degraded completions and e2e latency of that priority lane, so
     * windowed exporters can show Interactive SLO attainment next to
     * (and unpolluted by) the Batch lane.
     */
    struct LaneView {
        explicit LaneView(Lane lane);
        stats::Counter completed;
        stats::Counter degraded;
        stats::Histogram e2eUs;
        stats::StatGroup group;
    };
    LaneView &laneLocked(Lane lane);
    const LaneView &laneLocked(Lane lane) const;

    mutable std::mutex mutex_;
    // Every stat is declared before the group it is added to (a stat
    // must outlive its group); Stage and LaneView do the same inside.
    stats::Counter completed_;
    stats::Counter batches_;
    stats::Average batchRequests;
    stats::Average batchRoots;
    stats::Histogram queueWaitUs;
    stats::Histogram execUs;
    stats::Histogram e2eUs;
    /** Hot-vertex-cache hit percentage per request (0-100). */
    stats::Histogram cacheHitPct_;
    /** Async-fabric view per request with remote reads in flight. */
    stats::Histogram fabricHedges_;
    stats::Histogram fabricInflightPeak_;
    stats::StatGroup group_{"service"};
    Stage stageQueue_;
    Stage stageBatch_;
    Stage stageSample_;
    Stage stageRemote_;
    Stage stageGather_;
    Stage stageCompute_;
    LaneView laneInteractive_;
    LaneView laneBatch_;
    stats::StatGroup stageCacheGroup_{"service.stage.cache"};
    stats::StatGroup stageFabricGroup_{"service.stage.fabric"};
};

} // namespace service
} // namespace lsdgnn

#endif // LSDGNN_SERVICE_SERVICE_STATS_HH
