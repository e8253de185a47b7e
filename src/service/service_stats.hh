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
 *  - averages `batch_requests`, `batch_roots`,
 *  - counters `lock_contended`, `lock_wait_ns` (contention on this
 *    object's own mutex; the queue's group carries the same pair for
 *    the admission queue's mutex).
 *
 * Per-stage breakdown lives in sibling groups, so windowed exporters
 * (stats::WindowedStats) can report rolling per-stage figures by group
 * prefix. The named stages are those of a Reply (StageTimes in
 * request.hh), which sum to `e2e_us`:
 *
 *  - `service.stage.queue`   enqueue -> pop
 *  - `service.stage.batch`   pop -> batch close (aging window)
 *  - `service.stage.handoff` batch set-up and pipeline hand-offs
 *  - `service.stage.sample`  backend sampling
 *  - `service.stage.gather`  attribute-row gather (compute kinds)
 *  - `service.stage.compute` GNN forward pass (compute kinds)
 *  - `service.stage.reply`   split and completion of the riders
 *
 * Each carries a `us` histogram (percentiles) and a `wall_ns` counter
 * (exact sums, so a window's mean is wall_ns / n); every stage but
 * queue also carries `cpu_ns`, the serving threads' CPU time in that
 * stage. `service.stage.remote` (`us` and `wall_ns`) is the
 * remote-fabric wait inside the sample stage.
 *
 * All are sampled once per completed request (riders of one batch
 * each contribute the batch's shared stage times), keeping the stage
 * view request-weighted like `e2e_us`; gather and compute only for
 * compute kinds, so sample-only traffic does not dilute them.
 * `service.lock` sums, per request, the time its path blocked on the
 * queue's and this object's mutexes (`queue_wait_ns`,
 * `stats_wait_ns`). `service.stage.cache` carries a `hit_pct`
 * histogram (0-100) of the hot-vertex-cache hit percentage per
 * completed request; it is only sampled when the batch actually
 * probed the tier, so the windowed view tracks live hit rate rather
 * than averaging in cache-off noise.
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
#include "framework/backend.hh"
#include "service/request.hh"
#include "service/stamps.hh"

namespace lsdgnn {
namespace service {

/** Thread-safe latency/throughput accounting for one service. */
class ServiceStats
{
  public:
    ServiceStats();

    /**
     * Record one completed request: its latency, named stages, CPU
     * split and lock waits from @p reply, and the backend telemetry
     * of its batch (for compute kinds, cache probes include the
     * gather's). The cache hit percentage is only sampled when the
     * batch probed the tier at least once, the fabric view only when
     * the batch had remote reads in flight.
     */
    void recordCompletion(const Reply &reply,
                          const framework::SampleTelemetry &batch = {});

    /** Record one executed micro-batch. */
    void recordBatch(std::size_t requests, std::uint64_t roots);

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
        /** @param cpu Whether the stage has a `cpu_ns` counter. */
        Stage(const std::string &name, bool cpu);
        void sample(double wall_us, double cpu_us);
        stats::Histogram us;
        stats::Counter wallNs;
        stats::Counter cpuNs;
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

    mutable TimedMutex mutex_{LockSite::Stats};
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
    /** Per-request lock waits on the queue and stats mutexes. */
    stats::Counter queueLockNs_;
    stats::Counter statsLockNs_;
    stats::StatGroup group_{"service"};
    Stage stageQueue_;
    Stage stageBatch_;
    Stage stageHandoff_;
    Stage stageSample_;
    Stage stageRemote_;
    Stage stageGather_;
    Stage stageCompute_;
    Stage stageReply_;
    LaneView laneInteractive_;
    LaneView laneBatch_;
    stats::StatGroup stageCacheGroup_{"service.stage.cache"};
    stats::StatGroup stageFabricGroup_{"service.stage.fabric"};
    stats::StatGroup lockGroup_{"service.lock"};
};

} // namespace service
} // namespace lsdgnn

#endif // LSDGNN_SERVICE_SERVICE_STATS_HH
