#include "service_stats.hh"

#include "common/trace.hh"

namespace lsdgnn {
namespace service {

namespace {

// Latency histograms: 100 us resolution up to 200 ms. Anything above
// lands in the overflow bin and percentile() reports the range top —
// by then the service is far past any sane SLO anyway.
constexpr double lat_hi_us = 200'000.0;
constexpr std::size_t lat_buckets = 2000;

// Emit percentile counters every this many completions: frequent
// enough to plot, cheap enough to never matter.
constexpr std::uint64_t trace_every = 32;

} // namespace

ServiceStats::Stage::Stage(const std::string &name, bool cpu)
    : us(0.0, lat_hi_us, lat_buckets),
      group("service.stage." + name)
{
    group.addHistogram("us", &us, name + "-stage latency (us)");
    group.addCounter("wall_ns", &wallNs,
                     name + "-stage wall time, summed over requests");
    if (cpu)
        group.addCounter("cpu_ns", &cpuNs,
                         name + "-stage thread CPU time, summed over "
                                "requests");
}

void
ServiceStats::Stage::sample(double wall_us, double cpu_us)
{
    us.sample(wall_us);
    wallNs.inc(toNs(wall_us));
    cpuNs.inc(toNs(cpu_us));
}

ServiceStats::LaneView::LaneView(Lane lane)
    : e2eUs(0.0, lat_hi_us, lat_buckets),
      group(std::string("service.lane.") + toString(lane))
{
    group.addCounter("completed", &completed,
                     "lane requests answered with a sample");
    group.addCounter("degraded", &degraded,
                     "of completed, served Degraded");
    group.addHistogram("e2e_us", &e2eUs,
                       "lane submit-to-completion latency (us)");
}

ServiceStats::LaneView &
ServiceStats::laneLocked(Lane lane)
{
    return lane == Lane::Batch ? laneBatch_ : laneInteractive_;
}

const ServiceStats::LaneView &
ServiceStats::laneLocked(Lane lane) const
{
    return lane == Lane::Batch ? laneBatch_ : laneInteractive_;
}

ServiceStats::ServiceStats()
    : queueWaitUs(0.0, lat_hi_us, lat_buckets),
      execUs(0.0, lat_hi_us, lat_buckets),
      e2eUs(0.0, lat_hi_us, lat_buckets),
      cacheHitPct_(0.0, 100.0, 101),
      fabricHedges_(0.0, 256.0, 64),
      fabricInflightPeak_(0.0, 65'536.0, 128),
      stageQueue_("queue", false),
      stageBatch_("batch", true),
      stageHandoff_("handoff", true),
      stageSample_("sample", true),
      stageRemote_("remote", false),
      stageGather_("gather", true),
      stageCompute_("compute", true),
      stageReply_("reply", true),
      laneInteractive_(Lane::Interactive),
      laneBatch_(Lane::Batch)
{
    stageCacheGroup_.addHistogram(
        "hit_pct", &cacheHitPct_,
        "hot-vertex cache hit percentage per request");
    stageFabricGroup_.addHistogram(
        "hedges", &fabricHedges_,
        "async-fabric hedge re-issues per batch with remote reads");
    stageFabricGroup_.addHistogram(
        "inflight_peak", &fabricInflightPeak_,
        "peak in-flight remote reads per batch with remote reads");
    group_.addCounter("completed", &completed_,
                      "requests answered with a sample");
    group_.addCounter("batches", &batches_, "micro-batches executed");
    group_.addAverage("batch_requests", &batchRequests,
                      "requests coalesced per micro-batch");
    group_.addAverage("batch_roots", &batchRoots,
                      "merged batch_size per micro-batch");
    group_.addHistogram("queue_wait_us", &queueWaitUs,
                        "admission-queue wait (us)");
    group_.addHistogram("exec_us", &execUs, "backend execution (us)");
    group_.addHistogram("e2e_us", &e2eUs,
                        "submit-to-completion latency (us)");
    group_.addCounter("lock_contended", &mutex_.contended(),
                      "stats-mutex acquisitions that blocked");
    group_.addCounter("lock_wait_ns", &mutex_.waitNs(),
                      "time blocked acquiring the stats mutex (ns)");
    lockGroup_.addCounter("queue_wait_ns", &queueLockNs_,
                          "per-request time blocked on the queue "
                          "mutex, summed over requests");
    lockGroup_.addCounter("stats_wait_ns", &statsLockNs_,
                          "per-request time blocked on the stats "
                          "mutex, summed over requests");
}

void
ServiceStats::traceLatencyLocked(Clock::time_point now)
{
    const Tick tick = wallTick(now);
    auto &tracer = trace::Tracer::instance();
    tracer.counter(trace_pid, "service.e2e_p50_us", tick,
                   e2eUs.percentile(0.5));
    tracer.counter(trace_pid, "service.e2e_p95_us", tick,
                   e2eUs.percentile(0.95));
    tracer.counter(trace_pid, "service.e2e_p99_us", tick,
                   e2eUs.percentile(0.99));
}

void
ServiceStats::recordCompletion(const Reply &reply,
                               const framework::SampleTelemetry &batch)
{
    const StageTimes &wall = reply.stages;
    const StageTimes &cpu = reply.cpu;
    const auto lock = mutex_.lock();
    completed_.inc();
    queueWaitUs.sample(wall.queue_us);
    execUs.sample(wall.sample_us + wall.gather_us + wall.compute_us);
    e2eUs.sample(reply.e2e_us);
    LaneView &lane = laneLocked(reply.lane);
    lane.completed.inc();
    if (reply.status == StatusCode::Degraded)
        lane.degraded.inc();
    lane.e2eUs.sample(reply.e2e_us);

    stageQueue_.sample(wall.queue_us, 0.0);
    stageBatch_.sample(wall.batch_us, cpu.batch_us);
    stageHandoff_.sample(wall.handoff_us, cpu.handoff_us);
    stageSample_.sample(wall.sample_us, cpu.sample_us);
    stageRemote_.sample(batch.remote_us, 0.0);
    if (needsCompute(reply.kind)) {
        stageGather_.sample(wall.gather_us, cpu.gather_us);
        stageCompute_.sample(wall.compute_us, cpu.compute_us);
    }
    stageReply_.sample(wall.reply_us, cpu.reply_us);
    queueLockNs_.inc(toNs(reply.queue_lock_us));
    statsLockNs_.inc(toNs(reply.stats_lock_us));
    if (batch.cache_lookups != 0)
        cacheHitPct_.sample(100.0 *
                            static_cast<double>(batch.cache_hits) /
                            static_cast<double>(batch.cache_lookups));
    if (batch.inflight_peak != 0) {
        fabricHedges_.sample(static_cast<double>(batch.hedges));
        fabricInflightPeak_.sample(
            static_cast<double>(batch.inflight_peak));
    }
    if (trace::Tracer::enabled() &&
        completed_.value() % trace_every == 0)
        traceLatencyLocked(Clock::now());
}

void
ServiceStats::recordBatch(std::size_t requests, std::uint64_t roots)
{
    const auto lock = mutex_.lock();
    batches_.inc();
    batchRequests.sample(static_cast<double>(requests));
    batchRoots.sample(static_cast<double>(roots));
}

std::uint64_t
ServiceStats::completed() const
{
    const auto lock = mutex_.lock();
    return completed_.value();
}

std::uint64_t
ServiceStats::laneCompleted(Lane lane) const
{
    const auto lock = mutex_.lock();
    return laneLocked(lane).completed.value();
}

double
ServiceStats::laneE2ePercentile(Lane lane, double q) const
{
    const auto lock = mutex_.lock();
    return laneLocked(lane).e2eUs.percentile(q);
}

std::uint64_t
ServiceStats::batches() const
{
    const auto lock = mutex_.lock();
    return batches_.value();
}

double
ServiceStats::e2ePercentile(double q) const
{
    const auto lock = mutex_.lock();
    return e2eUs.percentile(q);
}

double
ServiceStats::meanBatchRequests() const
{
    const auto lock = mutex_.lock();
    return batchRequests.mean();
}

} // namespace service
} // namespace lsdgnn
