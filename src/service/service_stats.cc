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

ServiceStats::Stage::Stage(const std::string &name)
    : us(0.0, lat_hi_us, lat_buckets),
      group("service.stage." + name)
{
    group.addHistogram("us", &us, name + "-stage latency (us)");
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
      stageQueue_("queue"),
      stageBatch_("batch"),
      stageSample_("sample"),
      stageRemote_("remote"),
      stageGather_("gather"),
      stageCompute_("compute"),
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
ServiceStats::recordCompletion(const Reply &reply)
{
    std::lock_guard<std::mutex> lock(mutex_);
    completed_.inc();
    queueWaitUs.sample(reply.queue_us);
    execUs.sample(reply.exec_us);
    e2eUs.sample(reply.e2e_us);
    LaneView &lane = laneLocked(reply.lane);
    lane.completed.inc();
    if (reply.status == StatusCode::Degraded)
        lane.degraded.inc();
    lane.e2eUs.sample(reply.e2e_us);
    if (trace::Tracer::enabled() &&
        completed_.value() % trace_every == 0)
        traceLatencyLocked(Clock::now());
}

void
ServiceStats::recordStages(double queue_us, double batch_us,
                           double sample_us, double remote_us,
                           std::uint64_t cache_lookups,
                           std::uint64_t cache_hits,
                           std::uint64_t hedges,
                           std::uint64_t inflight_peak)
{
    std::lock_guard<std::mutex> lock(mutex_);
    stageQueue_.us.sample(queue_us);
    stageBatch_.us.sample(batch_us);
    stageSample_.us.sample(sample_us);
    stageRemote_.us.sample(remote_us);
    if (cache_lookups != 0)
        cacheHitPct_.sample(100.0 *
                            static_cast<double>(cache_hits) /
                            static_cast<double>(cache_lookups));
    if (inflight_peak != 0) {
        fabricHedges_.sample(static_cast<double>(hedges));
        fabricInflightPeak_.sample(
            static_cast<double>(inflight_peak));
    }
}

void
ServiceStats::recordComputeStages(double gather_us, double compute_us)
{
    std::lock_guard<std::mutex> lock(mutex_);
    stageGather_.us.sample(gather_us);
    stageCompute_.us.sample(compute_us);
}

void
ServiceStats::recordBatch(std::size_t requests, std::uint64_t roots)
{
    std::lock_guard<std::mutex> lock(mutex_);
    batches_.inc();
    batchRequests.sample(static_cast<double>(requests));
    batchRoots.sample(static_cast<double>(roots));
}

std::uint64_t
ServiceStats::completed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return completed_.value();
}

std::uint64_t
ServiceStats::laneCompleted(Lane lane) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return laneLocked(lane).completed.value();
}

double
ServiceStats::laneE2ePercentile(Lane lane, double q) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return laneLocked(lane).e2eUs.percentile(q);
}

std::uint64_t
ServiceStats::batches() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return batches_.value();
}

double
ServiceStats::e2ePercentile(double q) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return e2eUs.percentile(q);
}

double
ServiceStats::queueWaitPercentile(double q) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queueWaitUs.percentile(q);
}

double
ServiceStats::meanBatchRequests() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return batchRequests.mean();
}

} // namespace service
} // namespace lsdgnn
