/**
 * @file
 * Replay of a workload's job stream through the layers' public
 * functions, on the benchmark's own thread.
 *
 * Each replayed job runs the same calls a service worker makes, in
 * the same order and with the same inputs: Session::sampleBatchInto
 * under the job's private Rng(seed), AttributeGatherer::gather,
 * gnn::forwardGathered on a ComputeRuntime built from the service's
 * PipelineConfig, plus one GemmEngine::matmul at the forward's
 * dominant shape. The replay serves two ends: its payload digest is
 * the reference a seeded reply must match, and in the traced run each
 * call is wrapped in a span (framework.sample, framework.gather,
 * gnn.forward, axe.gemm under one replay.job).
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "framework/gather.hh"
#include "framework/session.hh"
#include "service/service.hh"
#include "spans.hh"
#include "workload.hh"

namespace perfbench {

/** One job to replay. */
struct ReplayJob {
    /** The job's sampling seed; 0 draws from the replay's own stream. */
    std::uint64_t seed = 0;
    /** Roots of the executed (possibly merged) batch. */
    std::uint32_t batch_size = 0;
    /** Worker that served it (selects the Session shard). */
    std::uint32_t worker = 0;
};

/** Work the replayed layers reported, summed over every job. */
struct LayerTotals {
    std::uint64_t batches = 0;
    std::uint64_t nodes = 0; ///< roots + sampled nodes
    std::uint64_t cache_lookups = 0;
    std::uint64_t cache_hits = 0;
    std::vector<double> remote_wait_us; ///< per batch
    std::uint64_t gather_rows = 0;
    std::uint64_t gather_remote_rows = 0;
    std::uint64_t gather_bytes = 0;
    std::uint64_t forward_flops = 0;
    std::uint64_t gemm_flops = 0;
    /** m x k x n of the last axe.gemm call. */
    std::array<std::uint32_t, 3> gemm_shape{};
};

class Replayer
{
  public:
    /** Mirrors @p service's configuration; @p seed seeds the stream. */
    Replayer(const svc::Service &service, const Workload &w,
             std::uint64_t seed);
    ~Replayer();

    /**
     * Replay one job; spans go to @p log (null = untraced). Returns
     * the payload digest, or nullopt when sampling returned no payload.
     */
    std::optional<std::uint64_t> run(const ReplayJob &job, SpanLog *log);

    const LayerTotals &totals() const { return totals_; }

    /** Node count of the served graph. */
    std::uint64_t numNodes();

    /** Coalescing hit rate over every replay session. */
    double coalesceHitRate() const;

    Replayer(const Replayer &) = delete;
    Replayer &operator=(const Replayer &) = delete;

  private:
    struct Shard;
    Shard &shard(std::uint32_t worker);

    svc::ServiceConfig config_; ///< copy: keeps a shared store alive
    const Workload &w_;
    lsdgnn::Rng stream_;
    std::unique_ptr<svc::ComputeRuntime> compute_;
    std::vector<std::unique_ptr<Shard>> shards_;
    lsdgnn::sampling::SampleResult result_;
    lsdgnn::framework::GatheredFeatures features_;
    lsdgnn::gnn::Matrix gemmOut_;
    LayerTotals totals_;
};

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
