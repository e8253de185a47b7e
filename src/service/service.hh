/**
 * @file
 * Service: the concurrent request frontend over Session — the paper's
 * FaaS serving tier in software.
 *
 * Clients submit Jobs (job.hh) from any number of threads and get
 * futures back. One canonical entry point covers every workload the
 * FaaS frontier mixes: SampleJob returns the sampled subgraph,
 * EmbedJob runs the full Fig. 3 pipeline (sample -> attribute gather
 * -> GraphSAGE forward on the GEMM engine) and returns root
 * embeddings, TrainStepJob adds the in-batch link-prediction loss.
 * Inside, a bounded admission queue (load shedding), per-tenant QoS
 * (token buckets, priority lanes, EDF batching, brown-out), a dynamic
 * micro-batcher and a worker pool of Session shards — each worker a
 * double-buffered sample/gather | compute pipeline — turn submissions
 * into backend executions.
 *
 * Lifecycle: construct (workers start immediately), submit freely,
 * then shutdown() — Drain finishes every queued request, Cancel fails
 * them fast; both wait for in-flight micro-batches to complete their
 * futures. The destructor drains.
 */

#ifndef LSDGNN_SERVICE_SERVICE_HH
#define LSDGNN_SERVICE_SERVICE_HH

#include <future>
#include <memory>

#include "service/config.hh"
#include "service/job.hh"
#include "service/qos.hh"
#include "service/worker_pool.hh"

namespace lsdgnn {
namespace service {

/** Multi-threaded wall-clock GNN serving tier over Session shards. */
class Service
{
  public:
    /** Validates @p config (fatal when invalid) and starts workers. */
    explicit Service(ServiceConfig config);

    /** Drains and joins (equivalent to shutdown(Shutdown::Drain)). */
    ~Service();

    /**
     * Submit one job — the single entry point for every kind. A zero
     * options deadline falls back to the config's default. Never
     * blocks: on validation failure (empty plan; compute-kind hops !=
     * pipeline.layers -> InvalidArgument), admission denial or queue
     * overflow the returned future is already completed with the
     * failing status.
     */
    std::future<Reply> submit(const Job &job);

    /**
     * Submit and wait. The value arm carries any reply with a usable
     * payload (Ok or Degraded — inspect Reply::status for the
     * asterisk); shed outcomes land on the error arm with the
     * reply's status.
     */
    Result<Reply> execute(const Job &job);

    /** How shutdown treats requests still queued. */
    enum class Shutdown {
        Drain,  ///< execute everything already admitted
        Cancel, ///< fail queued requests with StatusCode::Cancelled
    };

    /**
     * Stop admitting, resolve the backlog per @p mode, and join the
     * workers. Requests a worker has already picked up complete
     * normally in both modes. Idempotent; the first call decides.
     */
    void shutdown(Shutdown mode = Shutdown::Drain);

    /** Requests currently waiting in the admission queue. */
    std::size_t queueDepth() const { return queue_->depth(); }

    /** Latency/throughput aggregates (stable after shutdown()). */
    const ServiceStats &stats() const { return *stats_; }

    /** Admission-queue counters (accepted/rejected/dropped/...). */
    const stats::StatGroup &queueStats() const
    {
        return queue_->stats();
    }

    /** The QoS runtime (registry + brown-out controller). */
    const QosRuntime &qos() const { return *qos_; }

    /**
     * One tenant's "service.tenant.<name>" counters, or nullptr if
     * the tenant was never seen.
     */
    const stats::StatGroup *tenantStats(TenantId id) const
    {
        return qos_->registry.stats(id);
    }

    /** Shared compute state (model + GEMM engine geometry). */
    const ComputeRuntime &compute() const { return *compute_; }

    const ServiceConfig &config() const { return config_; }

    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

  private:
    ServiceConfig config_;
    // unique_ptrs: qos/queue/stats/compute must outlive the pool's
    // worker threads and keep stable addresses across the facade's
    // lifetime. Declaration order is destruction-critical: the queue
    // holds a QosRuntime pointer, so qos_ must outlive queue_, and
    // the pool references everything above it.
    std::unique_ptr<QosRuntime> qos_;
    std::unique_ptr<ServiceStats> stats_;
    std::unique_ptr<RequestQueue> queue_;
    std::unique_ptr<ComputeRuntime> compute_;
    std::unique_ptr<WorkerPool> pool;
    bool down = false;
};

} // namespace service
} // namespace lsdgnn

#endif // LSDGNN_SERVICE_SERVICE_HH
