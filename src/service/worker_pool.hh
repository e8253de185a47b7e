/**
 * @file
 * Worker pool: N double-buffered pipelines, one Session shard each.
 *
 * framework::Session is not thread-safe (see session.hh), so the pool
 * gives every worker thread its own Session, built *inside* the
 * worker thread from a shared config template with the seed offset by
 * the worker id — per-worker sampling streams are decorrelated yet
 * fully deterministic for a fixed base seed.
 *
 * Each worker is a two-stage pipeline (see pipeline.hh): the worker
 * thread collects a micro-batch, samples it and gathers attribute
 * rows (paced to the modeled gather fabric), then hands the payload
 * to its compute thread, which runs the GraphSAGE forward on the
 * shared GEMM engine and completes the riders' futures — so batch
 * i+1 samples/gathers while batch i computes. Sample-only jobs
 * complete inline in the first stage. PipelineConfig::enabled = false
 * runs both stages inline on the worker thread (serial mode).
 * Execution spans land on per-worker Perfetto tracks
 * (`service.workerN`, `service.workerN.compute`) when tracing is on.
 * Per-stage wall time is stamped on every Reply (`stages`) and summed
 * in the `service.stage.*` groups' `wall_ns` counters.
 */

#ifndef LSDGNN_SERVICE_WORKER_POOL_HH
#define LSDGNN_SERVICE_WORKER_POOL_HH

#include <cstdint>
#include <thread>
#include <vector>

#include "framework/session.hh"
#include "service/batcher.hh"
#include "service/pipeline.hh"
#include "service/request_queue.hh"
#include "service/service_stats.hh"

namespace lsdgnn {
namespace service {

struct QosRuntime;

/** Worker-pool construction knobs. */
struct WorkerPoolConfig {
    /** Worker threads (== Session shards). */
    std::uint32_t num_workers = 2;
    /** Per-worker Session template; seed is offset by worker id. */
    framework::SessionConfig session;
    /** Micro-batching policy every worker applies. */
    BatcherConfig batcher;
    /**
     * QoS runtime, owned by the service; required. Every worker feeds
     * the brown-out controller with queue fill before executing a
     * micro-batch, degrades the merged plan's fan-outs at level >= 1
     * (replies become Status::Degraded with ShedCause::BrownOut — the
     * payload stays usable; compute kinds additionally lose embedding
     * width), and records per-tenant outcomes.
     */
    QosRuntime *qos = nullptr;
    /**
     * Shared compute runtime (model + GEMM engine + pipeline knobs),
     * owned by the service; must outlive the pool. Null runs a
     * sample-only pool (direct-pool tests) — compute-kind requests
     * must not reach it.
     */
    const ComputeRuntime *compute = nullptr;
};

/**
 * Owns the worker threads. start() launches them; they exit when the
 * queue reports closed-and-drained. join() (or the destructor) waits
 * for that.
 */
class WorkerPool
{
  public:
    WorkerPool(WorkerPoolConfig config, RequestQueue &queue,
               ServiceStats &stats);

    /** Joins outstanding workers (queue must be closed to return). */
    ~WorkerPool();

    /** Launch the worker threads. Call once. */
    void start();

    /** Wait for every worker to drain out and exit. Idempotent. */
    void join();

    std::uint32_t numWorkers() const { return config_.num_workers; }

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

  private:
    void run(std::uint32_t worker_id);

    WorkerPoolConfig config_;
    RequestQueue &queue_;
    ServiceStats &stats_;
    std::vector<std::thread> threads;
};

} // namespace service
} // namespace lsdgnn

#endif // LSDGNN_SERVICE_WORKER_POOL_HH
