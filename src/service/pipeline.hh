/**
 * @file
 * The double-buffered execution pipeline of the worker pool.
 *
 * The paper's Fig. 3 serving path is a three-stage pipeline — sample,
 * gather, NN compute — and its throughput argument rests on the
 * stages overlapping: while batch i occupies the NN engine, batch
 * i+1 is already sampling and gathering. Each worker realizes that
 * overlap with two threads and two payload buffers:
 *
 *   stage A (the worker thread)  collect -> sample -> gather (paced
 *                                to the modeled fabric bandwidth)
 *   stage B (the compute thread) GraphSAGE forward -> split -> reply
 *
 * joined by a capacity-1 StageMailbox. The free-list mailbox holds
 * exactly two ComputePayload buffers, so stage A can prepare batch
 * i+1 while stage B computes batch i, and blocks (backpressure) only
 * when both buffers are in flight — classic double buffering, no
 * unbounded queue growth. Sample-only jobs never enter the mailbox:
 * they complete inline in stage A, exactly like the pre-pipeline
 * engine.
 *
 * PipelineConfig::enabled = false collapses the two stages into one
 * thread: stage A calls the stage-B body inline. Both modes run the
 * identical per-batch code in the identical order, so a seeded job's
 * reply is byte-identical between them; both reproduce the
 * checked-in golden digests (tests/golden.hh).
 */

#ifndef LSDGNN_SERVICE_PIPELINE_HH
#define LSDGNN_SERVICE_PIPELINE_HH

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>

#include "axe/gemm.hh"
#include "framework/backend.hh"
#include "framework/gather.hh"
#include "gnn/graphsage.hh"
#include "service/request.hh"
#include "service/stamps.hh"

namespace lsdgnn {
namespace service {

/** End-to-end pipeline + compute-stage knobs (one per service). */
struct PipelineConfig {
    /**
     * Double-buffered stage overlap. false runs sample, gather and
     * compute serially on the worker thread — the A/B baseline the
     * pipeline speedup is measured against. Functionally identical
     * either way.
     */
    bool enabled = true;
    /** Hidden/embedding width of the shared GraphSAGE model. */
    std::uint32_t hidden_dim = 64;
    /**
     * Model depth. Compute-kind plans must sample exactly this many
     * hops (submit rejects a mismatch with InvalidArgument).
     */
    std::uint32_t layers = 2;
    /** Neighborhood aggregation operator. */
    gnn::Aggregator aggregator = gnn::Aggregator::Max;
    /**
     * Weight-initialization seed of the shared model. One model is
     * built per service (not per worker), so embeddings for a seeded
     * job cannot depend on which worker computed them.
     */
    std::uint64_t model_seed = 7;
    /**
     * Modeled gather-fabric bandwidth, GB/s. When nonzero, the gather
     * stage sleeps until the batch's residual remote bytes would have
     * arrived at this rate (bytes / gbps + rtt), like a DMA wait on a
     * real disaggregated store — this is what gives the compute stage
     * something to hide behind. 0 disables pacing (tests).
     */
    double gather_gbps = 0.0;
    /** Fixed per-batch gather-fabric latency, microseconds. */
    double gather_rtt_us = 0.0;
    /** GEMM-engine geometry (axe::GemmEngine). */
    std::uint32_t gemm_rows = 32;
    std::uint32_t gemm_cols = 32;
    /** GEMM-engine datapath clock, MHz. */
    double gemm_clock_mhz = 250.0;
};

/**
 * The shared compute state of one service: the GraphSAGE model and
 * the GEMM engine every worker's compute stage uses. Both are
 * immutable after construction and safe to share across stage
 * threads. Built by the Service (never per worker): per-worker models
 * would give the same seeded job different embeddings on different
 * workers.
 */
class ComputeRuntime
{
  public:
    /**
     * @param config Pipeline knobs (validated by ServiceConfig).
     * @param attr_dim Input attribute width of the dataset.
     */
    ComputeRuntime(const PipelineConfig &config, std::size_t attr_dim);

    const PipelineConfig &config() const { return config_; }
    const gnn::GraphSageModel &model() const { return model_; }
    const axe::GemmEngine &gemm() const { return gemm_; }

    ComputeRuntime(const ComputeRuntime &) = delete;
    ComputeRuntime &operator=(const ComputeRuntime &) = delete;

  private:
    PipelineConfig config_;
    gnn::GraphSageModel model_;
    axe::GemmEngine gemm_;
};

/**
 * Everything stage A hands stage B for one micro-batch of a compute
 * kind. The buffers cycle through the free-list mailbox, so their
 * vector/matrix capacities survive across batches (zero steady-state
 * allocation once shapes stabilize).
 */
struct ComputePayload {
    /** The riders, in merge order (promises completed by stage B). */
    std::vector<Request> riders;
    /** Merged (possibly brown-out-degraded) plan that executed. */
    sampling::SamplePlan plan;
    /** batch_size of each rider, in merge order. */
    std::vector<std::uint32_t> root_counts;
    /** Merged sampled subgraph. */
    sampling::SampleResult batch;
    /**
     * Feature rows the gather stage materialized: dense roots .. hop
     * L-1, leaf rows read in place from the worker's row table.
     */
    framework::GatheredFeatures features;
    framework::GatherTelemetry gather_telemetry;
    framework::SampleTelemetry sample_telemetry;
    /** Micro-batch execution span (stage B parents onto it). */
    trace::TraceContext batch_ctx;
    /** Sampling outcome (Ok or Degraded; sheds never reach B). */
    Status exec_status = StatusCode::Ok;
    bool browned_out = false;
    /** Layer-width scale the forward pass must apply (brown-out). */
    double width_scale = 1.0;
    /** Stage-A stamps; stage B adds compute start and end. */
    BatchStamps stamps;

    /** Reset per-batch state, keeping every buffer's capacity. */
    void
    clearForReuse()
    {
        riders.clear();
        root_counts.clear();
        batch.clearForReuse();
        gather_telemetry = {};
        sample_telemetry = {};
        exec_status = StatusCode::Ok;
        browned_out = false;
        width_scale = 1.0;
        stamps = {};
    }
};

/**
 * Bounded blocking hand-off between two pipeline stages. push()
 * blocks while the box is at capacity (the double-buffering
 * backpressure), pop() blocks while it is empty; close() wakes both
 * sides — push() then drops and returns false, pop() drains what is
 * left and then returns false. One producer, one consumer.
 */
template <typename T>
class StageMailbox
{
  public:
    explicit StageMailbox(std::size_t capacity = 1)
        : capacity_(capacity)
    {}

    /** Blocking put; false iff the mailbox was closed. */
    bool
    push(T item)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        notFull_.wait(lock, [this] {
            return closed_ || items_.size() < capacity_;
        });
        if (closed_)
            return false;
        items_.push_back(std::move(item));
        notEmpty_.notify_one();
        return true;
    }

    /** Blocking take; false iff closed and drained. */
    bool
    pop(T &out)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        notEmpty_.wait(lock,
                       [this] { return closed_ || !items_.empty(); });
        if (items_.empty())
            return false;
        out = std::move(items_.front());
        items_.pop_front();
        notFull_.notify_one();
        return true;
    }

    /** Wake both sides; idempotent. */
    void
    close()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
        notEmpty_.notify_all();
        notFull_.notify_all();
    }

  private:
    std::mutex mutex_;
    std::condition_variable notEmpty_;
    std::condition_variable notFull_;
    std::deque<T> items_;
    std::size_t capacity_;
    bool closed_ = false;
};

} // namespace service
} // namespace lsdgnn

#endif // LSDGNN_SERVICE_PIPELINE_HH
