/**
 * @file
 * The one service configuration: every knob of the serving tier in a
 * single nested struct, plus the three sanctioned ways to build it.
 *
 * Before this header, examples and benches each assembled ServiceConfig
 * field-by-field and invented their own env/flag plumbing; the knobs
 * drifted. Now:
 *
 *  - ServiceConfig nests the per-subsystem configs (session, batcher,
 *    qos, pipeline) plus the service-level scalars, with defaults that
 *    boot a working 2-worker service.
 *  - validate() checks cross-field invariants (worker/queue counts,
 *    batcher limits, brown-out threshold ordering, pipeline geometry)
 *    and returns InvalidArgument with a message naming the offender —
 *    the Service constructor enforces it, so a malformed config can
 *    never reach a worker thread.
 *  - fromEnv() builds defaults overridden by LSDGNN_SERVICE_* env vars
 *    (the knobs operators actually flip at deploy time).
 *  - ServiceConfig::Builder is the fluent construction path for code:
 *    examples, benches and tests chain setters and build() validates.
 */

#ifndef LSDGNN_SERVICE_CONFIG_HH
#define LSDGNN_SERVICE_CONFIG_HH

#include "framework/session.hh"
#include "service/batcher.hh"
#include "service/pipeline.hh"
#include "service/qos.hh"

namespace lsdgnn {
namespace service {

/** Whole-service configuration. */
struct ServiceConfig {
    /** Per-worker Session template (seed offset by worker id). */
    framework::SessionConfig session;
    /** Worker threads / Session shards. */
    std::uint32_t num_workers = 2;
    /** Admission-queue capacity (push rejects beyond this). */
    std::size_t queue_capacity = 256;
    /** Micro-batching policy. */
    BatcherConfig batcher;
    /**
     * Deadline attached to submissions that do not carry their own;
     * zero means requests never expire in the queue.
     */
    std::chrono::microseconds default_deadline{0};
    /**
     * Multi-tenant QoS policy: per-tenant token-bucket admission,
     * priority lanes with weighted-fair dequeue, EDF batching and
     * brown-out.
     */
    QosConfig qos;
    /**
     * End-to-end pipeline + compute stage: the shared GraphSAGE
     * model/GEMM engine geometry, gather pacing, and whether workers
     * double-buffer the stages.
     */
    PipelineConfig pipeline;

    /**
     * Cross-field sanity. Ok, or InvalidArgument naming the first
     * violated invariant. The Service constructor asserts this.
     */
    Status validate() const;

    /**
     * Defaults overridden by environment variables:
     *
     *   LSDGNN_SERVICE_DATASET   Table 2 dataset name
     *   LSDGNN_SERVICE_SCALE     functional scale divisor
     *   LSDGNN_SERVICE_WORKERS   worker threads
     *   LSDGNN_SERVICE_QUEUE     admission-queue capacity
     *   LSDGNN_SERVICE_PIPELINE  0/1 double-buffered stages
     *   LSDGNN_SERVICE_HIDDEN    model hidden width
     *   LSDGNN_SERVICE_LAYERS    model depth (= required hops)
     *   LSDGNN_SERVICE_GATHER_GBPS  modeled gather bandwidth
     *
     * Unset or empty vars keep the default. A value with a sign, any
     * text, a value too large for its field, or a non-finite
     * bandwidth is fatal and names the variable, as is a
     * contradictory environment (the result is validated).
     */
    static ServiceConfig fromEnv();

    class Builder;
};

/**
 * Fluent construction: chain setters, then build() — which validates
 * and fails fast (lsd_assert) on an invalid combination, so examples
 * and benches cannot silently run a nonsensical service.
 */
class ServiceConfig::Builder
{
  public:
    Builder() = default;

    /** Start from an existing config (e.g. fromEnv()). */
    explicit Builder(ServiceConfig base) : config_(std::move(base)) {}

    Builder &
    dataset(std::string name, std::uint64_t scale_divisor)
    {
        config_.session.dataset = std::move(name);
        config_.session.scale_divisor = scale_divisor;
        return *this;
    }

    Builder &
    servers(std::uint32_t num_servers)
    {
        config_.session.num_servers = num_servers;
        return *this;
    }

    Builder &
    backend(framework::Backend backend)
    {
        config_.session.backend = backend;
        return *this;
    }

    Builder &
    distributed(framework::DistributedConfig distributed)
    {
        config_.session.backend = framework::Backend::Distributed;
        config_.session.distributed = std::move(distributed);
        return *this;
    }

    Builder &
    seed(std::uint64_t seed)
    {
        config_.session.seed = seed;
        return *this;
    }

    Builder &
    workers(std::uint32_t num_workers)
    {
        config_.num_workers = num_workers;
        return *this;
    }

    Builder &
    queueCapacity(std::size_t capacity)
    {
        config_.queue_capacity = capacity;
        return *this;
    }

    Builder &
    batchWindow(std::chrono::microseconds window)
    {
        config_.batcher.window = window;
        return *this;
    }

    Builder &
    maxBatchRequests(std::uint32_t max_requests)
    {
        config_.batcher.max_requests = max_requests;
        return *this;
    }

    Builder &
    defaultDeadline(std::chrono::microseconds deadline)
    {
        config_.default_deadline = deadline;
        return *this;
    }

    Builder &
    tenant(TenantId id, TenantConfig tenant)
    {
        config_.qos.tenants.emplace_back(id, std::move(tenant));
        return *this;
    }

    Builder &
    brownout(BrownOutConfig brownout)
    {
        config_.qos.brownout = brownout;
        return *this;
    }

    Builder &
    pipelined(bool enabled)
    {
        config_.pipeline.enabled = enabled;
        return *this;
    }

    Builder &
    model(std::uint32_t hidden_dim, std::uint32_t layers)
    {
        config_.pipeline.hidden_dim = hidden_dim;
        config_.pipeline.layers = layers;
        return *this;
    }

    Builder &
    gatherFabric(double gbps, double rtt_us)
    {
        config_.pipeline.gather_gbps = gbps;
        config_.pipeline.gather_rtt_us = rtt_us;
        return *this;
    }

    /** Direct access for knobs without a dedicated setter. */
    ServiceConfig &raw() { return config_; }

    /** Validate and return the config; fatal when invalid. */
    ServiceConfig build() const;

  private:
    ServiceConfig config_;
};

} // namespace service
} // namespace lsdgnn

#endif // LSDGNN_SERVICE_CONFIG_HH
