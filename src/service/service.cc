#include "service.hh"

#include "framework/distributed.hh"
#include "graph/datasets.hh"

namespace lsdgnn {
namespace service {

Service::Service(ServiceConfig config)
    : config_(std::move(config))
{
    const Status valid = config_.validate();
    lsd_assert(valid.ok(),
               "invalid ServiceConfig: ", valid.toString());
    qos_ = std::make_unique<QosRuntime>(config_.qos);
    stats_ = std::make_unique<ServiceStats>();

    RequestQueueConfig qcfg;
    qcfg.capacity = config_.queue_capacity;
    qcfg.interactive_weight = config_.qos.interactive_weight;
    qcfg.batch_weight = config_.qos.batch_weight;
    qcfg.starvation_threshold = config_.qos.starvation_threshold;
    queue_ = std::make_unique<RequestQueue>(qcfg);
    queue_->bindQos(qos_.get());

    // The distributed workers must share one store — the graph
    // instance is the big allocation, and per-worker copies would
    // also give every shard a private view instead of one fabric.
    if (config_.session.backend == framework::Backend::Distributed &&
        !config_.session.distributed.store)
        config_.session.distributed.store =
            framework::DistributedStore::create(config_.session);

    // One model for the whole service, seeded independently of the
    // workers: a seeded job's embeddings must not depend on which
    // worker computes them. The dataset spec fixes the input width
    // (instantiate() scales nodes/edges but keeps attr_len).
    compute_ = std::make_unique<ComputeRuntime>(
        config_.pipeline,
        graph::datasetByName(config_.session.dataset).attr_len);

    WorkerPoolConfig pcfg;
    pcfg.num_workers = config_.num_workers;
    pcfg.session = config_.session;
    pcfg.batcher = config_.batcher;
    pcfg.qos = qos_.get();
    pcfg.compute = compute_.get();
    pool = std::make_unique<WorkerPool>(pcfg, *queue_, *stats_);
    pool->start();
}

Service::~Service()
{
    shutdown(Shutdown::Drain);
}

std::future<Reply>
Service::submit(const Job &job)
{
    Request req;
    req.kind = job.kind();
    req.plan = job.plan();
    req.seed = job.options.seed;
    req.routing = job.options.routing;
    req.tenant = job.options.tenant;
    req.lane = job.options.lane;
    // trace_id 0 = "allocate one for me": every request runs under a
    // live trace identity, so replies, spans and flight-recorder
    // events always name their request (see SubmitOptions::trace_id
    // for the id scheme).
    req.trace_id = job.options.trace_id != 0
                       ? job.options.trace_id
                       : trace::TraceContext::nextTraceId();
    req.trace = trace::TraceContext::root(req.trace_id);
    std::future<Reply> future = req.promise.get_future();

    const auto failFast = [&](StatusCode code, std::string message,
                              ShedCause cause) {
        Reply reply;
        reply.status = Status(code, std::move(message));
        reply.kind = req.kind;
        reply.trace_id = req.trace_id;
        reply.span_id = req.trace.span_id;
        reply.tenant = req.tenant;
        reply.lane = req.lane;
        reply.shed_cause = cause;
        req.promise.set_value(std::move(reply));
        return std::move(future);
    };

    // Shape validation up front: a malformed plan must never occupy
    // queue capacity or a worker.
    if (req.plan.batch_size == 0 || req.plan.fanouts.empty())
        return failFast(StatusCode::InvalidArgument,
                        "plan needs batch_size > 0 and >= 1 hop",
                        ShedCause::None);
    if (needsCompute(req.kind) &&
        req.plan.hops() != config_.pipeline.layers)
        return failFast(
            StatusCode::InvalidArgument,
            "compute kinds must sample exactly pipeline.layers (" +
                std::to_string(config_.pipeline.layers) + ") hops, got " +
                std::to_string(req.plan.hops()),
            ShedCause::None);

    const auto now = Clock::now();
    const auto deadline = job.options.deadline.count() > 0
                              ? job.options.deadline
                              : config_.default_deadline;
    if (deadline.count() > 0)
        req.deadline = now + deadline;

    // Per-tenant token bucket: a deny burns the tenant's budget, not
    // queue capacity — the future completes immediately.
    const AdmitDecision decision = qos_->registry.admit(req.tenant, now);
    if (!decision.admitted)
        return failFast(StatusCode::Rejected,
                        "tenant admission rate exceeded", decision.cause);
    // Brown-out level 2 (DegradeAndShed): keep interactive traffic
    // flowing degraded, shed Batch-lane work outright.
    const double fill = static_cast<double>(queue_->depth()) /
                        static_cast<double>(queue_->capacity());
    const int level = qos_->brownout.observe(fill, now);
    if (level >= BrownOut::DegradeAndShed && req.lane == Lane::Batch) {
        qos_->registry.recordShed(req.tenant, ShedCause::BrownOut);
        return failFast(StatusCode::Rejected,
                        "brown-out: batch lane shedding",
                        ShedCause::BrownOut);
    }

    queue_->push(std::move(req));
    return future;
}

Result<Reply>
Service::execute(const Job &job)
{
    Reply reply = submit(job).get();
    if (!reply.status.hasPayload())
        return reply.status;
    return reply;
}

void
Service::shutdown(Shutdown mode)
{
    if (down)
        return;
    down = true;
    queue_->close();
    if (mode == Shutdown::Cancel)
        queue_->cancelPending();
    pool->join();
}

} // namespace service
} // namespace lsdgnn
