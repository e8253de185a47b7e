#include "worker_pool.hh"

#include <algorithm>
#include <optional>
#include <string>

#include "common/flight_recorder.hh"
#include "common/logging.hh"
#include "common/trace.hh"
#include "framework/distributed.hh"
#include "gnn/minibatch_forward.hh"
#include "service/qos.hh"

namespace lsdgnn {
namespace service {

namespace {

std::uint64_t
toNs(double us)
{
    return static_cast<std::uint64_t>(us * 1000.0);
}

/** Copy @p count embedding rows starting at @p first into a reply. */
gnn::Matrix
sliceRows(const gnn::Matrix &all, std::size_t first, std::size_t count)
{
    gnn::Matrix out(count, all.cols());
    for (std::size_t i = 0; i < count; ++i) {
        const auto src = all.row(first + i);
        std::copy(src.begin(), src.end(), out.row(i).begin());
    }
    return out;
}

} // namespace

WorkerPool::WorkerPool(WorkerPoolConfig config, RequestQueue &queue,
                       ServiceStats &stats)
    : config_(config), queue_(queue), stats_(stats)
{
    lsd_assert(config_.num_workers > 0, "pool needs workers");
}

WorkerPool::~WorkerPool()
{
    join();
}

void
WorkerPool::start()
{
    lsd_assert(threads.empty(), "worker pool already started");
    threads.reserve(config_.num_workers);
    for (std::uint32_t i = 0; i < config_.num_workers; ++i)
        threads.emplace_back([this, i] { run(i); });
}

void
WorkerPool::join()
{
    for (std::thread &t : threads)
        if (t.joinable())
            t.join();
}

StageBusy
WorkerPool::stageBusy() const
{
    StageBusy busy;
    busy.sample_us =
        static_cast<double>(sampleBusyNs_.load()) / 1000.0;
    busy.gather_us =
        static_cast<double>(gatherBusyNs_.load()) / 1000.0;
    busy.compute_us =
        static_cast<double>(computeBusyNs_.load()) / 1000.0;
    return busy;
}

void
WorkerPool::run(std::uint32_t worker_id)
{
    const std::string track_name =
        "service.worker" + std::to_string(worker_id);

    // Sessions are not thread-safe; each worker owns one, built here
    // in the worker's own thread. The stream-seed offset decorrelates
    // the per-worker sampling streams deterministically while every
    // worker still instantiates the identical graph/attribute store —
    // one service serves one dataset, and seeded jobs must not care
    // which worker executes them.
    framework::SessionConfig scfg = config_.session;
    scfg.stream_seed_offset += worker_id;
    if (scfg.backend == framework::Backend::Distributed) {
        // Each worker plays one shard of the fabric (round-robin when
        // there are more workers than shards).
        const std::uint32_t shards =
            scfg.distributed.num_shards != 0 ? scfg.distributed.num_shards
                                             : scfg.num_servers;
        scfg.distributed.shard = worker_id % std::max<std::uint32_t>(
            shards, 1);
    }
    framework::Session session(scfg);

    // The gather stage reads rows through the shared store when the
    // backend is distributed (home = this worker's shard, remote rows
    // probe the shard's hot-vertex tier), else through the session's
    // own store with server 0 as home — the partitioner still tells
    // local from would-be-remote rows, so the modeled fabric pacing
    // is meaningful on every backend.
    const ComputeRuntime *compute = config_.compute;
    std::optional<framework::AttributeGatherer> gatherer;
    if (compute != nullptr) {
        framework::GatherFabricModel fabric;
        fabric.gbps = compute->config().gather_gbps;
        fabric.rtt_us = compute->config().gather_rtt_us;
        if (const auto &store = session.distributedStore())
            gatherer.emplace(store->attrs(), &store->partitioner(),
                             store->cache(scfg.distributed.shard),
                             scfg.distributed.shard, fabric);
        else
            gatherer.emplace(session.attributeStore(),
                             &session.nodePartitioner(), nullptr, 0,
                             fabric);
    }

    // The AxE command path draws its root window from a span of
    // numNodes - batch_size, so a merged batch must stay well under
    // the (scaled) graph size regardless of what the caller asked for.
    BatcherConfig bcfg = config_.batcher;
    bcfg.max_roots = std::min<std::uint64_t>(
        bcfg.max_roots, std::max<std::uint64_t>(
            1, session.graph().numNodes() / 2));
    const Batcher batcher(bcfg);

    // outlive their group
    stats::Counter batches, requests, gatherRows, tableBytes;
    stats::StatGroup group{track_name};
    group.addCounter("batches", &batches, "micro-batches executed");
    group.addCounter("requests", &requests, "requests completed");
    group.addCounter("gather_rows", &gatherRows,
                     "attribute rows copied by the gather stage");
    group.addCounter("attr_table_bytes", &tableBytes,
                     "bytes of the gatherer's row table (0 until the "
                     "first compute job fills it)");

    // Stage B: complete one compute-kind payload — forward pass on
    // the shared model/GEMM engine, split embeddings on root ranges,
    // resolve every rider. Runs on the compute thread when the
    // pipeline is on, inline on this thread when it is off; the body
    // is the same either way, so the two modes are byte-identical.
    const auto computeBatch = [&, worker_id](ComputePayload &p) {
        const auto compute_start = Clock::now();
        gnn::ForwardTelemetry forward;
        gnn::Matrix emb = gnn::forwardGathered(
            compute->model(), p.batch, p.features.levels,
            compute->gemm(), p.width_scale, &forward,
            p.features.leaf_table);
        const auto exec_end = Clock::now();
        const double compute_us = elapsedUs(compute_start, exec_end);
        computeBusyNs_.fetch_add(toNs(compute_us),
                                 std::memory_order_relaxed);
        const double exec_us =
            p.sample_us + p.gather_us + compute_us;
        const bool solo = p.riders.size() == 1;

        if (trace::Tracer::enabled()) {
            auto &tracer = trace::Tracer::instance();
            const auto tid =
                tracer.track(trace_pid, track_name + ".compute");
            const auto req_tid =
                tracer.track(trace_pid, track_name + ".req");
            for (const Request &req : p.riders) {
                const Tick rs = wallTick(req.enqueued_at);
                tracer.complete(trace_pid, req_tid, "req", rs,
                                wallTick(exec_end) - rs,
                                req.trace.argsJson());
                tracer.complete(trace_pid, req_tid, "queue.wait", rs,
                                wallTick(p.exec_start) - rs,
                                req.trace.argsJson());
            }
            tracer.complete(
                trace_pid, tid, "compute", wallTick(compute_start),
                wallTick(exec_end) - wallTick(compute_start),
                p.batch_ctx.argsJson() +
                    ",\"roots\":" +
                    std::to_string(p.batch.roots.size()) +
                    ",\"flops\":" + std::to_string(forward.flops) +
                    ",\"width_scale\":" +
                    std::to_string(p.width_scale));
        }

        std::size_t row = 0;
        for (std::size_t i = 0; i < p.riders.size(); ++i) {
            Request &rider = p.riders[i];
            const std::size_t rows = p.root_counts[i];
            Reply reply;
            reply.status = p.exec_status;
            reply.kind = rider.kind;
            if (p.browned_out) {
                if (reply.status == StatusCode::Ok)
                    reply.status = Status(
                        StatusCode::Degraded,
                        "brown-out: fan-out and width degraded");
                reply.shed_cause = ShedCause::BrownOut;
            }
            reply.embeddings =
                solo ? std::move(emb) : sliceRows(emb, row, rows);
            row += rows;
            if (rider.kind == JobKind::TrainStep)
                reply.loss = gnn::inBatchLoss(reply.embeddings);
            reply.flops = forward.flops;
            reply.gemm_cycles = forward.gemm_cycles;
            reply.trace_id = rider.trace_id;
            reply.span_id = rider.trace.span_id;
            reply.batch_span_id = p.batch_ctx.span_id;
            reply.tenant = rider.tenant;
            reply.lane = rider.lane;
            reply.worker = worker_id;
            reply.batched_with =
                static_cast<std::uint32_t>(p.riders.size());
            reply.queue_us = elapsedUs(rider.enqueued_at, p.exec_start);
            reply.exec_us = exec_us;
            reply.e2e_us = elapsedUs(rider.enqueued_at, exec_end);
            reply.sample_us = p.sample_us;
            reply.gather_us = p.gather_us;
            reply.compute_us = compute_us;
            stats_.recordCompletion(reply);
            if (config_.qos != nullptr)
                config_.qos->registry.recordOutcome(reply.tenant,
                                                    reply);
            stats_.recordStages(reply.queue_us, p.batch_us,
                                p.sample_us,
                                p.sample_telemetry.remote_us,
                                p.sample_telemetry.cache_lookups +
                                    p.gather_telemetry.remote_rows,
                                p.sample_telemetry.cache_hits +
                                    p.gather_telemetry.cache_hits,
                                p.sample_telemetry.hedges,
                                p.sample_telemetry.inflight_peak);
            stats_.recordComputeStages(p.gather_us, compute_us);
            if (rider.deadline != Clock::time_point::max() &&
                exec_end > rider.deadline) {
                trace::FlightRecorder::instance().recordNow(
                    "deadline.miss", rider.trace.trace_id,
                    rider.trace.span_id, reply.e2e_us);
                trace::FlightRecorder::instance().trip(
                    "deadline-miss:" + track_name);
            }
            rider.promise.set_value(std::move(reply));
        }
    };

    // Double-buffering: exactly two payloads cycle between this
    // thread and the compute thread through capacity-1 mailboxes, so
    // batch i+1 samples/gathers while batch i computes, and this
    // thread blocks only when both buffers are in flight. Serial mode
    // (pipeline off) reuses one buffer and computes inline.
    using PayloadPtr = std::unique_ptr<ComputePayload>;
    const bool piped =
        compute != nullptr && compute->config().enabled;
    StageMailbox<PayloadPtr> workBox(1);
    StageMailbox<PayloadPtr> freeBox(2);
    std::thread computeThread;
    PayloadPtr serialPayload;
    if (piped) {
        freeBox.push(std::make_unique<ComputePayload>());
        freeBox.push(std::make_unique<ComputePayload>());
        computeThread = std::thread([&] {
            PayloadPtr p;
            while (workBox.pop(p)) {
                computeBatch(*p);
                p->clearForReuse();
                freeBox.push(std::move(p));
            }
        });
    } else if (compute != nullptr) {
        serialPayload = std::make_unique<ComputePayload>();
    }

    // Hot-path reuse: the merged execution buffer cycles through a
    // result pool (its capacity survives the batch), the split scratch
    // and the parts vector persist across iterations. Only the
    // per-rider results moved into replies leave the worker.
    sampling::SampleResultPool resultPool;
    SplitScratch splitScratch;
    std::vector<Request> batch;
    std::vector<std::uint32_t> root_counts;
    std::vector<sampling::SampleResult> parts;
    Clock::time_point first_pop{};
    while (batcher.collect(queue_, batch, &first_pop)) {
        const auto exec_start = Clock::now();
        const JobKind kind = batch.front().kind;
        lsd_assert(!needsCompute(kind) || compute != nullptr,
                   "compute-kind request on a sample-only pool");

        // The micro-batch runs as one span: a child of the first
        // rider's root span (the batch's primary identity). The other
        // riders stay attached through flow events keyed on their own
        // trace ids.
        const trace::TraceContext batchCtx = batch.front().trace.child();

        sampling::SamplePlan plan = Batcher::merge(batch);
        root_counts.clear();
        for (const Request &req : batch)
            root_counts.push_back(req.plan.batch_size);

        // Brown-out: feed the controller with current queue fill and,
        // at Degrade or above, execute the merged plan with scaled-
        // down fan-outs — and, for compute kinds, a scaled-down layer
        // width. Riders still get a usable (smaller) payload.
        bool browned_out = false;
        double width_scale = 1.0;
        if (config_.qos != nullptr) {
            const double fill =
                static_cast<double>(queue_.depth()) /
                static_cast<double>(queue_.capacity());
            const int level =
                config_.qos->brownout.observe(fill, exec_start);
            if (level >= BrownOut::Degrade) {
                plan = config_.qos->brownout.degrade(plan);
                if (needsCompute(kind))
                    width_scale = config_.qos->brownout.config()
                                      .compute_width_scale;
                browned_out = true;
            }
        }

        framework::SampleOptions opts;
        opts.local_roots = batch.front().routing == Routing::LocalRoots;
        opts.trace = batchCtx;
        framework::SampleTelemetry telem;
        opts.telemetry = &telem;
        // Seeded jobs execute solo (batchCompatible) on a private
        // stream: the draw is independent of worker identity and of
        // whatever this session sampled before.
        std::optional<Rng> seeded;
        if (batch.front().seed != 0) {
            seeded.emplace(batch.front().seed);
            opts.rng = &*seeded;
        }

        stats_.recordBatch(batch.size(), plan.batch_size);
        batches.inc();
        requests.inc(batch.size());

        if (!needsCompute(kind)) {
            sampling::SampleResult merged = resultPool.acquire();
            const Status exec_status =
                session.sampleBatchInto(plan, merged, opts);
            const bool solo = batch.size() == 1;
            if (!solo)
                Batcher::splitInto(merged, root_counts, splitScratch,
                                   parts);

            const auto exec_end = Clock::now();
            const double exec_us = elapsedUs(exec_start, exec_end);
            const double batch_us = elapsedUs(first_pop, exec_start);
            sampleBusyNs_.fetch_add(toNs(exec_us),
                                    std::memory_order_relaxed);

            trace::FlightRecorder::instance().recordNow(
                "batch", batchCtx.trace_id, batchCtx.span_id,
                static_cast<double>(batch.size()), exec_us);

            if (trace::Tracer::enabled()) {
                auto &tracer = trace::Tracer::instance();
                const auto tid = tracer.track(trace_pid, track_name);
                const auto req_tid =
                    tracer.track(trace_pid, track_name + ".req");
                // Per-rider request + queue-wait slices. Riders of one
                // batch all end together, so the slices nest cleanly on
                // the shared .req track; each rider's flow arrow starts
                // in its request slice and lands in the batch slice.
                for (const Request &req : batch) {
                    const Tick rs = wallTick(req.enqueued_at);
                    tracer.complete(trace_pid, req_tid, "req", rs,
                                    wallTick(exec_end) - rs,
                                    req.trace.argsJson());
                    tracer.complete(trace_pid, req_tid, "queue.wait",
                                    rs, wallTick(exec_start) - rs,
                                    req.trace.argsJson());
                    tracer.flowStart(trace_pid, req_tid, "req", rs,
                                     req.trace.trace_id);
                    tracer.flowEnd(trace_pid, tid, "req",
                                   wallTick(exec_start),
                                   req.trace.trace_id);
                }
                tracer.complete(
                    trace_pid, tid, "batch", wallTick(exec_start),
                    wallTick(exec_end) - wallTick(exec_start),
                    batchCtx.argsJson() + ",\"requests\":" +
                        std::to_string(batch.size()) + ",\"roots\":" +
                        std::to_string(plan.batch_size) +
                        ",\"status\":\"" +
                        std::string(toString(exec_status.code())) +
                        "\"");
            }

            for (std::size_t i = 0; i < batch.size(); ++i) {
                Reply reply;
                // A degraded execution degrades every rider: each
                // one's slice may contain fallback-sampled frontier
                // entries.
                reply.status = exec_status;
                reply.kind = kind;
                if (browned_out) {
                    if (reply.status == StatusCode::Ok)
                        reply.status =
                            Status(StatusCode::Degraded,
                                   "brown-out: fan-out degraded");
                    reply.shed_cause = ShedCause::BrownOut;
                }
                reply.trace_id = batch[i].trace_id;
                reply.span_id = batch[i].trace.span_id;
                reply.batch_span_id = batchCtx.span_id;
                reply.tenant = batch[i].tenant;
                reply.lane = batch[i].lane;
                reply.batch = solo ? std::move(merged)
                                   : std::move(parts[i]);
                reply.worker = worker_id;
                reply.batched_with =
                    static_cast<std::uint32_t>(batch.size());
                reply.queue_us =
                    elapsedUs(batch[i].enqueued_at, exec_start);
                reply.exec_us = exec_us;
                reply.sample_us = exec_us;
                reply.e2e_us =
                    elapsedUs(batch[i].enqueued_at, exec_end);
                stats_.recordCompletion(reply);
                if (config_.qos != nullptr)
                    config_.qos->registry.recordOutcome(reply.tenant,
                                                        reply);
                stats_.recordStages(reply.queue_us, batch_us, exec_us,
                                    telem.remote_us,
                                    telem.cache_lookups,
                                    telem.cache_hits, telem.hedges,
                                    telem.inflight_peak);
                // A request that finished past its drop-dead time is
                // an SLO anomaly even though it was answered: record
                // it and (rate-limited) snapshot the flight recorder.
                if (batch[i].deadline != Clock::time_point::max() &&
                    exec_end > batch[i].deadline) {
                    trace::FlightRecorder::instance().recordNow(
                        "deadline.miss", batch[i].trace.trace_id,
                        batch[i].trace.span_id, reply.e2e_us);
                    trace::FlightRecorder::instance().trip(
                        "deadline-miss:" + track_name);
                }
                batch[i].promise.set_value(std::move(reply));
            }
            if (!solo)
                resultPool.release(std::move(merged));
            batch.clear();
            continue;
        }

        // Compute kind: acquire a payload buffer (this is the
        // double-buffering backpressure point — blocks only while
        // both buffers are in flight), sample and gather into it,
        // then hand it to the compute stage.
        PayloadPtr payload;
        if (piped) {
            if (!freeBox.pop(payload))
                break; // closed (cannot happen before shutdown)
        } else {
            payload = std::move(serialPayload);
        }
        payload->plan = plan;
        payload->root_counts = root_counts;
        payload->batch_ctx = batchCtx;
        payload->browned_out = browned_out;
        payload->width_scale = width_scale;
        payload->exec_start = exec_start;
        payload->batch_us = elapsedUs(first_pop, exec_start);

        payload->exec_status =
            session.sampleBatchInto(plan, payload->batch, opts);
        const auto sample_end = Clock::now();
        payload->sample_us = elapsedUs(exec_start, sample_end);
        payload->sample_telemetry = telem;
        sampleBusyNs_.fetch_add(toNs(payload->sample_us),
                                std::memory_order_relaxed);

        // Gather, then pace the stage to the modeled fabric: sleep
        // off the time the residual remote bytes would need on the
        // configured gather bandwidth, minus what the CPU part
        // already took — the DMA wait the compute stage overlaps.
        // Only the levels that feed a GEMM are copied; the forward
        // reads the leaf rows from the gatherer's table, which the
        // mailbox handoff publishes to the compute thread.
        gatherer->gather(payload->batch, payload->features,
                         &payload->gather_telemetry,
                         framework::LeafRows::InTable);
        gatherRows.inc(payload->gather_telemetry.rows);
        if (tableBytes.value() == 0)
            tableBytes.inc(gatherer->table().size_bytes());
        const auto gather_cpu_end = Clock::now();
        const double gather_cpu_us =
            elapsedUs(sample_end, gather_cpu_end);
        const double modeled_us =
            payload->gather_telemetry.modeled_fabric_us;
        if (modeled_us > gather_cpu_us)
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::micro>(
                    modeled_us - gather_cpu_us));
        payload->gather_us = elapsedUs(sample_end, Clock::now());
        gatherBusyNs_.fetch_add(toNs(payload->gather_us),
                                std::memory_order_relaxed);

        trace::FlightRecorder::instance().recordNow(
            "batch", batchCtx.trace_id, batchCtx.span_id,
            static_cast<double>(batch.size()),
            payload->sample_us + payload->gather_us);

        if (trace::Tracer::enabled()) {
            auto &tracer = trace::Tracer::instance();
            const auto tid = tracer.track(trace_pid, track_name);
            const Tick ss = wallTick(exec_start);
            tracer.complete(trace_pid, tid, "sample", ss,
                            wallTick(sample_end) - ss,
                            batchCtx.argsJson() + ",\"requests\":" +
                                std::to_string(batch.size()) +
                                ",\"roots\":" +
                                std::to_string(plan.batch_size));
            tracer.complete(trace_pid, tid, "gather",
                            wallTick(sample_end),
                            wallTick(Clock::now()) -
                                wallTick(sample_end),
                            batchCtx.argsJson() + ",\"rows\":" +
                                std::to_string(
                                    payload->gather_telemetry.rows));
            for (const Request &req : batch) {
                const Tick rs = wallTick(req.enqueued_at);
                tracer.flowStart(trace_pid, tid, "req", rs,
                                 req.trace.trace_id);
                tracer.flowEnd(trace_pid, tid, "req", ss,
                               req.trace.trace_id);
            }
        }

        payload->riders = std::move(batch);
        batch.clear();

        if (piped) {
            workBox.push(std::move(payload));
        } else {
            computeBatch(*payload);
            payload->clearForReuse();
            serialPayload = std::move(payload);
        }
    }

    // Drain the pipeline: the compute thread finishes any in-flight
    // payload, then exits on the closed mailbox.
    workBox.close();
    if (computeThread.joinable())
        computeThread.join();
}

} // namespace service
} // namespace lsdgnn
