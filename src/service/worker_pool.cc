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
#include "service/stamps.hh"

namespace lsdgnn {
namespace service {

namespace {

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
    lsd_assert(config_.qos != nullptr, "pool needs the QoS runtime");
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

    // Completes one rider, on whichever thread ran its batch's last
    // stage: stamp its stages (its reply stage runs from work_end
    // until now), account it, and set its future.
    const auto complete = [&, worker_id](
                              Request &rider, Reply &reply,
                              const BatchStamps &st,
                              const ThreadMark &work_end,
                              const trace::TraceContext &batch_ctx,
                              std::size_t riders,
                              const framework::SampleTelemetry &telem) {
        st.stamp(reply, rider, work_end);
        reply.kind = rider.kind;
        reply.trace_id = rider.trace_id;
        reply.span_id = rider.trace.span_id;
        reply.batch_span_id = batch_ctx.span_id;
        reply.tenant = rider.tenant;
        reply.lane = rider.lane;
        reply.worker = worker_id;
        reply.batched_with = static_cast<std::uint32_t>(riders);
        stats_.recordCompletion(reply, telem);
        config_.qos->registry.recordOutcome(reply.tenant, reply);
        // A request that finished past its drop-dead time is an SLO
        // anomaly even though it was answered: record it and
        // (rate-limited) snapshot the flight recorder.
        if (rider.deadline != Clock::time_point::max() &&
            Clock::now() > rider.deadline) {
            trace::FlightRecorder::instance().recordNow(
                "deadline.miss", rider.trace.trace_id,
                rider.trace.span_id, reply.e2e_us);
            trace::FlightRecorder::instance().trip("deadline-miss:" +
                                                   track_name);
        }
        rider.promise.set_value(std::move(reply));
    };

    // Stage B: complete one compute-kind payload — forward pass on
    // the shared model/GEMM engine, split embeddings on root ranges,
    // resolve every rider. Runs on the compute thread when the
    // pipeline is on, inline on this thread when it is off; the body
    // is the same either way, so the two modes are byte-identical.
    const auto computeBatch = [&](ComputePayload &p) {
        BatchStamps &st = p.stamps;
        st.compute_start = Clock::now();
        const std::uint64_t cpu_start = threadCpuNs();
        gnn::ForwardTelemetry forward;
        gnn::Matrix emb = gnn::forwardGathered(
            compute->model(), p.batch, p.features.levels,
            compute->gemm(), p.width_scale, &forward,
            p.features.leaf_table);
        const ThreadMark work_end = ThreadMark::now();
        st.work_end = Clock::now();
        st.cpu.compute_us = cpuUs(cpu_start, work_end.cpu_ns);
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
                                wallTick(st.work_end) - rs,
                                req.trace.argsJson());
                tracer.complete(trace_pid, req_tid, "queue.wait", rs,
                                wallTick(st.exec_start) - rs,
                                req.trace.argsJson());
            }
            tracer.complete(
                trace_pid, tid, "compute", wallTick(st.compute_start),
                wallTick(st.work_end) - wallTick(st.compute_start),
                p.batch_ctx.argsJson() +
                    ",\"roots\":" +
                    std::to_string(p.batch.roots.size()) +
                    ",\"flops\":" + std::to_string(forward.flops) +
                    ",\"width_scale\":" +
                    std::to_string(p.width_scale));
        }

        framework::SampleTelemetry telem = p.sample_telemetry;
        telem.cache_lookups += p.gather_telemetry.remote_rows;
        telem.cache_hits += p.gather_telemetry.cache_hits;
        std::size_t row = 0;
        for (std::size_t i = 0; i < p.riders.size(); ++i) {
            Request &rider = p.riders[i];
            const std::size_t rows = p.root_counts[i];
            Reply reply;
            reply.status = p.exec_status;
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
            complete(rider, reply, st, work_end, p.batch_ctx,
                     p.riders.size(), telem);
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
    // Where this thread's CPU clock and lock tally stood when it began
    // forming the next batch (the batch stage's CPU starts here).
    ThreadMark collect_start = ThreadMark::now();
    while (batcher.collect(queue_, batch)) {
        // A stage closes on a thread-CPU read, then a wall stamp; the
        // sample and compute stages open wall first. Their CPU windows
        // therefore nest inside their wall windows.
        BatchStamps st;
        const ThreadMark closed = ThreadMark::now();
        st.exec_start = Clock::now();
        st.cpu.batch_us = cpuUs(collect_start.cpu_ns, closed.cpu_ns);
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
        const double fill = static_cast<double>(queue_.depth()) /
                            static_cast<double>(queue_.capacity());
        BrownOut &brownout = config_.qos->brownout;
        if (brownout.observe(fill, st.exec_start) >= BrownOut::Degrade) {
            plan = brownout.degrade(plan);
            if (needsCompute(kind))
                width_scale = brownout.config().compute_width_scale;
            browned_out = true;
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
            st.sample_start = Clock::now();
            const std::uint64_t cpu_sample = threadCpuNs();
            const Status exec_status =
                session.sampleBatchInto(plan, merged, opts);
            const ThreadMark work_end = ThreadMark::now();
            st.sample_end = st.gather_end = st.compute_start =
                st.work_end = Clock::now();
            st.cpu.handoff_us = cpuUs(closed.cpu_ns, cpu_sample);
            st.cpu.sample_us = cpuUs(cpu_sample, work_end.cpu_ns);
            st.locks = lockWaitsSince(collect_start.locks,
                                      work_end.locks);
            const double exec_us =
                elapsedUs(st.sample_start, st.sample_end);

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
                                    wallTick(st.work_end) - rs,
                                    req.trace.argsJson());
                    tracer.complete(trace_pid, req_tid, "queue.wait",
                                    rs, wallTick(st.exec_start) - rs,
                                    req.trace.argsJson());
                    tracer.flowStart(trace_pid, req_tid, "req", rs,
                                     req.trace.trace_id);
                    tracer.flowEnd(trace_pid, tid, "req",
                                   wallTick(st.exec_start),
                                   req.trace.trace_id);
                }
                tracer.complete(
                    trace_pid, tid, "batch", wallTick(st.exec_start),
                    wallTick(st.work_end) - wallTick(st.exec_start),
                    batchCtx.argsJson() + ",\"requests\":" +
                        std::to_string(batch.size()) + ",\"roots\":" +
                        std::to_string(plan.batch_size) +
                        ",\"status\":\"" +
                        std::string(toString(exec_status.code())) +
                        "\"");
            }

            // The split into riders is part of the reply stage.
            const bool solo = batch.size() == 1;
            if (!solo)
                Batcher::splitInto(merged, root_counts, splitScratch,
                                   parts);
            for (std::size_t i = 0; i < batch.size(); ++i) {
                Reply reply;
                // A degraded execution degrades every rider: each
                // one's slice may contain fallback-sampled frontier
                // entries.
                reply.status = exec_status;
                if (browned_out) {
                    if (reply.status == StatusCode::Ok)
                        reply.status =
                            Status(StatusCode::Degraded,
                                   "brown-out: fan-out degraded");
                    reply.shed_cause = ShedCause::BrownOut;
                }
                reply.batch = solo ? std::move(merged)
                                   : std::move(parts[i]);
                complete(batch[i], reply, st, work_end, batchCtx,
                         batch.size(), telem);
            }
            if (!solo)
                resultPool.release(std::move(merged));
            batch.clear();
            collect_start = ThreadMark::now();
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

        st.sample_start = Clock::now();
        const std::uint64_t cpu_sample = threadCpuNs();
        st.cpu.handoff_us = cpuUs(closed.cpu_ns, cpu_sample);
        payload->exec_status =
            session.sampleBatchInto(plan, payload->batch, opts);
        const std::uint64_t cpu_gather = threadCpuNs();
        st.sample_end = Clock::now();
        st.cpu.sample_us = cpuUs(cpu_sample, cpu_gather);
        const double sample_us = elapsedUs(st.sample_start, st.sample_end);
        payload->sample_telemetry = telem;

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
        const double gather_cpu_us =
            elapsedUs(st.sample_end, Clock::now());
        const double modeled_us =
            payload->gather_telemetry.modeled_fabric_us;
        if (modeled_us > gather_cpu_us)
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::micro>(
                    modeled_us - gather_cpu_us));
        const ThreadMark gathered = ThreadMark::now();
        st.gather_end = Clock::now();
        st.cpu.gather_us = cpuUs(cpu_gather, gathered.cpu_ns);
        st.locks = lockWaitsSince(collect_start.locks, gathered.locks);
        const double gather_us = elapsedUs(st.sample_end, st.gather_end);

        trace::FlightRecorder::instance().recordNow(
            "batch", batchCtx.trace_id, batchCtx.span_id,
            static_cast<double>(batch.size()), sample_us + gather_us);

        if (trace::Tracer::enabled()) {
            auto &tracer = trace::Tracer::instance();
            const auto tid = tracer.track(trace_pid, track_name);
            const Tick ss = wallTick(st.sample_start);
            tracer.complete(trace_pid, tid, "sample", ss,
                            wallTick(st.sample_end) - ss,
                            batchCtx.argsJson() + ",\"requests\":" +
                                std::to_string(batch.size()) +
                                ",\"roots\":" +
                                std::to_string(plan.batch_size));
            tracer.complete(trace_pid, tid, "gather",
                            wallTick(st.sample_end),
                            wallTick(st.gather_end) -
                                wallTick(st.sample_end),
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
        payload->stamps = st;
        batch.clear();

        if (piped) {
            workBox.push(std::move(payload));
        } else {
            computeBatch(*payload);
            payload->clearForReuse();
            serialPayload = std::move(payload);
        }
        collect_start = ThreadMark::now();
    }

    // Drain the pipeline: the compute thread finishes any in-flight
    // payload, then exits on the closed mailbox.
    workBox.close();
    if (computeThread.joinable())
        computeThread.join();
}

} // namespace service
} // namespace lsdgnn
