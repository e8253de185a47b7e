#include "replay.hh"

#include <algorithm>

#include "framework/distributed.hh"
#include "gnn/minibatch_forward.hh"
#include "graph/datasets.hh"

namespace perfbench {

namespace framework = lsdgnn::framework;
namespace gnn = lsdgnn::gnn;

/** One worker's Session shard and its gather stage, as the pool builds them. */
struct Replayer::Shard {
    std::unique_ptr<framework::Session> session;
    std::optional<framework::AttributeGatherer> gatherer;
};

Replayer::Replayer(const svc::Service &service, const Workload &w,
                   std::uint64_t seed)
    : config_(service.config()), w_(w), stream_(jobSeed(seed, 0x5eed, 0))
{
    if (svc::needsCompute(w.kind))
        compute_ = std::make_unique<svc::ComputeRuntime>(
            config_.pipeline,
            lsdgnn::graph::datasetByName(config_.session.dataset).attr_len);
}

Replayer::~Replayer() = default;

Replayer::Shard &
Replayer::shard(std::uint32_t worker)
{
    if (shards_.size() <= worker)
        shards_.resize(worker + 1);
    auto &slot = shards_[worker];
    if (slot)
        return *slot;

    // Same per-worker SessionConfig the worker pool derives.
    framework::SessionConfig scfg = config_.session;
    scfg.stream_seed_offset += worker;
    if (scfg.backend == framework::Backend::Distributed) {
        const std::uint32_t shards = scfg.distributed.num_shards != 0
                                         ? scfg.distributed.num_shards
                                         : scfg.num_servers;
        scfg.distributed.shard =
            worker % std::max<std::uint32_t>(shards, 1);
    }
    slot = std::make_unique<Shard>();
    slot->session = std::make_unique<framework::Session>(scfg);
    if (compute_) {
        framework::GatherFabricModel fabric;
        fabric.gbps = config_.pipeline.gather_gbps;
        fabric.rtt_us = config_.pipeline.gather_rtt_us;
        if (const auto &store = slot->session->distributedStore())
            slot->gatherer.emplace(store->attrs(), &store->partitioner(),
                                   store->cache(scfg.distributed.shard),
                                   scfg.distributed.shard, fabric);
        else
            slot->gatherer.emplace(slot->session->attributeStore(),
                                   &slot->session->nodePartitioner(),
                                   nullptr, 0, fabric);
    }
    return *slot;
}

std::uint64_t
Replayer::numNodes()
{
    return shard(0).session->graph().numNodes();
}

double
Replayer::coalesceHitRate() const
{
    double weighted = 0.0;
    std::uint64_t batches = 0;
    for (const auto &s : shards_) {
        if (!s)
            continue;
        const std::uint64_t n = s->session->batchesSampled();
        weighted += s->session->coalesceHitRate() * static_cast<double>(n);
        batches += n;
    }
    return batches == 0 ? 0.0 : weighted / static_cast<double>(batches);
}

std::optional<std::uint64_t>
Replayer::run(const ReplayJob &job, SpanLog *log)
{
    Shard &sh = shard(job.worker);
    const ScopedSpan whole(log, "replay.job");

    lsdgnn::sampling::SamplePlan plan = w_.plan;
    plan.batch_size = job.batch_size;
    lsdgnn::Rng seeded(job.seed);
    framework::SampleOptions opts;
    opts.rng = job.seed != 0 ? &seeded : &stream_;
    framework::SampleTelemetry telem;
    opts.telemetry = &telem;
    lsdgnn::Status status = lsdgnn::StatusCode::Ok;
    {
        const ScopedSpan span(log, "framework.sample", whole.id());
        status = sh.session->sampleBatchInto(plan, result_, opts);
    }
    if (!status.hasPayload())
        return std::nullopt;
    ++totals_.batches;
    totals_.nodes += result_.roots.size() + result_.totalSampled();
    totals_.cache_lookups += telem.cache_lookups;
    totals_.cache_hits += telem.cache_hits;
    totals_.remote_wait_us.push_back(telem.remote_us);
    if (!compute_)
        return digest(result_);

    framework::GatherTelemetry gathered;
    {
        const ScopedSpan span(log, "framework.gather", whole.id());
        sh.gatherer->gather(result_, features_, &gathered);
    }
    totals_.gather_rows += gathered.rows;
    totals_.gather_remote_rows += gathered.remote_rows;
    totals_.gather_bytes += gathered.bytes;

    gnn::ForwardTelemetry forward;
    gnn::Matrix embeddings;
    {
        const ScopedSpan span(log, "gnn.forward", whole.id());
        embeddings = gnn::forwardGathered(compute_->model(), result_,
                                          features_.levels,
                                          compute_->gemm(), 1.0, &forward);
    }
    totals_.forward_flops += forward.flops;

    // The forward's dominant GEMM: layer 0's transform of the hop-1
    // rows (hop-1 rows x attribute width x hidden width).
    const gnn::Matrix &a = features_.levels[1];
    const gnn::SageLayer &layer0 = compute_->model().layerParams()[0];
    const auto m = static_cast<std::uint32_t>(a.rows());
    const auto k = static_cast<std::uint32_t>(layer0.inDim());
    const auto n = static_cast<std::uint32_t>(layer0.outDim());
    if (gemmOut_.rows() != m || gemmOut_.cols() != n)
        gemmOut_ = gnn::Matrix(m, n);
    {
        const ScopedSpan span(log, "axe.gemm", whole.id());
        compute_->gemm().matmul(a.data(), layer0.w_self.data(),
                                gemmOut_.data(), m, k, n);
    }
    totals_.gemm_flops += gnn::matmulFlops(m, n, k);
    totals_.gemm_shape = {m, k, n};
    return digest(embeddings);
}

} // namespace perfbench
