#include "session.hh"

#include <algorithm>

#include "framework/distributed.hh"
#include "sampling/workload.hh"

namespace lsdgnn {
namespace framework {

namespace {

/** The shared store, if and only if the config wants one. */
std::shared_ptr<const DistributedStore>
resolveStore(const SessionConfig &config)
{
    if (config.backend != Backend::Distributed)
        return nullptr;
    if (config.distributed.store)
        return config.distributed.store;
    return DistributedStore::create(config);
}

/** The session's graph: aliased from the store, or privately built. */
std::shared_ptr<const graph::CsrGraph>
resolveGraph(const std::shared_ptr<const DistributedStore> &store,
             const graph::DatasetSpec &spec, const SessionConfig &config)
{
    if (store)
        return std::shared_ptr<const graph::CsrGraph>(store,
                                                      &store->graph());
    return std::make_shared<const graph::CsrGraph>(graph::instantiate(
        spec, config.scale_divisor, config.seed));
}

std::shared_ptr<const graph::AttributeStore>
resolveAttrs(const std::shared_ptr<const DistributedStore> &store,
             const graph::DatasetSpec &spec, const SessionConfig &config)
{
    if (store)
        return std::shared_ptr<const graph::AttributeStore>(
            store, &store->attrs());
    return std::make_shared<const graph::AttributeStore>(spec.attr_len,
                                                         config.seed);
}

} // namespace

Session::Session(SessionConfig config)
    : config_(std::move(config)),
      spec(graph::datasetByName(config_.dataset)),
      store_(resolveStore(config_)),
      graph_(resolveGraph(store_, spec, config_)),
      attrs(resolveAttrs(store_, spec, config_)),
      partitioner(graph_->numNodes(), config_.num_servers),
      sampler_(sampling::makeSampler(config_.sampler)),
      engine(*graph_, *attrs, *sampler_, &partitioner),
      negatives(*graph_, 0.35),
      modelRng(config_.seed + 101),
      model(spec.attr_len, config_.hidden_dim, 2, modelRng),
      rng_(config_.seed + 7 + config_.stream_seed_offset)
{
    lsd_assert(config_.num_servers > 0, "session needs servers");
    group.addCounter("batches", &batchCount, "mini-batches sampled");
    group.addAverage("batch_nodes", &batchNodes,
                     "nodes touched per mini-batch (roots + frontier)");
    if (config_.hot_cache_fraction > 0.0) {
        const auto capacity = static_cast<std::size_t>(
            std::max<double>(1.0, config_.hot_cache_fraction *
                static_cast<double>(graph_->numNodes())));
        hotCache.emplace(capacity);
    }
    if (config_.backend == Backend::AxeOffload)
        decoder.emplace(*graph_, *attrs, *sampler_);
    backend_ = makeBackend(BackendDeps{
        config_, *graph_, engine, *sampler_,
        decoder ? &*decoder : nullptr, store_});
}

sampling::SampleResult
Session::sampleBatch(const sampling::SamplePlan &plan)
{
    sampling::SampleResult result;
    const Status status = sampleBatchInto(plan, result);
    lsd_assert(status.hasPayload(), "sampleBatch failed: ",
               status.toString());
    return result;
}

Status
Session::sampleBatchInto(const sampling::SamplePlan &plan,
                         sampling::SampleResult &out,
                         const SampleOptions &options)
{
    lsd_assert(!plan.fanouts.empty(), "plan needs hops");
    batchCount.inc();

    const Status status = backend_->sampleInto(
        plan, options, options.rng != nullptr ? *options.rng : rng_,
        out);

    if (hotCache) {
        for (graph::NodeId n : out.roots)
            hotCache->access(n);
        for (const auto &hop : out.frontier)
            for (graph::NodeId n : hop)
                hotCache->access(n);
    }
    std::uint64_t nodes = out.roots.size();
    for (const auto &hop : out.frontier)
        nodes += hop.size();
    batchNodes.sample(static_cast<double>(nodes));
    return status;
}

std::vector<float>
Session::nodeAttributes(graph::NodeId node) const
{
    return attrs->fetch(node);
}

std::vector<graph::NodeId>
Session::negativeSample(graph::NodeId src, graph::NodeId dst,
                        std::uint32_t rate)
{
    return negatives.sample(src, dst, rate, rng_);
}

gnn::Matrix
Session::embed(const sampling::SampleResult &batch) const
{
    return model.embed(batch, *attrs);
}

const sampling::TrafficStats &
Session::traffic() const
{
    return engine.traffic();
}

double
Session::hotCacheHitRate() const
{
    return hotCache ? hotCache->hitRate() : 0.0;
}

double
Session::estimatedSamplesPerSecond(const sampling::SamplePlan &plan)
{
    const auto profile = sampling::profileWorkload(
        spec, plan, config_.scale_divisor, 2, config_.seed);
    if (config_.backend != Backend::AxeOffload) {
        // Software and Distributed both run on the CPU service model;
        // the distributed fabric costs show up in measured goodput
        // (perfbench's sharded-sample), not this analytical estimate.
        baseline::CpuSamplerModel cpu;
        baseline::CpuClusterConfig cluster;
        cluster.num_servers = config_.num_servers;
        return cpu.evaluate(profile, cluster).samples_per_s;
    }
    axe::AxeConfig cfg = axe::AxeConfig::poc();
    cfg.num_nodes = config_.num_servers;
    const double hit = hotCache ? hotCache->hitRate() : 0.9;
    return axe::predictEngineRate(cfg, profile, hit).samples_per_s;
}

} // namespace framework
} // namespace lsdgnn
