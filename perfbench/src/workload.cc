#include "workload.hh"

#include <cmath>
#include <cstring>
#include <span>

#include "common/rng.hh"

namespace perfbench {

using namespace std::chrono_literals;
namespace sampling = lsdgnn::sampling;

namespace {

// Shared by every workload: dataset ss on 4 servers, graph seed 7,
// 64 roots x {10,10}, 2 service workers, no modeled gather sleep.
constexpr std::uint32_t kWorkers = 2;
constexpr std::uint64_t kGraphSeed = 7;
// Open-loop admission queue: deep enough that a host stall of a
// second at the offered rate is queued, not shed or degraded (brown-out
// engages at 75% fill), so no request of an open-loop run fails.
constexpr std::size_t kOpenQueueCapacity = 1 << 16;

sampling::SamplePlan
benchPlan()
{
    sampling::SamplePlan plan;
    plan.batch_size = 64;
    plan.fanouts = {10, 10};
    plan.fetch_attributes = true;
    return plan;
}

svc::ServiceConfig::Builder
baseConfig(std::uint64_t scale_divisor)
{
    svc::ServiceConfig::Builder b;
    b.dataset("ss", scale_divisor)
        .servers(4)
        .seed(kGraphSeed)
        .workers(kWorkers)
        .gatherFabric(0.0, 0.0);
    return b;
}

Workload
embedClosed()
{
    Workload w;
    w.name = "embed-closed";
    w.config = baseConfig(40'000)
                   .batchWindow(0us)
                   .pipelined(true)
                   .model(256, 2)
                   .build();
    w.kind = svc::JobKind::Embed;
    w.plan = benchPlan();
    w.seeded = true;
    w.loop = Loop::Closed;
    w.clients = 4;
    // Jobs take ~20 ms: a wake-up is noise, a spinning CPU is not.
    w.idle_wait_us = 200;
    w.replay_checks = 48;
    w.replay_jobs = 150;
    w.record_stride = 1;
    w.max_qps = 1000.0;
    return w;
}

Workload
sampleOpen()
{
    Workload w;
    w.name = "sample-open";
    // Default batcher: 200 us window, at most 8 riders per batch.
    w.config = baseConfig(40'000).queueCapacity(kOpenQueueCapacity).build();
    w.kind = svc::JobKind::Sample;
    w.plan = benchPlan();
    w.seeded = false;
    w.loop = Loop::Open;
    w.rate_qps = 8000.0;
    w.replay_jobs = 3000;
    w.record_stride = 8;
    w.max_qps = 10000.0;
    return w;
}

Workload
shardedSample()
{
    lsdgnn::framework::DistributedConfig dist;
    dist.num_shards = 4;
    dist.cache_mb = 0.25;
    dist.loss_probability = 0.0;
    dist.async_fabric = true;

    Workload w;
    w.name = "sharded-sample";
    w.config = baseConfig(40'000)
                   .distributed(dist)
                   .batchWindow(0us)
                   .queueCapacity(kOpenQueueCapacity)
                   .build();
    w.kind = svc::JobKind::Sample;
    w.plan = benchPlan();
    w.seeded = true;
    // Open loop at a fixed rate, not a closed loop: with its two
    // workers saturated, this workload's throughput followed the
    // host's speed from one second to the next (11K to 18K req/s on
    // one 4-vCPU VM, p50 spread 29% over ten runs). At 3,000 req/s the
    // workers stay under half busy even in the slow phases.
    w.loop = Loop::Open;
    w.rate_qps = 3000.0;
    w.replay_checks = 512;
    w.replay_jobs = 6000;
    w.record_stride = 8;
    w.max_qps = 4000.0;
    return w;
}

/** Word-wise FNV-1a: each step is a bijection of the running hash. */
class Digest
{
  public:
    void
    word(std::uint64_t w)
    {
        h_ = (h_ ^ w) * 0x100000001b3ull;
    }

    template <typename T>
    void
    span(std::span<const T> v)
    {
        word(v.size());
        const auto *bytes =
            reinterpret_cast<const unsigned char *>(v.data());
        const std::size_t n = v.size_bytes();
        std::size_t i = 0;
        for (; i + 8 <= n; i += 8) {
            std::uint64_t w;
            std::memcpy(&w, bytes + i, 8);
            word(w);
        }
        std::uint64_t tail = 0;
        std::memcpy(&tail, bytes + i, n - i);
        word(tail);
    }

    template <typename T>
    void
    span(const std::vector<T> &v)
    {
        span(std::span<const T>(v));
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string
checkSample(const sampling::SampleResult &b,
            const sampling::SamplePlan &plan, std::uint64_t num_nodes)
{
    if (b.roots.size() != plan.batch_size)
        return "root count " + std::to_string(b.roots.size()) +
               " != " + std::to_string(plan.batch_size);
    if (b.frontier.size() != plan.hops() || b.parent.size() != plan.hops())
        return "hop count mismatch";
    std::uint64_t prev = b.roots.size();
    for (const auto root : b.roots)
        if (root >= num_nodes)
            return "root id out of range";
    for (std::uint32_t h = 0; h < plan.hops(); ++h) {
        const auto &front = b.frontier[h];
        const auto &par = b.parent[h];
        if (front.size() > prev * plan.fanouts[h])
            return "hop " + std::to_string(h) +
                   " frontier exceeds the fan-out product";
        if (par.size() != front.size())
            return "hop " + std::to_string(h) + " parent/frontier size";
        for (std::size_t j = 0; j < front.size(); ++j) {
            if (front[j] >= num_nodes)
                return "hop " + std::to_string(h) + " node id out of range";
            if (par[j] >= prev)
                return "hop " + std::to_string(h) + " parent out of range";
        }
        prev = front.size();
    }
    return {};
}

} // namespace

std::optional<Workload>
findWorkload(std::string_view name)
{
    if (name == "embed-closed")
        return embedClosed();
    if (name == "sample-open")
        return sampleOpen();
    if (name == "sharded-sample")
        return shardedSample();
    return std::nullopt;
}

std::uint64_t
jobSeed(std::uint64_t workload_seed, std::uint64_t stream,
        std::uint64_t index)
{
    std::uint64_t state = workload_seed * 0x9e3779b97f4a7c15ull;
    lsdgnn::splitMix64(state);
    state ^= stream * 0xbf58476d1ce4e5b9ull;
    lsdgnn::splitMix64(state);
    state ^= index;
    const std::uint64_t s = lsdgnn::splitMix64(state);
    return s == 0 ? 1 : s;
}

svc::Job
makeJob(const Workload &w, std::uint64_t seed)
{
    svc::SubmitOptions options;
    options.seed = seed;
    return svc::Job::of(w.kind, w.plan, options);
}

std::uint64_t
digest(const sampling::SampleResult &batch)
{
    Digest d;
    d.span(batch.roots);
    for (const auto &f : batch.frontier)
        d.span(f);
    for (const auto &p : batch.parent)
        d.span(p);
    return d.value();
}

std::uint64_t
digest(const lsdgnn::gnn::Matrix &embeddings)
{
    Digest d;
    d.word(embeddings.rows());
    d.word(embeddings.cols());
    d.span(embeddings.data());
    return d.value();
}

std::string
checkReply(const svc::Reply &reply, const Workload &w,
           std::uint64_t num_nodes)
{
    if (!svc::needsCompute(w.kind))
        return checkSample(reply.batch, w.plan, num_nodes);
    const auto &emb = reply.embeddings;
    if (emb.rows() != w.plan.batch_size ||
        emb.cols() != w.config.pipeline.hidden_dim)
        return "embedding shape " + std::to_string(emb.rows()) + "x" +
               std::to_string(emb.cols());
    for (const float v : emb.data())
        if (!std::isfinite(v))
            return "non-finite embedding value";
    return {};
}

} // namespace perfbench
