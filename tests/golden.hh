/**
 * @file
 * Checked-in golden digests and the seeded runs that produce them.
 *
 * Each constant below is the hash of everything a caller can observe
 * about a fixed, seeded workload: sampled node ids and parent indices
 * (with each batch's status code) for sampling, embedding bits for
 * compute. Tests of every engine that must produce that output — the
 * async and the barrier shard fabric, pipelined and serial workers,
 * any worker count, the QoS scheduler, the cache tier — compare their
 * own digest with the constant, so each engine is pinned on its own
 * and a change that moves every engine the same way still fails.
 *
 * The constants were checked in from the code as it stood, and a
 * mismatch prints the new digest. A deliberate output change updates
 * the constant in a reviewed edit; nothing regenerates them.
 *
 * The hash is the benchmark's (perfbench) 64-bit word-wise FNV-1a,
 * and a sample digest covers the same spans as perfbench's, so a
 * digest printed by either side can be compared with the other.
 */

#ifndef LSDGNN_TESTS_GOLDEN_HH
#define LSDGNN_TESTS_GOLDEN_HH

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <ios>
#include <span>
#include <sstream>
#include <vector>

#include "framework/session.hh"
#include "service/service.hh"

namespace lsdgnn {
namespace golden {

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

    void
    matrix(const gnn::Matrix &m)
    {
        word(m.rows());
        word(m.cols());
        span(m.data());
    }

    /** Roots, then every hop's node ids, then every hop's parents. */
    void
    sample(const sampling::SampleResult &batch)
    {
        span(batch.roots);
        for (const auto &f : batch.frontier)
            span(f);
        for (const auto &p : batch.parent)
            span(p);
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Passes when @p got equals the checked-in @p want; prints both. */
inline ::testing::AssertionResult
matches(std::uint64_t got, std::uint64_t want)
{
    if (got == want)
        return ::testing::AssertionSuccess();
    std::ostringstream os;
    os << std::hex << "digest 0x" << got << " != checked-in 0x" << want;
    return ::testing::AssertionFailure() << os.str();
}

/** Batches (or seeded jobs) hashed into one digest. */
constexpr int kBatches = 3;

/** The benchmark's batch shape: 64 roots x fan-outs {10, 10}. */
inline sampling::SamplePlan
benchPlan()
{
    sampling::SamplePlan plan;
    plan.batch_size = 64;
    plan.fanouts = {10, 10};
    return plan;
}

/** Graph every golden run samples: ss at 1/40,000 on 4 servers. */
inline framework::SessionConfig
sessionConfig()
{
    framework::SessionConfig cfg;
    cfg.dataset = "ss";
    cfg.scale_divisor = 40'000;
    cfg.num_servers = 4;
    cfg.seed = 7;
    return cfg;
}

/**
 * The 4-shard fabric. The deadline is sized for full ARQ recovery at
 * 20% loss: a read that missed it would take the degraded fallback
 * and fork the output.
 */
inline framework::DistributedConfig
fabric(double loss, double hedge_quantile, double cache_mb)
{
    framework::DistributedConfig d;
    d.num_shards = 4;
    d.loss_probability = loss;
    d.hedge_quantile = hedge_quantile;
    d.cache_mb = cache_mb;
    d.request_timeout_us = 50'000.0;
    return d;
}

inline framework::SessionConfig
distributedConfig(const framework::DistributedConfig &d)
{
    framework::SessionConfig cfg = sessionConfig();
    cfg.backend = framework::Backend::Distributed;
    cfg.distributed = d;
    return cfg;
}

/** One point of the fabric matrix the sampling digest must hold on. */
struct FabricCase {
    double loss;
    double hedge_quantile;
    double cache_mb;
};

/** Loss {0, 5%, 20%} x hedge quantile {off, 0.5} x cache {off, 0.25 MB}. */
inline constexpr std::array<FabricCase, 12> kFabricCases = {{
    {0.0, 0.0, 0.0},   {0.0, 0.0, 0.25},   {0.0, 0.5, 0.0},
    {0.0, 0.5, 0.25},  {0.05, 0.0, 0.0},   {0.05, 0.0, 0.25},
    {0.05, 0.5, 0.0},  {0.05, 0.5, 0.25},  {0.20, 0.0, 0.0},
    {0.20, 0.0, 0.25}, {0.20, 0.5, 0.0},   {0.20, 0.5, 0.25},
}};

/**
 * Digest of kBatches Session::sampleBatchInto calls of benchPlan(),
 * each batch's status code included (a Degraded batch still carries
 * its payload).
 */
inline std::uint64_t
sampleDigest(framework::Session &session)
{
    Digest d;
    sampling::SampleResult out;
    for (int b = 0; b < kBatches; ++b) {
        const Status s = session.sampleBatchInto(benchPlan(), out);
        d.word(static_cast<std::uint64_t>(s.code()));
        d.sample(out);
    }
    return d.value();
}

inline std::uint64_t
sampleDigest(const framework::SessionConfig &cfg)
{
    framework::Session session(cfg);
    return sampleDigest(session);
}

/** One service worker on the golden graph; callers add the rest. */
inline service::ServiceConfig::Builder
serviceBuilder()
{
    service::ServiceConfig::Builder b;
    b.dataset("ss", 40'000).servers(4).seed(7).workers(1);
    return b;
}

/**
 * Digest of kBatches seeded jobs of @p kind (seeds 1000, 1001, ...)
 * through Service::execute: the sampled batch for Sample jobs, the
 * embeddings for Embed jobs. @p options carries everything but the
 * seed (tenant, lane, deadline).
 */
inline std::uint64_t
serviceDigest(const service::ServiceConfig &config,
              service::JobKind kind,
              service::SubmitOptions options = {})
{
    service::Service svc(config);
    Digest d;
    for (int i = 0; i < kBatches; ++i) {
        options.seed = 1000 + i;
        const auto result = svc.execute(
            service::Job::of(kind, benchPlan(), options));
        EXPECT_TRUE(result.ok()) << result.status().toString();
        if (!result.ok())
            break;
        if (service::needsCompute(kind))
            d.matrix(result.value().embeddings);
        else
            d.sample(result.value().batch);
    }
    svc.shutdown();
    return d.value();
}

// Session::sampleBatchInto, kBatches x benchPlan().
constexpr std::uint64_t kSoftwareSample = 0x62aa7fdd60f7d9d8ull;
/** Every kFabricCases point, async and barrier engine alike. */
constexpr std::uint64_t kFabricSample = 0x65ffd27163829f07ull;
/** kFabricCases[0] with shard 2 down: every batch Degraded. */
constexpr std::uint64_t kDownShardSample = 0xb17853bcf49264bcull;

// Seeded Sample jobs through Service::execute.
constexpr std::uint64_t kSoftwareServiceSample = 0x58c53a1b28b12dd0ull;
constexpr std::uint64_t kFabricServiceSample = 0x30ea55990484832cull;

// Seeded Embed jobs through Service::execute, model(256, 2).
constexpr std::uint64_t kSoftwareServiceEmbedMax = 0x81de644bd161d1eeull;
constexpr std::uint64_t kSoftwareServiceEmbedMean = 0x2a1e235f48c31a78ull;
constexpr std::uint64_t kFabricServiceEmbedMax = 0xbc956e710812af0eull;

} // namespace golden
} // namespace lsdgnn

#endif // LSDGNN_TESTS_GOLDEN_HH
