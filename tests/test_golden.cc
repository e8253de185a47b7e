/**
 * @file
 * Golden digests of the GraphSAGE forward pass.
 *
 * Each case hashes the embeddings of a fixed, seeded workload and
 * compares the hash with a constant checked in below. The constants
 * were produced by the scalar reference GEMM (i-k-j order with a
 * zero skip) and the unfused layer code, so any change that moves a
 * single embedding bit — a reordered sum, a contracted multiply-add,
 * a changed aggregation order — fails here even when every live
 * engine moves the same way.
 *
 * The hash is the benchmark's (perfbench) 64-bit word-wise FNV-1a, so
 * a digest printed by either side can be compared with the other.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "gnn/minibatch_forward.hh"
#include "service/service.hh"

namespace lsdgnn {
namespace {

/** Word-wise FNV-1a: each step is a bijection of the running hash. */
class Digest
{
  public:
    void
    word(std::uint64_t w)
    {
        h_ = (h_ ^ w) * 0x100000001b3ull;
    }

    void
    span(std::span<const float> v)
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

    void
    matrix(const gnn::Matrix &m)
    {
        word(m.rows());
        word(m.cols());
        span(m.data());
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

constexpr int kJobs = 3;

/** The benchmark's batch shape: 64 roots x fan-outs {10, 10}. */
sampling::SamplePlan
benchPlan()
{
    sampling::SamplePlan plan;
    plan.batch_size = 64;
    plan.fanouts = {10, 10};
    return plan;
}

/**
 * Digest of kJobs seeded EmbedJobs run through Service::execute on a
 * 2-layer model at hidden 256 (the benchmark's embed-closed model).
 */
std::uint64_t
serviceDigest(gnn::Aggregator aggregator, bool distributed)
{
    service::ServiceConfig::Builder b;
    b.dataset("ss", 40'000).servers(4).seed(7).workers(1).model(256, 2);
    b.raw().pipeline.aggregator = aggregator;
    if (distributed) {
        framework::DistributedConfig d;
        d.num_shards = 4;
        // Every remote read must resolve for the output to be golden.
        d.request_timeout_us = 50'000.0;
        b.distributed(d);
    }
    service::Service svc(b.build());

    Digest d;
    for (int i = 0; i < kJobs; ++i) {
        service::SubmitOptions options;
        options.seed = 1000 + i;
        const auto result =
            svc.execute(service::Job::embed(benchPlan(), options));
        EXPECT_TRUE(result.ok()) << result.status().toString();
        if (!result.ok())
            break;
        d.matrix(result.value().embeddings);
    }
    svc.shutdown();
    return d.value();
}

/** One sampled batch with its per-level raw features. */
struct Gathered {
    sampling::SampleResult batch;
    std::vector<gnn::Matrix> levels;
};

std::vector<Gathered>
sampleBatches(framework::Session &session, const sampling::SamplePlan &plan)
{
    const graph::AttributeStore &attrs = session.attributeStore();
    const auto features = [&](std::span<const graph::NodeId> nodes) {
        gnn::Matrix m(nodes.size(), attrs.attrLen());
        for (std::size_t i = 0; i < nodes.size(); ++i)
            attrs.fetch(nodes[i], m.row(i));
        return m;
    };
    std::vector<Gathered> out(kJobs);
    for (Gathered &g : out) {
        g.batch = session.sampleBatch(plan);
        g.levels.push_back(features(g.batch.roots));
        for (const auto &f : g.batch.frontier)
            g.levels.push_back(features(f));
    }
    return out;
}

framework::SessionConfig
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
 * Digest of forwardGathered over kJobs batches of @p plan, for a model
 * of plan.hops() layers at hidden 256.
 */
std::uint64_t
forwardDigest(gnn::Aggregator aggregator, double width_scale,
              const sampling::SamplePlan &plan)
{
    framework::Session session(sessionConfig());
    Rng rng(11);
    const gnn::GraphSageModel model(session.attributeStore().attrLen(),
                                    256, plan.hops(), rng, aggregator);
    const axe::GemmEngine gemm;
    Digest d;
    for (const Gathered &g : sampleBatches(session, plan))
        d.matrix(gnn::forwardGathered(model, g.batch, g.levels, gemm,
                                      width_scale));
    return d.value();
}

/** Digest of GraphSageModel::embed over kJobs batches of @p plan. */
std::uint64_t
embedDigest(gnn::Aggregator aggregator, const sampling::SamplePlan &plan)
{
    framework::Session session(sessionConfig());
    Rng rng(13);
    const gnn::GraphSageModel model(session.attributeStore().attrLen(),
                                    256, plan.hops(), rng, aggregator);
    Digest d;
    for (int i = 0; i < kJobs; ++i)
        d.matrix(model.embed(session.sampleBatch(plan),
                             session.attributeStore()));
    return d.value();
}

sampling::SamplePlan
plan(std::uint32_t roots, std::vector<std::uint32_t> fanouts)
{
    sampling::SamplePlan p;
    p.batch_size = roots;
    p.fanouts = std::move(fanouts);
    return p;
}

TEST(GoldenDigest, SoftwareServiceMax)
{
    EXPECT_EQ(serviceDigest(gnn::Aggregator::Max, false),
              0x81de644bd161d1eeull);
}

TEST(GoldenDigest, SoftwareServiceMean)
{
    EXPECT_EQ(serviceDigest(gnn::Aggregator::Mean, false),
              0x2a1e235f48c31a78ull);
}

TEST(GoldenDigest, DistributedFourShardServiceMax)
{
    EXPECT_EQ(serviceDigest(gnn::Aggregator::Max, true),
              0xbc956e710812af0eull);
}

TEST(GoldenDigest, ForwardGatheredFullWidth)
{
    EXPECT_EQ(forwardDigest(gnn::Aggregator::Max, 1.0, benchPlan()),
              0x367f4086a1719c08ull);
    EXPECT_EQ(forwardDigest(gnn::Aggregator::Mean, 1.0, benchPlan()),
              0xecb22c85dd70f044ull);
}

TEST(GoldenDigest, ForwardGatheredBrownOutWidth)
{
    // 0.3 x 256 rounds to 77 columns: not a multiple of any vector
    // width, so every layer runs a column tail.
    EXPECT_EQ(forwardDigest(gnn::Aggregator::Max, 0.3, benchPlan()),
              0x8d337d65650ee0d7ull);
    EXPECT_EQ(forwardDigest(gnn::Aggregator::Mean, 0.3, benchPlan()),
              0x40e3f3be7021774eull);
}

TEST(GoldenDigest, ForwardGatheredOneAndThreeLayers)
{
    EXPECT_EQ(forwardDigest(gnn::Aggregator::Max, 1.0, plan(13, {7})),
              0xcb2e2418355988adull);
    EXPECT_EQ(forwardDigest(gnn::Aggregator::Mean, 0.3,
                            plan(9, {4, 3, 5})),
              0xf798644987010102ull);
}

TEST(GoldenDigest, GraphSageModelEmbed)
{
    EXPECT_EQ(embedDigest(gnn::Aggregator::Max, benchPlan()),
              0xa36c5300710f4322ull);
    EXPECT_EQ(embedDigest(gnn::Aggregator::Mean, benchPlan()),
              0xd141bfdcd58c1942ull);
    EXPECT_EQ(embedDigest(gnn::Aggregator::Max, plan(9, {4, 3, 5})),
              0x103f95002e09f489ull);
}

} // namespace
} // namespace lsdgnn
