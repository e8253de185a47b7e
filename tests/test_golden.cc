/**
 * @file
 * Golden digests of seeded sampling and of the GraphSAGE forward pass.
 *
 * Each case hashes the output of a fixed, seeded workload and compares
 * the hash with a constant checked in to golden.hh (which says how the
 * constants are kept). Sampling is pinned on Software and on the
 * 4-shard Distributed backend across wire loss, hedging and the cache
 * tier, plus a down shard, both through Session::sampleBatchInto and
 * as seeded Sample jobs through the service.
 *
 * The embedding constants were produced by the scalar reference GEMM
 * (i-k-j order with a zero skip) and the unfused layer code, so any
 * change that moves a single embedding bit — a reordered sum, a
 * contracted multiply-add, a changed aggregation order — fails here
 * even when every live engine moves the same way.
 */

#include "golden.hh"

#include "gnn/minibatch_forward.hh"

namespace lsdgnn {
namespace {

using golden::benchPlan;
using golden::Digest;
using golden::kBatches;
using golden::matches;
using golden::sessionConfig;

/** Embed-job digest on the benchmark's embed-closed model. */
std::uint64_t
serviceDigest(gnn::Aggregator aggregator, bool distributed)
{
    auto b = golden::serviceBuilder();
    b.model(256, 2);
    b.raw().pipeline.aggregator = aggregator;
    if (distributed)
        b.distributed(golden::fabric(0.0, 0.0, 0.0));
    return golden::serviceDigest(b.build(), service::JobKind::Embed);
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
    std::vector<Gathered> out(kBatches);
    for (Gathered &g : out) {
        g.batch = session.sampleBatch(plan);
        g.levels.push_back(features(g.batch.roots));
        for (const auto &f : g.batch.frontier)
            g.levels.push_back(features(f));
    }
    return out;
}

/**
 * Digest of forwardGathered over kBatches batches of @p plan, for a model
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

/** Digest of GraphSageModel::embed over kBatches batches of @p plan. */
std::uint64_t
embedDigest(gnn::Aggregator aggregator, const sampling::SamplePlan &plan)
{
    framework::Session session(sessionConfig());
    Rng rng(13);
    const gnn::GraphSageModel model(session.attributeStore().attrLen(),
                                    256, plan.hops(), rng, aggregator);
    Digest d;
    for (int i = 0; i < kBatches; ++i)
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

TEST(GoldenDigest, SoftwareSessionSample)
{
    EXPECT_TRUE(matches(golden::sampleDigest(sessionConfig()),
                        golden::kSoftwareSample));
}

TEST(GoldenDigest, DistributedSessionSampleAcrossFabricCases)
{
    // Loss, hedges and the cache tier change timing and wire traffic,
    // never which neighbors a root draws.
    for (const golden::FabricCase &c : golden::kFabricCases) {
        SCOPED_TRACE(testing::Message()
                     << "loss=" << c.loss << " hedge_q="
                     << c.hedge_quantile << " cache_mb=" << c.cache_mb);
        EXPECT_TRUE(matches(
            golden::sampleDigest(golden::distributedConfig(
                golden::fabric(c.loss, c.hedge_quantile, c.cache_mb))),
            golden::kFabricSample));
    }
}

TEST(GoldenDigest, DistributedSessionSampleDownShard)
{
    auto d = golden::fabric(0.0, 0.0, 0.0);
    d.down_shards = {2};
    EXPECT_TRUE(matches(
        golden::sampleDigest(golden::distributedConfig(d)),
        golden::kDownShardSample));
}

TEST(GoldenDigest, SoftwareServiceSample)
{
    EXPECT_TRUE(matches(
        golden::serviceDigest(golden::serviceBuilder().build(),
                              service::JobKind::Sample),
        golden::kSoftwareServiceSample));
}

TEST(GoldenDigest, DistributedFourShardServiceSample)
{
    EXPECT_TRUE(matches(
        golden::serviceDigest(golden::serviceBuilder()
                                  .distributed(golden::fabric(0, 0, 0))
                                  .build(),
                              service::JobKind::Sample),
        golden::kFabricServiceSample));
}

TEST(GoldenDigest, SoftwareServiceMax)
{
    EXPECT_TRUE(matches(serviceDigest(gnn::Aggregator::Max, false),
                        golden::kSoftwareServiceEmbedMax));
}

TEST(GoldenDigest, SoftwareServiceMean)
{
    EXPECT_TRUE(matches(serviceDigest(gnn::Aggregator::Mean, false),
                        golden::kSoftwareServiceEmbedMean));
}

TEST(GoldenDigest, DistributedFourShardServiceMax)
{
    EXPECT_TRUE(matches(serviceDigest(gnn::Aggregator::Max, true),
                        golden::kFabricServiceEmbedMax));
}

TEST(GoldenDigest, ForwardGatheredFullWidth)
{
    EXPECT_TRUE(
        matches(forwardDigest(gnn::Aggregator::Max, 1.0, benchPlan()),
                0x367f4086a1719c08ull));
    EXPECT_TRUE(
        matches(forwardDigest(gnn::Aggregator::Mean, 1.0, benchPlan()),
                0xecb22c85dd70f044ull));
}

TEST(GoldenDigest, ForwardGatheredBrownOutWidth)
{
    // 0.3 x 256 rounds to 77 columns: not a multiple of any vector
    // width, so every layer runs a column tail.
    EXPECT_TRUE(
        matches(forwardDigest(gnn::Aggregator::Max, 0.3, benchPlan()),
                0x8d337d65650ee0d7ull));
    EXPECT_TRUE(
        matches(forwardDigest(gnn::Aggregator::Mean, 0.3, benchPlan()),
                0x40e3f3be7021774eull));
}

TEST(GoldenDigest, ForwardGatheredOneAndThreeLayers)
{
    EXPECT_TRUE(
        matches(forwardDigest(gnn::Aggregator::Max, 1.0, plan(13, {7})),
                0xcb2e2418355988adull));
    EXPECT_TRUE(matches(
        forwardDigest(gnn::Aggregator::Mean, 0.3, plan(9, {4, 3, 5})),
        0xf798644987010102ull));
}

TEST(GoldenDigest, GraphSageModelEmbed)
{
    EXPECT_TRUE(matches(embedDigest(gnn::Aggregator::Max, benchPlan()),
                        0xa36c5300710f4322ull));
    EXPECT_TRUE(matches(embedDigest(gnn::Aggregator::Mean, benchPlan()),
                        0xd141bfdcd58c1942ull));
    EXPECT_TRUE(
        matches(embedDigest(gnn::Aggregator::Max, plan(9, {4, 3, 5})),
                0x103f95002e09f489ull));
}

} // namespace
} // namespace lsdgnn
