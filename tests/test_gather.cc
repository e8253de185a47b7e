/**
 * @file
 * The gather stage's row table and the in-place leaf level.
 *
 * The gatherer fills a node-indexed row table from the AttributeStore
 * on its first gather() and copies rows out of it; the service's
 * workers copy only the levels that feed a GEMM and let the forward
 * read the leaf rows from the table. These tests pin that the table
 * is the store, bit for bit, that it is filled once and only when a
 * compute job needs it, that the worker copies roots + hop-1 rows
 * only, and that the service's embeddings equal forwardGathered over
 * fully dense levels, bitwise, across depth, aggregator, brown-out
 * width and backend.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "common/stat_registry.hh"
#include "framework/gather.hh"
#include "gnn/minibatch_forward.hh"
#include "service/service.hh"

namespace lsdgnn {
namespace {

using namespace std::chrono_literals;

/** Bitwise equality of two matrices (+0 and -0 differ). */
bool
sameBits(const gnn::Matrix &a, const gnn::Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.data().size() * sizeof(float)) == 0;
}

/** Dense feature matrix of @p nodes, fetched row by row. */
gnn::Matrix
fetchRows(const graph::AttributeStore &attrs,
          std::span<const graph::NodeId> nodes)
{
    gnn::Matrix m(nodes.size(), attrs.attrLen());
    for (std::size_t i = 0; i < nodes.size(); ++i)
        attrs.fetch(nodes[i], m.row(i));
    return m;
}

/** Roots 0..3, each with two hop-1 children, each with three leaves. */
sampling::SampleResult
handBatch(std::uint64_t num_nodes)
{
    sampling::SampleResult b;
    b.frontier.resize(2);
    b.parent.resize(2);
    for (graph::NodeId r = 0; r < 4; ++r)
        b.roots.push_back(r * 7 % num_nodes);
    for (std::uint32_t p = 0; p < 4; ++p)
        for (int c = 0; c < 2; ++c) {
            b.frontier[0].push_back((p * 31 + c * 5 + 3) % num_nodes);
            b.parent[0].push_back(p);
        }
    for (std::uint32_t p = 0; p < 8; ++p)
        for (int c = 0; c < 3; ++c) {
            b.frontier[1].push_back((p * 17 + c * 11 + 1) % num_nodes);
            b.parent[1].push_back(p);
        }
    return b;
}

TEST(AttributeGatherer, TableEqualsStoreForEveryNodeAndDim)
{
    graph::AttributeStore attrs(72, 99);
    attrs.setCommunityBias(5, 0.75f);
    const graph::Partitioner part(300, 4);
    framework::AttributeGatherer gatherer(attrs, &part, nullptr, 0);
    EXPECT_TRUE(gatherer.table().empty()) << "filled before any gather";

    framework::GatheredFeatures out;
    gatherer.gather(handBatch(300), out);
    const std::span<const float> table = gatherer.table();
    ASSERT_EQ(table.size(), 300u * 72u);
    for (graph::NodeId n = 0; n < 300; ++n)
        for (std::uint32_t d = 0; d < 72; ++d) {
            const float want = attrs.value(n, d);
            ASSERT_EQ(std::memcmp(&table[n * 72 + d], &want, sizeof want),
                      0)
                << "node " << n << " dim " << d;
        }
}

TEST(AttributeGatherer, TableIsFilledOnTheFirstGatherOnly)
{
    graph::AttributeStore attrs(16, 3);
    const graph::Partitioner part(120, 2);
    framework::AttributeGatherer gatherer(attrs, &part, nullptr, 0);
    const sampling::SampleResult batch = handBatch(120);

    framework::GatheredFeatures first;
    gatherer.gather(batch, first);
    const float *table = gatherer.table().data();
    for (std::size_t lvl = 0; lvl < first.levels.size(); ++lvl)
        EXPECT_TRUE(sameBits(
            first.levels[lvl],
            fetchRows(attrs, lvl == 0 ? std::span(batch.roots)
                                      : std::span(batch.frontier[lvl - 1]))));

    // Change what the store generates: a refilled table would follow.
    attrs.setCommunityBias(2, 5.0f);
    framework::GatheredFeatures second;
    gatherer.gather(batch, second);
    EXPECT_EQ(gatherer.table().data(), table);
    ASSERT_EQ(second.levels.size(), first.levels.size());
    for (std::size_t lvl = 0; lvl < first.levels.size(); ++lvl)
        EXPECT_TRUE(sameBits(second.levels[lvl], first.levels[lvl]))
            << "level " << lvl << " was re-read from the store";
}

TEST(AttributeGatherer, InTableLeafCopiesOnlyGemmLevels)
{
    const graph::AttributeStore attrs(8, 5);
    const graph::Partitioner part(200, 4);
    framework::AttributeGatherer gatherer(attrs, &part, nullptr, 1);
    const sampling::SampleResult batch = handBatch(200);

    framework::GatheredFeatures dense, inTable;
    framework::GatherTelemetry denseT, inTableT;
    gatherer.gather(batch, dense, &denseT);
    gatherer.gather(batch, inTable, &inTableT,
                    framework::LeafRows::InTable);

    EXPECT_EQ(dense.levels.size(), 3u);
    EXPECT_EQ(dense.leaf_table, nullptr);
    ASSERT_EQ(inTable.levels.size(), 2u);
    EXPECT_EQ(inTable.leaf_table, gatherer.table().data());
    for (std::size_t lvl = 0; lvl < 2; ++lvl)
        EXPECT_TRUE(sameBits(inTable.levels[lvl], dense.levels[lvl]));

    EXPECT_EQ(denseT.rows, 4u + 8u + 24u);
    EXPECT_EQ(inTableT.rows, 4u + 8u) << "leaf rows must not be copied";
    EXPECT_EQ(inTableT.bytes, inTableT.rows * attrs.bytesPerNode());
    // Leaf entries keep their ownership accounting.
    EXPECT_GT(denseT.remote_rows, 0u);
    EXPECT_EQ(inTableT.remote_rows, denseT.remote_rows);
    EXPECT_EQ(inTableT.cache_hits, denseT.cache_hits);
}

/** Counter @p name of the live group @p group (-1 when absent). */
std::int64_t
groupCounter(const std::string &group, const std::string &name)
{
    std::int64_t value = -1;
    stats::StatRegistry::instance().forEach(
        [&](const stats::StatGroup &g) {
            if (g.name() == group && g.hasCounter(name))
                value = static_cast<std::int64_t>(g.counter(name).value());
        });
    return value;
}

sampling::SamplePlan
plan(std::uint32_t roots, std::vector<std::uint32_t> fanouts)
{
    sampling::SamplePlan p;
    p.batch_size = roots;
    p.fanouts = std::move(fanouts);
    return p;
}

TEST(WorkerGather, SampleOnlyServiceNeverFillsATable)
{
    service::ServiceConfig::Builder b;
    b.dataset("ss", 40'000).servers(4).seed(7).workers(1).model(256, 2);
    service::Service svc(b.build());
    for (int i = 0; i < 20; ++i) {
        const auto result =
            svc.execute(service::Job::sample(plan(64, {10, 10})));
        ASSERT_TRUE(result.ok()) << result.status().toString();
    }
    EXPECT_EQ(groupCounter("service.worker0", "attr_table_bytes"), 0);
    EXPECT_EQ(groupCounter("service.worker0", "gather_rows"), 0);

    // The first compute job fills it: nodes x attr_len x 4 B.
    service::SubmitOptions options;
    options.seed = 42;
    const auto result =
        svc.execute(service::Job::embed(plan(64, {10, 10}), options));
    ASSERT_TRUE(result.ok()) << result.status().toString();
    const framework::Session session(svc.config().session);
    EXPECT_EQ(groupCounter("service.worker0", "attr_table_bytes"),
              static_cast<std::int64_t>(
                  session.graph().numNodes() *
                  session.attributeStore().bytesPerNode()));
    // 64 roots + 640 hop-1 rows are copied; the 6,400 leaves are not.
    EXPECT_EQ(groupCounter("service.worker0", "gather_rows"), 704);
    svc.shutdown();
}

/** layers, aggregator, width_scale, distributed. */
using IdentityCase = std::tuple<int, gnn::Aggregator, double, bool>;

class LeafIdentity : public ::testing::TestWithParam<IdentityCase>
{};

TEST_P(LeafIdentity, ServiceEmbeddingsEqualDenseForwardGathered)
{
    const auto [layers, aggregator, width_scale, distributed] = GetParam();
    const sampling::SamplePlan p = layers == 1   ? plan(13, {7})
                                   : layers == 2 ? plan(64, {10, 10})
                                                 : plan(9, {4, 3, 5});

    service::ServiceConfig::Builder b;
    b.dataset("ss", 40'000).servers(4).seed(7).workers(1).model(
        256, static_cast<std::uint32_t>(layers));
    b.raw().pipeline.aggregator = aggregator;
    if (distributed) {
        framework::DistributedConfig d;
        d.num_shards = 4;
        d.request_timeout_us = 50'000.0; // every remote read resolves
        b.distributed(d);
    }
    if (width_scale < 1.0) {
        // Brown-out engaged from the first job on, at full fan-out, so
        // only the layer width is degraded.
        service::BrownOutConfig bo;
        bo.engage_fill = 0.0;
        bo.release_fill = 0.0;
        bo.shed_fill = 2.0;
        bo.min_hold = 10s;
        bo.fanout_scale = 1.0;
        bo.compute_width_scale = width_scale;
        b.brownout(bo);
    }
    service::Service svc(b.build());
    const framework::Session ref(svc.config().session);
    const graph::AttributeStore &attrs = ref.attributeStore();

    for (std::uint64_t seed = 500; seed < 503; ++seed) {
        service::SubmitOptions options;
        options.seed = seed;
        const auto embedded = svc.execute(service::Job::embed(p, options));
        ASSERT_TRUE(embedded.ok()) << embedded.status().toString();
        // The same seed samples the same subgraph for any job kind.
        const auto sampled = svc.execute(service::Job::sample(p, options));
        ASSERT_TRUE(sampled.ok()) << sampled.status().toString();
        const sampling::SampleResult &batch = sampled.value().batch;

        std::vector<gnn::Matrix> levels;
        levels.push_back(fetchRows(attrs, batch.roots));
        for (const auto &f : batch.frontier)
            levels.push_back(fetchRows(attrs, f));
        const gnn::Matrix want = gnn::forwardGathered(
            svc.compute().model(), batch, levels, svc.compute().gemm(),
            width_scale);
        const gnn::Matrix &got = embedded.value().embeddings;
        ASSERT_GT(got.rows(), 0u);
        if (width_scale < 1.0) {
            EXPECT_EQ(got.cols(), 77u) << "brown-out did not engage";
        }
        EXPECT_TRUE(sameBits(got, want))
            << "seed " << seed << ": " << got.rows() << "x" << got.cols()
            << " vs " << want.rows() << "x" << want.cols();
    }
    svc.shutdown();
}

INSTANTIATE_TEST_SUITE_P(
    Gather, LeafIdentity,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values(gnn::Aggregator::Max,
                                         gnn::Aggregator::Mean),
                       ::testing::Values(1.0, 0.3),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<IdentityCase> &info) {
        const IdentityCase &c = info.param;
        return std::to_string(std::get<0>(c)) + "Layer" +
               (std::get<1>(c) == gnn::Aggregator::Max ? "Max" : "Mean") +
               (std::get<2>(c) < 1.0 ? "Narrow" : "Full") +
               (std::get<3>(c) ? "Distributed" : "Software");
    });

} // namespace
} // namespace lsdgnn
