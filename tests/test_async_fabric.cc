/**
 * @file
 * Continuation-driven async shard fabric validation. The tentpole
 * guarantee is *golden-seed schedule independence*: the async engine
 * (out-of-order completions, cross-stage packing, hedged re-issues)
 * and the hop-synchronous round barrier it replaced must each emit
 * the checked-in sampling digest (golden.hh), because every root
 * samples from its own counter-seeded RNG stream in root-local
 * discovery order. These tests pin both engines across loss rates,
 * hedging, the cache tier and a hard-down peer, plus the in-flight
 * stall trip, the windowed mof.remote observability surface, a warmed
 * cache tier that serves hits, and the 60% MoF frame fill.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/stat_registry.hh"
#include "framework/distributed.hh"
#include "framework/session.hh"
#include "golden.hh"

namespace lsdgnn {
namespace {

framework::SessionConfig
fabricConfig(double loss, double hedge_quantile)
{
    return golden::distributedConfig(
        golden::fabric(loss, hedge_quantile, 0.0));
}

sampling::SamplePlan
fabricPlan(std::uint32_t batch = 32)
{
    sampling::SamplePlan plan;
    plan.batch_size = batch;
    plan.fanouts = {5, 5};
    return plan;
}

/**
 * Both engines, on every kFabricCases point that @p pick selects, must
 * reproduce the checked-in sampling digest, each on its own.
 */
template <typename Pick>
void
expectEnginesMatchDigest(Pick pick)
{
    for (const golden::FabricCase &c : golden::kFabricCases) {
        if (!pick(c))
            continue;
        for (const bool async : {true, false}) {
            SCOPED_TRACE(testing::Message()
                         << (async ? "async" : "barrier")
                         << " loss=" << c.loss
                         << " hedge_q=" << c.hedge_quantile
                         << " cache_mb=" << c.cache_mb);
            auto d = golden::fabric(c.loss, c.hedge_quantile, c.cache_mb);
            d.async_fabric = async;
            EXPECT_TRUE(golden::matches(
                golden::sampleDigest(golden::distributedConfig(d)),
                golden::kFabricSample));
        }
    }
}

TEST(AsyncFabric, ByteIdenticalToBarrierLossless)
{
    expectEnginesMatchDigest([](const golden::FabricCase &c) {
        return c.loss == 0.0 && c.hedge_quantile == 0.0;
    });
}

TEST(AsyncFabric, ByteIdenticalToBarrierUnderFivePercentLoss)
{
    expectEnginesMatchDigest([](const golden::FabricCase &c) {
        return c.loss == 0.05 && c.hedge_quantile == 0.0;
    });
}

TEST(AsyncFabric, ByteIdenticalToBarrierUnderTwentyPercentLoss)
{
    // Heavy ARQ recovery scrambles completion order across peers and
    // packages far more than the lossless schedule does; the output
    // must not notice.
    expectEnginesMatchDigest([](const golden::FabricCase &c) {
        return c.loss == 0.20 && c.hedge_quantile == 0.0;
    });
}

TEST(AsyncFabric, ByteIdenticalToBarrierWithHedgingArmed)
{
    // Hedged re-issues race the original package; whichever answer
    // lands first carries the same owner bytes, so hedging may change
    // timing and wire traffic but never content.
    expectEnginesMatchDigest([](const golden::FabricCase &c) {
        return c.hedge_quantile > 0.0;
    });
}

TEST(AsyncFabric, HedgesActuallyFireUnderLoss)
{
    auto cfg = fabricConfig(0.20, 0.5);
    cfg.distributed.hedge_multiplier = 1.2;
    cfg.distributed.hedge_floor_us = 5.0;
    framework::Session session(cfg);
    for (int b = 0; b < 6; ++b) {
        sampling::SampleResult out;
        EXPECT_TRUE(session.sampleBatchInto(fabricPlan(), out).ok());
    }
    const auto &backend =
        dynamic_cast<const framework::DistributedBackend &>(
            session.backend());
    EXPECT_GT(backend.hedges(), 0u);
    EXPECT_EQ(backend.degradedReads(), 0u);
}

TEST(AsyncFabric, CacheTierKeepsGoldenOutput)
{
    // A tier that holds the whole working set, past the matrix's
    // partial-residency 0.25 MB.
    EXPECT_TRUE(golden::matches(
        golden::sampleDigest(
            golden::distributedConfig(golden::fabric(0.0, 0.0, 4.0))),
        golden::kFabricSample));
}

TEST(AsyncFabric, DownShardDegradesIdenticallyInBothModes)
{
    // Born-failed submits resolve synchronously in submission order,
    // and the degradation fallback draws from the root's own stream —
    // so even a hard-down peer gives both engines the same output.
    for (const bool async : {true, false}) {
        SCOPED_TRACE(async ? "async" : "barrier");
        auto d = golden::fabric(0.0, 0.0, 0.0);
        d.async_fabric = async;
        d.down_shards = {2};
        EXPECT_TRUE(golden::matches(
            golden::sampleDigest(golden::distributedConfig(d)),
            golden::kDownShardSample));
    }
}

TEST(AsyncFabric, StallTripsWhenInFlightExceedsBound)
{
    auto cfg = fabricConfig(0.0, 0.0);
    cfg.distributed.max_inflight_reads = 4; // absurdly tight bound
    framework::Session session(cfg);
    sampling::SampleResult out;
    EXPECT_TRUE(session.sampleBatchInto(fabricPlan(64), out).ok());
    const auto &backend =
        dynamic_cast<const framework::DistributedBackend &>(
            session.backend());
    EXPECT_GT(backend.stallTrips(), 0u);

    // A sane bound never trips.
    framework::Session calm(fabricConfig(0.0, 0.0));
    EXPECT_TRUE(calm.sampleBatchInto(fabricPlan(64), out).ok());
    const auto &calm_backend =
        dynamic_cast<const framework::DistributedBackend &>(
            calm.backend());
    EXPECT_EQ(calm_backend.stallTrips(), 0u);
}

// The two MoF gates, as deterministic Session runs in simulated time.

TEST(AsyncFabric, WarmedCacheServesHits)
{
    // The store warms each shard's tier with the top-degree remote
    // vertices, so a 64 MB tier answers reads from the first batch on.
    framework::Session session(golden::distributedConfig(
        golden::fabric(0.0, 0.0, 64.0)));
    sampling::SampleResult out;
    ASSERT_TRUE(session.sampleBatchInto(golden::benchPlan(), out).ok());
    const auto &backend =
        dynamic_cast<const framework::DistributedBackend &>(
            session.backend());
    ASSERT_NE(backend.vertexCache(), nullptr);
    EXPECT_GT(backend.vertexCache()->hits(), 0u);
    EXPECT_GT(backend.cachedReads() + backend.attrCachedReads(), 0u);
}

TEST(AsyncFabric, CacheOffFramesPackAtLeastSixtyPercent)
{
    // The paper's MoF claim: with cache off, cross-stage staging keeps
    // a 4-shard fabric's request frames >= 60% full (38.4 of the 64
    // slots). A service closed loop of 8 clients on 4 workers (one per
    // shard, default batcher) merges 64-root jobs into batches of 117
    // roots on average, so every shard samples batches of that size.
    constexpr std::uint32_t kMergedRoots = 117;
    sampling::SamplePlan plan = golden::benchPlan();
    plan.batch_size = kMergedRoots;
    double fill_sum = 0.0;
    std::uint64_t packages = 0;
    for (std::uint32_t shard = 0; shard < 4; ++shard) {
        framework::DistributedConfig d;
        d.num_shards = 4;
        d.shard = shard;
        framework::SessionConfig cfg = golden::distributedConfig(d);
        cfg.stream_seed_offset = shard; // as the worker pool does
        framework::Session session(cfg);
        sampling::SampleResult out;
        for (int b = 0; b < 4; ++b)
            ASSERT_TRUE(session.sampleBatchInto(plan, out).ok());
        const auto &backend =
            dynamic_cast<const framework::DistributedBackend &>(
                session.backend());
        for (std::uint32_t peer = 0; peer < 4; ++peer)
            if (const mof::ShardChannel *ch = backend.channel(peer)) {
                fill_sum += ch->packOccupancy() *
                            static_cast<double>(ch->packages());
                packages += ch->packages();
            }
    }
    ASSERT_GT(packages, 0u);
    EXPECT_GE(fill_sum / static_cast<double>(packages), 0.6 * 64.0)
        << "requests per MoF frame over " << packages << " frames";
}

TEST(AsyncFabric, WindowedRemoteStatsAreExported)
{
    framework::Session session(fabricConfig(0.05, 0.5));
    sampling::SampleResult out;
    EXPECT_TRUE(session.sampleBatchInto(fabricPlan(64), out).ok());

    std::ostringstream os;
    stats::StatRegistry::instance().exportJson(os);
    const std::string json = os.str();
    for (const char *needle :
         {"mof.remote.shard0.to1", "inflight_reads", "stage_age_us",
          "rtt_us", "pack_fill", "flush_full", "flush_age", "hedges",
          "stall_trips"})
        EXPECT_NE(json.find(needle), std::string::npos) << needle;
}

} // namespace
} // namespace lsdgnn
