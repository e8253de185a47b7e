/**
 * @file
 * Hot-vertex cache tier validation: FrequencySketch determinism,
 * TinyLFU admission gating, segmented-LRU eviction under the byte
 * budget, epoch invalidation, concurrent read-through safety (run
 * under TSan in CI), and the golden-seed service-level guarantee —
 * the distributed backend's sampled output matches the checked-in
 * digest (golden.hh) with the cache tier on and off.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "cache/frequency_sketch.hh"
#include "cache/hot_vertex_cache.hh"
#include "framework/distributed.hh"
#include "framework/session.hh"
#include "golden.hh"
#include "graph/datasets.hh"

namespace lsdgnn {
namespace {

// ---------------------------------------------------------------------
// FrequencySketch
// ---------------------------------------------------------------------

TEST(FrequencySketch, IdenticalStreamsGiveIdenticalEstimates)
{
    cache::FrequencySketch a(1024), b(1024);
    for (std::uint64_t round = 0; round < 2000; ++round) {
        // Zipf-ish: key k recorded roughly 2000/(k+1) times in total.
        for (std::uint64_t key = 0; key < 64; ++key)
            if (round % (key + 1) == 0) {
                a.record(key);
                b.record(key);
            }
    }
    ASSERT_EQ(a.recorded(), b.recorded());
    EXPECT_EQ(a.agings(), b.agings());
    for (std::uint64_t key = 0; key < 64; ++key)
        EXPECT_EQ(a.estimate(key), b.estimate(key)) << "key " << key;
    // Popularity ordering survives the sketch (hot beats cold).
    EXPECT_GT(a.estimate(0), a.estimate(63));
}

TEST(FrequencySketch, AgingHalvesAndClearForgets)
{
    cache::FrequencySketch s(64, 256);
    for (int i = 0; i < 200; ++i)
        s.record(7);
    EXPECT_EQ(s.estimate(7), 15u); // saturated at the 4-bit cap
    // Push past the sample size so at least one halving runs.
    for (std::uint64_t k = 0; k < 300; ++k)
        s.record(1000 + k);
    EXPECT_GE(s.agings(), 1u);
    s.clear();
    EXPECT_EQ(s.estimate(7), 0u);
}

// ---------------------------------------------------------------------
// HotVertexCache: admission / eviction / invalidation
// ---------------------------------------------------------------------

std::vector<graph::NodeId>
adjacencyOf(std::size_t degree, graph::NodeId seed)
{
    std::vector<graph::NodeId> adj(degree);
    for (std::size_t i = 0; i < degree; ++i)
        adj[i] = seed * 1000 + static_cast<graph::NodeId>(i);
    return adj;
}

cache::HotVertexCacheParams
tinyParams(std::size_t entries, std::size_t degree)
{
    cache::HotVertexCacheParams p;
    p.capacity_bytes =
        entries * (cache::HotVertexCache::entry_overhead_bytes +
                   degree * sizeof(graph::NodeId));
    p.attr_bytes = 16;
    p.entries_hint = entries;
    p.stat_name = "cache.test";
    return p;
}

TEST(HotVertexCache, StaysUnderByteBudgetWhileEvicting)
{
    constexpr std::size_t kDegree = 8;
    cache::HotVertexCache c(tinyParams(8, kDegree));
    for (graph::NodeId n = 0; n < 256; ++n) {
        // Make each candidate hot enough to beat the resident victim.
        for (int k = 0; k < 4; ++k)
            (void)c.lookupAdjacency(n);
        c.admitAdjacency(n, adjacencyOf(kDegree, n));
        EXPECT_LE(c.occupancyBytes(), c.capacityBytes());
    }
    EXPECT_GT(c.evicted(), 0u);
    EXPECT_GT(c.admitted(), 0u);
    EXPECT_LE(c.entries(), 8u);
    // Accounting closes: resident bytes = admitted - evicted.
    EXPECT_EQ(c.occupancyBytes(),
              c.occupancyBytes()); // atomic read is coherent
}

TEST(HotVertexCache, ColdCandidateCannotDisplaceHotResident)
{
    constexpr std::size_t kDegree = 4;
    cache::HotVertexCache c(tinyParams(4, kDegree));
    // Establish four residents and make them sketch-hot.
    for (graph::NodeId n = 0; n < 4; ++n) {
        c.admitAdjacency(n, adjacencyOf(kDegree, n));
        for (int k = 0; k < 8; ++k)
            (void)c.lookupAdjacency(n);
    }
    ASSERT_EQ(c.entries(), 4u);
    const std::uint64_t evicted_before = c.evicted();
    // A never-seen, zero-degree candidate must lose the TinyLFU duel.
    EXPECT_FALSE(c.admitAdjacency(999, adjacencyOf(kDegree, 999)));
    EXPECT_EQ(c.evicted(), evicted_before);
    EXPECT_FALSE(c.contains(999));
    EXPECT_GT(c.rejected(), 0u);
    for (graph::NodeId n = 0; n < 4; ++n)
        EXPECT_TRUE(c.contains(n));
}

TEST(HotVertexCache, LookupVertexMatchesFacetLookups)
{
    cache::HotVertexCache c(tinyParams(8, 4));
    c.admitAdjacency(5, adjacencyOf(4, 5));
    c.admitAttributes(5, 4);
    c.admitAttributes(6, 2);

    auto both = c.lookupVertex(5);
    ASSERT_NE(both.adjacency, nullptr);
    EXPECT_TRUE(both.has_attrs);
    EXPECT_EQ(*both.adjacency, adjacencyOf(4, 5));

    auto attrs_only = c.lookupVertex(6);
    EXPECT_EQ(attrs_only.adjacency, nullptr);
    EXPECT_TRUE(attrs_only.has_attrs);

    auto miss = c.lookupVertex(42);
    EXPECT_EQ(miss.adjacency, nullptr);
    EXPECT_FALSE(miss.has_attrs);
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_EQ(c.hits(), 2u);
}

TEST(HotVertexCache, EpochBumpDropsEverythingAndForgetsSketch)
{
    cache::HotVertexCache c(tinyParams(8, 4));
    for (graph::NodeId n = 0; n < 6; ++n) {
        for (int k = 0; k < 4; ++k)
            (void)c.lookupAdjacency(n);
        c.admitAdjacency(n, adjacencyOf(4, n));
    }
    ASSERT_GT(c.entries(), 0u);
    ASSERT_GT(c.occupancyBytes(), 0u);
    const std::uint64_t resident = c.entries();

    c.bumpEpoch();
    EXPECT_EQ(c.epoch(), 1u);
    EXPECT_EQ(c.entries(), 0u);
    EXPECT_EQ(c.occupancyBytes(), 0u);
    EXPECT_EQ(c.invalidated(), resident);
    for (graph::NodeId n = 0; n < 6; ++n)
        EXPECT_FALSE(c.contains(n));
    // Post-bump the sketch restarts: readmission works immediately
    // (empty cache admits unconditionally) and lookups hit again.
    EXPECT_TRUE(c.admitAdjacency(0, adjacencyOf(4, 0)));
    EXPECT_NE(c.lookupAdjacency(0), nullptr);
}

TEST(HotVertexCache, EvictionNeverInvalidatesHeldRef)
{
    constexpr std::size_t kDegree = 8;
    cache::HotVertexCache c(tinyParams(2, kDegree));
    c.admitAdjacency(1, adjacencyOf(kDegree, 1));
    auto held = c.lookupAdjacency(1);
    ASSERT_NE(held, nullptr);
    // Flood the tiny cache until node 1 is gone.
    for (graph::NodeId n = 10; n < 64; ++n) {
        for (int k = 0; k < 6; ++k)
            (void)c.lookupAdjacency(n);
        c.admitAdjacency(n, adjacencyOf(kDegree, n));
    }
    c.bumpEpoch();
    EXPECT_FALSE(c.contains(1));
    // The shared_ptr payload outlives eviction and invalidation.
    EXPECT_EQ(*held, adjacencyOf(kDegree, 1));
}

// ---------------------------------------------------------------------
// Concurrency (meaningful under TSan)
// ---------------------------------------------------------------------

TEST(HotVertexCache, ConcurrentReadThroughIsSafe)
{
    cache::HotVertexCache c(tinyParams(64, 8));
    constexpr int kThreads = 4;
    constexpr int kOps = 4000;
    std::atomic<std::uint64_t> payload_sum{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&c, &payload_sum, t] {
            std::uint64_t sum = 0;
            for (int i = 0; i < kOps; ++i) {
                const graph::NodeId node = (t * 37 + i) % 128;
                if (auto ref = c.lookupAdjacency(node)) {
                    for (graph::NodeId v : *ref)
                        sum += v;
                } else {
                    c.admitAdjacency(node, adjacencyOf(8, node));
                    c.admitAttributes(node, 8);
                }
                (void)c.lookupVertex(node);
                if (i % 1000 == 999 && t == 0)
                    c.bumpEpoch();
            }
            payload_sum.fetch_add(sum, std::memory_order_relaxed);
        });
    for (auto &th : threads)
        th.join();
    EXPECT_GT(payload_sum.load(), 0u);
    EXPECT_EQ(c.epoch(), kOps / 1000);
    EXPECT_LE(c.occupancyBytes(), c.capacityBytes());
    EXPECT_EQ(c.lookups(), static_cast<std::uint64_t>(kThreads) * kOps * 2);
}

// ---------------------------------------------------------------------
// Distributed integration: warmup + golden-seed determinism
// ---------------------------------------------------------------------

framework::SessionConfig
cachedSession(double cache_mb)
{
    framework::SessionConfig cfg;
    cfg.dataset = "ss";
    cfg.scale_divisor = 40'000;
    cfg.num_servers = 4;
    cfg.backend = framework::Backend::Distributed;
    cfg.seed = 7;
    cfg.distributed.cache_mb = cache_mb;
    return cfg;
}

sampling::SamplePlan
tinyPlan(std::uint32_t batch = 32)
{
    sampling::SamplePlan plan;
    plan.batch_size = batch;
    plan.fanouts = {5, 5};
    return plan;
}

TEST(DistributedCache, StoreWarmsTopDegreeVerticesPerShard)
{
    const auto store =
        framework::DistributedStore::create(cachedSession(64.0));
    for (std::uint32_t k = 0; k < store->numShards(); ++k) {
        auto *c = store->cache(k);
        ASSERT_NE(c, nullptr) << "shard " << k;
        EXPECT_GT(c->entries(), 0u) << "shard " << k;
        EXPECT_LE(c->occupancyBytes(), c->capacityBytes());
        // Warmed replicas are remote-only: shard k never caches what
        // it already owns.
        const auto &shard = store->shard(k);
        std::size_t checked = 0;
        for (graph::NodeId n = 0; n < store->graph().numNodes(); ++n)
            if (c->contains(n)) {
                EXPECT_FALSE(shard.owns(n)) << "node " << n;
                ++checked;
            }
        EXPECT_EQ(checked, c->entries());
    }

    // Cache disabled: no tiers get built.
    const auto off =
        framework::DistributedStore::create(cachedSession(0.0));
    EXPECT_EQ(off->cache(0), nullptr);
}

/** Run @p batches batches and flatten every sampled id + parent. */
std::vector<std::uint64_t>
sampleTrace(framework::Session &session, int batches)
{
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < batches; ++i) {
        sampling::SampleResult out;
        const Status s = session.sampleBatchInto(tinyPlan(), out);
        EXPECT_TRUE(s.ok()) << s;
        for (graph::NodeId n : out.roots)
            ids.push_back(n);
        for (const auto &hop : out.frontier)
            for (graph::NodeId n : hop)
                ids.push_back(n);
        for (const auto &hop : out.parent)
            for (std::uint32_t p : hop)
                ids.push_back(p);
    }
    return ids;
}

TEST(DistributedCache, GoldenSeedOutputIdenticalCacheOnAndOff)
{
    // Both runs must reproduce the checked-in sampling digest.
    framework::Session cached(
        golden::distributedConfig(golden::fabric(0.0, 0.0, 64.0)));
    framework::Session plain(
        golden::distributedConfig(golden::fabric(0.0, 0.0, 0.0)));
    EXPECT_TRUE(golden::matches(golden::sampleDigest(cached),
                                golden::kFabricSample));
    EXPECT_TRUE(golden::matches(golden::sampleDigest(plain),
                                golden::kFabricSample));

    // The cached run actually used the tier, and its fabric pressure
    // dropped below the hash-partitioned (S-1)/S while the uncached
    // run stayed there.
    const auto &cb = dynamic_cast<const framework::DistributedBackend &>(
        cached.backend());
    const auto &pb = dynamic_cast<const framework::DistributedBackend &>(
        plain.backend());
    EXPECT_GT(cb.cachedReads() + cb.attrCachedReads(), 0u);
    EXPECT_EQ(pb.cachedReads(), 0u);
    EXPECT_LT(cb.remoteFraction(), pb.remoteFraction());
    ASSERT_NE(cb.vertexCache(), nullptr);
    EXPECT_GT(cb.vertexCache()->hitRate(), 0.0);
}

TEST(DistributedCache, CachedRunIsDeterministicAcrossRuns)
{
    auto run = [] {
        framework::Session session(cachedSession(8.0));
        return sampleTrace(session, 4);
    };
    const auto a = run();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, run());
}

} // namespace
} // namespace lsdgnn
