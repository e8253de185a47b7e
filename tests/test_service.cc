/**
 * @file
 * Sampling-service validation: admission-queue backpressure and
 * rejection, deadline drops, micro-batching window and merge/split
 * correctness, future completion, graceful shutdown with in-flight
 * requests, per-worker determinism, and stats/trace export. The whole
 * binary is also a TSan target (CI runs it under
 * -fsanitize=thread): queue, batcher, worker pool and the stat/trace
 * singletons must be race-free.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/stat_registry.hh"
#include "common/trace.hh"
#include "riscv/qrch.hh"
#include "service/load_gen.hh"
#include "service/service.hh"
#include "service/service_stats.hh"

namespace lsdgnn {
namespace {

using namespace std::chrono_literals;

/** Small, fast session shard every test uses. */
framework::SessionConfig
tinySession()
{
    framework::SessionConfig cfg;
    cfg.dataset = "ss";
    cfg.scale_divisor = 40'000;
    cfg.num_servers = 4;
    cfg.seed = 7;
    return cfg;
}

sampling::SamplePlan
tinyPlan(std::uint32_t batch = 16)
{
    sampling::SamplePlan plan;
    plan.batch_size = batch;
    plan.fanouts = {5, 5};
    return plan;
}

service::Request
makeRequest(const sampling::SamplePlan &plan)
{
    service::Request req;
    req.plan = plan;
    return req;
}

// ---------------------------------------------------------------------
// RequestQueue: admission control
// ---------------------------------------------------------------------

TEST(RequestQueue, BackpressureRejectsBeyondCapacity)
{
    service::RequestQueue queue({/*capacity=*/4});
    std::vector<std::future<service::Reply>> futures;
    for (int i = 0; i < 4; ++i) {
        auto req = makeRequest(tinyPlan());
        futures.push_back(req.promise.get_future());
        EXPECT_TRUE(queue.push(std::move(req)));
    }
    EXPECT_EQ(queue.depth(), 4u);

    auto overflow = makeRequest(tinyPlan());
    auto overflow_future = overflow.promise.get_future();
    EXPECT_FALSE(queue.push(std::move(overflow)));

    // The rejected future is already resolved; admitted ones are not.
    ASSERT_EQ(overflow_future.wait_for(0s), std::future_status::ready);
    EXPECT_EQ(overflow_future.get().status,
              StatusCode::Rejected);
    EXPECT_EQ(futures[0].wait_for(0s), std::future_status::timeout);

    EXPECT_EQ(queue.stats().counter("accepted").value(), 4u);
    EXPECT_EQ(queue.stats().counter("rejected").value(), 1u);

    queue.close();
    queue.cancelPending();
    for (auto &f : futures)
        EXPECT_EQ(f.get().status, StatusCode::Cancelled);
}

TEST(RequestQueue, PushAfterCloseRejects)
{
    service::RequestQueue queue({4});
    queue.close();
    auto req = makeRequest(tinyPlan());
    auto future = req.promise.get_future();
    EXPECT_FALSE(queue.push(std::move(req)));
    EXPECT_EQ(future.get().status, StatusCode::Rejected);
}

TEST(RequestQueue, ExpiredRequestsDroppedOnPop)
{
    service::RequestQueue queue({8});

    auto expired = makeRequest(tinyPlan());
    expired.deadline = service::Clock::now() - 1ms;
    auto expired_future = expired.promise.get_future();
    ASSERT_TRUE(queue.push(std::move(expired)));

    auto live = makeRequest(tinyPlan());
    auto live_future = live.promise.get_future();
    ASSERT_TRUE(queue.push(std::move(live)));

    // pop() must skip (and fail) the expired request, then deliver
    // the live one.
    auto popped = queue.pop();
    ASSERT_TRUE(popped.has_value());
    EXPECT_EQ(expired_future.get().status,
              StatusCode::DeadlineExceeded);
    EXPECT_EQ(queue.stats().counter("dropped").value(), 1u);
    EXPECT_EQ(queue.depth(), 0u);

    popped->promise.set_value(service::Reply{});
    (void)live_future;
}

TEST(RequestQueue, PopReturnsNulloptOnClosedAndDrained)
{
    service::RequestQueue queue({4});
    queue.close();
    EXPECT_FALSE(queue.pop().has_value());
}

// ---------------------------------------------------------------------
// Batcher: collection, merge, split
// ---------------------------------------------------------------------

TEST(Batcher, CollectCoalescesCompatibleLeavesIncompatible)
{
    service::RequestQueue queue({16});
    std::vector<std::future<service::Reply>> futures;

    // Three compatible requests and one with a different fan-out.
    for (std::uint32_t batch : {8u, 4u, 2u}) {
        auto req = makeRequest(tinyPlan(batch));
        futures.push_back(req.promise.get_future());
        ASSERT_TRUE(queue.push(std::move(req)));
    }
    auto odd = makeRequest(tinyPlan(8));
    odd.plan.fanouts = {3};
    futures.push_back(odd.promise.get_future());
    ASSERT_TRUE(queue.push(std::move(odd)));

    service::Batcher batcher({/*max_requests=*/8, /*max_roots=*/4096,
                              /*window=*/0us});
    std::vector<service::Request> batch;
    ASSERT_TRUE(batcher.collect(queue, batch));
    ASSERT_EQ(batch.size(), 3u);

    const auto merged = service::Batcher::merge(batch);
    EXPECT_EQ(merged.batch_size, 14u);
    EXPECT_EQ(merged.fanouts, tinyPlan().fanouts);

    // The incompatible request is still queued for the next batch.
    EXPECT_EQ(queue.depth(), 1u);

    for (auto &req : batch)
        req.promise.set_value(service::Reply{});
    queue.close();
    std::vector<service::Request> rest;
    ASSERT_TRUE(batcher.collect(queue, rest));
    ASSERT_EQ(rest.size(), 1u);
    EXPECT_EQ(rest[0].plan.fanouts, std::vector<std::uint32_t>{3});
    rest[0].promise.set_value(service::Reply{});
}

TEST(Batcher, MaxRequestsBoundsBatch)
{
    service::RequestQueue queue({16});
    std::vector<std::future<service::Reply>> futures;
    for (int i = 0; i < 6; ++i) {
        auto req = makeRequest(tinyPlan(4));
        futures.push_back(req.promise.get_future());
        ASSERT_TRUE(queue.push(std::move(req)));
    }
    service::Batcher batcher({/*max_requests=*/4, 4096, 0us});
    std::vector<service::Request> batch;
    ASSERT_TRUE(batcher.collect(queue, batch));
    EXPECT_EQ(batch.size(), 4u);
    EXPECT_EQ(queue.depth(), 2u);
    queue.close();
    queue.cancelPending();
    for (auto &req : batch)
        req.promise.set_value(service::Reply{});
}

TEST(Batcher, BatchLaneRequestsRunAlone)
{
    service::RequestQueue queue({16});
    std::vector<std::future<service::Reply>> futures;
    for (int i = 0; i < 3; ++i) {
        auto req = makeRequest(tinyPlan(4));
        req.lane = service::Lane::Batch;
        futures.push_back(req.promise.get_future());
        ASSERT_TRUE(queue.push(std::move(req)));
    }
    service::Batcher batcher({8, 4096, 0us});
    std::vector<service::Request> batch;
    ASSERT_TRUE(batcher.collect(queue, batch));
    EXPECT_EQ(batch.size(), 1u);
    EXPECT_EQ(queue.depth(), 2u);
    queue.close();
    queue.cancelPending();
    for (auto &req : batch)
        req.promise.set_value(service::Reply{});
}

TEST(Batcher, RootBudgetBoundsBatch)
{
    service::RequestQueue queue({16});
    std::vector<std::future<service::Reply>> futures;
    for (int i = 0; i < 4; ++i) {
        auto req = makeRequest(tinyPlan(10));
        futures.push_back(req.promise.get_future());
        ASSERT_TRUE(queue.push(std::move(req)));
    }
    // Budget 25 roots: first two riders (20) fit, the third (30)
    // would not.
    service::Batcher batcher({8, /*max_roots=*/25, 0us});
    std::vector<service::Request> batch;
    ASSERT_TRUE(batcher.collect(queue, batch));
    EXPECT_EQ(batch.size(), 2u);
    EXPECT_EQ(queue.depth(), 2u);
    queue.close();
    queue.cancelPending();
    for (auto &req : batch)
        req.promise.set_value(service::Reply{});
}

TEST(Batcher, AgingWindowWaitsForLateRider)
{
    service::RequestQueue queue({16});
    auto first = makeRequest(tinyPlan(4));
    auto first_future = first.promise.get_future();
    ASSERT_TRUE(queue.push(std::move(first)));

    // A second compatible request arrives 20 ms into a 500 ms window.
    std::thread late([&queue] {
        std::this_thread::sleep_for(20ms);
        auto req = makeRequest(tinyPlan(4));
        req.promise.get_future(); // tally not needed
        queue.push(std::move(req));
    });

    // max_requests = 2: the batch closes the moment the late rider
    // arrives instead of aging out the rest of the window.
    service::Batcher batcher({2, 4096, /*window=*/500ms});
    std::vector<service::Request> batch;
    const auto t0 = service::Clock::now();
    ASSERT_TRUE(batcher.collect(queue, batch));
    const double waited_ms =
        service::elapsedUs(t0, service::Clock::now()) / 1e3;
    late.join();

    // Both riders collected, well before the full window aged out.
    EXPECT_EQ(batch.size(), 2u);
    EXPECT_LT(waited_ms, 400.0);
    EXPECT_GE(waited_ms, 10.0); // it did wait for the late arrival
    for (auto &req : batch)
        req.promise.set_value(service::Reply{});
    queue.close();
}

TEST(Batcher, ZeroWindowDoesNotWait)
{
    service::RequestQueue queue({16});
    auto req = makeRequest(tinyPlan(4));
    auto future = req.promise.get_future();
    ASSERT_TRUE(queue.push(std::move(req)));

    service::Batcher batcher({8, 4096, 0us});
    std::vector<service::Request> batch;
    const auto t0 = service::Clock::now();
    ASSERT_TRUE(batcher.collect(queue, batch));
    const double waited_ms =
        service::elapsedUs(t0, service::Clock::now()) / 1e3;
    EXPECT_EQ(batch.size(), 1u);
    EXPECT_LT(waited_ms, 100.0);
    batch[0].promise.set_value(service::Reply{});
    queue.close();
}

TEST(Batcher, AgingBatchClosesWhenAPeerGoesIdle)
{
    // Work conservation: a batch ages for riders only while every
    // other worker is busy. Here the batch starts aging in a 500 ms
    // window with no idle peer; 20 ms in, a peer worker runs dry and
    // blocks in pop(), and the batch must close right then.
    service::RequestQueue queue({16});
    auto first = makeRequest(tinyPlan(4));
    auto first_future = first.promise.get_future();
    ASSERT_TRUE(queue.push(std::move(first)));

    std::thread peer([&queue] {
        std::this_thread::sleep_for(20ms);
        EXPECT_FALSE(queue.pop().has_value()); // released by close()
    });

    service::Batcher batcher({8, 4096, /*window=*/500ms});
    std::vector<service::Request> batch;
    const auto t0 = service::Clock::now();
    ASSERT_TRUE(batcher.collect(queue, batch));
    const double waited_ms =
        service::elapsedUs(t0, service::Clock::now()) / 1e3;
    EXPECT_EQ(batch.size(), 1u);
    EXPECT_GE(waited_ms, 10.0); // it aged while the peer was busy
    EXPECT_LT(waited_ms, 400.0); // and closed when the peer idled
    queue.close();
    peer.join();
    for (auto &req : batch)
        req.promise.set_value(service::Reply{});
}

TEST(RequestQueue, CountsConsumersIdleInPop)
{
    service::RequestQueue queue({16});
    EXPECT_EQ(queue.idlePoppers(), 0u);
    std::thread consumer([&queue] {
        auto req = queue.pop();
        ASSERT_TRUE(req.has_value());
        EXPECT_GE(req->popped_at, req->enqueued_at);
        req->promise.set_value(service::Reply{});
    });
    while (queue.idlePoppers() == 0)
        std::this_thread::sleep_for(100us);
    EXPECT_EQ(queue.idlePoppers(), 1u);
    auto req = makeRequest(tinyPlan(4));
    auto future = req.promise.get_future();
    ASSERT_TRUE(queue.push(std::move(req)));
    consumer.join();
    future.get();
    EXPECT_EQ(queue.idlePoppers(), 0u);
    queue.close();
}

TEST(TimedMutex, CountsOnlyContendedAcquisitions)
{
    service::TimedMutex mutex(service::LockSite::Queue);
    { const auto lock = mutex.lock(); }
    EXPECT_EQ(mutex.contended().value(), 0u);

    // One cycle: a holder keeps the mutex for 5 ms while this thread
    // locks it. The cycle counts only if this thread reached lock()
    // with at least 2 ms of the hold left; a thread descheduled past
    // that point finds the mutex free, so the cycle is retried.
    for (int attempt = 0; attempt < 10; ++attempt) {
        const std::uint64_t contended_before = mutex.contended().value();
        const std::uint64_t wait_before = mutex.waitNs().value();
        std::atomic<bool> held{false};
        service::Clock::time_point released{};
        std::thread holder([&] {
            const auto lock = mutex.lock();
            held.store(true);
            std::this_thread::sleep_for(5ms);
            released = service::Clock::now();
        });
        while (!held.load())
            std::this_thread::yield();
        const std::uint64_t before = service::threadLockWaits().queue_ns;
        const auto arrived = service::Clock::now();
        { const auto lock = mutex.lock(); }
        const std::uint64_t waited =
            service::threadLockWaits().queue_ns - before;
        holder.join();
        if (released - arrived < 2ms)
            continue;
        EXPECT_EQ(mutex.contended().value() - contended_before, 1u);
        EXPECT_GE(waited, 1'000'000u); // blocked behind the hold
        EXPECT_EQ(mutex.waitNs().value() - wait_before, waited);
        EXPECT_EQ(service::threadLockWaits().stats_ns, 0u);
        return;
    }
    FAIL() << "no lock() landed inside the holder's 5 ms hold";
}

/** Split must partition the merged result exactly. */
TEST(Batcher, SplitPartitionsMergedResult)
{
    framework::Session session(tinySession());
    const std::vector<std::uint32_t> root_counts = {16, 8, 24};

    auto plan = tinyPlan(48);
    const auto merged = session.sampleBatch(plan);
    ASSERT_EQ(merged.roots.size(), 48u);

    const auto parts = service::Batcher::split(merged, root_counts);
    ASSERT_EQ(parts.size(), 3u);

    // Roots are the contiguous slices of the merged roots.
    std::size_t off = 0;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        ASSERT_EQ(parts[i].roots.size(), root_counts[i]);
        for (std::size_t j = 0; j < root_counts[i]; ++j)
            EXPECT_EQ(parts[i].roots[j], merged.roots[off + j]);
        off += root_counts[i];
    }

    // Every hop: per-part sample counts sum to the merged count, and
    // every parent index stays within the previous per-part level.
    for (std::size_t h = 0; h < merged.frontier.size(); ++h) {
        std::size_t total = 0;
        for (const auto &part : parts) {
            ASSERT_EQ(part.frontier.size(), merged.frontier.size());
            ASSERT_EQ(part.frontier[h].size(), part.parent[h].size());
            const std::size_t prev =
                h == 0 ? part.roots.size() : part.frontier[h - 1].size();
            for (std::uint32_t p : part.parent[h])
                EXPECT_LT(p, prev);
            total += part.frontier[h].size();
        }
        EXPECT_EQ(total, merged.frontier[h].size());
    }

    // totalSampled is conserved.
    std::uint64_t part_total = 0;
    for (const auto &part : parts)
        part_total += part.totalSampled();
    EXPECT_EQ(part_total, merged.totalSampled());
}

TEST(Batcher, SplitIntoMatchesSplitWithReusedScratch)
{
    framework::Session session(tinySession());
    service::SplitScratch scratch;
    std::vector<sampling::SampleResult> parts;

    // Several rounds with different shapes, reusing the same scratch
    // and output vector: stale sizes from a previous (larger) round
    // must never leak into the next split.
    const std::vector<std::vector<std::uint32_t>> rounds = {
        {16, 8, 24}, {48}, {4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4},
        {40, 8}};
    for (const auto &root_counts : rounds) {
        auto plan = tinyPlan(48);
        const auto merged = session.sampleBatch(plan);
        const auto want =
            service::Batcher::split(merged, root_counts);
        service::Batcher::splitInto(merged, root_counts, scratch,
                                    parts);
        ASSERT_EQ(parts.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(parts[i].roots, want[i].roots) << "part " << i;
            ASSERT_EQ(parts[i].frontier.size(),
                      want[i].frontier.size());
            for (std::size_t h = 0; h < want[i].frontier.size(); ++h) {
                EXPECT_EQ(parts[i].frontier[h], want[i].frontier[h])
                    << "part " << i << " hop " << h;
                EXPECT_EQ(parts[i].parent[h], want[i].parent[h])
                    << "part " << i << " hop " << h;
            }
        }
    }
}

TEST(Batcher, SplitIntoHandlesOutOfOrderParents)
{
    // Hand-built merged result whose hop-0 parents are NOT
    // non-decreasing, forcing splitInto off the contiguous fast path
    // onto the general (owner/remap) path. split() is the oracle.
    sampling::SampleResult merged;
    merged.roots = {100, 101, 102, 103};
    merged.frontier = {{10, 11, 12, 13, 14, 15},
                       {20, 21, 22, 23, 24, 25}};
    // parents into roots, out of order across the rider boundary
    // (riders: roots {0,1} and {2,3}).
    merged.parent = {{3, 0, 2, 1, 3, 0},
                     {5, 0, 3, 1, 4, 2}};
    const std::vector<std::uint32_t> root_counts = {2, 2};

    const auto want = service::Batcher::split(merged, root_counts);
    service::SplitScratch scratch;
    std::vector<sampling::SampleResult> parts;
    service::Batcher::splitInto(merged, root_counts, scratch, parts);
    ASSERT_EQ(parts.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(parts[i].roots, want[i].roots);
        for (std::size_t h = 0; h < want[i].frontier.size(); ++h) {
            EXPECT_EQ(parts[i].frontier[h], want[i].frontier[h])
                << "part " << i << " hop " << h;
            EXPECT_EQ(parts[i].parent[h], want[i].parent[h])
                << "part " << i << " hop " << h;
        }
    }
    // Sanity on the oracle itself: everything is conserved.
    std::uint64_t total = 0;
    for (const auto &part : parts)
        total += part.totalSampled();
    EXPECT_EQ(total, merged.totalSampled());
}

/**
 * The split's oracle: rebuild each rider entry by entry, following
 * every frontier entry's parent back to the rider that owns its root.
 */
std::vector<sampling::SampleResult>
naiveSplit(const sampling::SampleResult &merged,
           const std::vector<std::uint32_t> &root_counts)
{
    std::vector<sampling::SampleResult> out(root_counts.size());
    // Owner rider and index within that rider, per previous-level entry.
    std::vector<std::uint32_t> owner, local;
    std::size_t next_root = 0;
    for (std::uint32_t r = 0; r < root_counts.size(); ++r)
        for (std::uint32_t k = 0; k < root_counts[r]; ++k) {
            out[r].roots.push_back(merged.roots[next_root++]);
            owner.push_back(r);
            local.push_back(k);
        }
    for (std::size_t h = 0; h < merged.frontier.size(); ++h) {
        for (auto &sub : out) {
            sub.frontier.emplace_back();
            sub.parent.emplace_back();
        }
        std::vector<std::uint32_t> next_owner, next_local;
        for (std::size_t j = 0; j < merged.frontier[h].size(); ++j) {
            const std::uint32_t p = merged.parent[h][j];
            auto &sub = out[owner[p]];
            next_owner.push_back(owner[p]);
            next_local.push_back(
                static_cast<std::uint32_t>(sub.frontier[h].size()));
            sub.frontier[h].push_back(merged.frontier[h][j]);
            sub.parent[h].push_back(local[p]);
        }
        owner.swap(next_owner);
        local.swap(next_local);
    }
    return out;
}

TEST(Batcher, SplitIntoMatchesNaiveRebuildOnRandomShapes)
{
    // Random riders (some with no roots), hops where some riders get
    // no children at all, the first entry of every other rider range
    // (a parent equal to a rider bound) always sampled, and now and
    // then a shuffled level, or one with a pair swapped across a rider
    // boundary, that forces the general path. One scratch serves every trial, as on
    // a worker.
    Rng rng(2701);
    service::SplitScratch scratch;
    std::vector<sampling::SampleResult> parts;
    for (int trial = 0; trial < 1000; ++trial) {
        std::vector<std::uint32_t> root_counts(1 + rng.nextBounded(6));
        for (auto &n : root_counts)
            n = static_cast<std::uint32_t>(rng.nextBounded(6));
        sampling::SampleResult merged;
        for (std::uint32_t n : root_counts)
            for (std::uint32_t k = 0; k < n; ++k)
                merged.roots.push_back(rng());

        // Owner of every entry of the previous level, in merged order.
        std::vector<std::uint32_t> owner;
        for (std::uint32_t r = 0; r < root_counts.size(); ++r)
            owner.insert(owner.end(), root_counts[r], r);
        const std::size_t hops = 1 + rng.nextBounded(3);
        for (std::size_t h = 0; h < hops; ++h) {
            std::vector<bool> barren(root_counts.size());
            for (std::size_t r = 0; r < barren.size(); ++r)
                barren[r] = rng.nextBounded(3) == 0;
            std::vector<graph::NodeId> frontier;
            std::vector<std::uint32_t> parent, next_owner;
            for (std::uint32_t q = 0; q < owner.size(); ++q) {
                if (barren[owner[q]])
                    continue;
                const bool first = q == 0 || owner[q - 1] != owner[q];
                const std::uint64_t kids =
                    (first ? 1 : 0) + rng.nextBounded(3);
                for (std::uint64_t c = 0; c < kids; ++c) {
                    frontier.push_back(rng());
                    parent.push_back(q);
                    next_owner.push_back(owner[q]);
                }
            }
            const auto swapEntries = [&](std::size_t a, std::size_t b) {
                std::swap(frontier[a], frontier[b]);
                std::swap(parent[a], parent[b]);
                std::swap(next_owner[a], next_owner[b]);
            };
            const std::uint64_t disorder = rng.nextBounded(8);
            if (disorder == 0) {
                // Fisher-Yates over the (frontier, parent) pairs.
                for (std::size_t j = frontier.size(); j > 1; --j)
                    swapEntries(j - 1, rng.nextBounded(j));
            } else if (disorder == 1) {
                // One descent, across a rider boundary: the only kind
                // that moves an entry to another rider.
                std::vector<std::size_t> edges;
                for (std::size_t j = 0; j + 1 < frontier.size(); ++j)
                    if (next_owner[j] != next_owner[j + 1])
                        edges.push_back(j);
                if (!edges.empty()) {
                    const std::size_t j =
                        edges[rng.nextBounded(edges.size())];
                    swapEntries(j, j + 1);
                }
            }
            merged.frontier.push_back(std::move(frontier));
            merged.parent.push_back(std::move(parent));
            owner.swap(next_owner);
        }

        const auto want = naiveSplit(merged, root_counts);
        service::Batcher::splitInto(merged, root_counts, scratch, parts);
        ASSERT_EQ(parts.size(), want.size()) << "trial " << trial;
        for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(parts[i].roots, want[i].roots)
                << "trial " << trial << " part " << i;
            EXPECT_EQ(parts[i].frontier, want[i].frontier)
                << "trial " << trial << " part " << i;
            EXPECT_EQ(parts[i].parent, want[i].parent)
                << "trial " << trial << " part " << i;
        }
    }
}

// ---------------------------------------------------------------------
// Service end-to-end
// ---------------------------------------------------------------------

service::ServiceConfig
tinyService(std::uint32_t workers, std::size_t capacity = 256)
{
    service::ServiceConfig cfg;
    cfg.session = tinySession();
    cfg.num_workers = workers;
    cfg.queue_capacity = capacity;
    cfg.batcher.window = std::chrono::microseconds(200);
    return cfg;
}

TEST(Service, LoneRequestsDoNotAgeWhileAWorkerIsIdle)
{
    // Two workers and a 2 ms window. Sequential lone requests find
    // the other worker idle, so no batch waits for company: the batch
    // stage is the time to close a batch, not the window.
    auto cfg = tinyService(2);
    cfg.batcher.window = 2ms;
    service::Service svc(cfg);
    std::vector<double> batch_us;
    for (int i = 0; i < 31; ++i) {
        const auto reply =
            svc.submit(service::Job::sample(tinyPlan())).get();
        ASSERT_EQ(reply.status, StatusCode::Ok);
        EXPECT_EQ(reply.batched_with, 1u);
        batch_us.push_back(reply.stages.batch_us);
    }
    std::sort(batch_us.begin(), batch_us.end());
    EXPECT_LT(batch_us[batch_us.size() / 2], 500.0)
        << "lone requests aged through the window";
}

TEST(Service, LoneRequestsDoNotAgeBehindABusyPeer)
{
    // Two workers at the default batcher config, one of them held for
    // 300 ms by a Batch-lane Embed job whose gather is paced to a
    // modeled fabric round trip. Lone requests then reach the other
    // worker while its only peer is busy, the case an aging window
    // would make wait for company.
    service::ServiceConfig::Builder builder;
    builder.dataset("ss", 40'000).servers(4).seed(7).workers(2)
        .gatherFabric(1000.0, 300'000.0);
    service::Service svc(builder.build());
    service::SubmitOptions batch_lane;
    batch_lane.lane = service::Lane::Batch;
    auto held = svc.submit(service::Job::embed(tinyPlan(), batch_lane));
    while (svc.queueDepth() != 0)
        std::this_thread::sleep_for(100us);

    std::vector<double> batch_us;
    for (int i = 0; i < 31; ++i) {
        const auto reply =
            svc.submit(service::Job::sample(tinyPlan())).get();
        ASSERT_EQ(reply.status, StatusCode::Ok);
        EXPECT_EQ(reply.batched_with, 1u);
        batch_us.push_back(reply.stages.batch_us);
    }
    ASSERT_EQ(held.wait_for(0s), std::future_status::timeout)
        << "the Batch-lane job finished before the lone requests did";
    std::sort(batch_us.begin(), batch_us.end());
    EXPECT_LT(batch_us[batch_us.size() / 2], 100.0)
        << "lone requests aged while the peer was busy";
    EXPECT_EQ(held.get().status, StatusCode::Ok);
}

TEST(Service, CompletesEveryFuture)
{
    service::Service svc(tinyService(2));
    std::vector<std::future<service::Reply>> futures;
    for (int i = 0; i < 32; ++i)
        futures.push_back(svc.submit(service::Job::sample(tinyPlan())));
    for (auto &f : futures) {
        const auto reply = f.get();
        ASSERT_EQ(reply.status, StatusCode::Ok);
        EXPECT_EQ(reply.batch.roots.size(), tinyPlan().batch_size);
        EXPECT_EQ(reply.batch.frontier.size(), 2u);
        EXPECT_GE(reply.batched_with, 1u);
        EXPECT_GE(reply.e2e_us, reply.stages.queue_us);
    }
    svc.shutdown();
    EXPECT_EQ(svc.stats().completed(), 32u);
    EXPECT_GE(svc.stats().batches(), 1u);
    EXPECT_LE(svc.stats().batches(), 32u);
}

TEST(Service, OverflowRejectsInsteadOfQueueingUnbounded)
{
    // One worker, tiny queue, zero batching window, and a burst far
    // beyond capacity: some requests must be shed as Rejected, every
    // future must still resolve. A saturated queue may also brown-out
    // (Degraded replies with a payload); those count as served.
    auto cfg = tinyService(1, /*capacity=*/2);
    cfg.batcher.window = std::chrono::microseconds(0);
    service::Service svc(cfg);

    std::vector<std::future<service::Reply>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(svc.submit(service::Job::sample(tinyPlan())));

    std::uint64_t ok = 0, rejected = 0;
    for (auto &f : futures) {
        const auto reply = f.get();
        if (reply.hasBatch())
            ++ok;
        else if (reply.status == StatusCode::Rejected)
            ++rejected;
    }
    svc.shutdown();
    EXPECT_GT(ok, 0u);
    EXPECT_GT(rejected, 0u);
    EXPECT_EQ(ok + rejected, 64u);
    EXPECT_EQ(svc.queueStats().counter("rejected").value(), rejected);
}

TEST(Service, DeadlineDropsWhenWorkerCannotKeepUp)
{
    // Deadline far shorter than the time one worker needs to chew
    // through the backlog: the tail of the burst must be Dropped
    // (in-queue shedding), not executed late.
    auto cfg = tinyService(1, /*capacity=*/512);
    cfg.batcher.window = std::chrono::microseconds(0);
    cfg.batcher.max_requests = 1;
    cfg.default_deadline = std::chrono::microseconds(500);
    service::Service svc(cfg);

    std::vector<std::future<service::Reply>> futures;
    for (int i = 0; i < 256; ++i)
        futures.push_back(svc.submit(service::Job::sample(tinyPlan(64))));

    std::uint64_t ok = 0, dropped = 0, other = 0;
    for (auto &f : futures) {
        switch (f.get().status.code()) {
          case StatusCode::Ok: ++ok; break;
          case StatusCode::DeadlineExceeded: ++dropped; break;
          default: ++other; break;
        }
    }
    svc.shutdown();
    EXPECT_GT(dropped, 0u);
    EXPECT_EQ(ok + dropped + other, 256u);
}

TEST(Service, GracefulShutdownDrainsInFlight)
{
    auto cfg = tinyService(2, /*capacity=*/512);
    service::Service svc(cfg);
    std::vector<std::future<service::Reply>> futures;
    for (int i = 0; i < 128; ++i)
        futures.push_back(svc.submit(service::Job::sample(tinyPlan())));
    svc.shutdown(service::Service::Shutdown::Drain);
    for (auto &f : futures)
        EXPECT_EQ(f.get().status, StatusCode::Ok);
    EXPECT_EQ(svc.queueDepth(), 0u);
}

TEST(Service, CancelShutdownFailsBacklogFast)
{
    auto cfg = tinyService(1, /*capacity=*/512);
    cfg.batcher.max_requests = 1;
    cfg.batcher.window = std::chrono::microseconds(0);
    service::Service svc(cfg);
    std::vector<std::future<service::Reply>> futures;
    for (int i = 0; i < 128; ++i)
        futures.push_back(svc.submit(service::Job::sample(tinyPlan(64))));
    svc.shutdown(service::Service::Shutdown::Cancel);

    std::uint64_t ok = 0, cancelled = 0;
    for (auto &f : futures) {
        const auto status = f.get().status;
        if (status == StatusCode::Ok)
            ++ok;
        else if (status == StatusCode::Cancelled)
            ++cancelled;
    }
    // A worker finishes whatever it already picked up; the rest of
    // the backlog fails fast instead of executing.
    EXPECT_GT(cancelled, 0u);
    EXPECT_EQ(ok + cancelled, 128u);
}

TEST(Service, SubmissionsFromManyThreads)
{
    service::Service svc(tinyService(2));
    constexpr int clients = 4, per_client = 16;
    std::vector<std::thread> threads;
    std::atomic<int> ok{0};
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&svc, &ok] {
            for (int i = 0; i < per_client; ++i) {
                if (svc.submit(service::Job::sample(tinyPlan())).get().status ==
                    StatusCode::Ok)
                    ++ok;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    svc.shutdown();
    EXPECT_EQ(ok.load(), clients * per_client);
}

// ---------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------

/** Same seeds, same submission order => identical sampled IDs. */
TEST(Service, SingleWorkerDeterministicAcrossRuns)
{
    auto run = [] {
        auto cfg = tinyService(1);
        cfg.batcher.window = std::chrono::microseconds(0);
        service::Service svc(cfg);
        std::vector<graph::NodeId> ids;
        for (int i = 0; i < 8; ++i) {
            const auto reply = svc.submit(service::Job::sample(tinyPlan())).get();
            for (graph::NodeId n : reply.batch.roots)
                ids.push_back(n);
            for (const auto &hop : reply.batch.frontier)
                for (graph::NodeId n : hop)
                    ids.push_back(n);
        }
        svc.shutdown();
        return ids;
    };
    EXPECT_EQ(run(), run());
}

/** Workers get decorrelated seeds: shards don't mirror each other. */
TEST(WorkerPool, WorkerSeedsAreDecorrelated)
{
    framework::SessionConfig a = tinySession();
    framework::SessionConfig b = tinySession();
    b.seed += 1; // what worker 1 gets
    framework::Session sa(a), sb(b);
    const auto ra = sa.sampleBatch(tinyPlan(32));
    const auto rb = sb.sampleBatch(tinyPlan(32));
    EXPECT_NE(ra.roots, rb.roots);
}

// ---------------------------------------------------------------------
// Load generator
// ---------------------------------------------------------------------

TEST(LoadGenerator, ClosedLoopDeliversGoodput)
{
    service::Service svc(tinyService(2));
    service::LoadGenerator gen(svc);
    const auto report = gen.runClosedLoop(service::Job::sample(tinyPlan()), 4, 100ms);
    svc.shutdown();
    EXPECT_GT(report.offered, 0u);
    EXPECT_EQ(report.ok, report.offered); // closed loop never sheds
    EXPECT_GT(report.goodput_qps, 0.0);
    EXPECT_GT(report.p50_us, 0.0);
    EXPECT_LE(report.p50_us, report.p95_us);
    EXPECT_LE(report.p95_us, report.p99_us);
}

TEST(LoadGenerator, OpenLoopOverloadShedsInsteadOfExploding)
{
    auto cfg = tinyService(1, /*capacity=*/8);
    cfg.batcher.window = std::chrono::microseconds(0);
    service::Service svc(cfg);
    service::LoadGenerator gen(svc);
    // Offered load far beyond one worker's capacity on plan(1024):
    // ~32k sampled nodes per request keeps per-request service time
    // in the hundreds of microseconds even on the allocation-free
    // path, so 20k QPS cannot be served and must shed.
    const auto report =
        gen.runOpenLoop(service::Job::sample(tinyPlan(1024)),
                        /*qps=*/20000.0, 150ms);
    svc.shutdown();
    EXPECT_GT(report.offered, 0u);
    EXPECT_GT(report.rejected, 0u);
    EXPECT_EQ(report.ok + report.rejected + report.dropped +
                  report.cancelled,
              report.offered);
}

// ---------------------------------------------------------------------
// Stats & trace export
// ---------------------------------------------------------------------

TEST(ServiceObservability, LatencyHistogramsExportedThroughRegistry)
{
    service::Service svc(tinyService(2));
    for (int i = 0; i < 24; ++i)
        (void)svc.submit(service::Job::sample(tinyPlan())).get();
    svc.shutdown();

    const auto &group = svc.stats().group();
    EXPECT_EQ(group.counter("completed").value(), 24u);
    EXPECT_EQ(group.histogram("e2e_us").samples(), 24u);
    EXPECT_GT(svc.stats().e2ePercentile(0.5), 0.0);

    // Registry JSON carries the service group with p50/p95/p99.
    std::ostringstream os;
    stats::StatRegistry::instance().exportJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"service\""), std::string::npos);
    EXPECT_NE(json.find("\"e2e_us\""), std::string::npos);
    EXPECT_NE(json.find("\"p95\""), std::string::npos);
}

TEST(ServiceObservability, StatsTeardownWhileExportingIsSafe)
{
    // The windowed exporter and the flight recorder visit the registry
    // from their own threads. Tearing down the service's stats must
    // unregister every group before freeing the stats it points at
    // (histogram buckets are heap memory). ASan reports a violation.
    std::atomic<bool> done{false};
    std::thread exporter([&done] {
        while (!done.load()) {
            std::ostringstream os;
            stats::StatRegistry::instance().exportJson(os);
            std::this_thread::sleep_for(50us); // let the teardown in
        }
    });
    for (int i = 0; i < 50; ++i) {
        service::ServiceStats stats;
        service::Reply reply;
        reply.kind = service::JobKind::Embed;
        reply.stages.gather_us = reply.cpu.gather_us = 10.0;
        stats.recordCompletion(reply, {10.0, 4, 2, 1, 3});
        service::TenantRegistry tenants;
        tenants.recordShed(1, service::ShedCause::QueueFull);
    }
    done.store(true);
    exporter.join();
}

TEST(ServiceObservability, StatOwnersTeardownWhileExportingIsSafe)
{
    // Same hazard as above for every other owner of a StatGroup: a
    // 4-shard distributed Session (framework::Session,
    // MiniBatchSampler, DistributedBackend, the shard's
    // HotVertexCache, and one mof::ShardChannel per peer), a
    // RequestQueue and a QrchHub (whose occupancy histogram is heap
    // memory). Most declare their stats before their group, so the
    // group leaves the registry before any stat it points at is
    // destroyed. A ShardChannel is a sim::Component: its group lives
    // in the base class and its stats in the derived one, so member
    // order cannot help; its destructor detaches the group instead.
    // So do the AxE cores, load units, sim links and MoF endpoints an
    // AxeOffload Session builds.
    std::atomic<bool> done{false};
    std::thread exporter([&done] {
        while (!done.load()) {
            std::ostringstream os;
            stats::StatRegistry::instance().exportJson(os);
            std::this_thread::sleep_for(50us);
        }
    });
    framework::SessionConfig scfg;
    scfg.dataset = "ss";
    scfg.scale_divisor = 40'000;
    scfg.num_servers = 4;
    scfg.backend = framework::Backend::Distributed;
    scfg.distributed.num_shards = 4;
    scfg.distributed.cache_mb = 0.25;
    sampling::SamplePlan plan;
    plan.batch_size = 8;
    plan.fanouts = {4, 4};
    for (const auto backend : {framework::Backend::Distributed,
                               framework::Backend::AxeOffload}) {
        scfg.backend = backend;
        for (int i = 0; i < 10; ++i) {
            framework::Session session(scfg);
            (void)session.sampleBatch(plan);
        }
    }
    for (int i = 0; i < 50; ++i) {
        service::RequestQueue queue(service::RequestQueueConfig{});
        riscv::QrchHub hub(4, 8);
        hub.enqueue(0, 1, 2);
    }
    done.store(true);
    exporter.join();
}

TEST(ServiceObservability, TraceCarriesWorkerTracksAndCounters)
{
    const std::string path =
        ::testing::TempDir() + "lsdgnn_service_trace.json";
    trace::Tracer::instance().open(path);
    ASSERT_TRUE(trace::Tracer::enabled());
    {
        service::Service svc(tinyService(2));
        for (int i = 0; i < 64; ++i)
            (void)svc.submit(service::Job::sample(tinyPlan())).get();
        svc.shutdown();
    }
    trace::Tracer::instance().close();

    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    const std::string text = os.str();
    std::remove(path.c_str());

    EXPECT_NE(text.find("service.worker0"), std::string::npos);
    EXPECT_NE(text.find("service.queue.depth"), std::string::npos);
    EXPECT_NE(text.find("service.e2e_p99_us"), std::string::npos);
    EXPECT_NE(text.find("\"requests\":"), std::string::npos);
}

} // namespace
} // namespace lsdgnn
