/**
 * @file
 * Adversarial multi-tenant QoS validation.
 *
 * The QoS layer only earns its keep if isolation holds under hostile
 * load, so these tests attack it: a flooding Batch tenant that tries
 * to starve Interactive traffic, token buckets driven by a fake clock
 * (determinism), EDF batch formation that must never emit an expired
 * request, the straddle rule, the hysteretic brown-out controller
 * (no flapping; every browned-out reply carries Degraded WITH a
 * payload), the lane-starvation watchdog, and — the other direction —
 * golden-seed regressions proving that with a single tenant and no
 * pressure the sampled output matches the checked-in digest
 * (golden.hh) that the pre-QoS engine produced, with the async fabric
 * both on and off.
 * The whole binary runs under TSan in CI.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "common/flight_recorder.hh"
#include "golden.hh"
#include "service/load_gen.hh"
#include "service/qos.hh"
#include "service/service.hh"

namespace lsdgnn {
namespace {

using namespace std::chrono_literals;
using service::Clock;
using service::Lane;
using service::ShedCause;

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
tinyPlan(std::uint32_t batch = 16, std::uint32_t fanout = 5)
{
    sampling::SamplePlan plan;
    plan.batch_size = batch;
    plan.fanouts = {fanout, fanout};
    return plan;
}

service::Request
makeRequest(const sampling::SamplePlan &plan,
            Lane lane = Lane::Interactive,
            service::TenantId tenant = 0,
            Clock::time_point deadline = Clock::time_point::max())
{
    service::Request req;
    req.plan = plan;
    req.lane = lane;
    req.tenant = tenant;
    req.deadline = deadline;
    return req;
}

// ---------------------------------------------------------------------
// Token bucket: fake-clock determinism
// ---------------------------------------------------------------------

TEST(TokenBucket, RefillIsDeterministicUnderFakeClock)
{
    service::TokenBucket bucket(/*rate_per_s=*/10.0, /*burst=*/4.0);
    const auto t0 = Clock::now(); // arbitrary origin; never re-read

    // Starts full: exactly `burst` tokens available at t0.
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(bucket.tryAcquire(t0)) << "burst take " << i;
    EXPECT_FALSE(bucket.tryAcquire(t0));

    // 100 ms at 10/s refills exactly one token — once.
    EXPECT_TRUE(bucket.tryAcquire(t0 + 100ms));
    EXPECT_FALSE(bucket.tryAcquire(t0 + 100ms));

    // A long idle period refills to burst, never beyond.
    const auto later = t0 + 10s;
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(bucket.tryAcquire(later)) << "post-idle take " << i;
    EXPECT_FALSE(bucket.tryAcquire(later));

    // Replaying the identical schedule reproduces the identical
    // admit/deny sequence (determinism, not just rate conformance).
    service::TokenBucket replay(10.0, 4.0);
    std::vector<bool> a, b;
    const Clock::time_point schedule[] = {
        t0, t0, t0, t0, t0, t0 + 50ms, t0 + 100ms, t0 + 100ms,
        t0 + 350ms, t0 + 400ms};
    service::TokenBucket first(10.0, 4.0);
    for (const auto tp : schedule)
        a.push_back(first.tryAcquire(tp));
    for (const auto tp : schedule)
        b.push_back(replay.tryAcquire(tp));
    EXPECT_EQ(a, b);
}

TEST(TokenBucket, ZeroRateMeansUnlimited)
{
    service::TokenBucket bucket(0.0, 1.0);
    const auto t0 = Clock::now();
    for (int i = 0; i < 1000; ++i)
        ASSERT_TRUE(bucket.tryAcquire(t0));
}

TEST(TenantRegistry, ThrottleDecisionCarriesCause)
{
    service::TenantRegistry registry;
    service::TenantConfig cfg;
    cfg.name = "throttled-tenant";
    cfg.rate_qps = 0.001; // refill negligible within the test
    cfg.burst = 3.0;
    registry.configure(7, cfg);

    const auto t0 = Clock::now();
    int admitted = 0, throttled = 0;
    for (int i = 0; i < 10; ++i) {
        const auto decision = registry.admit(7, t0);
        if (decision.admitted) {
            ++admitted;
        } else {
            ++throttled;
            EXPECT_EQ(decision.cause, ShedCause::AdmissionThrottle);
        }
    }
    EXPECT_EQ(admitted, 3);
    EXPECT_EQ(throttled, 7);
    ASSERT_NE(registry.stats(7), nullptr);
    EXPECT_EQ(registry.stats(7)->counter("throttled").value(), 7u);
    EXPECT_EQ(registry.stats(7)->counter("admitted").value(), 3u);
}

// ---------------------------------------------------------------------
// Queue: EDF order, lanes, weighted fairness, share caps
// ---------------------------------------------------------------------

TEST(QosQueue, PopIsEarliestDeadlineFirstWithFifoTieBreak)
{
    service::RequestQueue queue({/*capacity=*/8});
    const auto now = Clock::now();

    auto no_deadline = makeRequest(tinyPlan());
    auto late = makeRequest(tinyPlan(), Lane::Interactive, 0, now + 2h);
    auto soon = makeRequest(tinyPlan(), Lane::Interactive, 0, now + 1h);
    ASSERT_TRUE(queue.push(std::move(no_deadline)));
    ASSERT_TRUE(queue.push(std::move(late)));
    ASSERT_TRUE(queue.push(std::move(soon)));

    EXPECT_EQ(queue.pop()->deadline, now + 1h);
    EXPECT_EQ(queue.pop()->deadline, now + 2h);
    // FIFO among no-deadline requests: the first-admitted id.
    EXPECT_EQ(queue.pop()->id, 1u);
    queue.close();
}

TEST(QosQueue, WeightedFairDequeueBoundsBatchShareOfService)
{
    service::RequestQueueConfig cfg;
    cfg.capacity = 32;
    cfg.interactive_weight = 3;
    cfg.batch_weight = 1;
    service::RequestQueue queue(cfg);

    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(queue.push(makeRequest(tinyPlan(), Lane::Batch)));
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(
            queue.push(makeRequest(tinyPlan(), Lane::Interactive)));

    // With both lanes backlogged, a 3:1 credit cycle serves exactly
    // two Batch requests in the first eight pops — Batch flow is
    // preserved (no starvation) but bounded (no takeover).
    int batch_served = 0;
    for (int i = 0; i < 8; ++i)
        if (queue.pop()->lane == Lane::Batch)
            ++batch_served;
    EXPECT_EQ(batch_served, 2);

    // Work conservation: once Interactive drains, Batch is served
    // back-to-back regardless of credits.
    int remaining_batch = 0;
    for (int i = 0; i < 8; ++i)
        if (queue.pop()->lane == Lane::Batch)
            ++remaining_batch;
    EXPECT_EQ(remaining_batch, 6);
    queue.close();
}

TEST(QosQueue, BatchLaneIsCapacityBoundedInteractiveIsNot)
{
    service::RequestQueueConfig cfg;
    cfg.capacity = 16;
    cfg.interactive_weight = 3;
    cfg.batch_weight = 1;
    service::RequestQueue queue(cfg);
    EXPECT_EQ(queue.batchLaneCapacity(), 4u);

    std::vector<std::future<service::Reply>> shed;
    int accepted = 0;
    for (int i = 0; i < 16; ++i) {
        auto req = makeRequest(tinyPlan(), Lane::Batch);
        auto future = req.promise.get_future();
        if (queue.push(std::move(req)))
            ++accepted;
        else
            shed.push_back(std::move(future));
    }
    // The flood saturates only its own lane's weighted share.
    EXPECT_EQ(accepted, 4);
    EXPECT_EQ(queue.laneDepth(Lane::Batch), 4u);
    for (auto &f : shed) {
        const auto reply = f.get();
        EXPECT_EQ(reply.status, StatusCode::Rejected);
        EXPECT_EQ(reply.shed_cause, ShedCause::QueueFull);
        EXPECT_EQ(reply.lane, Lane::Batch);
    }

    // Interactive admission is untouched by the Batch flood: the
    // whole remaining capacity is still available to it.
    for (int i = 0; i < 12; ++i)
        EXPECT_TRUE(
            queue.push(makeRequest(tinyPlan(), Lane::Interactive)))
            << "interactive push " << i;
    EXPECT_EQ(queue.laneDepth(Lane::Interactive), 12u);
    queue.close();
}

TEST(QosQueue, TenantWeightsSplitTheBatchLane)
{
    service::QosConfig qcfg;
    service::TenantConfig equal;
    equal.weight = 1;
    equal.name = "share-a";
    qcfg.tenants.emplace_back(1, equal);
    equal.name = "share-b";
    qcfg.tenants.emplace_back(2, equal);
    service::QosRuntime runtime(qcfg);

    service::RequestQueueConfig cfg;
    cfg.capacity = 32; // batch lane: 8, per-tenant share: 4
    service::RequestQueue queue(cfg);
    queue.bindQos(&runtime);

    int t1_accepted = 0;
    for (int i = 0; i < 8; ++i)
        if (queue.push(makeRequest(tinyPlan(), Lane::Batch, 1)))
            ++t1_accepted;
    EXPECT_EQ(t1_accepted, 4);

    // Tenant 1's flood left tenant 2's share intact.
    int t2_accepted = 0;
    for (int i = 0; i < 8; ++i)
        if (queue.push(makeRequest(tinyPlan(), Lane::Batch, 2)))
            ++t2_accepted;
    EXPECT_EQ(t2_accepted, 4);

    ASSERT_NE(runtime.registry.stats(1), nullptr);
    EXPECT_EQ(runtime.registry.stats(1)->counter("queue_full").value(),
              4u);
    queue.close();
}

TEST(QosQueue, StraddlingDeadlineIsNeverMergedIntoALaterBatch)
{
    service::RequestQueue queue({/*capacity=*/8});
    const auto now = Clock::now();

    // Queue holds a rider due in 50 ms and one with no deadline; a
    // batch forming around a 100 ms drop-dead point may take only the
    // deadline-free one — the 50 ms rider must run sooner.
    ASSERT_TRUE(queue.push(
        makeRequest(tinyPlan(), Lane::Interactive, 0, now + 50ms)));
    ASSERT_TRUE(queue.push(makeRequest(tinyPlan())));

    const auto proto =
        makeRequest(tinyPlan(), Lane::Interactive, 0, now + 100ms);
    auto rider = queue.popCompatible(proto, /*root_budget=*/1024,
                                     /*batch_dropdead=*/now + 100ms);
    ASSERT_TRUE(rider.has_value());
    EXPECT_EQ(rider->deadline, Clock::time_point::max());

    // The straddling rider stayed queued (not shed, not merged).
    EXPECT_EQ(queue.depth(), 1u);
    auto straddler = queue.pop();
    ASSERT_TRUE(straddler.has_value());
    EXPECT_EQ(straddler->deadline, now + 50ms);
    queue.close();
}

// ---------------------------------------------------------------------
// EDF batcher: no expired request ever rides into execution
// ---------------------------------------------------------------------

TEST(QosBatcher, NeverEmitsABatchContainingAnExpiredRequest)
{
    service::RequestQueue queue({/*capacity=*/8});
    service::BatcherConfig bcfg;
    bcfg.max_requests = 8;
    bcfg.window = 50ms; // far beyond the first rider's deadline
    const service::Batcher batcher(bcfg);

    // Rider A is due in 3 ms; rider B (incompatible plan, so it can't
    // merge) has no deadline. The batcher pops A first (EDF), ages
    // until A's own drop-dead point — never longer — finds A expired
    // at batch close, sheds it, and emits a batch holding only B.
    const auto now = Clock::now();
    auto a = makeRequest(tinyPlan(), Lane::Interactive, 0, now + 3ms);
    auto doomed = a.promise.get_future();
    ASSERT_TRUE(queue.push(std::move(a)));
    auto b_plan = tinyPlan();
    b_plan.fanouts = {3, 3}; // batch-incompatible with A
    ASSERT_TRUE(queue.push(makeRequest(b_plan)));

    std::vector<service::Request> batch;
    ASSERT_TRUE(batcher.collect(queue, batch));
    const auto collected_at = Clock::now();
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch.front().plan.fanouts,
              (std::vector<std::uint32_t>{3, 3}));
    for (const auto &req : batch)
        EXPECT_GT(req.deadline, collected_at);

    const auto reply = doomed.get();
    EXPECT_EQ(reply.status, StatusCode::DeadlineExceeded);
    EXPECT_EQ(reply.shed_cause, ShedCause::DeadlineDrop);
    EXPECT_EQ(queue.stats().counter("dropped").value(), 1u);
    batch.front().promise.set_value({});
    queue.close();
}

// ---------------------------------------------------------------------
// Brown-out controller: hysteresis, no flapping
// ---------------------------------------------------------------------

TEST(BrownOut, EngagesAndReleasesHysteretically)
{
    service::BrownOutConfig cfg;
    cfg.engage_fill = 0.75;
    cfg.shed_fill = 0.92;
    cfg.release_fill = 0.40;
    cfg.min_hold = 20ms;
    service::BrownOut brownout(cfg);
    const auto t0 = Clock::now();

    EXPECT_EQ(brownout.observe(0.50, t0), service::BrownOut::Normal);
    EXPECT_EQ(brownout.observe(0.80, t0), service::BrownOut::Degrade);
    EXPECT_EQ(brownout.engages(), 1u);

    // Oscillation around the engage threshold must not flap: the
    // level holds (release needs fill <= 0.40 AND the hold time).
    for (int i = 0; i < 10; ++i) {
        const double fill = i % 2 == 0 ? 0.74 : 0.76;
        EXPECT_EQ(brownout.observe(fill, t0 + i * 1ms),
                  service::BrownOut::Degrade);
    }
    EXPECT_EQ(brownout.engages(), 1u);

    // Below release but inside the hold window: still degraded.
    EXPECT_EQ(brownout.observe(0.30, t0 + 15ms),
              service::BrownOut::Degrade);
    // Past the hold: releases.
    EXPECT_EQ(brownout.observe(0.30, t0 + 25ms),
              service::BrownOut::Normal);
    EXPECT_EQ(brownout.releases(), 1u);

    // Escalation to shedding is immediate; de-escalation is staged
    // (level 2 -> 1 -> 0) and hold-gated at every step.
    EXPECT_EQ(brownout.observe(0.95, t0 + 30ms),
              service::BrownOut::DegradeAndShed);
    EXPECT_EQ(brownout.engages(), 2u);
    EXPECT_EQ(brownout.observe(0.80, t0 + 35ms),
              service::BrownOut::DegradeAndShed); // hold not elapsed
    EXPECT_EQ(brownout.observe(0.80, t0 + 55ms),
              service::BrownOut::Degrade);
    EXPECT_EQ(brownout.observe(0.30, t0 + 80ms),
              service::BrownOut::Normal);
}

TEST(BrownOut, DegradeScalesFanoutsButNeverBelowOne)
{
    service::BrownOutConfig cfg;
    cfg.fanout_scale = 0.5;
    service::BrownOut brownout(cfg);
    auto plan = tinyPlan();
    plan.fanouts = {10, 5, 1};
    const auto scaled = brownout.degrade(plan);
    EXPECT_EQ(scaled.fanouts, (std::vector<std::uint32_t>{5, 3, 1}));
    EXPECT_EQ(scaled.batch_size, plan.batch_size);
}

TEST(BrownOut, EveryBrownedOutReplyCarriesDegradedWithPayload)
{
    // Tiny queue + one worker + a burst: fill crosses the engage
    // threshold, so some replies must come back Degraded — and every
    // one of them must still deliver a usable sample.
    service::ServiceConfig cfg;
    cfg.session = tinySession();
    cfg.num_workers = 1;
    cfg.queue_capacity = 4;
    cfg.batcher.window = std::chrono::microseconds(0);
    service::Service svc(cfg);

    std::vector<std::future<service::Reply>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(
            svc.submit(service::Job::sample(tinyPlan())));

    std::uint64_t browned = 0;
    for (auto &f : futures) {
        const auto reply = f.get();
        if (reply.status == StatusCode::Degraded) {
            ++browned;
            EXPECT_TRUE(reply.hasBatch());
            EXPECT_FALSE(reply.batch.roots.empty());
            EXPECT_EQ(reply.shed_cause, ShedCause::BrownOut);
        }
    }
    svc.shutdown();
    EXPECT_GT(browned, 0u);
    EXPECT_GT(svc.qos().brownout.engages(), 0u);
    EXPECT_GE(trace::FlightRecorder::instance().tripCount(
                  "brownout-engage:"),
              1u);
    ASSERT_NE(svc.tenantStats(0), nullptr);
    EXPECT_EQ(svc.tenantStats(0)->counter("degraded").value(), browned);
}

// ---------------------------------------------------------------------
// Starvation watchdog
// ---------------------------------------------------------------------

TEST(QosQueue, StarvationWatchdogTripsWhenALaneGoesUnserved)
{
    const auto baseline =
        trace::FlightRecorder::instance().tripCount("lane-starvation:");
    service::RequestQueueConfig cfg;
    cfg.capacity = 32;
    cfg.interactive_weight = 3;
    cfg.batch_weight = 0; // pathological: Batch never earns credit
    cfg.starvation_threshold = 1ms;
    service::RequestQueue queue(cfg);

    ASSERT_TRUE(queue.push(makeRequest(tinyPlan(), Lane::Batch)));
    for (int i = 0; i < 6; ++i)
        ASSERT_TRUE(
            queue.push(makeRequest(tinyPlan(), Lane::Interactive)));
    std::this_thread::sleep_for(3ms);
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(queue.pop()->lane, Lane::Interactive);

    EXPECT_GE(queue.stats().counter("starvation_trips").value(), 1u);
    EXPECT_GT(
        trace::FlightRecorder::instance().tripCount("lane-starvation:"),
        baseline);
    queue.close();
}

// ---------------------------------------------------------------------
// Adversarial flood: Batch tenant cannot starve Interactive
// ---------------------------------------------------------------------

/**
 * One Batch-flood scenario: what each tenant asks for and the SLO
 * attainment the Interactive tenant must hold through the flood.
 */
struct FloodScenario {
    const char *name;
    sampling::SamplePlan online_plan;
    double online_qps;
    std::chrono::milliseconds deadline; ///< the Interactive SLO target
    sampling::SamplePlan train_plan;
    double min_slo;
};

TEST(QosAdversarial, BatchFloodCannotStarveInteractiveTenant)
{
    const FloodScenario scenarios[] = {
        // A small Interactive plan with a deadline generous enough for
        // TSan runs.
        {"small-plans", tinyPlan(4), 150.0, 100ms, tinyPlan(256), 0.90},
        // The serving scenario: an 8 x {5,5} Interactive tenant with a
        // 25 ms SLO against 256 x {10,10} Batch sweeps.
        {"serving", tinyPlan(8), 200.0, 25ms, tinyPlan(256, 10), 0.95},
    };
    for (const FloodScenario &sc : scenarios) {
        SCOPED_TRACE(sc.name);
        service::ServiceConfig cfg;
        cfg.session = tinySession();
        cfg.num_workers = 2;
        cfg.queue_capacity = 64;
        cfg.qos.tenants.emplace_back(
            1, service::TenantConfig{"online", 0.0, 32.0, 1});
        cfg.qos.tenants.emplace_back(
            2, service::TenantConfig{"train", 0.0, 32.0, 1});
        service::Service svc(cfg);
        service::LoadGenerator gen(svc);

        // The Batch tenant floods an open loop far beyond service
        // capacity (tens of thousands of heavyweight plans per second
        // against two workers), guaranteeing its lane overruns its
        // weighted share; the Interactive tenant trickles along at a
        // modest paced rate with a small plan.
        service::TenantRun online;
        online.label = "online";
        online.tenant = 1;
        online.lane = Lane::Interactive;
        online.plan = sc.online_plan;
        online.target_qps = sc.online_qps;
        online.deadline = sc.deadline;
        online.seed = 11;
        service::TenantRun train;
        train.label = "train";
        train.tenant = 2;
        train.lane = Lane::Batch;
        train.plan = sc.train_plan;
        train.target_qps = 20'000.0;
        train.seed = 13;

        const auto mixed = gen.runMixed({online, train}, 500ms);
        svc.shutdown();
        ASSERT_EQ(mixed.runs.size(), 2u);
        const auto &online_report = mixed.runs[0].second;
        const auto &train_report = mixed.runs[1].second;

        // The Interactive tenant rode through the flood: nearly all of
        // its offered load completed within SLO, and its shed rate
        // stayed a small fraction while the Batch tenant absorbed the
        // shedding.
        ASSERT_GT(online_report.offered, 0u);
        EXPECT_GE(online_report.sloAttainment(), sc.min_slo)
            << "interactive SLO attainment collapsed under batch flood";
        EXPECT_LE(online_report.shedFraction(), 0.10);
        EXPECT_GT(train_report.sheds.total(), 0u)
            << "the flood was expected to overrun the batch lane";
        EXPECT_GT(train_report.shedFraction(),
                  online_report.shedFraction());
        // Shed causes are broken out per tenant: the batch lane sheds
        // at its bounded capacity share (queue-full), possibly
        // brown-out.
        EXPECT_EQ(train_report.sheds.total(),
                  train_report.sheds.queue_full +
                      train_report.sheds.brownout +
                      train_report.sheds.deadline_drop);
        // Each tenant's answers came off its own lane.
        EXPECT_EQ(svc.stats().laneCompleted(Lane::Interactive),
                  online_report.ok);
        EXPECT_EQ(svc.stats().laneCompleted(Lane::Batch),
                  train_report.ok);
    }
}

// ---------------------------------------------------------------------
// Golden-seed regression: QoS on == checked-in digest, no pressure
// ---------------------------------------------------------------------

/**
 * Seeded Sample jobs from one registered tenant on the Batch lane,
 * each with a deadline it cannot miss. Lanes, tenant shares and EDF
 * must not touch what a job samples: the digest is the one the
 * pre-QoS single-FIFO engine produced (golden.hh).
 */
std::uint64_t
qosDigest(bool distributed, bool async_fabric)
{
    auto b = golden::serviceBuilder();
    b.tenant(5, service::TenantConfig{"golden", 0.0, 32.0, 1});
    if (distributed) {
        auto d = golden::fabric(0.0, 0.0, 0.0);
        d.async_fabric = async_fabric;
        b.distributed(d);
    }
    service::SubmitOptions options;
    options.tenant = 5;
    options.lane = Lane::Batch;
    options.deadline = std::chrono::seconds(30);
    return golden::serviceDigest(b.build(), service::JobKind::Sample,
                                 options);
}

TEST(QosGolden, SingleTenantNoPressureMatchesPreQosEngine)
{
    EXPECT_TRUE(golden::matches(qosDigest(/*distributed=*/false, false),
                                golden::kSoftwareServiceSample));
}

TEST(QosGolden, IdentityHoldsWithAsyncFabricOff)
{
    EXPECT_TRUE(golden::matches(
        qosDigest(/*distributed=*/true, /*async_fabric=*/false),
        golden::kFabricServiceSample));
}

TEST(QosGolden, IdentityHoldsWithAsyncFabricOn)
{
    EXPECT_TRUE(golden::matches(
        qosDigest(/*distributed=*/true, /*async_fabric=*/true),
        golden::kFabricServiceSample));
}

} // namespace
} // namespace lsdgnn
