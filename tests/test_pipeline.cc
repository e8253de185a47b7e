/**
 * @file
 * End-to-end pipeline validation: golden-seed determinism of the
 * sample -> gather -> compute path (double-buffered and serial, any
 * worker count, both fabric engines: each must reproduce the
 * checked-in digest in golden.hh), compute reply semantics
 * (embedding shapes, per-rider train-step loss, stage telemetry),
 * Job validation at submit(),
 * brown-out width degradation for compute kinds, kind-homogeneous
 * micro-batching, per-request stage stamps that sum to the end-to-end
 * time, double buffering hiding the modeled gather wait behind
 * compute, the consolidated ServiceConfig (validate / Builder /
 * fromEnv), and a mixed-kind double-buffering stress run. The whole
 * binary is also a TSan target: the stage-B compute thread, the stage
 * mailboxes and the shared ComputeRuntime must be race-free.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "common/stat_registry.hh"
#include "golden.hh"
#include "service/load_gen.hh"
#include "service/service.hh"

namespace lsdgnn {
namespace {

using namespace std::chrono_literals;

sampling::SamplePlan
twoHopPlan(std::uint32_t batch = 16)
{
    sampling::SamplePlan plan;
    plan.batch_size = batch;
    plan.fanouts = {5, 5};
    return plan;
}

service::ServiceConfig::Builder
baseBuilder(std::uint32_t workers)
{
    service::ServiceConfig::Builder b;
    b.dataset("ss", 40'000).servers(4).seed(7).workers(workers);
    return b;
}

/** Knobs of one golden run; every axis the pipeline must not change. */
struct GoldenMode {
    bool pipelined = true;
    std::uint32_t workers = 1;
    bool distributed = false;
    bool async_fabric = true;
};

/**
 * Digest of a few seeded Embed jobs on the benchmark's embed-closed
 * model. Seeded jobs use a private sampling stream, so the result must
 * depend only on the session seed and the job seeds — never on worker
 * count, stage overlap or fabric engine — and every mode
 * must reproduce the checked-in digest (golden.hh).
 */
::testing::AssertionResult
matchesGoldenEmbeddings(const GoldenMode &mode)
{
    auto builder = golden::serviceBuilder();
    builder.workers(mode.workers).model(256, 2).pipelined(mode.pipelined);
    if (mode.distributed) {
        auto d = golden::fabric(0.0, 0.0, 0.0);
        d.async_fabric = mode.async_fabric;
        builder.distributed(d);
    }
    return golden::matches(
        golden::serviceDigest(builder.build(), service::JobKind::Embed),
        mode.distributed ? golden::kFabricServiceEmbedMax
                         : golden::kSoftwareServiceEmbedMax);
}

// ---------------------------------------------------------------------
// Golden-seed determinism matrix
// ---------------------------------------------------------------------

TEST(PipelineGolden, DoubleBufferedMatchesSerialByteIdentical)
{
    GoldenMode piped, serial;
    serial.pipelined = false;
    EXPECT_TRUE(matchesGoldenEmbeddings(piped));
    EXPECT_TRUE(matchesGoldenEmbeddings(serial));
}

TEST(PipelineGolden, WorkerCountCannotChangeSeededEmbeddings)
{
    GoldenMode four;
    four.workers = 4;
    EXPECT_TRUE(matchesGoldenEmbeddings(four));
}

TEST(PipelineGolden, DistributedPipelinedMatchesSerial)
{
    GoldenMode piped, serial;
    piped.distributed = serial.distributed = true;
    serial.pipelined = false;
    EXPECT_TRUE(matchesGoldenEmbeddings(piped));
    EXPECT_TRUE(matchesGoldenEmbeddings(serial));
}

TEST(PipelineGolden, AsyncFabricCannotChangeEmbeddings)
{
    GoldenMode barrier;
    barrier.distributed = true;
    barrier.async_fabric = false;
    EXPECT_TRUE(matchesGoldenEmbeddings(barrier));
}

// ---------------------------------------------------------------------
// Compute reply semantics
// ---------------------------------------------------------------------

TEST(PipelineCompute, EmbedReplyCarriesShapeTelemetryAndStages)
{
    service::Service svc(baseBuilder(1).build());
    service::SubmitOptions options;
    options.seed = 42;
    const auto result =
        svc.execute(service::Job::embed(twoHopPlan(8), options));
    ASSERT_TRUE(result.ok()) << result.status().toString();
    const service::Reply &reply = result.value();

    EXPECT_EQ(reply.kind, service::JobKind::Embed);
    EXPECT_TRUE(reply.hasEmbeddings());
    EXPECT_FALSE(reply.hasBatch()); // compute replies skip the subgraph
    EXPECT_EQ(reply.embeddings.rows(), 8u);
    EXPECT_EQ(reply.embeddings.cols(),
              svc.compute().model().hiddenDim());
    EXPECT_GT(reply.flops, 0u);
    EXPECT_GT(reply.gemm_cycles, 0u);
    EXPECT_GT(reply.stages.sample_us, 0.0);
    EXPECT_GT(reply.stages.gather_us, 0.0);
    EXPECT_GT(reply.stages.compute_us, 0.0);
    // The named stages cover the request end to end.
    EXPECT_NEAR(reply.stages.total(), reply.e2e_us,
                0.05 * reply.e2e_us);

    double sum = 0.0;
    for (std::size_t r = 0; r < reply.embeddings.rows(); ++r)
        for (std::size_t c = 0; c < reply.embeddings.cols(); ++c)
            sum += std::abs(reply.embeddings.at(r, c));
    EXPECT_GT(sum, 0.0f) << "embeddings must not be all-zero";

    // The exported per-stage sums observed the compute stages.
    svc.shutdown();
    std::map<std::string, std::uint64_t> wall_ns{
        {"service.stage.sample", 0},
        {"service.stage.gather", 0},
        {"service.stage.compute", 0}};
    stats::StatRegistry::instance().forEach(
        [&wall_ns](const stats::StatGroup &group) {
            const auto it = wall_ns.find(group.name());
            if (it != wall_ns.end())
                it->second += group.counter("wall_ns").value();
        });
    for (const auto &[name, ns] : wall_ns)
        EXPECT_GT(ns, 0u) << name;
}

TEST(PipelineCompute, TrainStepReportsDeterministicFiniteLoss)
{
    auto runLoss = [] {
        service::Service svc(baseBuilder(2).build());
        service::SubmitOptions options;
        options.seed = 7777;
        const auto result = svc.execute(
            service::Job::trainStep(twoHopPlan(16), options));
        EXPECT_TRUE(result.ok()) << result.status().toString();
        const double loss = result.ok() ? result.value().loss : -1.0;
        svc.shutdown();
        return loss;
    };
    const double a = runLoss();
    EXPECT_TRUE(std::isfinite(a));
    EXPECT_GT(a, 0.0); // -log p terms are strictly positive
    EXPECT_EQ(a, runLoss());
}

TEST(PipelineCompute, RidersOfAMergedBatchGetTheirOwnRows)
{
    // One worker + a wide window: concurrent compatible Embed jobs
    // merge, and each rider must get exactly its own root rows back.
    auto builder = baseBuilder(1);
    builder.batchWindow(2000us);
    service::Service svc(builder.build());

    std::vector<std::future<service::Reply>> futures;
    for (int i = 0; i < 8; ++i)
        futures.push_back(svc.submit(service::Job::embed(twoHopPlan(4))));
    bool merged = false;
    for (auto &f : futures) {
        const auto reply = f.get();
        ASSERT_EQ(reply.status.code(), StatusCode::Ok);
        EXPECT_EQ(reply.embeddings.rows(), 4u);
        EXPECT_EQ(reply.embeddings.cols(),
                  svc.compute().model().hiddenDim());
        merged |= reply.batched_with > 1;
    }
    EXPECT_TRUE(merged) << "the window never packed a micro-batch";
    svc.shutdown();
}

/**
 * The named stages of every reply in a mixed Sample/Embed run cover
 * its submit-to-reply time: they sum to e2e_us within 5%, each is
 * non-negative, only compute kinds spend time in gather and compute,
 * and no single-thread stage used more CPU than wall time.
 */
void
expectStagesCoverE2e(bool pipelined)
{
    auto builder = baseBuilder(2);
    builder.pipelined(pipelined);
    service::Service svc(builder.build());

    std::vector<std::thread> clients;
    std::vector<service::Reply> replies[2];
    for (int c = 0; c < 2; ++c)
        clients.emplace_back([&svc, &replies, c] {
            std::vector<std::future<service::Reply>> futures;
            for (int i = 0; i < 24; ++i)
                futures.push_back(svc.submit(
                    (c + i) % 2 == 0
                        ? service::Job::sample(twoHopPlan(4))
                        : service::Job::embed(twoHopPlan(4))));
            for (auto &f : futures)
                replies[c].push_back(f.get());
        });
    for (auto &t : clients)
        t.join();

    std::size_t embeds = 0;
    for (const auto &per_client : replies) {
        for (const auto &r : per_client) {
            ASSERT_TRUE(r.status.hasPayload()) << r.status;
            const auto &st = r.stages;
            EXPECT_NEAR(st.total(), r.e2e_us, 0.05 * r.e2e_us)
                << "stages do not cover e2e";
            for (double v : {st.queue_us, st.batch_us, st.handoff_us,
                             st.sample_us, st.gather_us, st.compute_us,
                             st.reply_us})
                EXPECT_GE(v, 0.0);
            EXPECT_GT(st.sample_us, 0.0);
            EXPECT_LE(r.cpu.sample_us, st.sample_us + 20.0);
            EXPECT_EQ(r.cpu.queue_us, 0.0);
            if (r.kind == service::JobKind::Embed) {
                ++embeds;
                EXPECT_GT(st.gather_us, 0.0);
                EXPECT_GT(st.compute_us, 0.0);
                EXPECT_GT(r.cpu.compute_us, 0.0);
                EXPECT_LE(r.cpu.compute_us, st.compute_us + 20.0);
            } else {
                EXPECT_EQ(st.gather_us, 0.0);
                EXPECT_EQ(st.compute_us, 0.0);
            }
        }
    }
    EXPECT_EQ(embeds, 24u);
    svc.shutdown();

    // The same stages, summed per request, reach the stat export.
    std::ostringstream os;
    stats::StatRegistry::instance().exportJson(os);
    const std::string json = os.str();
    for (const char *group :
         {"\"service.stage.handoff\"", "\"service.stage.reply\"",
          "\"service.lock\"", "\"cpu_ns\"", "\"lock_wait_ns\""})
        EXPECT_NE(json.find(group), std::string::npos) << group;
}

TEST(PipelineStages, NamedStagesSumToE2ePipelined)
{
    expectStagesCoverE2e(true);
}

TEST(PipelineStages, NamedStagesSumToE2eSerial)
{
    expectStagesCoverE2e(false);
}

// ---------------------------------------------------------------------
// Double buffering hides the gather stage (Fig. 3)
// ---------------------------------------------------------------------

/** Wall time and summed reply stages of one stream of Embed jobs. */
struct EmbedStream {
    double wall_us = 0.0;
    double gather_us = 0.0;
    double compute_us = 0.0;
};

/**
 * @p jobs seeded Embed jobs (64 roots x {10,10}, hidden 256) queued at
 * once on one worker, so the next batch is always ready: the regime
 * where stage overlap pays. Seeded jobs never merge, so each is one
 * batch. A positive @p fabric_rtt_us paces every gather to that
 * modeled DMA wait (the bandwidth term is negligible).
 */
EmbedStream
runEmbedStream(bool pipelined, int jobs, double fabric_rtt_us)
{
    auto builder = baseBuilder(1);
    builder.queueCapacity(static_cast<std::size_t>(jobs) + 8)
        .batchWindow(0us)
        .pipelined(pipelined)
        .model(256, 2);
    if (fabric_rtt_us > 0.0)
        builder.gatherFabric(1000.0, fabric_rtt_us);
    service::Service svc(builder.build());
    sampling::SamplePlan plan;
    plan.batch_size = 64;
    plan.fanouts = {10, 10};

    std::vector<std::future<service::Reply>> futures;
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < jobs; ++i) {
        service::SubmitOptions options;
        options.seed = 100 + i;
        futures.push_back(svc.submit(service::Job::embed(plan, options)));
    }
    EmbedStream run;
    for (auto &f : futures) {
        const auto reply = f.get();
        EXPECT_TRUE(reply.status.hasPayload()) << reply.status;
        run.gather_us += reply.stages.gather_us;
        run.compute_us += reply.stages.compute_us;
    }
    run.wall_us = std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    svc.shutdown();
    return run;
}

TEST(PipelineOverlap, DoubleBufferingHidesModeledGather)
{
    // Size the modeled DMA wait to this build and host: a fabric-free
    // serial probe reads the per-batch gather g and compute c, and
    // every gather then takes g + 0.7c. The wait is shorter than
    // compute, so it is always hideable, and it is most of the gather
    // stage.
    constexpr int probe_jobs = 4, jobs = 8;
    const EmbedStream probe = runEmbedStream(false, probe_jobs, 0.0);
    const double rtt_us =
        (probe.gather_us + 0.7 * probe.compute_us) / probe_jobs;
    ASSERT_GT(rtt_us, 0.0);

    // Serial pays sample + gather + compute per batch; double
    // buffering gathers batch i+1 while batch i computes, so it must
    // finish sooner by at least half its gather stage. Scheduler noise
    // can cost one trial a few ms, so take the best of three.
    double hidden = -1.0;
    for (int attempt = 0; attempt < 3 && hidden < 0.5; ++attempt) {
        const EmbedStream serial = runEmbedStream(false, jobs, rtt_us);
        const EmbedStream piped = runEmbedStream(true, jobs, rtt_us);
        ASSERT_GT(piped.gather_us, 0.0);
        hidden = std::max(hidden, (serial.wall_us - piped.wall_us) /
                                      piped.gather_us);
    }
    EXPECT_GE(hidden, 0.5) << "double buffering hid only "
                           << hidden * 100.0 << "% of the gather stage";
}

// ---------------------------------------------------------------------
// Submit-time validation
// ---------------------------------------------------------------------

TEST(PipelineValidation, ComputeJobHopsMustMatchModelDepth)
{
    service::Service svc(baseBuilder(1).build());
    sampling::SamplePlan one_hop;
    one_hop.batch_size = 8;
    one_hop.fanouts = {5};

    const auto embed = svc.execute(service::Job::embed(one_hop));
    EXPECT_FALSE(embed.ok());
    EXPECT_EQ(embed.status().code(), StatusCode::InvalidArgument);

    // The same plan is perfectly valid as a pure sampling job.
    const auto sample = svc.execute(service::Job::sample(one_hop));
    EXPECT_TRUE(sample.ok()) << sample.status().toString();
    svc.shutdown();
}

TEST(PipelineValidation, MalformedPlansRejectedAtSubmit)
{
    service::Service svc(baseBuilder(1).build());
    sampling::SamplePlan no_roots = twoHopPlan(0);
    sampling::SamplePlan no_hops;
    no_hops.batch_size = 8;
    no_hops.fanouts = {};
    for (const auto &plan : {no_roots, no_hops}) {
        const auto result = svc.execute(service::Job::embed(plan));
        EXPECT_FALSE(result.ok());
        EXPECT_EQ(result.status().code(), StatusCode::InvalidArgument);
    }
    svc.shutdown();
}

// ---------------------------------------------------------------------
// Brown-out: compute kinds degrade width as well as fan-out
// ---------------------------------------------------------------------

TEST(PipelineBrownOut, DegradedEmbedRepliesCarryNarrowedColumns)
{
    auto builder = baseBuilder(1);
    service::BrownOutConfig bo;
    bo.engage_fill = 0.0; // any observation engages Degrade
    bo.release_fill = 0.0;
    bo.shed_fill = 2.0; // never escalate to shedding
    bo.min_hold = 10s;  // and never release during the test
    bo.compute_width_scale = 0.5;
    builder.brownout(bo);
    service::Service svc(builder.build());
    const auto hidden = svc.compute().model().hiddenDim();

    service::SubmitOptions options;
    options.seed = 5;
    const auto result =
        svc.execute(service::Job::embed(twoHopPlan(8), options));
    ASSERT_TRUE(result.ok()) << result.status().toString();
    const service::Reply &reply = result.value();
    EXPECT_EQ(reply.status.code(), StatusCode::Degraded);
    EXPECT_EQ(reply.shed_cause, service::ShedCause::BrownOut);
    EXPECT_TRUE(reply.hasEmbeddings());
    EXPECT_EQ(reply.embeddings.rows(), 8u);
    EXPECT_EQ(reply.embeddings.cols(), hidden / 2)
        << "brown-out must narrow compute width, not just fan-out";
    svc.shutdown();
}

// ---------------------------------------------------------------------
// Micro-batching stays kind-homogeneous
// ---------------------------------------------------------------------

TEST(PipelineBatching, CompatibilityForbidsCrossKindAndSeededMerges)
{
    service::Request sample, embed, seeded;
    sample.plan = embed.plan = seeded.plan = twoHopPlan();
    embed.kind = service::JobKind::Embed;
    seeded.seed = 99;

    EXPECT_TRUE(service::batchCompatible(sample, sample));
    EXPECT_FALSE(service::batchCompatible(sample, embed));
    EXPECT_FALSE(service::batchCompatible(sample, seeded));
    EXPECT_FALSE(service::batchCompatible(seeded, seeded))
        << "seeded jobs use a private stream; merging would break it";
}

TEST(PipelineBatching, SoloSeededBatchMergesCleanly)
{
    // Regression: merge() must not demand the front rider be
    // merge-compatible with itself (a seeded request never is).
    service::Request seeded;
    seeded.plan = twoHopPlan(12);
    seeded.seed = 31;
    std::vector<service::Request> batch;
    batch.push_back(std::move(seeded));
    const auto merged = service::Batcher::merge(batch);
    EXPECT_EQ(merged.batch_size, 12u);
}

TEST(PipelineBatching, MixedKindBurstNeverSharesABatchSpan)
{
    auto builder = baseBuilder(1);
    builder.batchWindow(2000us);
    service::Service svc(builder.build());

    std::vector<std::future<service::Reply>> futures;
    for (int i = 0; i < 16; ++i)
        futures.push_back(svc.submit(
            i % 2 == 0 ? service::Job::sample(twoHopPlan(4))
                       : service::Job::embed(twoHopPlan(4))));
    std::map<std::uint64_t, service::JobKind> span_kind;
    for (auto &f : futures) {
        const auto reply = f.get();
        ASSERT_TRUE(reply.status.hasPayload()) << reply.status;
        const auto [it, inserted] =
            span_kind.emplace(reply.batch_span_id, reply.kind);
        EXPECT_EQ(it->second, reply.kind)
            << "batch span " << reply.batch_span_id
            << " mixed job kinds";
    }
    svc.shutdown();
}

// ---------------------------------------------------------------------
// Double-buffering stress (TSan target)
// ---------------------------------------------------------------------

TEST(PipelineStress, MixedKindFloodDrainsCleanly)
{
    auto builder = baseBuilder(3);
    builder.queueCapacity(64).batchWindow(100us);
    service::Service svc(builder.build());

    constexpr int clients = 4, per_client = 18;
    std::vector<std::thread> threads;
    std::atomic<int> served{0}, shed{0};
    for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&svc, &served, &shed, c] {
            for (int i = 0; i < per_client; ++i) {
                const auto kind = static_cast<service::JobKind>(
                    (c + i) % 3);
                service::SubmitOptions options;
                options.seed = (c + i) % 2 == 0 ? 0 : 100 + i;
                const auto reply =
                    svc.submit(service::Job::of(kind, twoHopPlan(4),
                                                options))
                        .get();
                (reply.status.hasPayload() ? served : shed)++;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    svc.shutdown(service::Service::Shutdown::Drain);
    EXPECT_EQ(served + shed, clients * per_client);
    EXPECT_GT(served.load(), 0);
    EXPECT_EQ(svc.queueDepth(), 0u);
}

TEST(PipelineStress, CancelShutdownFailsComputeBacklogFast)
{
    auto builder = baseBuilder(1);
    builder.queueCapacity(512).batchWindow(0us).maxBatchRequests(1);
    service::Service svc(builder.build());
    std::vector<std::future<service::Reply>> futures;
    for (int i = 0; i < 96; ++i)
        futures.push_back(svc.submit(service::Job::embed(twoHopPlan(32))));
    svc.shutdown(service::Service::Shutdown::Cancel);

    std::uint64_t resolved = 0, cancelled = 0;
    for (auto &f : futures) {
        const auto status = f.get().status;
        ++resolved;
        cancelled += status == StatusCode::Cancelled ? 1 : 0;
    }
    EXPECT_EQ(resolved, 96u);
    EXPECT_GT(cancelled, 0u);
}

// ---------------------------------------------------------------------
// ServiceConfig: validate / Builder / fromEnv
// ---------------------------------------------------------------------

TEST(ServiceConfigValidation, CatchesBadKnobsWithNamedErrors)
{
    const service::ServiceConfig good = baseBuilder(1).build();
    EXPECT_TRUE(good.validate().ok());

    auto check_bad = [](service::ServiceConfig cfg) {
        const Status status = cfg.validate();
        EXPECT_FALSE(status.ok());
        EXPECT_EQ(status.code(), StatusCode::InvalidArgument);
        EXPECT_FALSE(status.message().empty());
    };
    service::ServiceConfig cfg = good;
    cfg.num_workers = 0;
    check_bad(cfg);
    cfg = good;
    cfg.queue_capacity = 0;
    check_bad(cfg);
    cfg = good;
    cfg.pipeline.hidden_dim = 0;
    check_bad(cfg);
    cfg = good;
    cfg.pipeline.layers = 0;
    check_bad(cfg);
    cfg = good;
    cfg.num_workers = 4'294'967'295u; // never built: validate() only
    check_bad(cfg);
    for (const double bad : {0.0, -1.0, std::nan(""), HUGE_VAL}) {
        cfg = good;
        cfg.pipeline.gemm_clock_mhz = bad;
        check_bad(cfg);
    }
    cfg = good;
    cfg.qos.brownout.engage_fill = 0.95; // above shed_fill
    check_bad(cfg);
    cfg = good;
    cfg.qos.brownout.compute_width_scale = 0.0;
    check_bad(cfg);
    cfg = good;
    cfg.session.dataset = "";
    check_bad(cfg);
    for (const double bad : {std::nan(""), HUGE_VAL, -1.0}) {
        cfg = good;
        cfg.pipeline.gather_gbps = bad;
        check_bad(cfg);
        cfg = good;
        cfg.pipeline.gather_rtt_us = bad;
        check_bad(cfg);
    }
}

TEST(ServiceConfigValidation, BuilderComposesEveryLayer)
{
    service::BrownOutConfig bo;
    bo.fanout_scale = 0.25;
    const service::ServiceConfig cfg =
        baseBuilder(3)
            .queueCapacity(99)
            .batchWindow(123us)
            .maxBatchRequests(5)
            .defaultDeadline(4ms)
            .tenant(7, service::TenantConfig{"seven", 10.0, 4.0, 2})
            .brownout(bo)
            .pipelined(false)
            .model(32, 3)
            .gatherFabric(12.5, 3.0)
            .build();
    EXPECT_EQ(cfg.num_workers, 3u);
    EXPECT_EQ(cfg.queue_capacity, 99u);
    EXPECT_EQ(cfg.batcher.window, 123us);
    EXPECT_EQ(cfg.batcher.max_requests, 5u);
    EXPECT_EQ(cfg.default_deadline, 4000us);
    ASSERT_EQ(cfg.qos.tenants.size(), 1u);
    EXPECT_EQ(cfg.qos.tenants[0].first, 7u);
    EXPECT_EQ(cfg.qos.brownout.fanout_scale, 0.25);
    EXPECT_FALSE(cfg.pipeline.enabled);
    EXPECT_EQ(cfg.pipeline.hidden_dim, 32u);
    EXPECT_EQ(cfg.pipeline.layers, 3u);
    EXPECT_EQ(cfg.pipeline.gather_gbps, 12.5);
    EXPECT_EQ(cfg.pipeline.gather_rtt_us, 3.0);
}

TEST(ServiceConfigValidation, FromEnvOverridesAndValidates)
{
    ::setenv("LSDGNN_SERVICE_DATASET", "ss", 1);
    ::setenv("LSDGNN_SERVICE_SCALE", "20000", 1);
    ::setenv("LSDGNN_SERVICE_WORKERS", "5", 1);
    ::setenv("LSDGNN_SERVICE_QUEUE", "77", 1);
    ::setenv("LSDGNN_SERVICE_PIPELINE", "0", 1);
    ::setenv("LSDGNN_SERVICE_HIDDEN", "48", 1);
    ::setenv("LSDGNN_SERVICE_LAYERS", "2", 1);
    ::setenv("LSDGNN_SERVICE_GATHER_GBPS", "25.0", 1);
    const auto cfg = service::ServiceConfig::fromEnv();
    for (const char *var :
         {"LSDGNN_SERVICE_DATASET", "LSDGNN_SERVICE_SCALE",
          "LSDGNN_SERVICE_WORKERS", "LSDGNN_SERVICE_QUEUE",
          "LSDGNN_SERVICE_PIPELINE",
          "LSDGNN_SERVICE_HIDDEN", "LSDGNN_SERVICE_LAYERS",
          "LSDGNN_SERVICE_GATHER_GBPS"})
        ::unsetenv(var);

    EXPECT_EQ(cfg.session.dataset, "ss");
    EXPECT_EQ(cfg.session.scale_divisor, 20'000u);
    EXPECT_EQ(cfg.num_workers, 5u);
    EXPECT_EQ(cfg.queue_capacity, 77u);
    EXPECT_FALSE(cfg.pipeline.enabled);
    EXPECT_EQ(cfg.pipeline.hidden_dim, 48u);
    EXPECT_EQ(cfg.pipeline.layers, 2u);
    EXPECT_EQ(cfg.pipeline.gather_gbps, 25.0);
    EXPECT_TRUE(cfg.validate().ok());
}

TEST(ServiceConfigValidation, FromEnvRejectsMalformedNumbers)
{
    // The child re-executes this test alone, so no thread of another
    // test is alive when it dies. fromEnv() must fail before any
    // Service could be built from the value.
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    const auto fromEnvWith = [](const char *var, const char *value) {
        ::setenv(var, value, 1);
        service::ServiceConfig::fromEnv();
    };
    const struct {
        const char *var;
        const char *value;
    } cases[] = {
        {"LSDGNN_SERVICE_WORKERS", "-1"},         // wrapped to 2^32-1
        {"LSDGNN_SERVICE_WORKERS", "4294967297"}, // wrapped to 1
        {"LSDGNN_SERVICE_WORKERS", "+3"},
        {"LSDGNN_SERVICE_WORKERS", "abc"},
        {"LSDGNN_SERVICE_QUEUE", "5x"},
        {"LSDGNN_SERVICE_SCALE", "18446744073709551616"},
        {"LSDGNN_SERVICE_HIDDEN", " 48"},
        {"LSDGNN_SERVICE_PIPELINE", "2"},
        {"LSDGNN_SERVICE_GATHER_GBPS", "nan"},
        {"LSDGNN_SERVICE_GATHER_GBPS", "inf"},
        {"LSDGNN_SERVICE_GATHER_GBPS", "-1"},
        {"LSDGNN_SERVICE_GATHER_GBPS", "1e400"},
    };
    for (const auto &c : cases)
        EXPECT_DEATH(fromEnvWith(c.var, c.value), c.var)
            << c.var << "=" << c.value;
}

} // namespace
} // namespace lsdgnn
