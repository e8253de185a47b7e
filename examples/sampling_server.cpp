/**
 * @file
 * GNN-serving scenario: the concurrent frontend from src/service
 * driven the way a trainer/inference fleet would — many client
 * threads submitting Jobs against a shared worker pool, with dynamic
 * micro-batching (Tech-1-style request packing) and admission control
 * absorbing an overload burst. With --mode embed the fleet drives the
 * full sample -> gather -> GraphSAGE pipeline and replies carry one
 * embedding row per root.
 *
 * Run: ./sampling_server [workers] [clients]
 *        [--mode sample|embed|train]  job kind the fleet submits
 *                        (default sample; embed/train run the full
 *                        end-to-end pipeline per request)
 *        [--tenants N]   register N tenants ("online" + N-1 "train-k"
 *                        batch tenants) and finish with a mixed-tenant
 *                        QoS phase: a paced Interactive tenant riding
 *                        through the batch tenants' flood
 *        [--lane interactive|batch]  priority lane the closed-loop
 *                        fleet submits on (default interactive)
 *        [--rate QPS]    per-tenant token-bucket admission rate
 *                        (default 0 = unlimited)
 * Observability hooks:
 *  - LSDGNN_TRACE=server.trace.json    Perfetto timeline (per-worker
 *    batch slices, per-request spans + flow arrows, queue depth).
 *  - LSDGNN_METRICS=server.metrics.json  windowed SLO metrics of the
 *    final phase (per-stage p50/p99 deltas) as one JSON object.
 *  - LSDGNN_FLIGHT=server.flight.json  anomaly flight-recorder dump
 *    path (deadline misses / shed spikes trip it automatically).
 */

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/stat_registry.hh"
#include "common/table.hh"
#include "service/load_gen.hh"

using namespace std::chrono_literals;

namespace {

/** Print one phase's windowed per-stage latency breakdown. */
void
printWindow(const char *phase, const lsdgnn::stats::WindowReport &w)
{
    using lsdgnn::TextTable;
    TextTable table;
    // The named stages of a request, in order (they sum to its
    // end-to-end time), then the remote wait inside sampling. Means
    // come from the exact per-stage sums, percentiles from the
    // histograms; "cpu us" is the serving threads' CPU in the stage.
    table.header({"stage", "n", "mean us", "cpu us", "p50 us",
                  "p99 us"});
    for (const char *stage : {"queue", "batch", "handoff", "sample",
                              "gather", "compute", "reply", "remote"}) {
        const std::string group = std::string("service.stage.") + stage;
        const auto *h = w.findHistogram(group, "us");
        if (h == nullptr || h->n == 0)
            continue;
        const auto mean = [&](const char *stat) {
            return static_cast<double>(w.counterDelta(group, stat)) /
                   1e3 / static_cast<double>(h->n);
        };
        table.row({stage, TextTable::num(h->n),
                   TextTable::num(mean("wall_ns"), 1),
                   TextTable::num(mean("cpu_ns"), 1),
                   TextTable::num(h->percentile(0.5), 1),
                   TextTable::num(h->percentile(0.99), 1)});
    }
    std::cout << "\n" << phase << " window ("
              << TextTable::num(w.window_s * 1e3, 0) << " ms, "
              << w.counterDelta("service", "completed")
              << " completed):\n";
    table.print(std::cout);

    // Async-fabric health for the same window: hedge pressure and
    // in-flight depth per batch that actually crossed the fabric.
    const auto *hedges =
        w.findHistogram("service.stage.fabric", "hedges");
    const auto *depth =
        w.findHistogram("service.stage.fabric", "inflight_peak");
    if (hedges != nullptr && depth != nullptr && depth->n != 0)
        std::cout << "fabric: hedges p99 "
                  << TextTable::num(hedges->percentile(0.99), 1)
                  << "/batch, in-flight peak p50 "
                  << TextTable::num(depth->percentile(0.5), 0)
                  << " p99 "
                  << TextTable::num(depth->percentile(0.99), 0)
                  << " reads\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace lsdgnn;

    std::uint32_t tenants = 1;
    double tenant_rate = 0.0;
    service::Lane fleet_lane = service::Lane::Interactive;
    service::JobKind fleet_kind = service::JobKind::Sample;
    std::vector<const char *> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--mode" && i + 1 < argc) {
            const std::string_view mode = argv[++i];
            fleet_kind = mode == "embed" ? service::JobKind::Embed
                         : mode == "train"
                             ? service::JobKind::TrainStep
                             : service::JobKind::Sample;
        } else if (arg == "--tenants" && i + 1 < argc)
            tenants = std::uint32_t(
                std::max(1, std::atoi(argv[++i])));
        else if (arg == "--lane" && i + 1 < argc)
            fleet_lane = std::string_view(argv[++i]) == "batch"
                             ? service::Lane::Batch
                             : service::Lane::Interactive;
        else if (arg == "--rate" && i + 1 < argc)
            tenant_rate = std::atof(argv[++i]);
        else
            positional.push_back(argv[i]);
    }
    const std::uint32_t workers =
        positional.size() > 0
            ? std::uint32_t(std::atoi(positional[0]))
            : 2;
    const std::uint32_t clients =
        positional.size() > 1
            ? std::uint32_t(std::atoi(positional[1]))
            : 4;

    service::ServiceConfig::Builder builder;
    builder.dataset("ss", 40'000)
        .servers(4)
        .workers(workers)
        .queueCapacity(128)
        .defaultDeadline(10ms); // in-queue staleness bound
    for (std::uint32_t t = 1; t <= tenants; ++t) {
        service::TenantConfig tenant;
        tenant.name =
            t == 1 ? "online" : "train-" + std::to_string(t - 1);
        tenant.rate_qps = tenant_rate;
        builder.tenant(t, tenant);
    }

    sampling::SamplePlan plan;
    plan.batch_size = 64;
    plan.fanouts = {10, 10};

    std::cout << "serving " << toString(fleet_kind) << " jobs: "
              << workers << " workers, " << clients
              << " closed-loop clients (" << toString(fleet_lane)
              << " lane), " << tenants
              << " tenant(s)"
              << (tenant_rate > 0
                      ? ", " + TextTable::num(tenant_rate, 0) +
                            " QPS/tenant admission rate"
                      : std::string())
              << ", merging queued riders\n\n";

    // Every fleet submission bills tenant 1 on the requested lane.
    service::SubmitOptions fleet_options;
    fleet_options.tenant = 1;
    fleet_options.lane = fleet_lane;

    service::Service svc(builder.build());

    // Rolling SLO window over the service + fabric groups. Snapshot
    // deltas, not resets: any number of these can coexist.
    stats::WindowedStats window({"service", "mof.remote"});

    // A single job end to end: execute() blocks and folds the reply
    // into Result<Reply> (service allocates the trace id). Embed and
    // train-step replies carry embeddings instead of a subgraph.
    const service::Job job =
        service::Job::of(fleet_kind, plan, fleet_options);
    const auto warmup = svc.execute(job);
    if (!warmup.ok()) {
        std::cerr << "warm-up failed: " << warmup.status().toString()
                  << "\n";
        return 1;
    }
    const service::Reply &reply = warmup.value();
    std::cout << "warm-up " << toString(reply.kind) << ": "
              << reply.status.toString() << ", ";
    if (reply.hasEmbeddings())
        std::cout << reply.embeddings.rows() << "x"
                  << reply.embeddings.cols() << " embeddings ("
                  << reply.flops << " flops)";
    else
        std::cout << reply.batch.totalSampled() << " samples";
    if (reply.kind == service::JobKind::TrainStep)
        std::cout << ", loss " << reply.loss;
    std::cout << ", " << reply.e2e_us << " us end-to-end (worker "
              << reply.worker << ", trace_id " << reply.trace_id
              << ", span " << reply.span_id << " in batch span "
              << reply.batch_span_id << ")\n";

    // Steady state: a closed-loop client fleet.
    service::LoadGenerator gen(svc);
    const auto steady = gen.runClosedLoop(job, clients, 300ms);
    printWindow("steady", window.collect());

    TextTable table;
    table.header({"phase", "offered", "ok", "shed %", "goodput QPS",
                  "p50 us", "p99 us"});
    table.row({"closed loop", TextTable::num(steady.offered),
               TextTable::num(steady.ok),
               TextTable::num(steady.shedFraction() * 100, 1),
               TextTable::num(steady.goodput_qps, 0),
               TextTable::num(steady.p50_us, 1),
               TextTable::num(steady.p99_us, 1)});

    // Overload burst: open-loop Poisson arrivals at ~4x the measured
    // capacity with a tight deadline — admission control sheds the
    // excess instead of queueing it forever.
    const auto burst =
        gen.runOpenLoop(job, 4 * steady.goodput_qps, 200ms, 99);
    const stats::WindowReport burstWindow = window.collect();
    printWindow("overload", burstWindow);
    table.row({"overload x4", TextTable::num(burst.offered),
               TextTable::num(burst.ok),
               TextTable::num(burst.shedFraction() * 100, 1),
               TextTable::num(burst.goodput_qps, 0),
               TextTable::num(burst.p50_us, 1),
               TextTable::num(burst.p99_us, 1)});
    std::cout << "\n";
    table.print(std::cout);

    // Mixed-tenant QoS phase: the "online" tenant keeps a paced
    // Interactive stream inside its SLO while the "train-k" tenants
    // flood the Batch lane; lane budgets and weighted-fair dequeue
    // keep the flood from starving the online traffic.
    if (tenants >= 2) {
        std::vector<service::TenantRun> runs;
        service::TenantRun online;
        online.label = "online";
        online.tenant = 1;
        online.lane = service::Lane::Interactive;
        online.kind = fleet_kind;
        online.plan = plan;
        online.plan.batch_size = 8;
        online.target_qps = 200.0;
        online.deadline = 25ms; // doubles as the SLO target
        online.seed = 11;
        runs.push_back(online);
        for (std::uint32_t t = 2; t <= tenants; ++t) {
            service::TenantRun train;
            train.label = "train-" + std::to_string(t - 1);
            train.tenant = t;
            train.lane = service::Lane::Batch;
            train.kind = fleet_kind == service::JobKind::Sample
                             ? service::JobKind::Sample
                             : service::JobKind::TrainStep;
            train.plan = plan;
            train.plan.batch_size = 256;
            train.target_qps = 20'000.0 / double(tenants - 1);
            train.seed = 13 + t;
            runs.push_back(train);
        }
        const auto mixed = gen.runMixed(runs, 300ms);
        printWindow("mixed-tenant", window.collect());

        TextTable mt;
        mt.header({"tenant", "lane", "offered", "ok", "SLO %",
                   "shed %", "sheds (adm/full/brown/ddl)"});
        for (const auto &[run, r] : mixed.runs)
            mt.row({run.label, toString(run.lane),
                    TextTable::num(r.offered), TextTable::num(r.ok),
                    TextTable::num(r.sloAttainment() * 100, 1),
                    TextTable::num(r.shedFraction() * 100, 1),
                    TextTable::num(r.sheds.admission_throttle) + "/" +
                        TextTable::num(r.sheds.queue_full) + "/" +
                        TextTable::num(r.sheds.brownout) + "/" +
                        TextTable::num(r.sheds.deadline_drop)});
        std::cout << "\n";
        mt.print(std::cout);
    }

    svc.shutdown();

    if (const char *path = std::getenv("LSDGNN_METRICS");
        path != nullptr && *path != '\0') {
        std::ofstream out(path, std::ios::trunc);
        burstWindow.exportJson(out);
        out << "\n";
        std::cout << "\nwindowed metrics written to " << path << "\n";
    }

    const auto &queue = svc.queueStats();
    std::cout << "\nservice totals: "
              << svc.stats().completed() << " completed in "
              << svc.stats().batches() << " backend batches (mean "
              << TextTable::num(svc.stats().meanBatchRequests(), 2)
              << " requests packed per batch); admission "
              << queue.counter("accepted").value() << " accepted, "
              << queue.counter("rejected").value() << " rejected, "
              << queue.counter("dropped").value() << " dropped\n";
    std::cout << "e2e p50/p95/p99: "
              << TextTable::num(svc.stats().e2ePercentile(0.50), 1)
              << " / "
              << TextTable::num(svc.stats().e2ePercentile(0.95), 1)
              << " / "
              << TextTable::num(svc.stats().e2ePercentile(0.99), 1)
              << " us\n";
    return 0;
}
