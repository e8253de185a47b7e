/**
 * @file
 * perfbench: the samples-to-embeddings benchmark of the serving tier.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans-out PATH] [--git-sha SHA] [--src-digest D]
 *             [--corrupt-reply]
 *
 * --trace 0 measures the end-to-end metrics: set-up time (median of
 * several Service constructions, each timed to its first reply), then
 * a warm-up and an S-second window of the workload's load through
 * Service::submit, then the output check (structural for every reply;
 * seeded replies re-derived through the layers and compared digest
 * for digest). --trace 1 is the separate traced run: the same load
 * with service.request spans in alternating slices, then a replay of
 * the job stream through the layers with one span per layer call;
 * per-layer metrics come from span self times and counter deltas.
 *
 * The last stdout line is one JSON object:
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
 * Exit code 0 iff the output check passed. --corrupt-reply damages
 * one reply before the check, so a self-test can prove it is caught.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>

#include "common/rng.hh"
#include "common/stat_registry.hh"
#include "driver.hh"
#include "replay.hh"
#include "spans.hh"
#include "workload.hh"

namespace {

using namespace perfbench;

// Set-up repetitions in an untraced run, at least kSetups and for at
// least kSetupSpanS: setup_s is their median, so a host hiccup during a
// few of them does not move it. All but the first run after the load,
// so their allocations cannot raise the load's peak RSS.
constexpr std::size_t kSetups = 15;
constexpr double kSetupSpanS = 1.0;
// Load streams beyond the clients/generator (1.., 0).
constexpr std::uint64_t kSetupStream = 1000;
// Alternating traced/untraced slice length of the traced run's load.
constexpr double kTraceSliceS = 0.25;
// Good replies per window slice: p99 keeps >= 5 samples beyond it.
constexpr std::size_t kMinSliceSamples = 500;
// Upper bound on the traced run's replay phase.
constexpr double kReplayCapS = 60.0;
// The open-loop generator fell behind when its median send lag
// exceeds this: most requests then left late, and the run measures
// the generator, not the service.
constexpr double kMaxGenLagP50Us = 500.0;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string spans_out;
    std::string git_sha = "unknown";
    std::string src_digest = "unknown";
    bool corrupt = false;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--corrupt-reply") {
            a.corrupt = true;
        } else if (!has_value) {
            return false;
        } else if (arg == "--workload") {
            a.workload = argv[++i];
        } else if (arg == "--seed") {
            a.seed = std::stoull(argv[++i]);
        } else if (arg == "--seconds") {
            a.seconds = std::stod(argv[++i]);
        } else if (arg == "--trace") {
            a.trace = std::stoi(argv[++i]);
        } else if (arg == "--spans-out") {
            a.spans_out = argv[++i];
        } else if (arg == "--git-sha") {
            a.git_sha = argv[++i];
        } else if (arg == "--src-digest") {
            a.src_digest = argv[++i];
        } else {
            return false;
        }
    }
    return !a.workload.empty() && a.seconds > 0.0 &&
           (a.trace == 0 || a.trace == 1);
}

/** Nearest-rank percentile of @p v (q in [0, 1]); 0 when empty. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/** Median (mean of the middle two for an even count); 0 when empty. */
double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t h = v.size() / 2;
    return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double
mean(const std::vector<double> &v)
{
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           static_cast<double>(v.size());
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/**
 * The CPUs this process may use, split so the load side (the polling
 * load thread, then the replay) runs on the last one and the service
 * on the rest: the load side then never takes a core from a worker.
 * With a single CPU both sets are that CPU.
 */
struct CpuSplit {
    cpu_set_t service;
    cpu_set_t load;
};

CpuSplit
splitCpus()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    sched_getaffinity(0, sizeof allowed, &allowed);
    CpuSplit split{allowed, allowed};
    int last = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed))
            last = c;
    if (last >= 0 && CPU_COUNT(&allowed) > 1) {
        CPU_CLR(last, &split.service);
        CPU_ZERO(&split.load);
        CPU_SET(last, &split.load);
    }
    return split;
}

/** Restrict the calling thread (and threads it starts) to @p set. */
void
pinThread(const cpu_set_t &set)
{
    sched_setaffinity(0, sizeof set, &set);
}

/** Counters of the sharded store's fabric and cache tiers. */
struct FabricCounters {
    double local = 0, remote = 0, cached = 0;
    double hedges = 0, retransmissions = 0;
    double fill_sum = 0, fill_n = 0;
    double cache_lookups = 0;

    FabricCounters
    operator-(const FabricCounters &o) const
    {
        FabricCounters d;
        d.local = local - o.local;
        d.remote = remote - o.remote;
        d.cached = cached - o.cached;
        d.hedges = hedges - o.hedges;
        d.retransmissions = retransmissions - o.retransmissions;
        d.fill_sum = fill_sum - o.fill_sum;
        d.fill_n = fill_n - o.fill_n;
        d.cache_lookups = cache_lookups - o.cache_lookups;
        return d;
    }
};

/** Sum the mof.remote.* and cache.shard* groups of every live shard. */
FabricCounters
readFabric()
{
    FabricCounters c;
    lsdgnn::stats::StatRegistry::instance().forEach(
        [&](const lsdgnn::stats::StatGroup &g) {
            const std::string &n = g.name();
            const auto value = [&](const char *stat) {
                return static_cast<double>(g.counter(stat).value());
            };
            if (n.starts_with("cache.shard")) {
                c.cache_lookups += value("lookups");
            } else if (!n.starts_with("mof.remote.shard")) {
                return;
            } else if (n.find(".to") == std::string::npos) {
                c.local += value("local");
                c.remote += value("remote");
                c.cached += value("cached") + value("attr_cached");
            } else if (n.ends_with(".req") || n.ends_with(".rsp")) {
                c.retransmissions += value("retransmissions");
            } else if (!n.ends_with(".mem")) {
                c.hedges += value("hedges");
                const auto &fill = g.average("pack_fill");
                c.fill_sum += fill.sum();
                c.fill_n += static_cast<double>(fill.samples());
            }
        });
    return c;
}

/** Queue counters of Service::queueStats(). */
struct QueueCounters {
    double accepted = 0, shed = 0;
};

QueueCounters
readQueue(const svc::Service &service)
{
    const auto &g = service.queueStats();
    const auto value = [&](const char *stat) {
        return static_cast<double>(g.counter(stat).value());
    };
    return {value("accepted"),
            value("rejected") + value("dropped") + value("cancelled")};
}

/** Damage one payload so the output check must catch it. */
void
corrupt(svc::Reply &reply)
{
    if (reply.kind != svc::JobKind::Sample) {
        auto data = reply.embeddings.data();
        std::uint32_t bits;
        std::memcpy(&bits, data.data(), sizeof bits);
        bits ^= 1u;
        std::memcpy(data.data(), &bits, sizeof bits);
    } else if (!reply.batch.frontier.empty() &&
               !reply.batch.frontier[0].empty()) {
        reply.batch.frontier[0][0] ^= 1u;
        reply.batch.parent[0][0] = ~0u;
    }
}

/** Metrics in print order, each with its unit. */
class Metrics
{
  public:
    void
    add(std::string name, double value, std::string unit)
    {
        items_.push_back({std::move(name), value, std::move(unit)});
    }

    bool
    allFinite() const
    {
        return std::all_of(items_.begin(), items_.end(),
                           [](const Item &i) { return std::isfinite(i.value); });
    }

    void
    printTable(std::ostream &os) const
    {
        for (const Item &i : items_) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.6g", i.value);
            os << "  " << i.name << " = " << buf << " " << i.unit << "\n";
        }
    }

    std::string
    json() const
    {
        std::ostringstream os;
        os.precision(17);
        os << "{";
        for (std::size_t k = 0; k < items_.size(); ++k)
            os << (k ? "," : "") << "\"" << items_[k].name
               << "\":{\"value\":"
               << (std::isfinite(items_[k].value) ? items_[k].value : 0.0)
               << ",\"unit\":\"" << items_[k].unit << "\"}";
        os << "}";
        return os.str();
    }

  private:
    struct Item {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Item> items_;
};

/**
 * The window cut into equal slices of at least kMinSliceSamples good
 * replies each (and at least 1 s), with each slice's goodput, latency
 * p50/p99 and the CPU time the host stole from this VM during it. The
 * end-to-end metrics are medians over the slices with no more steal
 * than the median slice: on a shared host, bursts of steal come and
 * go, and a slice during one measures the neighbours, not the service.
 */
struct Slices {
    std::size_t good = 0; ///< good replies in the window
    double slice_s = 0.0;
    std::vector<double> goodput, p50, p99;
    std::vector<double> steal_ticks;
    std::vector<bool> kept; ///< the metrics use this slice
    std::size_t kept_count = 0;

    /** Median of @p v over the kept slices. */
    double
    median(const std::vector<double> &v) const
    {
        std::vector<double> kept_values;
        for (std::size_t i = 0; i < v.size(); ++i)
            if (kept[i])
                kept_values.push_back(v[i]);
        return ::median(kept_values);
    }
};

/** Steal counter at @p at_s: the last reading at or before it. */
double
stealAt(const std::vector<StealProbe> &steal, double at_s)
{
    double ticks = steal.empty() ? 0.0 : steal.front().ticks;
    for (const StealProbe &p : steal) {
        if (p.at_s > at_s)
            break;
        ticks = static_cast<double>(p.ticks);
    }
    return ticks;
}

Slices
sliceWindow(const std::vector<std::vector<Sample>> &samples,
            const std::vector<StealProbe> &steal, const LoadSpec &spec)
{
    const auto good = [&](const Sample &x) {
        return x.latency_us >= 0.0f && spec.inWindow(x.at_s);
    };
    Slices s;
    for (const auto &part : samples)
        s.good += std::count_if(part.begin(), part.end(), good);
    const auto by_time = static_cast<std::size_t>(spec.window_s);
    const std::size_t k = std::max<std::size_t>(
        1, std::min(by_time, s.good / kMinSliceSamples));
    s.slice_s = spec.window_s / static_cast<double>(k);
    std::vector<std::vector<double>> lat(k);
    for (const auto &part : samples)
        for (const Sample &x : part) {
            if (!good(x))
                continue;
            const auto i = std::min(
                k - 1, static_cast<std::size_t>(
                           (x.at_s - spec.warmup_s) / s.slice_s));
            lat[i].push_back(x.latency_us);
        }
    for (std::size_t i = 0; i < k; ++i) {
        const double from = spec.warmup_s + s.slice_s * i;
        s.goodput.push_back(static_cast<double>(lat[i].size()) /
                            s.slice_s);
        s.p50.push_back(percentile(lat[i], 0.50));
        s.p99.push_back(percentile(lat[i], 0.99));
        s.steal_ticks.push_back(stealAt(steal, from + s.slice_s) -
                                stealAt(steal, from));
    }
    const double limit = percentile(s.steal_ticks, 0.5);
    for (std::size_t i = 0; i < k; ++i) {
        s.kept.push_back(s.steal_ticks[i] <= limit);
        s.kept_count += s.kept.back();
    }
    return s;
}

/** Indices of @p count entries spread evenly over [0, n). */
std::vector<std::size_t>
spread(std::size_t n, std::size_t count)
{
    std::vector<std::size_t> out;
    if (count == 0 || n == 0)
        return out;
    if (n <= count || count == 1) {
        for (std::size_t i = 0; i < std::min(n, count); ++i)
            out.push_back(i);
        return out;
    }
    for (std::size_t k = 0; k < count; ++k)
        out.push_back(k * (n - 1) / (count - 1));
    return out;
}

/**
 * The traced run's replay stream: the window's jobs (seeded) or
 * executed batches (unseeded), with the record each seeded job must
 * match, spread evenly over the window.
 */
std::vector<std::pair<ReplayJob, Record *>>
replayStream(const Workload &w, std::vector<Record> &records)
{
    std::vector<std::pair<ReplayJob, Record *>> jobs;
    for (Record &r : records) {
        if (!r.in_window || !r.payload)
            continue;
        if (w.seeded) {
            jobs.push_back({{r.seed, w.plan.batch_size, r.worker}, &r});
            continue;
        }
        // Unseeded riders share one merged execution. A rider of a
        // b-rider batch stands for 1/b of it, so keep one rider in b
        // (by a hash of its index) and each batch counts about once.
        std::uint64_t h = r.index;
        if (lsdgnn::splitMix64(h) % std::max(r.batched_with, 1u) != 0)
            continue;
        jobs.push_back(
            {{0, w.plan.batch_size * r.batched_with, r.worker}, nullptr});
    }
    std::vector<std::pair<ReplayJob, Record *>> picked;
    for (const std::size_t i : spread(jobs.size(), w.replay_jobs))
        picked.push_back(jobs[i]);
    return picked;
}

/** Indices of @p count records spread evenly over the seeded ones. */
std::vector<std::size_t>
checkSubset(const std::vector<Record> &records, std::size_t count)
{
    std::vector<std::size_t> seeded;
    for (std::size_t i = 0; i < records.size(); ++i)
        if (records[i].payload && records[i].seed != 0)
            seeded.push_back(i);
    std::vector<std::size_t> out;
    for (const std::size_t k : spread(seeded.size(), count))
        out.push_back(seeded[k]);
    return out;
}

std::string
join(const std::vector<double> &v)
{
    std::ostringstream os;
    os.precision(4);
    for (std::size_t i = 0; i < v.size(); ++i)
        os << (i ? " " : "") << v[i];
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef NDEBUG
    std::cerr << "perfbench: refusing to report from a build without "
                 "NDEBUG (configure with -DCMAKE_BUILD_TYPE=Release)\n";
    return 2;
#endif
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::cerr << "usage: perfbench --workload NAME --seed N "
                     "--seconds S --trace 0|1 [--spans-out PATH] "
                     "[--git-sha SHA] [--src-digest D] [--corrupt-reply]\n";
        return 2;
    }
    const std::optional<Workload> found = findWorkload(args.workload);
    if (!found) {
        std::cerr << "perfbench: unknown workload '" << args.workload
                  << "'\n";
        return 2;
    }
    const Workload &w = *found;
    const bool traced = args.trace == 1;

    std::cout << "meta {\"workload\":\"" << w.name
              << "\",\"seed\":" << args.seed
              << ",\"seconds\":" << args.seconds
              << ",\"trace\":" << args.trace << ",\"git_sha\":\""
              << args.git_sha << "\",\"src_digest\":\"" << args.src_digest
              << "\",\"build_type\":\"" << PERFBENCH_BUILD_TYPE
              << "\",\"nproc\":" << std::thread::hardware_concurrency()
              << "}\n";

    // --- set-up: Service construction to its first successful reply.
    // Workers build their Sessions lazily on their own threads, so the
    // constructor's return says nothing; the first reply does.
    // The service's threads inherit the CPUs of the thread that builds
    // it; the load side then moves to a CPU of its own.
    const CpuSplit cpus = splitCpus();
    std::vector<double> setup_s;
    const auto setUp = [&]() -> std::unique_ptr<svc::Service> {
        pinThread(cpus.service);
        const auto t0 = SteadyClock::now();
        auto s = std::make_unique<svc::Service>(w.config);
        const std::uint64_t i = setup_s.size();
        const svc::Reply first =
            s->submit(makeJob(w, w.seeded ? jobSeed(args.seed,
                                                    kSetupStream, i)
                                          : 0))
                .get();
        setup_s.push_back(
            std::chrono::duration<double>(SteadyClock::now() - t0)
                .count());
        pinThread(cpus.load);
        if (!first.status.hasPayload()) {
            std::cerr << "perfbench: set-up reply failed: "
                      << first.status.toString() << "\n";
            return nullptr;
        }
        return s;
    };
    std::unique_ptr<svc::Service> service = setUp();
    if (!service)
        return 1;

    Replayer replayer(*service, w, args.seed);
    const std::uint64_t num_nodes = replayer.numNodes();

    // --- output check, run on whichever thread received the reply.
    // --corrupt-reply damages the first window reply the check sees.
    std::atomic<bool> corrupt_pending{args.corrupt};
    std::atomic<std::uint64_t> corrupted_seed{0};
    std::mutex error_mutex;
    std::string first_error; // guarded by error_mutex
    const ReplyCheck check = [&](svc::Reply &reply, const Record &r) {
        Verdict v;
        v.payload = reply.status.hasPayload();
        if (!v.payload)
            return v;
        if (r.in_window && corrupt_pending.exchange(false)) {
            corrupt(reply);
            corrupted_seed = r.seed;
            v.keep = true;
        }
        const std::string why = checkReply(reply, w, num_nodes);
        v.valid = why.empty();
        if (!v.valid) {
            std::lock_guard<std::mutex> lock(error_mutex);
            if (first_error.empty())
                first_error = why;
        }
        if (r.seed != 0)
            v.digest = svc::needsCompute(reply.kind)
                           ? digest(reply.embeddings)
                           : digest(reply.batch);
        return v;
    };

    LoadSpec spec;
    spec.warmup_s = std::max(1.0, 0.1 * args.seconds);
    spec.window_s = args.seconds;
    spec.trace_slice_s = traced ? kTraceSliceS : 0.0;
    const QueueCounters queue_before = readQueue(*service);
    LoadRun run = runLoad(*service, w, args.seed, spec, check);
    const QueueCounters queue_after = readQueue(*service);

    // --- seeded replies against the layers' replay of the same seed.
    // A mismatch marks its record invalid, and failed when it was a
    // window request.
    std::size_t mismatches = 0, window_mismatches = 0;
    const auto mismatch = [&](Record &r) {
        r.valid = false;
        ++mismatches;
        window_mismatches += r.in_window;
    };
    std::vector<Span> replay_spans;
    FabricCounters fabric;
    std::size_t replayed = 0;
    if (!traced) {
        std::vector<std::size_t> subset =
            checkSubset(run.records, w.replay_checks);
        for (std::size_t i = 0; i < run.records.size(); ++i)
            if (corrupted_seed != 0 &&
                run.records[i].seed == corrupted_seed &&
                std::find(subset.begin(), subset.end(), i) == subset.end())
                subset.push_back(i);
        for (const std::size_t i : subset) {
            Record &r = run.records[i];
            const auto d = replayer.run(
                {r.seed, w.plan.batch_size, r.worker}, nullptr);
            ++replayed;
            if (!d || *d != r.digest)
                mismatch(r);
        }
    } else {
        SpanLog log(100);
        const FabricCounters before = readFabric();
        const auto cap = SteadyClock::now() +
                         std::chrono::duration_cast<SteadyClock::duration>(
                             std::chrono::duration<double>(kReplayCapS));
        for (const auto &[job, record] : replayStream(w, run.records)) {
            if (SteadyClock::now() >= cap)
                break;
            const auto d = replayer.run(job, &log);
            ++replayed;
            if (record != nullptr && (!d || *d != record->digest))
                mismatch(*record);
            else if (!d)
                ++mismatches;
        }
        fabric = readFabric() - before;
        replay_spans = log.spans();
    }

    std::vector<Span> spans = run.spans;
    spans.insert(spans.end(), replay_spans.begin(), replay_spans.end());

    // Stop every worker, then the rest of the set-ups.
    service.reset();
    const auto setups_start = SteadyClock::now();
    while (!traced &&
           (setup_s.size() < kSetups ||
            SteadyClock::now() - setups_start <
                std::chrono::duration<double>(kSetupSpanS)))
        if (!setUp())
            return 1;

    // --- tally the window: latencies from every request's Sample,
    // per-request details from the stride-sampled Records.
    const std::uint64_t attempted = run.tally.attempted;
    const std::uint64_t failed = run.tally.failed + window_mismatches;
    const std::uint64_t invalid = run.tally.invalid + mismatches;
    std::vector<double> latency_traced, latency_plain;
    for (const auto &part : run.samples)
        for (const Sample &x : part)
            if (x.latency_us >= 0.0f && spec.inWindow(x.at_s))
                (spec.traced(x.at_s) ? latency_traced : latency_plain)
                    .push_back(x.latency_us);
    std::vector<double> submit_us, gen_lag, depth, riders;
    for (const Record &r : run.records) {
        if (!r.in_window)
            continue;
        submit_us.push_back(r.submit_us);
        gen_lag.push_back(r.gen_lag_us);
        depth.push_back(static_cast<double>(r.queue_depth));
        if (r.payload && r.valid)
            riders.push_back(static_cast<double>(r.batched_with));
    }
    const bool gen_behind = w.loop == Loop::Open &&
                            percentile(gen_lag, 0.5) > kMaxGenLagP50Us;
    const bool correct = invalid == 0 && !gen_behind && attempted > 0;

    const Slices slices = sliceWindow(run.samples, run.steal, spec);
    const double lat_p50 = slices.median(slices.p50);
    const double lat_p99 = slices.median(slices.p99);
    std::cout << "window " << spec.window_s << " s after " << spec.warmup_s
              << " s warm-up: attempted=" << attempted
              << " failed=" << failed << " invalid=" << invalid
              << " replayed=" << replayed << " mismatches=" << mismatches
              << " spans=" << spans.size() << "\n";
    std::cout << "latency samples: n=" << slices.good << " in "
              << slices.p50.size() << " slices of " << slices.slice_s
              << " s (>= " << kMinSliceSamples
              << " each); metrics are medians over the "
              << slices.kept_count
              << " slices with at most the median host steal\n"
              << "  slice steal ticks: " << join(slices.steal_ticks) << "\n"
              << "  slice goodput: " << join(slices.goodput) << "\n"
              << "  slice p50 us:  " << join(slices.p50) << "\n"
              << "  slice p99 us:  " << join(slices.p99) << "\n";
    if (w.loop == Loop::Open)
        std::cout << "generator lag: p50=" << percentile(gen_lag, 0.50)
                  << " us p99=" << percentile(gen_lag, 0.99) << " us\n";
    if (!first_error.empty())
        std::cout << "output check: " << first_error << "\n";
    if (mismatches > 0)
        std::cout << "output check: " << mismatches
                  << " seeded replies differ from their replay\n";
    if (gen_behind)
        std::cout << "INVALID: the generator fell behind its schedule\n";

    Metrics m;
    if (!traced) {
        m.add("goodput_qps", slices.median(slices.goodput), "req/s");
        m.add("latency_p50_us", lat_p50, "us");
        m.add("latency_p99_us", lat_p99, "us");
        m.add("setup_s", median(setup_s), "s");
        m.add("peak_rss_mb", run.peak_rss_mb, "MB");
        std::cout << "failed_fraction = "
                  << ratio(static_cast<double>(failed),
                           static_cast<double>(attempted))
                  << "\n";
    } else {
        const auto self = selfTimesUs(spans);
        const auto stage = [&](const char *name, double q) {
            const auto it = self.find(name);
            return it == self.end() ? 0.0 : percentile(it->second, q);
        };
        const auto stageSum = [&](const char *name) {
            const auto it = self.find(name);
            return it == self.end()
                       ? 0.0
                       : std::accumulate(it->second.begin(),
                                         it->second.end(), 0.0);
        };
        const LayerTotals &t = replayer.totals();
        const double batches = static_cast<double>(t.batches);
        const double stages_p50 = stage("framework.sample", 0.5) +
                                  stage("framework.gather", 0.5) +
                                  stage("gnn.forward", 0.5);
        m.add("service.submit_us.p50", percentile(submit_us, 0.5), "us");
        m.add("service.overhead_us.p50", lat_p50 - stages_p50, "us");
        m.add("service.riders_per_batch.mean", mean(riders), "count");
        m.add("service.queue_depth.mean", mean(depth), "count");
        m.add("service.queue_depth.p99", percentile(depth, 0.99), "count");
        m.add("service.shed_fraction",
              ratio(queue_after.shed - queue_before.shed,
                    (queue_after.accepted - queue_before.accepted) +
                        (queue_after.shed - queue_before.shed)),
              "fraction");
        m.add("loadgen.gen_lag_us.p50", percentile(gen_lag, 0.5), "us");
        m.add("loadgen.gen_lag_us.p99", percentile(gen_lag, 0.99), "us");
        m.add("framework.sample_us.p50", stage("framework.sample", 0.5),
              "us");
        m.add("framework.sample_us.p99", stage("framework.sample", 0.99),
              "us");
        m.add("sampling.nodes_per_batch",
              ratio(static_cast<double>(t.nodes), batches), "count");
        m.add("sampling.coalesce_hit_rate", replayer.coalesceHitRate(),
              "fraction");
        m.add("framework.gather_us.p50", stage("framework.gather", 0.5),
              "us");
        m.add("framework.gather_rows_per_batch",
              ratio(static_cast<double>(t.gather_rows), batches), "count");
        m.add("framework.gather_remote_rows_per_batch",
              ratio(static_cast<double>(t.gather_remote_rows), batches),
              "count");
        m.add("framework.gather_mb_per_s",
              ratio(static_cast<double>(t.gather_bytes) / 1e6,
                    stageSum("framework.gather") / 1e6),
              "MB/s");
        m.add("gnn.forward_us.p50", stage("gnn.forward", 0.5), "us");
        m.add("gnn.forward_gflops",
              ratio(static_cast<double>(t.forward_flops) / 1e9,
                    stageSum("gnn.forward") / 1e6),
              "GFLOP/s");
        m.add("axe.gemm_gflops",
              ratio(static_cast<double>(t.gemm_flops) / 1e9,
                    stageSum("axe.gemm") / 1e6),
              "GFLOP/s");
        m.add("cache.hit_rate",
              ratio(static_cast<double>(t.cache_hits),
                    static_cast<double>(t.cache_lookups)),
              "fraction");
        m.add("cache.lookups_per_batch",
              ratio(fabric.cache_lookups, batches), "count");
        m.add("mof.remote_reads_per_batch", ratio(fabric.remote, batches),
              "count");
        m.add("mof.remote_fraction",
              ratio(fabric.remote,
                    fabric.local + fabric.remote + fabric.cached),
              "fraction");
        m.add("mof.pack_fill", ratio(fabric.fill_sum, fabric.fill_n) / 64.0,
              "fraction");
        m.add("mof.retransmissions", fabric.retransmissions, "count");
        m.add("mof.hedges_per_batch", ratio(fabric.hedges, batches),
              "count");
        m.add("mof.remote_wait_us.p50", percentile(t.remote_wait_us, 0.5),
              "us");
        m.add("trace.overhead_fraction",
              ratio(percentile(latency_traced, 0.5),
                    percentile(latency_plain, 0.5)) -
                  1.0,
              "fraction");
        if (t.gemm_flops > 0)
            std::cout << "axe.gemm shape (last call): " << t.gemm_shape[0]
                      << "x" << t.gemm_shape[1] << "x" << t.gemm_shape[2]
                      << "\n";
        if (!args.spans_out.empty() && !writeSpans(args.spans_out, spans))
            std::cerr << "perfbench: could not write " << args.spans_out
                      << "\n";
    }
    m.printTable(std::cout);

    const bool ok = correct && m.allFinite();
    std::cout << "{\"correct\":" << (ok ? "true" : "false")
              << ",\"attempted\":" << attempted << ",\"failed\":" << failed
              << ",\"metrics\":" << m.json() << "}" << std::endl;
    return ok ? 0 : 1;
}
