/**
 * @file
 * Unit tests for src/common: RNG, stats, units, table.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/status.hh"
#include "common/stat_registry.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/units.hh"

namespace lsdgnn {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a() == b());
    EXPECT_LT(same, 2);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.nextBounded(13);
        EXPECT_LT(v, 13u);
    }
}

TEST(Rng, BoundedCoversAllResidues)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.nextBounded(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, DoubleMeanNearHalf)
{
    Rng rng(13);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextDouble();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, RangeIsInclusive)
{
    Rng rng(17);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        hit_lo |= (v == -3);
        hit_hi |= (v == 3);
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, ForkDecorrelates)
{
    Rng parent(23);
    Rng child = parent.fork();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (parent() == child());
    EXPECT_LT(same, 2);
}

TEST(Stats, CounterAccumulates)
{
    stats::Counter c;
    c.inc();
    c.inc(5);
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, AverageTracksMinMaxMean)
{
    stats::Average a;
    a.sample(2.0);
    a.sample(4.0);
    a.sample(9.0);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
    EXPECT_EQ(a.samples(), 3u);
}

TEST(Stats, AverageEmptyIsZero)
{
    stats::Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(Stats, HistogramBucketsAndTails)
{
    stats::Histogram h(0.0, 10.0, 10);
    h.sample(-1.0);
    h.sample(0.5);
    h.sample(9.5);
    h.sample(10.0);
    h.sample(42.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(9), 1u);
    EXPECT_EQ(h.samples(), 5u);
}

TEST(Stats, HistogramPercentile)
{
    stats::Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.sample(i + 0.5);
    EXPECT_NEAR(h.percentile(0.5), 50.0, 2.0);
    EXPECT_NEAR(h.percentile(0.99), 99.0, 2.0);
}

TEST(Stats, HistogramPercentileEmptyIsLo)
{
    stats::Histogram h(5.0, 25.0, 4);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 5.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 5.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 5.0);
}

TEST(Stats, HistogramPercentileExtremes)
{
    stats::Histogram h(0.0, 100.0, 10);
    h.sample(25.0);
    h.sample(35.0);
    h.sample(75.0);
    // q=0: lower edge of the first populated bucket.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 20.0);
    // q=1: upper edge of the last populated bucket.
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 80.0);
}

TEST(Stats, HistogramPercentileAllInOverflow)
{
    stats::Histogram h(0.0, 10.0, 10);
    h.sample(100.0);
    h.sample(200.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 10.0);
}

TEST(Stats, HistogramPercentileAllInUnderflow)
{
    stats::Histogram h(10.0, 20.0, 10);
    h.sample(1.0);
    h.sample(2.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 10.0);
}

TEST(Stats, HistogramPercentileMonotonic)
{
    stats::Histogram h(0.0, 64.0, 16);
    Rng rng(31);
    for (int i = 0; i < 1000; ++i)
        h.sample(rng.nextDouble() * 80.0 - 8.0);
    double prev = h.percentile(0.0);
    for (double q = 0.05; q <= 1.0; q += 0.05) {
        const double p = h.percentile(q);
        EXPECT_GE(p, prev) << "q=" << q;
        prev = p;
    }
}

TEST(Stats, GroupHistogramRegistration)
{
    stats::StatGroup group("hg");
    stats::Histogram h(0.0, 10.0, 10);
    group.addHistogram("lat", &h, "latency distribution");
    for (int i = 0; i < 10; ++i)
        h.sample(i + 0.5);
    EXPECT_TRUE(group.hasHistogram("lat"));
    EXPECT_FALSE(group.hasHistogram("nope"));
    EXPECT_EQ(group.histogram("lat").samples(), 10u);

    std::ostringstream os;
    group.report(os);
    EXPECT_NE(os.str().find("hg.lat"), std::string::npos);
    EXPECT_NE(os.str().find("p50="), std::string::npos);
}

TEST(Stats, GroupVisitorsSeeEveryKind)
{
    stats::StatGroup group("vg");
    stats::Counter c;
    stats::Average a;
    stats::Histogram h;
    group.addCounter("c", &c);
    group.addAverage("a", &a);
    group.addHistogram("h", &h);
    int counters = 0, averages = 0, histograms = 0;
    group.visitCounters([&](const std::string &, const stats::Counter &,
                            const std::string &) { ++counters; });
    group.visitAverages([&](const std::string &, const stats::Average &,
                            const std::string &) { ++averages; });
    group.visitHistograms([&](const std::string &,
                              const stats::Histogram &,
                              const std::string &) { ++histograms; });
    EXPECT_EQ(counters, 1);
    EXPECT_EQ(averages, 1);
    EXPECT_EQ(histograms, 1);
}

TEST(StatRegistry, TracksGroupLifetime)
{
    auto live = [](const std::string &name) {
        std::size_t n = 0;
        stats::StatRegistry::instance().forEach(
            [&](const stats::StatGroup &g) { n += (g.name() == name); });
        return n;
    };
    EXPECT_EQ(live("registry.probe"), 0u);
    {
        stats::StatGroup group("registry.probe");
        EXPECT_EQ(live("registry.probe"), 1u);
    }
    EXPECT_EQ(live("registry.probe"), 0u);
}

TEST(StatRegistry, ExportJsonCarriesStats)
{
    stats::StatGroup group("json.probe");
    stats::Counter c;
    stats::Average a;
    stats::Histogram h(0.0, 10.0, 10);
    group.addCounter("reqs", &c, "requests");
    group.addAverage("lat", &a, "latency");
    group.addHistogram("dist", &h, "distribution");
    c.inc(7);
    a.sample(2.0);
    a.sample(4.0);
    for (int i = 0; i < 10; ++i)
        h.sample(i + 0.5);

    std::ostringstream os;
    stats::StatRegistry::instance().exportJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"json.probe\""), std::string::npos);
    EXPECT_NE(json.find("\"reqs\":7"), std::string::npos);
    EXPECT_NE(json.find("\"mean\":3"), std::string::npos);
    EXPECT_NE(json.find("\"p50\""), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(StatRegistry, ConcurrentRegistrationSurvivesStress)
{
    // Worker threads churn StatGroup construction/destruction while
    // another thread keeps exporting: exercises the registry lock the
    // service layer depends on (per-worker groups are built inside
    // worker threads). Run under TSan in CI.
    constexpr int threads = 8, iterations = 200;
    std::atomic<bool> go{false};
    std::vector<std::thread> churners;
    for (int t = 0; t < threads; ++t) {
        churners.emplace_back([&go, t] {
            while (!go.load())
                std::this_thread::yield();
            for (int i = 0; i < iterations; ++i) {
                // The counter outlives its group (declared first): the
                // group stays visible to the exporter until its own
                // destructor unregisters it.
                stats::Counter c;
                stats::StatGroup group(
                    "stress.t" + std::to_string(t));
                group.addCounter("n", &c);
                c.inc();
            }
        });
    }
    std::thread exporter([&go] {
        while (!go.load())
            std::this_thread::yield();
        for (int i = 0; i < 50; ++i) {
            std::ostringstream os;
            stats::StatRegistry::instance().exportJson(os);
            EXPECT_FALSE(os.str().empty());
        }
    });
    go.store(true);
    for (auto &t : churners)
        t.join();
    exporter.join();

    // Every stress group unregistered itself again.
    stats::StatRegistry::instance().forEach([](const stats::StatGroup &g) {
        EXPECT_EQ(g.name().rfind("stress.", 0), std::string::npos);
    });
}

TEST(StatRegistry, ExportCsvHasHeaderAndRows)
{
    stats::StatGroup group("csv.probe");
    stats::Counter c;
    group.addCounter("hits", &c);
    c.inc(3);
    std::ostringstream os;
    stats::StatRegistry::instance().exportCsv(os);
    EXPECT_NE(os.str().find("group,stat,kind,value"), std::string::npos);
    EXPECT_NE(os.str().find("csv.probe,hits,counter,3"),
              std::string::npos);
}

TEST(Logging, ParseLevelNamesAndFallback)
{
    EXPECT_EQ(Logger::parseLevel("inform", LogLevel::Panic),
              LogLevel::Inform);
    EXPECT_EQ(Logger::parseLevel("info", LogLevel::Panic),
              LogLevel::Inform);
    EXPECT_EQ(Logger::parseLevel("warn", LogLevel::Panic),
              LogLevel::Warn);
    EXPECT_EQ(Logger::parseLevel("fatal", LogLevel::Panic),
              LogLevel::Fatal);
    EXPECT_EQ(Logger::parseLevel("panic", LogLevel::Inform),
              LogLevel::Panic);
    EXPECT_EQ(Logger::parseLevel("bogus", LogLevel::Warn),
              LogLevel::Warn);
}

TEST(Logging, ConcurrentWarnCountingIsExact)
{
    Logger &logger = Logger::instance();
    const LogLevel saved = logger.getThreshold();
    logger.setThreshold(LogLevel::Fatal); // keep stderr quiet
    const std::uint64_t before = logger.warnCount();

    constexpr int threads = 4;
    constexpr int per_thread = 250;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([] {
            for (int i = 0; i < per_thread; ++i)
                lsd_warn("concurrent warn test");
        });
    }
    for (auto &th : pool)
        th.join();

    EXPECT_EQ(logger.warnCount() - before,
              std::uint64_t(threads) * per_thread);
    logger.setThreshold(saved);
}

TEST(Stats, GroupReportsAndLooksUp)
{
    stats::StatGroup group("g");
    stats::Counter c;
    stats::Average a;
    group.addCounter("reqs", &c, "requests");
    group.addAverage("lat", &a, "latency");
    c.inc(3);
    a.sample(1.5);
    EXPECT_EQ(group.counter("reqs").value(), 3u);
    EXPECT_DOUBLE_EQ(group.average("lat").mean(), 1.5);
    EXPECT_TRUE(group.hasCounter("reqs"));
    EXPECT_FALSE(group.hasCounter("nope"));

    std::ostringstream os;
    group.report(os);
    EXPECT_NE(os.str().find("g.reqs 3"), std::string::npos);
}

TEST(Units, ClockConversions)
{
    const Clock mhz250(250.0);
    EXPECT_EQ(mhz250.period(), 4000u); // 4 ns in ps
    EXPECT_EQ(mhz250.cycles(10), 40000u);
    EXPECT_EQ(mhz250.cycleAt(nanoseconds(8)), 2u);
    EXPECT_NEAR(mhz250.frequencyHz(), 250e6, 1.0);
}

TEST(Units, TimeHelpers)
{
    EXPECT_EQ(nanoseconds(1), tick_per_ns);
    EXPECT_EQ(microseconds(1), tick_per_us);
    EXPECT_DOUBLE_EQ(toSeconds(tick_per_s), 1.0);
}

TEST(Units, FormatBytes)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(2048), "2.00 KiB");
    EXPECT_EQ(formatBytes(3ull << 30), "3.00 GiB");
}

TEST(Units, FormatTime)
{
    EXPECT_EQ(formatTime(500), "500 ps");
    EXPECT_EQ(formatTime(nanoseconds(2.5)), "2.50 ns");
    EXPECT_EQ(formatTime(microseconds(3)), "3.00 us");
}

TEST(Table, AlignsAndCounts)
{
    TextTable t;
    t.header({"a", "long-column"});
    t.row({"1", "2"});
    t.row({"333", "4"});
    EXPECT_EQ(t.rows(), 2u);
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("long-column"), std::string::npos);
    EXPECT_NE(out.find("333"), std::string::npos);
}

TEST(Table, NumFormatting)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(std::uint64_t(42)), "42");
}

TEST(Status, DefaultIsOk)
{
    const Status s;
    EXPECT_TRUE(s.ok());
    EXPECT_TRUE(s.hasPayload());
    EXPECT_EQ(s, StatusCode::Ok);
    EXPECT_EQ(s.toString(), "ok");
}

TEST(Status, DegradedHasPayloadButIsNotOk)
{
    const Status s(StatusCode::Degraded, "3 reads fell back");
    EXPECT_FALSE(s.ok());
    EXPECT_TRUE(s.hasPayload());
    EXPECT_EQ(s.toString(), "degraded: 3 reads fell back");
}

TEST(Status, ErrorCodesHaveNoPayload)
{
    for (const StatusCode code :
         {StatusCode::Rejected, StatusCode::DeadlineExceeded,
          StatusCode::Cancelled, StatusCode::RemoteTimeout,
          StatusCode::Unavailable, StatusCode::InvalidArgument}) {
        const Status s(code);
        EXPECT_FALSE(s.ok()) << s;
        EXPECT_FALSE(s.hasPayload()) << s;
        EXPECT_NE(toString(code), "?");
    }
}

TEST(Status, ComparesByCodeNotMessage)
{
    EXPECT_EQ(Status(StatusCode::Rejected, "queue full"),
              Status(StatusCode::Rejected, "closed"));
    EXPECT_FALSE(Status(StatusCode::Rejected) == StatusCode::Cancelled);
}

TEST(Result, CarriesValueOrStatus)
{
    Result<std::string> good(std::string("payload"));
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(*good, "payload");
    EXPECT_EQ(good.take(), "payload");

    const Result<std::string> bad(
        Status(StatusCode::Unavailable, "shard 2 down"));
    EXPECT_FALSE(bad.ok());
    EXPECT_FALSE(static_cast<bool>(bad));
    EXPECT_EQ(bad.status(), StatusCode::Unavailable);
    EXPECT_EQ(bad.status().message(), "shard 2 down");
}

TEST(Result, WorksWithoutDefaultConstructor)
{
    struct NoDefault {
        explicit NoDefault(int v) : v(v) {}
        int v;
    };
    Result<NoDefault> r(NoDefault(7));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().v, 7);
    EXPECT_FALSE(Result<NoDefault>(StatusCode::Cancelled).ok());
}

} // namespace
} // namespace lsdgnn
