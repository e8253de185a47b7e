/**
 * @file
 * Shared helpers for the table/figure reproduction harnesses.
 */

#ifndef LSDGNN_BENCH_BENCH_UTIL_HH
#define LSDGNN_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "common/stat_registry.hh"
#include "common/trace.hh"

namespace lsdgnn {
namespace bench {

/** Build flavor the bench binary was compiled as ("unknown" when the
 *  build system did not stamp one). */
inline const char *
buildType()
{
#ifdef LSDGNN_BUILD_TYPE
    return LSDGNN_BUILD_TYPE;
#else
    return "unknown";
#endif
}

/** Source revision the bench binary was built from. */
inline const char *
gitSha()
{
#ifdef LSDGNN_GIT_SHA
    return LSDGNN_GIT_SHA;
#else
    return "unknown";
#endif
}

/** Print the standard harness banner. */
inline void
banner(const std::string &experiment, const std::string &paper_claim)
{
    std::cout << "==================================================="
                 "=============\n";
    std::cout << experiment << "\n";
    std::cout << "paper reference: " << paper_claim << "\n";
    std::cout << "==================================================="
                 "=============\n";
#ifndef NDEBUG
    std::cout << "*** WARNING: compiled without NDEBUG (build type "
              << buildType()
              << ") — numbers below are NOT representative; "
                 "rebuild with -DCMAKE_BUILD_TYPE=Release ***\n";
#endif
}

/**
 * True when the run asked for machine-readable output: a `--json`
 * argument or a non-empty, non-"0" LSDGNN_JSON environment variable.
 * Human-readable tables stay the default either way.
 */
inline bool
jsonRequested(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::string_view(argv[i]) == "--json")
            return true;
    const char *env = std::getenv("LSDGNN_JSON");
    return env != nullptr && *env != '\0' &&
           std::string_view(env) != "0";
}

/**
 * Run metadata of a JSON summary. The defaults describe a
 * single-threaded harness on simulated ticks. `extra` is spliced
 * verbatim into the meta object and must be empty or a leading-comma
 * key sequence, e.g. `,"workers":4`.
 */
struct RunMeta
{
    unsigned threads = 1;
    double wall_s = 0.0;
    std::string extra;
};

/**
 * Snapshot every live StatGroup as one JSON line:
 * {"bench":"<name>","meta":{...},"stats":{"groups":[...]}}
 * Call while the simulated components are still alive — groups leave
 * the registry when their owners are destroyed.
 */
inline std::string
jsonSummary(const std::string &bench_name, const RunMeta &meta = {})
{
    std::ostringstream os;
    std::string escaped;
    trace::appendEscaped(escaped, bench_name);
    std::string build_type, sha;
    trace::appendEscaped(build_type, buildType());
    trace::appendEscaped(sha, gitSha());
    os << "{\"bench\":\"" << escaped << "\",\"meta\":{\"threads\":"
       << meta.threads << ",\"wall_s\":" << meta.wall_s
       << ",\"build_type\":\"" << build_type << "\",\"git_sha\":\""
       << sha << "\"" << meta.extra << "},\"stats\":";
    stats::StatRegistry::instance().exportJson(os);
    os << "}";
    return os.str();
}

/** Format a double with unit-style suffix (K/M/G). */
inline std::string
human(double v)
{
    char buf[64];
    if (v >= 1e9)
        std::snprintf(buf, sizeof(buf), "%.2fG", v / 1e9);
    else if (v >= 1e6)
        std::snprintf(buf, sizeof(buf), "%.2fM", v / 1e6);
    else if (v >= 1e3)
        std::snprintf(buf, sizeof(buf), "%.2fK", v / 1e3);
    else
        std::snprintf(buf, sizeof(buf), "%.2f", v);
    return buf;
}

} // namespace bench
} // namespace lsdgnn

#endif // LSDGNN_BENCH_BENCH_UTIL_HH
