#include "config.hh"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>

namespace lsdgnn {
namespace service {

namespace {

/**
 * Most workers a service may start. Each worker is up to two threads
 * and its own Session, so threads and memory grow with the count; an
 * LSDGNN_SERVICE_WORKERS value up to 2^32 - 1 parses, and must fail
 * here rather than start billions of threads. The bound sits far
 * above the core count of any host where more workers add throughput.
 */
constexpr std::uint32_t kMaxWorkers = 1024;

Status
invalid(std::string message)
{
    return Status(StatusCode::InvalidArgument, std::move(message));
}

bool
inUnitInterval(double v)
{
    return v > 0.0 && v <= 1.0;
}

bool
finiteNonNegative(double v)
{
    return std::isfinite(v) && v >= 0.0;
}

const char *
envStr(const char *name)
{
    return std::getenv(name);
}

/**
 * @p name parsed whole as a T in [0, @p max]; @p fallback when unset or
 * empty. Anything else — a sign, text, trailing junk, a value that
 * does not fit — is fatal and names the variable.
 */
template <typename T>
T
envNumber(const char *name, T fallback,
          T max = std::numeric_limits<T>::max())
{
    const char *v = envStr(name);
    if (v == nullptr || *v == '\0')
        return fallback;
    const char *end = v + std::strlen(v);
    T parsed{};
    const auto [ptr, ec] = std::from_chars(v, end, parsed);
    const bool whole = ec == std::errc() && ptr == end;
    if constexpr (std::is_floating_point_v<T>)
        lsd_assert(whole && finiteNonNegative(parsed), name, "=\"", v,
                   "\" is not a finite number >= 0");
    else
        lsd_assert(whole && parsed <= max, name, "=\"", v,
                   "\" is not an integer in [0, ", max, "]");
    return parsed;
}

} // namespace

Status
ServiceConfig::validate() const
{
    if (num_workers == 0 || num_workers > kMaxWorkers)
        return invalid("num_workers must be in [1, " +
                       std::to_string(kMaxWorkers) + "]");
    if (queue_capacity == 0)
        return invalid("queue_capacity must be > 0");
    if (session.dataset.empty())
        return invalid("session.dataset must name a Table 2 dataset");
    if (session.scale_divisor == 0)
        return invalid("session.scale_divisor must be > 0");
    if (session.num_servers == 0)
        return invalid("session.num_servers must be > 0");
    if (batcher.max_requests == 0)
        return invalid("batcher.max_requests must be > 0");
    if (batcher.max_roots == 0)
        return invalid("batcher.max_roots must be > 0");
    if (batcher.window.count() < 0)
        return invalid("batcher.window must be >= 0");
    if (default_deadline.count() < 0)
        return invalid("default_deadline must be >= 0");
    if (qos.interactive_weight == 0 || qos.batch_weight == 0)
        return invalid("qos lane weights must be > 0");
    const BrownOutConfig &bo = qos.brownout;
    if (bo.enabled) {
        if (!(bo.release_fill <= bo.engage_fill &&
              bo.engage_fill <= bo.shed_fill))
            return invalid("brown-out fills must order "
                           "release <= engage <= shed");
        if (!inUnitInterval(bo.fanout_scale))
            return invalid("brownout.fanout_scale must be in (0, 1]");
        if (!inUnitInterval(bo.compute_width_scale))
            return invalid(
                "brownout.compute_width_scale must be in (0, 1]");
    }
    if (pipeline.hidden_dim == 0)
        return invalid("pipeline.hidden_dim must be > 0");
    if (pipeline.layers == 0)
        return invalid("pipeline.layers must be > 0");
    if (!finiteNonNegative(pipeline.gather_gbps) ||
        !finiteNonNegative(pipeline.gather_rtt_us))
        return invalid("pipeline gather fabric model must be finite "
                       "and >= 0");
    if (pipeline.gemm_rows == 0 || pipeline.gemm_cols == 0)
        return invalid("pipeline GEMM geometry must be > 0");
    if (!finiteNonNegative(pipeline.gemm_clock_mhz) ||
        pipeline.gemm_clock_mhz == 0.0)
        return invalid("pipeline.gemm_clock_mhz must be finite and > 0");
    return StatusCode::Ok;
}

ServiceConfig
ServiceConfig::fromEnv()
{
    ServiceConfig config;
    if (const char *dataset = envStr("LSDGNN_SERVICE_DATASET"))
        config.session.dataset = dataset;
    config.session.scale_divisor = envNumber(
        "LSDGNN_SERVICE_SCALE", config.session.scale_divisor);
    config.num_workers =
        envNumber("LSDGNN_SERVICE_WORKERS", config.num_workers);
    config.queue_capacity =
        envNumber("LSDGNN_SERVICE_QUEUE", config.queue_capacity);
    config.pipeline.enabled =
        envNumber<std::uint32_t>("LSDGNN_SERVICE_PIPELINE",
                                 config.pipeline.enabled, 1) != 0;
    config.pipeline.hidden_dim =
        envNumber("LSDGNN_SERVICE_HIDDEN", config.pipeline.hidden_dim);
    config.pipeline.layers =
        envNumber("LSDGNN_SERVICE_LAYERS", config.pipeline.layers);
    config.pipeline.gather_gbps = envNumber(
        "LSDGNN_SERVICE_GATHER_GBPS", config.pipeline.gather_gbps);
    const Status status = config.validate();
    lsd_assert(status.ok(), "LSDGNN_SERVICE_* environment invalid: ",
               status.toString());
    return config;
}

ServiceConfig
ServiceConfig::Builder::build() const
{
    const Status status = config_.validate();
    lsd_assert(status.ok(),
               "invalid ServiceConfig: ", status.toString());
    return config_;
}

} // namespace service
} // namespace lsdgnn
