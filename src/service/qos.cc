#include "qos.hh"

#include <algorithm>
#include <cmath>

#include "common/flight_recorder.hh"
#include "common/logging.hh"

namespace lsdgnn {
namespace service {

// ---------------------------------------------------------------------
// TokenBucket
// ---------------------------------------------------------------------

TokenBucket::TokenBucket(double rate_per_s, double burst)
    : rate_(rate_per_s), burst_(std::max(burst, 1.0)), tokens_(burst_)
{
    lsd_assert(rate_per_s >= 0.0, "token rate must be >= 0");
}

bool
TokenBucket::tryAcquire(Clock::time_point now)
{
    if (rate_ <= 0.0)
        return true; // unlimited tenant
    if (!primed_) {
        primed_ = true;
        last_ = now;
    }
    const double dt =
        std::chrono::duration<double>(now - last_).count();
    if (dt > 0.0) {
        tokens_ = std::min(burst_, tokens_ + dt * rate_);
        last_ = now;
    }
    if (tokens_ < 1.0)
        return false;
    tokens_ -= 1.0;
    return true;
}

// ---------------------------------------------------------------------
// TenantRegistry
// ---------------------------------------------------------------------

/** One tenant's live state: policy, bucket and stats. */
struct TenantRegistry::Tenant {
    Tenant(TenantId id, TenantConfig cfg)
        : config(std::move(cfg)),
          bucket(config.rate_qps, config.burst),
          e2eUs(0.0, 200'000.0, 2000),
          group("service.tenant." +
                (config.name.empty() ? "t" + std::to_string(id)
                                     : config.name))
    {
        group.addCounter("admitted", &admitted,
                         "submissions past the token bucket");
        group.addCounter("throttled", &throttled,
                         "submissions denied by the token bucket");
        group.addCounter("queue_full", &queueFull,
                         "submissions shed at a full lane");
        group.addCounter("brownout_shed", &brownoutShed,
                         "submissions shed by brown-out level 2");
        group.addCounter("deadline_dropped", &deadlineDropped,
                         "requests dropped past their deadline");
        group.addCounter("completed", &completed,
                         "requests answered with a sample");
        group.addCounter("degraded", &degraded,
                         "of completed, served degraded (brown-out "
                         "or fabric fallback)");
        group.addHistogram("e2e_us", &e2eUs,
                           "per-tenant end-to-end latency (us)");
    }

    TenantConfig config;
    bool registered = false; ///< configure()d (weights count) vs lazy
    TokenBucket bucket;
    stats::Counter admitted, throttled, queueFull, brownoutShed,
        deadlineDropped, completed, degraded;
    stats::Histogram e2eUs;
    /** Declared after its stats: a stat must outlive its group. */
    stats::StatGroup group;
};

TenantRegistry::TenantRegistry() = default;
TenantRegistry::~TenantRegistry() = default;

TenantRegistry::Tenant &
TenantRegistry::tenantLocked(TenantId id)
{
    auto it = tenants_.find(id);
    if (it == tenants_.end())
        it = tenants_
                 .emplace(id, std::make_unique<Tenant>(id,
                                                       TenantConfig{}))
                 .first;
    return *it->second;
}

void
TenantRegistry::configure(TenantId id, TenantConfig config)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = tenants_.find(id);
    if (it != tenants_.end()) {
        // Reconfigure in place: fresh bucket, weights re-summed.
        if (it->second->registered)
            totalWeight_ -= it->second->config.weight;
        it->second->config = config;
        it->second->bucket = TokenBucket(config.rate_qps, config.burst);
    } else {
        it = tenants_
                 .emplace(id, std::make_unique<Tenant>(
                                  id, std::move(config)))
                 .first;
    }
    it->second->registered = true;
    totalWeight_ += it->second->config.weight;
}

AdmitDecision
TenantRegistry::admit(TenantId id, Clock::time_point now)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Tenant &tenant = tenantLocked(id);
    if (!tenant.bucket.tryAcquire(now)) {
        tenant.throttled.inc();
        return {false, ShedCause::AdmissionThrottle};
    }
    tenant.admitted.inc();
    return {true, ShedCause::None};
}

void
TenantRegistry::recordOutcome(TenantId id, const Reply &reply)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Tenant &tenant = tenantLocked(id);
    if (reply.hasBatch()) {
        tenant.completed.inc();
        if (reply.status == StatusCode::Degraded)
            tenant.degraded.inc();
        tenant.e2eUs.sample(reply.e2e_us);
        return;
    }
    switch (reply.shed_cause) {
      case ShedCause::QueueFull: tenant.queueFull.inc(); break;
      case ShedCause::BrownOut: tenant.brownoutShed.inc(); break;
      case ShedCause::DeadlineDrop: tenant.deadlineDropped.inc(); break;
      default: break;
    }
}

void
TenantRegistry::recordShed(TenantId id, ShedCause cause)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Tenant &tenant = tenantLocked(id);
    switch (cause) {
      case ShedCause::AdmissionThrottle: tenant.throttled.inc(); break;
      case ShedCause::QueueFull: tenant.queueFull.inc(); break;
      case ShedCause::BrownOut: tenant.brownoutShed.inc(); break;
      case ShedCause::DeadlineDrop: tenant.deadlineDropped.inc(); break;
      default: break;
    }
}

std::size_t
TenantRegistry::batchShareCap(TenantId id,
                              std::size_t lane_capacity) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = tenants_.find(id);
    if (it == tenants_.end() || !it->second->registered ||
        totalWeight_ == 0 || it->second->config.weight == 0)
        return lane_capacity;
    const std::size_t cap =
        (lane_capacity * it->second->config.weight + totalWeight_ - 1) /
        totalWeight_;
    return std::max<std::size_t>(cap, 1);
}

const stats::StatGroup *
TenantRegistry::stats(TenantId id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = tenants_.find(id);
    return it == tenants_.end() ? nullptr : &it->second->group;
}

std::size_t
TenantRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return tenants_.size();
}

// ---------------------------------------------------------------------
// BrownOut
// ---------------------------------------------------------------------

BrownOut::BrownOut(BrownOutConfig config) : config_(config)
{
    lsd_assert(config_.release_fill <= config_.engage_fill,
               "brown-out release threshold above engage threshold");
    lsd_assert(config_.engage_fill <= config_.shed_fill,
               "brown-out engage threshold above shed threshold");
    lsd_assert(config_.fanout_scale > 0.0 &&
                   config_.fanout_scale <= 1.0,
               "brown-out fanout scale must be in (0, 1]");
}

int
BrownOut::observe(double fill, Clock::time_point now)
{
    if (!config_.enabled)
        return Normal;
    std::lock_guard<std::mutex> lock(mutex_);
    const int level = level_.load(std::memory_order_relaxed);
    int next = level;

    // Escalate immediately (protecting the service beats dwell).
    if (fill >= config_.shed_fill)
        next = DegradeAndShed;
    else if (fill >= config_.engage_fill && level < Degrade)
        next = Degrade;
    // De-escalate only past the hysteresis gap AND the minimum hold.
    else if (level > Normal && fill <= config_.release_fill &&
             now - lastRaise_ >= config_.min_hold)
        next = Normal;
    else if (level == DegradeAndShed && fill < config_.shed_fill &&
             now - lastRaise_ >= config_.min_hold)
        next = Degrade;

    if (next > level) {
        lastRaise_ = now;
        engages_.fetch_add(1, std::memory_order_relaxed);
        level_.store(next, std::memory_order_relaxed);
        trace::FlightRecorder::instance().recordNow(
            "brownout.engage", 0, 0, static_cast<double>(next), fill);
        trace::FlightRecorder::instance().trip(
            next >= DegradeAndShed ? "brownout-engage:shed"
                                   : "brownout-engage:degrade");
    } else if (next < level) {
        level_.store(next, std::memory_order_relaxed);
        if (next == Normal)
            releases_.fetch_add(1, std::memory_order_relaxed);
        trace::FlightRecorder::instance().recordNow(
            "brownout.release", 0, 0, static_cast<double>(next),
            fill);
    }
    return next;
}

int
BrownOut::level() const
{
    return config_.enabled ? level_.load(std::memory_order_relaxed)
                           : Normal;
}

std::uint64_t
BrownOut::engages() const
{
    return engages_.load(std::memory_order_relaxed);
}

std::uint64_t
BrownOut::releases() const
{
    return releases_.load(std::memory_order_relaxed);
}

sampling::SamplePlan
BrownOut::degrade(const sampling::SamplePlan &plan) const
{
    sampling::SamplePlan scaled = plan;
    for (std::uint32_t &fanout : scaled.fanouts)
        fanout = std::max<std::uint32_t>(
            1, static_cast<std::uint32_t>(std::lround(
                   fanout * config_.fanout_scale)));
    return scaled;
}

// ---------------------------------------------------------------------
// QosRuntime
// ---------------------------------------------------------------------

QosRuntime::QosRuntime(const QosConfig &cfg)
    : config(cfg), brownout(cfg.brownout)
{
    for (const auto &[id, tenant_cfg] : cfg.tenants)
        registry.configure(id, tenant_cfg);
}

} // namespace service
} // namespace lsdgnn
