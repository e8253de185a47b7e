/**
 * @file
 * Multi-tenant QoS: admission, priority lanes and brown-out.
 *
 * The paper's FaaS pitch is serving GNN sampling to *millions of
 * users*; one queue with one policy cannot do that. This header holds
 * the policy pieces the service threads through its request path:
 *
 *  - TokenBucket / TenantRegistry — per-tenant admission control.
 *    Every tenant owns a token bucket (configurable sustained rate +
 *    burst) consulted at submit(); a deny completes the future
 *    immediately with Rejected / ShedCause::AdmissionThrottle, so a
 *    misbehaving tenant burns its own budget, not queue capacity.
 *    Registered tenants also carry a *weight* that bounds their share
 *    of the Batch lane's queue occupancy, so two batch tenants cannot
 *    crowd each other out either. Each tenant exports a
 *    `service.tenant.<name>` StatGroup (admitted / throttled /
 *    completed / degraded / shed counters + e2e histogram) that
 *    windowed exporters (stats::WindowedStats, prefix "service") pick
 *    up for rolling per-tenant SLO views.
 *
 *  - BrownOut — graceful degradation under sustained queue pressure.
 *    A hysteretic three-level controller driven by queue fill:
 *    level 0 (normal), level 1 (Degrade: workers scale every plan's
 *    per-hop fan-outs down and mark replies Status::Degraded with
 *    ShedCause::BrownOut — the payload stays usable), level 2
 *    (DegradeAndShed: additionally, Batch-lane submissions are shed
 *    at admission with ShedCause::BrownOut). Engage/release
 *    thresholds are separated and releases honor a minimum hold time,
 *    so the controller cannot flap around one threshold. Level raises
 *    trip the flight recorder ("brownout-engage:*").
 *
 * Determinism: with one tenant, generous buckets and no queue
 * pressure, every mechanism here is a no-op and seeded output matches
 * the checked-in golden digests (tests/golden.hh, asserted with QoS
 * lanes, a tenant and deadlines by tests/test_qos.cc). All policy
 * methods take explicit time points so tests drive them with a fake
 * clock.
 */

#ifndef LSDGNN_SERVICE_QOS_HH
#define LSDGNN_SERVICE_QOS_HH

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "service/request.hh"

namespace lsdgnn {
namespace service {

/**
 * Deterministic token bucket. Not thread-safe (the registry
 * serializes access); refill is computed from the explicit `now`
 * passed in, so a fake clock reproduces any admission sequence
 * exactly.
 */
class TokenBucket
{
  public:
    /**
     * @param rate_per_s Sustained admission rate; 0 = unlimited
     *        (every tryAcquire succeeds, no token math).
     * @param burst Bucket capacity (max tokens banked while idle).
     */
    TokenBucket(double rate_per_s, double burst);

    /**
     * Refill by the wall time elapsed since the previous call, then
     * take one token if available. The first call primes the clock
     * and starts from a full bucket.
     */
    bool tryAcquire(Clock::time_point now);

    /** Tokens currently banked (after the last refill). */
    double tokens() const { return tokens_; }

    double ratePerSecond() const { return rate_; }

  private:
    double rate_;
    double burst_;
    double tokens_;
    bool primed_ = false;
    Clock::time_point last_{};
};

/** Per-tenant policy knobs. */
struct TenantConfig {
    /** Stat-group suffix ("service.tenant.<name>"); "" = "t<id>". */
    std::string name;
    /** Sustained admission rate (requests/s); 0 = unlimited. */
    double rate_qps = 0.0;
    /** Token-bucket burst capacity. */
    double burst = 32.0;
    /**
     * Weighted share of the Batch lane's queue occupancy relative to
     * the other registered tenants. A tenant may hold at most
     * ceil(batch_lane_capacity * weight / total_weight) queued
     * Batch-lane requests, so one flooding batch tenant cannot crowd
     * its siblings out of the lane.
     */
    std::uint32_t weight = 1;
};

/** Admission outcome of TenantRegistry::admit(). */
struct AdmitDecision {
    bool admitted = true;
    ShedCause cause = ShedCause::None; ///< set when !admitted
};

/**
 * Registry of tenants: token buckets, weights and per-tenant stats.
 * Thread-safe; admit() is on the submit hot path (one mutex, one
 * bucket update).
 */
class TenantRegistry
{
  public:
    // Both out-of-line: the inline-defaulted forms would instantiate
    // the tenant map's destructor where Tenant is incomplete.
    TenantRegistry();
    ~TenantRegistry();

    /** Register (or reconfigure) one tenant. */
    void configure(TenantId id, TenantConfig config);

    /**
     * Charge one submission against @p id's bucket. Unregistered
     * tenants are lazily created with the default config (unlimited).
     */
    AdmitDecision admit(TenantId id, Clock::time_point now);

    /** Record one reply outcome into the tenant's stat group. */
    void recordOutcome(TenantId id, const Reply &reply);

    /** Record one shed decided outside the reply path (admission). */
    void recordShed(TenantId id, ShedCause cause);

    /**
     * The tenant's queued-occupancy cap for the Batch lane, derived
     * from its weight share: ceil(lane_capacity * w / total_w).
     * Unregistered (or zero-weight) tenants are uncapped
     * (returns @p lane_capacity).
     */
    std::size_t batchShareCap(TenantId id,
                              std::size_t lane_capacity) const;

    /** The tenant's stat group, or nullptr if never seen. */
    const stats::StatGroup *stats(TenantId id) const;

    /** Tenants seen so far (registered or lazily created). */
    std::size_t size() const;

    TenantRegistry(const TenantRegistry &) = delete;
    TenantRegistry &operator=(const TenantRegistry &) = delete;

  private:
    struct Tenant;
    Tenant &tenantLocked(TenantId id);

    mutable std::mutex mutex_;
    std::unordered_map<TenantId, std::unique_ptr<Tenant>> tenants_;
    /** Sum of registered (configure()d) tenants' weights. */
    std::uint32_t totalWeight_ = 0;
};

/** Brown-out controller tuning. */
struct BrownOutConfig {
    /** Master switch; false = the controller always reports level 0. */
    bool enabled = true;
    /** Queue fill fraction at which level 1 (Degrade) engages. */
    double engage_fill = 0.75;
    /** Fill fraction at which level 2 (DegradeAndShed) engages. */
    double shed_fill = 0.92;
    /** Fill fraction below which the controller may step down. */
    double release_fill = 0.40;
    /**
     * Minimum dwell after any level raise before the controller may
     * step down — the hysteresis that prevents flapping when the
     * queue depth oscillates around a threshold.
     */
    std::chrono::milliseconds min_hold{20};
    /**
     * Fan-out degradation factor at level >= 1: every per-hop fanout
     * becomes max(1, round(fanout * fanout_scale)). 0.5 halves the
     * sampled neighborhood (so roughly quarters 2-hop work).
     */
    double fanout_scale = 0.5;
    /**
     * Layer-width degradation factor for compute kinds (Embed /
     * TrainStep) at level >= 1: the forward pass computes only the
     * first max(1, round(hidden * compute_width_scale)) embedding
     * columns per layer, so degraded replies carry a usable prefix of
     * the embedding space at a fraction of the GEMM cost. Sample jobs
     * only degrade fan-out; compute jobs degrade both.
     */
    double compute_width_scale = 0.5;
};

/**
 * Hysteretic brown-out state machine. Thread-safe: observe() is
 * called from the submit path and every worker loop; level() is a
 * relaxed atomic read.
 */
class BrownOut
{
  public:
    /** Controller levels, in escalation order. */
    enum Level : int {
        Normal = 0,       ///< full service
        Degrade = 1,      ///< fan-outs scaled down, replies Degraded
        DegradeAndShed = 2, ///< additionally shed Batch admissions
    };

    explicit BrownOut(BrownOutConfig config);

    /**
     * Feed the current queue fill fraction [0,1]; returns the level
     * after applying thresholds and hysteresis at @p now.
     */
    int observe(double fill, Clock::time_point now);

    /** Current level without feeding a sample. */
    int level() const;

    /** Level raises so far (0->1, 1->2 transitions). */
    std::uint64_t engages() const;

    /** Full releases back to Normal so far. */
    std::uint64_t releases() const;

    /** Scale @p plan's fan-outs per the configured degrade factor. */
    sampling::SamplePlan degrade(const sampling::SamplePlan &plan) const;

    const BrownOutConfig &config() const { return config_; }

    BrownOut(const BrownOut &) = delete;
    BrownOut &operator=(const BrownOut &) = delete;

  private:
    BrownOutConfig config_;
    mutable std::mutex mutex_;
    std::atomic<int> level_{Normal};
    Clock::time_point lastRaise_{};
    std::atomic<std::uint64_t> engages_{0};
    std::atomic<std::uint64_t> releases_{0};
};

/** Whole-service QoS policy (lives in ServiceConfig). */
struct QosConfig {
    /** Weighted-fair dequeue shares of the two lanes. */
    std::uint32_t interactive_weight = 3;
    std::uint32_t batch_weight = 1;
    /**
     * Starvation watchdog: a non-empty lane unserved for this long
     * trips the flight recorder ("lane-starvation:*"). 0 disables.
     */
    std::chrono::milliseconds starvation_threshold{100};
    /** Registered tenants (id -> policy), applied at construction. */
    std::vector<std::pair<TenantId, TenantConfig>> tenants;
    /** Brown-out policy. */
    BrownOutConfig brownout;
};

/**
 * The QoS runtime one service owns: registry + brown-out controller.
 * Referenced (never owned) by the queue and the worker pool.
 */
struct QosRuntime {
    explicit QosRuntime(const QosConfig &config);

    const QosConfig config;
    TenantRegistry registry;
    BrownOut brownout;
};

} // namespace service
} // namespace lsdgnn

#endif // LSDGNN_SERVICE_QOS_HH
