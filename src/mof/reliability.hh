/**
 * @file
 * MoF data-link reliability layer.
 *
 * The paper's MoF "provides data-link capability with high
 * reliability without much software overhead": the fabric is a raw
 * point-to-point link (DAC cables), so the protocol itself must
 * recover lost or corrupted packages. This is a go-back-N ARQ over
 * an event-driven lossy channel: sequence-numbered packages,
 * cumulative ACKs and a retransmission timer, delivering packages to
 * the receiver strictly in order. The tests drive it through loss
 * rates from 0 to 20% and assert exactly-once in-order delivery.
 *
 * Failure model: by default the sender retries forever (a healthy
 * fabric always recovers). With `max_retries` set, `max_retries`
 * consecutive timeouts without any ACK progress trip a circuit
 * breaker: every unacknowledged package fails through the FailFn
 * with StatusCode::RemoteTimeout, the channel reports broken(), and
 * later send() calls fail immediately with StatusCode::Unavailable.
 * This is what lets a ShardChannel declare a peer down instead of
 * stalling the sampling hop behind a dead cable.
 */

#ifndef LSDGNN_MOF_RELIABILITY_HH
#define LSDGNN_MOF_RELIABILITY_HH

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/status.hh"
#include "common/trace.hh"
#include "sim/component.hh"

namespace lsdgnn {
namespace mof {

/** Lossy-channel and ARQ parameters. */
struct ReliableChannelParams {
    /** One-way flight latency of the fabric. */
    Tick flight_latency = nanoseconds(300);
    /** Serialization bandwidth, bytes/s. */
    double bandwidth = 100e9;
    /** Probability that a data package is lost in flight. */
    double loss_probability = 0.0;
    /** Probability that an ACK is lost in flight. */
    double ack_loss_probability = 0.0;
    /** Go-back-N window size (packages). */
    std::uint32_t window = 16;
    /** Retransmission timeout. */
    Tick timeout = microseconds(5);
    /** RNG seed for loss decisions. */
    std::uint64_t seed = 1;
    /**
     * Consecutive ACK-less timeouts tolerated before the breaker
     * trips; 0 retries forever (the historical behavior).
     */
    std::uint32_t max_retries = 0;
};

/**
 * Go-back-N sender/receiver pair over one simulated lossy link.
 */
class ReliableChannel : public sim::Component
{
  public:
    /** Delivery callback: (sequence number, payload bytes). */
    using DeliverFn = std::function<void(std::uint64_t, std::uint32_t)>;

    /**
     * Failure callback: (sequence number, cause). Invoked once per
     * failed package, in sequence order, when the breaker trips
     * (RemoteTimeout) or on send() into a broken channel
     * (Unavailable). Optional; without it failures only show in
     * broken() and the `failed` counter.
     */
    using FailFn = std::function<void(std::uint64_t, const Status &)>;

    /**
     * @param name Stat-group/component name. Channels are routinely
     *        constructed per shard pair, so give each a unique name
     *        ("mof.remote.shard0.to2.req") or the StatRegistry ends
     *        up with colliding "mof.reliable" groups.
     */
    ReliableChannel(sim::EventQueue &eq, ReliableChannelParams params,
                    DeliverFn deliver,
                    std::string name = "mof.reliable",
                    FailFn on_fail = nullptr);

    /** Detaches the stat group before this class's stats die. */
    ~ReliableChannel() override { statGroup.detach(); }

    /** Queue one package of @p bytes for reliable delivery. */
    void send(std::uint32_t bytes);

    /** Packages handed to send() so far. */
    std::uint64_t submitted() const { return nextSeq; }

    /** Packages delivered in order to the receiver. */
    std::uint64_t delivered() const { return delivered_.value(); }

    /** Data transmissions (first try + retries). */
    std::uint64_t transmissions() const { return transmissions_.value(); }

    /** Retransmitted packages (transmissions beyond the first). */
    std::uint64_t retransmissions() const
    {
        return retransmissions_.value();
    }

    /**
     * Attach the trace identity of the request currently driving this
     * channel; ARQ annotations (timeouts, retransmit bursts, breaker
     * trips) carry it so a Perfetto trace or flight-recorder dump
     * names the victim request. Cleared implicitly by the next call.
     */
    void setTrace(const trace::TraceContext &ctx) { trace_ = ctx; }

    /** True when every submitted package has been acknowledged. */
    bool allAcked() const { return sendBase == nextSeq; }

    /** True once the retry breaker tripped; the channel stays down. */
    bool broken() const { return broken_; }

    /** Packages failed (breaker trip + post-breaker sends). */
    std::uint64_t failedCount() const { return failed_.value(); }

  private:
    struct Pending {
        std::uint64_t seq;
        std::uint32_t bytes;
    };

    void pump();
    void transmit(const Pending &pkg);
    void onDataArrival(Pending pkg);
    void sendAck(std::uint64_t cumulative);
    void onAckArrival(std::uint64_t cumulative);
    void armTimer();
    void onTimeout();
    void breakChannel();
    void failPackage(std::uint64_t seq, const Status &status);
    Tick serialize(std::uint32_t bytes) const;
    void annotate(const char *what, double a, double b);

    ReliableChannelParams params_;
    DeliverFn deliver;
    FailFn onFail;
    Rng rng_;
    trace::TraceContext trace_;

    // Sender state.
    std::deque<Pending> sendQueue; ///< not yet transmitted
    std::vector<Pending> inFlight; ///< transmitted, unacked (window)
    std::uint64_t nextSeq = 0;
    std::uint64_t sendBase = 0;
    Tick wireFreeAt = 0;
    sim::EventQueue::EventHandle timerHandle = 0;
    bool timerArmed = false;
    std::uint32_t timeoutStreak = 0; ///< consecutive ACK-less timeouts
    bool broken_ = false;

    // Receiver state.
    std::uint64_t expectedSeq = 0;

    stats::Counter delivered_;
    stats::Counter transmissions_;
    stats::Counter firstTransmissions;
    stats::Counter retransmissions_;
    stats::Counter ackSent;
    stats::Counter dataLost;
    stats::Counter timeouts;
    stats::Counter failed_;
};

} // namespace mof
} // namespace lsdgnn

#endif // LSDGNN_MOF_RELIABILITY_HH
