/**
 * @file
 * Discrete-event link component.
 *
 * While fabric::Link answers closed-form questions, SimLink carries
 * actual simulated traffic: requests serialize over a shared wire,
 * at most `max_outstanding` are in flight, and excess requests wait
 * in an issue queue. The AxE load unit and the MoF endpoints issue
 * against SimLinks, which is how queueing effects (the difference
 * between Eq. 3 and reality) appear in the measured results.
 */

#ifndef LSDGNN_FABRIC_SIM_LINK_HH
#define LSDGNN_FABRIC_SIM_LINK_HH

#include <deque>
#include <functional>

#include "fabric/link.hh"
#include "fabric/memory_port.hh"
#include "sim/component.hh"

namespace lsdgnn {
namespace fabric {

/**
 * Event-driven model of one request/response path.
 */
class SimLink : public sim::Component, public MemoryPort
{
  public:
    /** Completion callback; invoked at response arrival time. */
    using Callback = MemoryPort::Callback;

    SimLink(sim::EventQueue &eq, LinkParams params);

    /** Detaches the stat group before this class's stats die. */
    ~SimLink() override { statGroup.detach(); }

    const LinkParams &params() const { return params_; }

    /**
     * Issue a request for @p bytes of payload; @p done runs when the
     * response returns. Requests are accepted unconditionally (the
     * issue queue is unbounded); backpressure belongs to the caller's
     * scoreboard, mirroring the hardware split of concerns.
     */
    void request(std::uint64_t bytes, std::uint32_t dest,
                 Callback done) override;

    using MemoryPort::request;

    /** Requests currently in flight (issued, not yet completed). */
    std::uint32_t inFlight() const { return outstanding; }

    /** Payload bytes currently in flight. */
    std::uint64_t inFlightBytes() const { return outstandingBytes; }

    /** Requests waiting for an outstanding slot. */
    std::size_t queued() const { return waitQueue.size(); }

    /** Total payload bytes completed. */
    std::uint64_t bytesCompleted() const { return bytesDone.value(); }

    /** Total requests completed. */
    std::uint64_t requestsCompleted() const { return reqsDone.value(); }

    /** Mean round-trip latency (issue to completion) in ticks. */
    double meanLatency() const { return latency.mean(); }

    /** Payload throughput over the busy interval, bytes/second. */
    double observedBandwidth() const;

  private:
    struct Pending {
        std::uint64_t bytes;
        Callback done;
        Tick enqueued;
    };

    void tryIssue();
    void issue(Pending req);

    /** Emit in-flight trace counters (no-op when tracing is off). */
    void traceInFlight();

    LinkParams params_;
    std::uint32_t outstanding = 0;
    std::uint64_t outstandingBytes = 0;
    Tick wireFreeAt = 0;
    Tick firstIssue = max_tick;
    Tick lastComplete = 0;
    std::deque<Pending> waitQueue;

    stats::Counter reqsDone;
    stats::Counter bytesDone;
    stats::Average latency;
    stats::Average queueWait;
};

} // namespace fabric
} // namespace lsdgnn

#endif // LSDGNN_FABRIC_SIM_LINK_HH
