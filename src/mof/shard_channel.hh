/**
 * @file
 * ShardChannel: one shard's reliable packed-read path to a peer.
 *
 * The distributed sampling backend keeps one ShardChannel per remote
 * shard. Reads stream into the channel as the sampling engine
 * discovers them — there is no hop-synchronous "round" any more:
 *
 *   beginBatch() -> submit() reads as discovered -> completions fire
 *   out of submission order -> endBatch()
 *
 * submit() appends the read to a per-peer *staging buffer* (a
 * RequestPacker). The buffer flushes into a MoF multi-request package
 * (up to 64 reads, BDI-compressed address stream — Tech 1) when it
 * fills, when it ages past `stage_age`, or when the owner forces it
 * (flushStaged()). Because the buffer persists across sampling hops
 * and across the structure/attribute stages of a batch, reads from
 * different expansion waves pack into shared frames — this is what
 * lifts pack occupancy over the old one-flush-per-hop protocol.
 * Every package then crosses three simulated components:
 *
 *   request:   ReliableChannel ".req"  (go-back-N ARQ, lossy fabric)
 *   peer DRAM: fabric::SimLink        (the remote card's memory port)
 *   response:  ReliableChannel ".rsp" (ARQ again, data coming back)
 *
 * Completion is per-package and out of order with respect to
 * submission: when a package's response arrives (or its deadline
 * fires, or the wire breaks), exactly the slots it carries settle and
 * the CompletionFn runs, letting the owner resume only the roots that
 * were waiting on those slots.
 *
 * Failure semantics: every package arms its own deadline at flush
 * time (per-read, not per-round — a slow straggler no longer fails
 * the whole hop). A slot that settles failed stays failed; a late
 * response must not resurrect it (exactly-once per batch). When
 * either ARQ direction exhausts its bounded retries the channel marks
 * itself down: everything unsettled fails, and later submit() calls
 * return born-failed slots until the owner rebuilds the channel.
 *
 * Hedged reads: with `hedge_quantile` > 0, each package also arms a
 * hedge timer at the observed package-RTT quantile (times
 * `hedge_multiplier`, floored at `hedge_floor`). If the package is
 * still unsettled when the timer fires, its reads are re-issued — in
 * deployment against the hot-vertex-cache replica of the data, here
 * re-serialized over the same modeled wire — and the first answer
 * wins. This converts the loss-induced tail that go-back-N pays in
 * full into one extra package of traffic.
 *
 * Simulation concession: the functional payload does not travel
 * through the channel — the backend reads the peer's GraphShard
 * in-process and uses the channel purely as the cost/reliability
 * model, which is why submit() takes the response byte count up
 * front.
 *
 * Stat naming: each channel registers "mof.remote.shard<s>.to<p>"
 * (plus ".req"/".rsp" subgroups), so constructing many shards never
 * collides in the StatRegistry the way per-construction fixed names
 * did.
 */

#ifndef LSDGNN_MOF_SHARD_CHANNEL_HH
#define LSDGNN_MOF_SHARD_CHANNEL_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/stats.hh"
#include "common/status.hh"
#include "common/trace.hh"
#include "fabric/sim_link.hh"
#include "mof/packer.hh"
#include "mof/reliability.hh"
#include "sim/component.hh"

namespace lsdgnn {
namespace mof {

/** Construction knobs for one shard-to-shard path. */
struct ShardChannelParams {
    /** Packing policy (MoF format, BDI on addresses). */
    PackerOptions packer{mofFormat(), true};
    /** Fabric/ARQ parameters shared by both directions. */
    ReliableChannelParams wire{};
    /**
     * The peer card's memory port the packed reads fan out to. An
     * empty name selects the catalog's local DDR4 channel.
     */
    fabric::LinkParams peer_memory{};
    /** Response package header bytes (routing, CRC, sequence). */
    std::uint32_t response_header_bytes = 16;
    /**
     * Per-package deadline, armed at flush: slots unsettled after
     * this much fail. Sized for several ARQ recoveries, not for one
     * package round trip.
     */
    Tick request_timeout = microseconds(1000);
    /**
     * Staging-buffer age bound: a partially filled buffer flushes
     * this long after its oldest read was submitted. Zero flushes
     * every submit (degenerate one-read packages; tests only).
     */
    Tick stage_age = microseconds(2);
    /**
     * Package-RTT quantile that arms the hedge timer; 0 disables
     * hedged reads.
     */
    double hedge_quantile = 0.0;
    /** Safety margin over the measured quantile. */
    double hedge_multiplier = 2.0;
    /** Minimum hedge delay (also used before RTTs are observed). */
    Tick hedge_floor = microseconds(25);
};

/**
 * Streaming packed remote-read channel between two shards with
 * out-of-order per-package completion.
 */
class ShardChannel : public sim::Component
{
  public:
    /** Slot handle returned by submit(), valid until beginBatch(). */
    using Slot = std::uint32_t;

    /**
     * Completion callback: the slot range [first, first+count) just
     * settled (resolved or failed — query failed()). Runs inside the
     * event queue, possibly synchronously inside submit()/flush when
     * the channel is down. Not invoked for born-failed submits.
     */
    using CompletionFn =
        std::function<void(ShardChannel &, Slot, std::uint32_t)>;

    ShardChannel(sim::EventQueue &eq, ShardChannelParams params,
                 std::uint32_t self_shard, std::uint32_t peer_shard);

    /** Detaches the stat group before this class's stats die. */
    ~ShardChannel() override { statGroup.detach(); }

    /** Install the out-of-order completion sink. */
    void setCompletion(CompletionFn fn) { completion_ = std::move(fn); }

    /**
     * Attach the trace identity of the batch driving the channel.
     * Call before beginBatch(): the batch derives a child span from
     * this context, and the ARQ sub-channels annotate their timeouts
     * and retransmissions with it.
     */
    void setTrace(const trace::TraceContext &ctx);

    /** Start a new batch; previous slots become invalid. */
    void beginBatch();

    /**
     * Close the current batch for observability: emits one wall-clock
     * "round" slice on the channel's trace track (submitted/failed/
     * hedged counts, trace identity) plus a flight-recorder event.
     * Call once the batch has settled; cheap no-op for an idle batch.
     */
    void endBatch();

    /**
     * Queue one read of @p bytes at @p address on the peer. The read
     * enters the staging buffer and transmits when the buffer fills,
     * ages out, or is force-flushed. On a down channel the slot is
     * born failed (settled immediately, no completion callback).
     */
    Slot submit(std::uint64_t address, std::uint32_t bytes);

    /** Force-flush the staging buffer (barrier mode / batch end). */
    void flushStaged();

    /** Whether @p slot has settled (resolved or failed). */
    bool
    settled(Slot slot) const
    {
        lsd_assert(slot < slots_.size(), "slot out of range");
        return slots_[slot].resolved || slots_[slot].failed;
    }

    /** Whether @p slot missed its deadline / died with the channel. */
    bool
    failed(Slot slot) const
    {
        lsd_assert(slot < slots_.size(), "slot out of range");
        return slots_[slot].failed;
    }

    /** Slots submitted this batch. */
    std::size_t submittedCount() const { return slots_.size(); }

    /** Failed slots this batch. */
    std::uint64_t batchFailures() const { return batchFailures_; }

    /** Reads transmitted but not yet settled. */
    std::uint32_t inFlightReads() const { return inflightReads_; }

    /** Reads sitting in the staging buffer, not yet transmitted. */
    std::size_t
    stagedReads() const
    {
        return packer_.pendingRequests();
    }

    /** Simulated age of the oldest staged read; 0 when empty. */
    Tick stagingAge() const;

    /** True once the channel declared the peer unreachable. */
    bool down() const { return down_; }

    /** Administratively mark the peer down (fail-fast from now on). */
    void markDown();

    std::uint32_t selfShard() const { return self_; }
    std::uint32_t peerShard() const { return peer_; }

    /** Reads submitted over the channel's lifetime. */
    std::uint64_t reads() const { return reads_.value(); }

    /** Request packages emitted. */
    std::uint64_t packages() const { return packages_.value(); }

    /** Reads failed (deadline, breaker, down channel). */
    std::uint64_t degradedReads() const { return degraded_.value(); }

    /** Hedge re-issues sent. */
    std::uint64_t hedges() const { return hedges_.value(); }

    /** Hedged packages that still resolved before their deadline. */
    std::uint64_t hedgeWins() const { return hedgeWins_.value(); }

    /** ARQ retransmissions summed over both directions. */
    std::uint64_t
    retransmissions() const
    {
        return req_.retransmissions() + rsp_.retransmissions();
    }

    /** Mean requests per emitted package (pack occupancy). */
    double packOccupancy() const { return packFill_.mean(); }

    const ReliableChannel &requestChannel() const { return req_; }
    const ReliableChannel &responseChannel() const { return rsp_; }

  private:
    struct SlotState {
        std::uint32_t bytes;
        bool failed;
        bool resolved;
    };

    /** One in-flight package: the slot range it answers. */
    struct OutPkg {
        std::uint32_t first_slot = 0;
        std::uint32_t count = 0;
        std::uint64_t response_bytes = 0;
        std::uint64_t wire_bytes = 0;
        Tick sent_at = 0;
        bool settled = false;
        bool hedged = false;
        bool deadline_armed = false;
        bool hedge_armed = false;
        sim::EventQueue::EventHandle deadline_ev = 0;
        sim::EventQueue::EventHandle hedge_ev = 0;
    };

    enum class FlushCause { Full, Age, Forced };
    enum class SettleOutcome { Resolved, DeadlineMiss, WireFailure };

    static ShardChannelParams normalize(ShardChannelParams params);
    static ReliableChannelParams wireParams(const ShardChannelParams &p,
                                            std::uint64_t seed_offset);

    void onRequestDelivered();
    void onResponseDelivered();
    void onWireFailure(const Status &cause);
    void onDeadline(std::uint32_t pkg_index, std::uint64_t gen);
    void onHedgeTimer(std::uint32_t pkg_index, std::uint64_t gen);
    void onStageAge(std::uint64_t gen);
    /** Emit staged reads as packages and put them on the wire. */
    void flushBuffer(FlushCause cause);
    /** Mark a package settled; resolve/fail its slots; notify. */
    void settlePackage(OutPkg &pkg, SettleOutcome outcome);
    Tick hedgeDelay();

    ShardChannelParams params_;
    std::uint32_t self_;
    std::uint32_t peer_;

    RequestPacker packer_;
    fabric::SimLink peerMem_;
    ReliableChannel req_;
    ReliableChannel rsp_;

    std::vector<SlotState> slots_;
    std::uint32_t nextUnflushedSlot = 0;
    std::vector<OutPkg> pkgs_; ///< this batch's packages, by index
    std::deque<std::uint32_t> reqPending_; ///< pkg idx per req send
    std::deque<std::uint32_t> rspPending_; ///< pkg idx per rsp send
    std::uint64_t batchGen_ = 0;
    std::uint64_t batchFailures_ = 0;
    std::uint32_t inflightReads_ = 0;
    Tick stageStart_ = 0; ///< tick the oldest staged read entered
    sim::EventQueue::EventHandle stageAgeEv_ = 0;
    bool stageAgeArmed_ = false;
    bool down_ = false;
    CompletionFn completion_;

    trace::TraceContext trace_;    ///< batch context (setTrace)
    trace::TraceContext batchCtx_; ///< per-batch child span
    Tick batchWallStart_ = 0;
    std::uint64_t batchRetransBase_ = 0;
    std::uint64_t batchPkgBase_ = 0;
    std::uint64_t batchHedgeBase_ = 0;

    stats::Counter reads_;
    stats::Counter packages_;
    stats::Counter wireBytes_;
    stats::Counter addressBytes_;
    stats::Counter rawAddressBytes_;
    stats::Counter degraded_;
    stats::Counter deadlineMisses_;
    stats::Counter hedges_;
    stats::Counter hedgeWins_;
    stats::Counter flushFull_;
    stats::Counter flushAge_;
    stats::Counter flushForced_;
    stats::Average packFill_;
    stats::Histogram stageAgeUs_;
    stats::Histogram rttUs_;
    stats::Histogram inflightDepth_;
};

} // namespace mof
} // namespace lsdgnn

#endif // LSDGNN_MOF_SHARD_CHANNEL_HH
