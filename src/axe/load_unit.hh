/**
 * @file
 * AxE load unit (paper Tech-3).
 *
 * The load unit is the component that turns AxE into a latency-hiding
 * machine: it keeps a scoreboard of outstanding tagged requests,
 * issues them out of order against the local and remote memory links,
 * and completes them whenever responses return — the 128-bit context
 * tag, not a thread, carries everything needed to resume. Disabling
 * OoO collapses the scoreboard to a single entry (issue, wait,
 * retire), which is the configuration the paper's "30x" comparison
 * uses as its baseline.
 *
 * An 8 KB coalescing cache (Tech-4) sits in front of the links:
 * accesses that hit a resident line complete next cycle and generate
 * no memory traffic.
 */

#ifndef LSDGNN_AXE_LOAD_UNIT_HH
#define LSDGNN_AXE_LOAD_UNIT_HH

#include <deque>
#include <functional>
#include <memory>

#include "axe/coalescing_cache.hh"
#include "axe/config.hh"
#include "fabric/sim_link.hh"
#include "mof/tag.hh"
#include "sim/component.hh"

namespace lsdgnn {
namespace axe {

/** A tagged load the pipeline hands to the load unit. */
struct Load {
    std::uint64_t address = 0;
    std::uint32_t bytes = 8;
    bool remote = false;
    /** Owning endpoint when remote (routed fabrics use it). */
    std::uint32_t dest = 0;
    mof::ContextTag tag;
    /** Invoked at completion time with the original tag. */
    std::function<void(const mof::ContextTag &)> done;
};

/**
 * Scoreboarded, optionally out-of-order load unit.
 */
class LoadUnit : public sim::Component
{
  public:
    /**
     * @param eq Shared event queue.
     * @param name Component name.
     * @param local Local memory link (shared across the engine).
     * @param remote Remote memory link (shared across the engine).
     * @param config Engine configuration (OoO flag, scoreboard size,
     *        cache geometry, clock).
     */
    LoadUnit(sim::EventQueue &eq, const std::string &name,
             fabric::MemoryPort &local, fabric::MemoryPort &remote,
             const AxeConfig &config);

    /** Detaches the stat group before this class's stats die. */
    ~LoadUnit() override { statGroup.detach(); }

    /**
     * Submit a load. Accepted unconditionally into the issue queue;
     * the scoreboard gates actual issue.
     */
    void submit(Load load);

    /** True when no loads are queued or in flight. */
    bool idle() const { return inflight == 0 && issueQueue.empty(); }

    /** Outstanding (issued, incomplete) loads. */
    std::uint32_t outstanding() const { return inflight; }

    /** Cache behind this load unit (stats access). */
    const CoalescingCache &cache() const { return cache_; }

    std::uint64_t loadsCompleted() const { return completed.value(); }

  private:
    void tryIssue();
    void finish(const Load &load);

    fabric::MemoryPort &localLink;
    fabric::MemoryPort &remoteLink;
    CoalescingCache cache_;
    Clock clock;
    std::uint32_t window; ///< scoreboard entries (1 when in-order)
    std::uint32_t inflight = 0;
    std::deque<Load> issueQueue;

    stats::Counter completed;
    stats::Counter cacheBypassed;
    stats::Counter localIssued;
    stats::Counter remoteIssued;
};

} // namespace axe
} // namespace lsdgnn

#endif // LSDGNN_AXE_LOAD_UNIT_HH
