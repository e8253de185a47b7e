/**
 * @file
 * One AxE core: the GetNeighbor -> GetSample -> GetAttribute pipeline.
 *
 * Each core processes one sampling task (a batch of root nodes) at a
 * time, walking the multi-hop plan:
 *
 *  - GetNeighbor reads the node's degree (CSR offsets) and, once it
 *    returns, lets GetSample choose fan-out many adjacency positions;
 *    each chosen slot becomes one fine-grained neighbor load.
 *  - GetSample is the streaming step sampler by default (Tech-2): it
 *    picks positions in arrival order, so no candidate buffer exists.
 *  - GetAttribute issues the sampled node's feature-record read and,
 *    when it completes, streams the result out of the command/data IO.
 *
 * The pipeline is asynchronous and FIFO-connected (Tech-1): up to
 * `pipeline_depth` traversal items can be between degree-read and
 * last-neighbor-issued simultaneously, and all loads share the core's
 * OoO load unit (Tech-3), so responses interleave freely. Per-root
 * and per-neighbor ordering is re-established by two scoreboards just
 * as in Fig. 6 — here represented by the completion bookkeeping that
 * releases a batch only when every root's subtree has fully drained.
 */

#ifndef LSDGNN_AXE_CORE_HH
#define LSDGNN_AXE_CORE_HH

#include <deque>
#include <functional>
#include <memory>

#include "axe/address_map.hh"
#include "axe/load_unit.hh"
#include "common/rng.hh"
#include "graph/csr_graph.hh"
#include "sampling/minibatch.hh"
#include "sampling/sampler.hh"
#include "sim/component.hh"

namespace lsdgnn {
namespace axe {

/** Decides which FPGA node holds a graph node (0 = this engine). */
using HomeFunction = std::function<std::uint32_t(graph::NodeId)>;

/**
 * One sampling core.
 */
class AxeCore : public sim::Component
{
  public:
    /**
     * @param eq Shared event queue.
     * @param name Component name ("axe.core0").
     * @param config Engine configuration.
     * @param local Local memory link (shared).
     * @param remote Remote memory link (shared).
     * @param output Result output link (shared).
     * @param rng Core-private random stream.
     * @param self_node This engine's endpoint id: loads whose home
     *        (per the HomeFunction) equals it are local.
     */
    AxeCore(sim::EventQueue &eq, const std::string &name,
            const AxeConfig &config, fabric::MemoryPort &local,
            fabric::MemoryPort &remote, fabric::SimLink &output,
            Rng rng, std::uint32_t self_node = 0);

    /** Detaches the stat group before this class's stats die. */
    ~AxeCore() override { statGroup.detach(); }

    /**
     * Start one batch task.
     *
     * @param graph Graph to traverse.
     * @param map Address layout of the stored partition.
     * @param home Node-to-FPGA placement.
     * @param plan Fan-outs per hop.
     * @param roots Batch roots.
     * @param on_done Called when every sample has been emitted.
     * @pre The core must be idle.
     */
    void startBatch(const graph::CsrGraph &graph,
                    const GraphAddressMap &map, const HomeFunction &home,
                    const sampling::SamplePlan &plan,
                    std::vector<graph::NodeId> roots,
                    std::function<void()> on_done);

    bool busy() const { return active; }

    /** Samples fully emitted (attribute fetched + result streamed). */
    std::uint64_t samplesEmitted() const { return emitted.value(); }

    const LoadUnit &loadUnit() const { return loads; }

  private:
    /** One node waiting for / in GetNeighbor. */
    struct TraversalItem {
        graph::NodeId node;
        std::uint32_t hop;
    };

    void pump();
    void onDegree(const TraversalItem &item);
    void onNeighbor(const TraversalItem &item, std::uint64_t position);
    void onAttribute();
    void maybeFinish();

    const AxeConfig &config_;
    fabric::SimLink &outputLink;
    LoadUnit loads;
    Clock clock;
    std::unique_ptr<sampling::NeighborSampler> sampler;
    Rng rng_;
    std::uint32_t selfNode;

    // Per-batch state.
    const graph::CsrGraph *graph_ = nullptr;
    const GraphAddressMap *map_ = nullptr;
    HomeFunction home_;
    sampling::SamplePlan plan_;
    std::function<void()> onDone;
    std::deque<TraversalItem> workQueue;
    std::uint32_t activeItems = 0;   ///< items inside GetNeighbor
    std::uint64_t openLoads = 0;     ///< degree+neighbor+attr in flight
    std::uint64_t openOutputs = 0;   ///< result writes in flight
    bool active = false;
    Tick batchStart = 0;             ///< startBatch() time of this batch

    /** Trace counters for pipeline occupancy (no-op when disabled). */
    void traceOccupancy();

    stats::Counter emitted;
    stats::Counter traversed;
    stats::Average batchTicks;
};

} // namespace axe
} // namespace lsdgnn

#endif // LSDGNN_AXE_CORE_HH
