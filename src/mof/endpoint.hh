/**
 * @file
 * MoF endpoint: dynamic multi-request packing in simulated time.
 *
 * Table 5 accounts for packing statically; the endpoint performs it
 * dynamically: read requests accumulate in a staging buffer and ship
 * as one package when either the package fills (64 requests) or the
 * aging timer expires — the classic batching latency/efficiency
 * trade-off. The endpoint fronts a SimLink (the PHY) and implements
 * MemoryPort, so it can stand wherever a raw link does, including
 * under an AxE load unit.
 */

#ifndef LSDGNN_MOF_ENDPOINT_HH
#define LSDGNN_MOF_ENDPOINT_HH

#include <vector>

#include "fabric/memory_port.hh"
#include "fabric/sim_link.hh"
#include "mof/frame.hh"
#include "sim/component.hh"

namespace lsdgnn {
namespace mof {

/** Endpoint parameters. */
struct EndpointParams {
    /** Frame geometry (requests per package, header/address bytes). */
    FrameFormat format = mofFormat();
    /** Maximum time a staged request may wait before a forced flush. */
    Tick max_staging_delay = nanoseconds(200);
    /** Response header bytes per returning package. */
    std::uint32_t response_header_bytes = 32;
};

/**
 * Packing endpoint over one fabric PHY.
 */
class MofEndpoint : public sim::Component, public fabric::MemoryPort
{
  public:
    /**
     * @param eq Shared event queue.
     * @param phy Fabric PHY the packages ride on.
     * @param params Packing configuration.
     * @param name Component name (stats/trace track).
     */
    MofEndpoint(sim::EventQueue &eq, fabric::SimLink &phy,
                EndpointParams params = EndpointParams{},
                const std::string &name = "mof.endpoint");

    /** Detaches the stat group before this class's stats die. */
    ~MofEndpoint() override { statGroup.detach(); }

    /** Stage one read; completion fires when its response lands. */
    void request(std::uint64_t bytes, std::uint32_t dest,
                 Callback done) override;

    using fabric::MemoryPort::request;

    /** Force out whatever is staged (end of batch). */
    void flush();

    /** Packages shipped. */
    std::uint64_t packagesSent() const { return packages.value(); }

    /** Requests carried. */
    std::uint64_t requestsSent() const { return requests.value(); }

    /** Mean requests per package (the achieved packing factor). */
    double
    meanPackingFactor() const
    {
        return packages.value() == 0
            ? 0.0
            : static_cast<double>(requests.value()) /
              static_cast<double>(packages.value());
    }

    /** Wire bytes actually moved (requests + responses + headers). */
    std::uint64_t wireBytes() const { return wire_bytes.value(); }

    /** Requests-per-package distribution (the packing efficiency). */
    const stats::Histogram &fillHistogram() const { return fill; }

    /**
     * Wire bytes the same traffic would cost unpacked (one package
     * per request) — the Tech-1 saving denominator.
     */
    std::uint64_t unpackedWireBytes() const { return unpacked.value(); }

  private:
    struct Staged {
        std::uint64_t bytes;
        Callback done;
    };

    void armTimer();
    void ship();

    fabric::SimLink &phy_;
    EndpointParams params_;
    std::vector<Staged> staged;
    bool timerArmed = false;
    sim::EventQueue::EventHandle timerHandle = 0;
    Tick firstStagedAt = 0; ///< arrival of the oldest staged request

    stats::Counter packages;
    stats::Counter requests;
    stats::Counter wire_bytes;
    stats::Counter unpacked;
    stats::Average stagingTicks;
    stats::Histogram fill;
};

} // namespace mof
} // namespace lsdgnn

#endif // LSDGNN_MOF_ENDPOINT_HH
