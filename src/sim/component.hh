/**
 * @file
 * Base class for simulated hardware components.
 */

#ifndef LSDGNN_SIM_COMPONENT_HH
#define LSDGNN_SIM_COMPONENT_HH

#include <string>

#include "common/stats.hh"
#include "common/trace.hh"
#include "sim/event_queue.hh"

namespace lsdgnn {
namespace sim {

/**
 * A named component attached to an event queue, with its own stat
 * group. Components are non-copyable identity objects.
 *
 * The group lives here, but a subclass adds its own members to it, and
 * those die before the base class does. So every subclass that adds
 * stats must detach the group in its own destructor
 * (`statGroup.detach()`); otherwise an exporter visiting the registry
 * during teardown reads freed stats.
 */
class Component
{
  public:
    /**
     * @param eq Event queue shared by the whole simulated system.
     * @param name Hierarchical component name ("axe.core0.loadunit").
     */
    Component(EventQueue &eq, std::string name)
        : eventq(eq), statGroup(name), componentName(std::move(name))
    {}

    virtual ~Component() = default;

    Component(const Component &) = delete;
    Component &operator=(const Component &) = delete;

    const std::string &name() const { return componentName; }
    stats::StatGroup &stats() { return statGroup; }
    const stats::StatGroup &stats() const { return statGroup; }

    Tick curTick() const { return eventq.now(); }

  protected:
    /**
     * This component's trace track, registered on first use. Only
     * meaningful while tracing is enabled; callers guard emission
     * with trace::Tracer::enabled().
     */
    trace::TrackId
    traceTrack() const
    {
        if (traceTid == 0)
            traceTid = trace::Tracer::instance().track(0, componentName);
        return traceTid;
    }

    EventQueue &eventq;
    stats::StatGroup statGroup;

  private:
    std::string componentName;
    mutable trace::TrackId traceTid = 0;
};

} // namespace sim
} // namespace lsdgnn

#endif // LSDGNN_SIM_COMPONENT_HH
