/**
 * @file
 * The observer bus: the path packet lifecycle events take from the
 * components that emit them to the event trace (trace/trace.hpp: a
 * RingTraceSink), plus each component's observer binding.
 *
 * The flow probe (sim/flow.hpp) does not ride the bus: each component
 * accounts its own hops through the FlowSite in its ObsBinding, into
 * its unit's counters and the packet's own hop log, so only trace
 * events are staged here.
 *
 * Determinism contract (the staging the trace exports rely on): when
 * the engine ticks shards on several lanes, or one lane several cycles
 * between barriers, emit() routes each event into a per-lane,
 * per-(cycle % depth) bucket instead of the sink. The engine's serial
 * replay calls merge(cycle) once per simulated cycle, which drains that
 * cycle's bucket of every lane in lane order - reproducing the exact
 * (cycle-major, registration-order) stream a serial window-1 run would
 * have produced, so every trace export is byte-identical at any thread
 * count and lookahead window. Truly serial emits (lane -1, outside any
 * engine parallel phase) bypass staging entirely.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/flow.hpp"
#include "sim/types.hpp"
#include "trace/trace.hpp"

namespace anton2 {

namespace par {
// Declared in sim/thread_pool.hpp: the calling thread's lane index
// during the engine's parallel phase, or -1 on the serial path.
int currentLane();
} // namespace par

/**
 * The bus. Machine owns one, configures its staging for the engine's
 * lanes and largest window, merges it in the serial replay, and attaches
 * the trace sink to it when tracing is enabled. Components hold an
 * ObsBinding (bus null until bound).
 */
class ObserverBus
{
  public:
    ObserverBus() = default;
    // Components hold the bus's address.
    ObserverBus(const ObserverBus &) = delete;
    ObserverBus &operator=(const ObserverBus &) = delete;

    void attachTrace(RingTraceSink &sink) { trace_ = &sink; }

    /** The attached trace sink (null until attached). */
    RingTraceSink *trace() const { return trace_; }

    /**
     * Size the staging store: one bucket per (lane, cycle % @p depth),
     * where @p depth is the largest lookahead window the engine may run
     * (so a window's cycles map to distinct buckets). Call whenever the
     * lane count changes; staged events are discarded, so reconfigure
     * only between windows.
     */
    void configure(std::size_t lanes, std::size_t depth);

    /** Publish one event (simulation hot path): recorded directly on
     * the serial path, staged on an engine lane. */
    void
    emit(const TraceEvent &ev)
    {
        const int lane = par::currentLane();
        if (lane >= 0) [[unlikely]] {
            stage(lane, ev);
            return;
        }
        trace_->record(ev);
    }

    /** Record cycle @p cycle's staged events in lane order (serial
     * replay only). A no-op when nothing is staged. */
    void merge(Cycle cycle);

  private:
    void stage(int lane, const TraceEvent &ev);

    RingTraceSink *trace_ = nullptr;
    std::size_t depth_ = 1;
    /** One bucket per (lane, cycle % depth_); a bucket is only touched
     * by its lane's thread during the parallel phase and drained by the
     * serial replay between windows. */
    std::vector<std::vector<std::vector<TraceEvent>>> staged_;
};

/**
 * A component's observer binding: the bus plus its coordinates for
 * trace events, and its flow-probe unit (detached until bound).
 * Components emit through tracePacketEvent() and `flow.hop()`, which
 * fold the null tests and the record assembly into one inlined call
 * site each.
 */
struct ObsBinding
{
    ObserverBus *bus = nullptr;
    std::int32_t node = -1;
    std::int16_t unit = -1;
    FlowSite flow;
};

/** Emit a packet lifecycle event (dropped unless a trace sink is
 * attached and its sampling stride accepts @p packet). */
inline void
tracePacketEvent(const ObsBinding &ob, TraceUnitKind kind,
                 TraceEventType type, Cycle now, std::uint64_t packet,
                 int port, int vc)
{
    if (ob.bus == nullptr)
        return;
    const RingTraceSink *sink = ob.bus->trace();
    if (sink == nullptr || !sink->accepts(packet))
        return;
    TraceEvent ev;
    ev.cycle = now;
    ev.packet = packet;
    ev.node = ob.node;
    ev.unit = ob.unit;
    ev.port = static_cast<std::int16_t>(port);
    ev.unit_kind = kind;
    ev.type = type;
    ev.vc = static_cast<std::uint8_t>(vc);
    ob.bus->emit(ev);
}

} // namespace anton2
