/**
 * @file
 * The observer bus: the one path per-packet observer records take from
 * the components that emit them to the subscribers that interpret them.
 *
 * Two observers watch packets hop by hop - the event trace
 * (trace/trace.hpp: lifecycle events into a RingTraceSink) and the flow
 * probe (sim/flow.hpp: per-hop spans into the flow matrix and blame
 * counters). Both share this bus, its one record type, and its one
 * staging store.
 *
 * Determinism contract (the staging every observer export relies on):
 * when the engine ticks shards on several lanes, or one lane several
 * cycles between barriers, emit() routes each record into a per-lane,
 * per-(cycle % depth) bucket instead of the subscriber. The engine's
 * serial replay calls merge(cycle) once per simulated cycle (before the
 * deferred-delivery flush, so every hop of a packet is applied before
 * the delivery that closes its flight), which drains that cycle's
 * bucket of every lane in lane order - reproducing the exact
 * (cycle-major, registration-order) stream a serial window-1 run would
 * have produced. Trace and hop records share a bucket, but each
 * subscriber only sees its own records, so neither stream is reordered
 * and every trace, flow, and report export is byte-identical at any
 * thread count and lookahead window. Truly serial emits (lane -1,
 * outside any engine parallel phase) bypass staging entirely.
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

/** Which subscriber an ObsRecord is for. */
enum class ObsTag : std::uint8_t
{
    Trace = 0,  ///< a packet lifecycle event (RingTraceSink)
    FlowHop,    ///< a per-hop span (FlowProbe)
};

/**
 * The bus's one record type: FlowHopRecord's fields plus the tag. A
 * trace event fills cycle/packet/node/unit/port/vc, carries its
 * TraceUnitKind in `kind` and its TraceEventType in `event`, and leaves
 * the span fields (arrival, grant, size_flits) zero.
 */
struct ObsRecord
{
    Cycle cycle = 0;            ///< event cycle (hop: departure); staging key
    Cycle arrival = 0;          ///< hop: head flit buffered at the unit
    Cycle grant = 0;            ///< hop: arbitration / injection grant
    std::uint64_t packet = 0;
    std::int32_t node = -1;     ///< chip the emitting unit sits on
    std::int16_t unit = -1;     ///< router id / adapter index / ep id
    std::int16_t port = -1;     ///< output port where meaningful
    std::int16_t size_flits = 0;
    std::uint8_t kind = 0;      ///< FlowUnitKind (hop) / TraceUnitKind
    std::uint8_t vc = 0;
    ObsTag tag = ObsTag::Trace;
    TraceEventType event = TraceEventType::Inject; ///< trace records only
};

/**
 * The bus. Machine owns one, configures its staging for the engine's
 * lanes and largest window, merges it in the serial replay, and attaches
 * the trace sink and flow probe to it as they are enabled. Components
 * hold an ObsBinding (bus null until bound).
 */
class ObserverBus
{
  public:
    ObserverBus() = default;
    // Components hold the bus's address.
    ObserverBus(const ObserverBus &) = delete;
    ObserverBus &operator=(const ObserverBus &) = delete;

    void attachTrace(RingTraceSink &sink) { trace_ = &sink; }
    void attachFlows(FlowProbe &probe) { flows_ = &probe; }

    /** The attached subscribers (null until attached). */
    RingTraceSink *trace() const { return trace_; }
    FlowProbe *flows() const { return flows_; }

    /**
     * Size the staging store: one bucket per (lane, cycle % @p depth),
     * where @p depth is the largest lookahead window the engine may run
     * (so a window's cycles map to distinct buckets). Call whenever the
     * lane count changes; staged records are discarded, so reconfigure
     * only between windows.
     */
    void configure(std::size_t lanes, std::size_t depth);

    /** Publish one record (simulation hot path): dispatched directly on
     * the serial path, staged on an engine lane. */
    void
    emit(const ObsRecord &r)
    {
        const int lane = par::currentLane();
        if (lane >= 0) [[unlikely]] {
            stage(lane, r);
            return;
        }
        dispatch(r);
    }

    /** Dispatch cycle @p cycle's staged records in lane order (serial
     * replay only). A no-op when nothing is staged. */
    void merge(Cycle cycle);

  private:
    void stage(int lane, const ObsRecord &r);
    void dispatch(const ObsRecord &r);

    RingTraceSink *trace_ = nullptr;
    FlowProbe *flows_ = nullptr;
    std::size_t depth_ = 1;
    /** One bucket per (lane, cycle % depth_); a bucket is only touched
     * by its lane's thread during the parallel phase and drained by the
     * serial replay between windows. */
    std::vector<std::vector<std::vector<ObsRecord>>> staged_;
};

/**
 * A component's binding to the bus plus its coordinates. Components hold
 * one (bus null until bound) and emit through tracePacketEvent() /
 * flowHopEvent(), which fold the null tests, the subscriber's filter,
 * and the record assembly into one inlined call site.
 */
struct ObsBinding
{
    ObserverBus *bus = nullptr;
    std::int32_t node = -1;
    std::int16_t unit = -1;
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
    ObsRecord r;
    r.cycle = now;
    r.packet = packet;
    r.node = ob.node;
    r.unit = ob.unit;
    r.port = static_cast<std::int16_t>(port);
    r.kind = static_cast<std::uint8_t>(kind);
    r.vc = static_cast<std::uint8_t>(vc);
    r.tag = ObsTag::Trace;
    r.event = type;
    ob.bus->emit(r);
}

/** Emit a per-hop span (dropped unless a flow probe is attached, and for
 * multicast packets, whose replicas share one packet id). */
inline void
flowHopEvent(const ObsBinding &ob, FlowUnitKind kind,
             std::uint64_t packet, int mcast_group, int size_flits,
             Cycle arrival, Cycle grant, Cycle depart, int port, int vc)
{
    if (ob.bus == nullptr || ob.bus->flows() == nullptr || mcast_group >= 0)
        return;
    ObsRecord r;
    r.cycle = depart;
    r.arrival = arrival;
    r.grant = grant;
    r.packet = packet;
    r.node = ob.node;
    r.unit = ob.unit;
    r.port = static_cast<std::int16_t>(port);
    r.size_flits = static_cast<std::int16_t>(size_flits);
    r.kind = static_cast<std::uint8_t>(kind);
    r.vc = static_cast<std::uint8_t>(vc);
    r.tag = ObsTag::FlowHop;
    ob.bus->emit(r);
}

} // namespace anton2
