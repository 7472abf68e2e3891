#include "sim/observer_bus.hpp"

#include <cassert>

#include "sim/thread_pool.hpp"

namespace anton2 {

void
ObserverBus::configure(std::size_t lanes, std::size_t depth)
{
    depth_ = depth < 1 ? 1 : depth;
    staged_.assign(lanes, std::vector<std::vector<ObsRecord>>(depth_));
}

void
ObserverBus::stage(int lane, const ObsRecord &r)
{
    assert(static_cast<std::size_t>(lane) < staged_.size()
           && "observer bus not configured for this many lanes");
    staged_[static_cast<std::size_t>(lane)]
           [static_cast<std::size_t>(r.cycle % depth_)]
               .push_back(r);
}

void
ObserverBus::merge(Cycle cycle)
{
    if (trace_ == nullptr && flows_ == nullptr)
        return;
    const auto bucket = static_cast<std::size_t>(cycle % depth_);
    for (auto &lane : staged_) {
        auto &records = lane[bucket];
        for (const ObsRecord &r : records)
            dispatch(r);
        records.clear();
    }
}

void
ObserverBus::dispatch(const ObsRecord &r)
{
    if (r.tag == ObsTag::Trace) {
        TraceEvent ev;
        ev.cycle = r.cycle;
        ev.packet = r.packet;
        ev.node = r.node;
        ev.unit = r.unit;
        ev.port = r.port;
        ev.unit_kind = static_cast<TraceUnitKind>(r.kind);
        ev.type = r.event;
        ev.vc = r.vc;
        trace_->record(ev);
        return;
    }
    FlowHopRecord h;
    h.cycle = r.cycle;
    h.arrival = r.arrival;
    h.grant = r.grant;
    h.packet = r.packet;
    h.node = r.node;
    h.unit = r.unit;
    h.port = r.port;
    h.size_flits = r.size_flits;
    h.kind = static_cast<FlowUnitKind>(r.kind);
    h.vc = r.vc;
    flows_->apply(h);
}

} // namespace anton2
