#include "sim/observer_bus.hpp"

#include <cassert>

#include "sim/thread_pool.hpp"

namespace anton2 {

void
ObserverBus::configure(std::size_t lanes, std::size_t depth)
{
    depth_ = depth < 1 ? 1 : depth;
    staged_.assign(lanes, std::vector<std::vector<TraceEvent>>(depth_));
}

void
ObserverBus::stage(int lane, const TraceEvent &ev)
{
    assert(static_cast<std::size_t>(lane) < staged_.size()
           && "observer bus not configured for this many lanes");
    staged_[static_cast<std::size_t>(lane)]
           [static_cast<std::size_t>(ev.cycle % depth_)]
               .push_back(ev);
}

void
ObserverBus::merge(Cycle cycle)
{
    if (trace_ == nullptr)
        return;
    const auto bucket = static_cast<std::size_t>(cycle % depth_);
    for (auto &lane : staged_) {
        auto &events = lane[bucket];
        for (const TraceEvent &ev : events)
            trace_->record(ev);
        events.clear();
    }
}

} // namespace anton2
