/**
 * @file
 * Base class for cycle-evaluated hardware components.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>

#include "sim/types.hpp"

namespace anton2 {

class Engine;

/**
 * A hardware block evaluated once per clock cycle by the Engine.
 *
 * Components communicate exclusively through Wire<T> delay lines, so the
 * relative evaluation order of components within a cycle is unobservable.
 *
 * A component registered into an engine shard may *sleep*: it calls
 * sleep() at the end of a tick in which it holds nothing and no wire
 * attached to it carries anything, and the engine then skips it until
 * a wake - a send on one of its wires (Wire::setReceiver) or a
 * host-side mutation that gives it work (wake()). Components that never
 * call sleep() are ticked every cycle.
 */
class Component
{
  public:
    explicit Component(std::string name) : name_(std::move(name)) {}
    virtual ~Component() = default;

    Component(const Component &) = delete;
    Component &operator=(const Component &) = delete;

    /** Evaluate one clock cycle at time @p now. */
    virtual void tick(Cycle now) = 0;

    /**
     * True while the component holds buffered state that still needs
     * clock cycles to drain (quiescence detection). A sleeping component
     * is always !busy(), which is what lets Engine::busy() visit awake
     * components only.
     */
    virtual bool busy() const { return false; }

    /**
     * Replay @p skipped cycles of idle-state evolution. A sleeping
     * component's ticks would have been state-preserving no-ops except
     * for what this replays; before its first tick after a wake (and
     * before a checkpoint is taken) the engine calls it with the number
     * of cycles skipped, so state that evolves even while idle (SerDes
     * token accrual) catches up exactly. Default: idle state is static.
     */
    virtual void onIdleSkip(Cycle skipped) { (void)skipped; }

    /**
     * Give this component ticks again, from the next cycle its shard
     * runs at the latest. Same-shard wires call this on send; host
     * code calls it between cycles after handing the component work.
     * A no-op for a component outside an engine shard (ticked by hand,
     * never asleep).
     */
    void
    wake()
    {
        if (act_.awake != nullptr)
            *act_.awake |= act_.bit;
    }

    /**
     * wake() for a sender on another shard's lane (a cross-shard wire):
     * the wake is recorded in the shard's inbox, which the engine folds
     * into its awake mask after the window's barrier. That is in time
     * because a cross-shard wire's latency is at least the window.
     */
    void
    wakeRemote()
    {
        if (act_.inbox == nullptr
            || (act_.inbox->load(std::memory_order_relaxed) & act_.bit) != 0)
            return;
        act_.inbox->fetch_or(act_.bit, std::memory_order_relaxed);
    }

    /** True while the engine skips this component (between windows). */
    bool
    asleep() const
    {
        return act_.awake != nullptr && (*act_.awake & act_.bit) == 0;
    }

    const std::string &name() const { return name_; }

  protected:
    /**
     * Stop ticking after this tick (at cycle @p now) until woken. Call
     * only at the end of tick() and only when the component holds
     * nothing and no wire attached to it carries anything: skipped
     * ticks must be no-ops up to what onIdleSkip() replays. A no-op
     * outside an engine shard.
     */
    void
    sleep(Cycle now)
    {
        if (act_.awake == nullptr)
            return;
        *act_.awake &= ~act_.bit;
        act_.slept_at = now + 1;
    }

  private:
    friend class Engine;

    /** This component's place in its shard's activity masks (bound by
     * the engine; all null for a component ticked by hand). */
    struct Activity
    {
        std::uint64_t *awake = nullptr;              ///< shard awake word
        std::atomic<std::uint64_t> *inbox = nullptr; ///< shard inbox word
        std::uint64_t bit = 0;
        Cycle slept_at = kNoCycle; ///< first unticked cycle, or kNoCycle
    };

    /** Replay the idle span before the first tick after a sleep (or
     * up to @p now when the engine flushes sleepers). */
    void
    resume(Cycle now)
    {
        const Cycle skipped = now - act_.slept_at;
        act_.slept_at = kNoCycle;
        if (skipped > 0)
            onIdleSkip(skipped);
    }

    /** Replay the idle span up to @p now but keep sleeping (idle
     * replay is additive: two spans replay like their sum). */
    void
    settle(Cycle now)
    {
        if (act_.slept_at == kNoCycle || now <= act_.slept_at)
            return;
        onIdleSkip(now - act_.slept_at);
        act_.slept_at = now;
    }

    std::string name_;
    Activity act_;
};

} // namespace anton2
