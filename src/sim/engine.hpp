/**
 * @file
 * The cycle-driven simulation engine, with optional sharded (threaded)
 * execution.
 *
 * Because every inter-component path goes through a Wire<T> with latency
 * >= 1, the evaluation order of components within a cycle is
 * unobservable: a value sent at cycle c is first readable at c+1, and
 * the send and take of one cycle land in disjoint ring slots. That is
 * the conservative-window condition of parallel discrete-event
 * simulation, and the engine cashes it in twice:
 *
 *  - Components registered into *shards* (one shard per chip, so each
 *    stays cache-local to one worker) are ticked concurrently on a
 *    persistent worker pool, and the results are bit-identical to
 *    serial execution.
 *
 *  - When every wire that crosses a shard boundary has latency >= k
 *    (the *lookahead window*, setWindow), each shard ticks k consecutive
 *    cycles between barriers instead of one: a cross-shard value sent
 *    anywhere inside a window is deliverable no earlier than the next
 *    window, so no shard can observe another's intra-window progress.
 *    One barrier then amortizes over k cycles of work, and each shard's
 *    state stays hot in cache for k cycles. Such wires need ring slack
 *    >= k-1 (see Wire) because sender and receiver may be up to k-1
 *    cycles apart within a window.
 *
 * Within a shard, only components with work are ticked. A component
 * that ends a tick holding nothing, with no wire attached to it
 * carrying anything, may put itself to sleep (Component::sleep); a send
 * on any wire into it wakes it again. A wake from the same shard sets
 * its bit in the shard's awake mask directly; a wake across shards (a
 * torus wire, sent from another lane) goes to the shard's inbox, which
 * the engine folds into the mask after the window's barrier - in time,
 * because the wire's latency is at least the window. Host code that
 * hands a component work between cycles wakes it too. The first tick
 * after a wake replays the skipped cycles through
 * Component::onIdleSkip, so sleeping is exact at every window,
 * window 1 included, and no export depends on who slept.
 *
 * Everything that feeds state *into* a shard runs inside it: traffic
 * drivers register one injector per chip after the chip's components,
 * and endpoint handlers, read replies and the packet factory run in the
 * ticking shard at the cycle it is ticking (Engine::cycle). The only
 * paths between shards are the cross-shard wires, so a window of any
 * size gives the same results as window 1.
 *
 * Work that only *observes* shared state (shared statistics, staged
 * trace events, flow deliveries, delivery hooks) runs in the *serial
 * phase*: after the barrier, for each cycle of the window in order,
 * registered serial-phase hooks fire on the calling thread, then
 * serial-tail components (samplers, auditors, progress meters, driver
 * bookkeeping) tick in registration order - a per-cycle replay in the
 * canonical order. The serial schedule is the same whether the parallel
 * phase ran on one thread or eight, which is what makes the exports
 * byte-identical at any thread count. Serial-phase work must not feed
 * state back into a shard. Observation points that must read shard
 * state at exact cycles (samplers, auditors) register a barrier
 * alignment so their cycles always land on a window's final cycle,
 * where post-barrier state equals per-cycle state.
 */
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/component.hpp"
#include "sim/host_profile.hpp"
#include "sim/types.hpp"

namespace anton2 {

class CycleWorkerPool;

/**
 * Steps a fixed set of components through synchronous clock cycles.
 *
 * The engine owns neither the components nor the wires; assemblies (Chip,
 * Machine) own their parts and register them here. Registration order is
 * irrelevant to simulation results because all communication is through
 * latency >= 1 wires; it is, however, the canonical order used for the
 * serial phase, so exports do not depend on the thread count.
 */
class Engine
{
  public:
    Engine();
    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /**
     * Statically dispatched tick thunk. Shard registrars that know the
     * concrete component type pass a thunk performing a qualified
     * (non-virtual) call, removing the vtable load from the hot loop;
     * null falls back to the virtual Component::tick.
     */
    using TickFn = void (*)(Component &, Cycle);

    /**
     * Register a serial-tail component: ticked every cycle on the
     * calling thread *after* the parallel phase and the serial-phase
     * hooks. Use for observers of machine-wide state (samplers,
     * auditors, progress meters, driver bookkeeping); a serial-tail
     * component must not feed state into a shard.
     */
    void add(Component &c);

    /** Unregister @p c, sharded or serial-tail (between windows; a
     * component that dies before its engine removes itself here). */
    void remove(Component &c);

    /**
     * Open a new shard and return its index. A shard is the unit of
     * parallel work: all of its components tick on one lane, in
     * registration order. Chip-granular sharding (one shard per Chip)
     * is the intended default.
     */
    std::size_t newShard();

    /** Register @p c into shard @p shard (see TickFn for @p fn). The
     * class tag @p cls feeds the profiler's sampled attribution pass
     * (and nothing else); registrars that know the concrete type pass
     * it alongside the devirtualized thunk. A sharded component starts
     * awake and may sleep (Component::sleep). */
    void addSharded(std::size_t shard, Component &c, TickFn fn = nullptr,
                    HostCompClass cls = HostCompClass::Other);

    /**
     * Register a hook that runs on the calling thread each cycle after
     * the parallel phase, before serial-tail components. Hooks run in
     * registration order; Machine uses them to merge staged trace lanes
     * and flush deferred endpoint deliveries.
     */
    void addSerialPhase(std::function<void(Cycle)> hook);

    /**
     * Use @p n threads for the parallel phase (1 = serial, the
     * default). Shards are split into min(n, shards) contiguous lanes;
     * the worker pool persists until the count changes. Safe to call
     * between cycles at any time.
     */
    void setThreads(int n);
    int threads() const { return threads_; }

    /** Lanes the parallel phase runs on (1 when serial). */
    std::size_t laneCount() const;

    /**
     * Tick shards up to @p w consecutive cycles between barriers (the
     * lookahead window; 1 = the legacy barrier-per-cycle schedule). The
     * caller guarantees every cross-shard wire has latency >= w and ring
     * slack >= w-1 (Machine computes and enforces this from the torus
     * link latencies). Safe to change between cycles.
     */
    void setWindow(Cycle w);
    Cycle window() const { return window_; }

    /**
     * Hold (true) or release (false) global cycle order; holds are
     * counted. A window is shard-major by default: each shard ticks the
     * whole window while its state is cache-hot, and lanes run
     * concurrently. While any hold is active, every window runs on the
     * calling thread, cycle-major: every shard ticks cycle c before any
     * shard ticks c+1, so code running inside ticks on different shards
     * - software handlers sharing host state - runs on one thread in
     * the same global order as a serial window-1 run. The thread count
     * and the tick order are host choices: simulated results are the
     * same either way.
     */
    void holdCycleOrder(bool hold);

    /**
     * Constrain windows so every cycle c with c % period == phase is the
     * *final* cycle of its window. Serial-tail components that read live
     * shard state on a fixed schedule (interval samplers, auditors)
     * register their period here; their observation cycles then see
     * exactly the state a window-1 run would show them.
     */
    void addBarrierAlignment(Cycle period, Cycle phase);

    /**
     * Attach (or detach with null) the host self-profiler. Not owned.
     * With a profiler attached, advance() brackets each window with
     * timestamp hooks and, on the profiler's sampled windows, takes a
     * tick variant that additionally times each shard and its
     * contiguous component-class runs. The schedule itself - tick
     * order, sleep/wake, staging, serial replay - is untouched, so every
     * deterministic export stays byte-identical with profiling on or
     * off. With no profiler (the default), the pre-existing paths run
     * unchanged and zero profiling clock reads happen.
     */
    void setProfiler(EngineProfiler *p);
    EngineProfiler *profiler() const { return profiler_; }

    /** Current simulation time in cycles: between windows, the next
     * cycle to run; inside a window, the window's first cycle. */
    Cycle now() const { return now_; }

    /**
     * The cycle the calling code runs at: inside a shard's tick (and
     * everything a tick calls - handlers, drivers, the packet factory),
     * the cycle that shard is ticking; anywhere else, now(). Code that
     * may run in a shard stamps time with this, never with now().
     */
    Cycle cycle() const;

    /** The shard the calling thread is ticking, or kNoShard outside
     * the parallel phase. */
    static constexpr std::size_t kNoShard = ~std::size_t{ 0 };
    static std::size_t tickingShard();

    /** Advance the simulation by @p cycles clock cycles. */
    void run(Cycle cycles);

    /** Advance one clock cycle. */
    void step() { advance(1); }

    /**
     * Run one lookahead window of at most @p budget cycles (truncated by
     * the window size and barrier alignments); returns the cycles
     * advanced (>= 1 for budget >= 1).
     */
    Cycle advance(Cycle budget);

    /**
     * Run until @p done returns true or @p max_cycles have elapsed;
     * returns true if the predicate fired. The predicate is evaluated
     * between cycles, every @p check_every cycles (default: every
     * cycle), plus a final exact check at the deadline - so a stride
     * greater than 1 is safe for monotone predicates (delivery counts,
     * quiescence after a closed batch) at the cost of overshooting the
     * firing cycle by at most `check_every - 1` cycles. Keep the
     * default stride when the exact stop cycle matters.
     */
    template <typename Pred>
    bool
    runUntil(Pred &&done, Cycle max_cycles, Cycle check_every = 1)
    {
        if (check_every < 1)
            check_every = 1;
        const Cycle end = now_ + max_cycles;
        Cycle next_check = now_;
        while (now_ < end) {
            if (now_ >= next_check) {
                if (done())
                    return true;
                next_check = now_ + check_every;
            }
            // Advance in whole windows up to the next predicate check
            // (or the deadline), never past either.
            const Cycle stop = next_check < end ? next_check : end;
            advance(stop - now_);
        }
        return done();
    }

    /** True if any registered component reports buffered work (only
     * awake components are asked: a sleeping one is never busy). */
    bool busy() const;

    /**
     * Wake every sharded component, replaying each sleeper's idle span
     * first, so every component's members reflect cycle now().
     * Checkpoint save calls this before serializing and restore before
     * loading. Non-perturbing: idle replay is bit-exact with per-cycle
     * ticking, and a woken idle component goes back to sleep after its
     * next tick.
     */
    void wakeAll();

    /**
     * Replay every sleeper's idle span up to now() without waking it,
     * so members that evolve while idle (stall samplers, SerDes tokens)
     * reflect cycle now() for a reader between windows. Cheaper than
     * wakeAll(): the sleepers keep sleeping.
     */
    void settle();

    /** Sharded components the next window will tick (between windows;
     * serial-tail components are not counted). */
    std::size_t awakeCount() const;

    /**
     * Reinstate the simulation clock from a checkpoint. Only valid
     * between advances, with component and wire state restored to match.
     */
    void restoreNow(Cycle now) { now_ = now; }

    /** Registered components, sharded and serial-tail alike. */
    std::size_t componentCount() const;

  private:
    struct Entry
    {
        Component *c;
        TickFn fn;
        HostCompClass cls;
    };

    /**
     * One shard: its components in registration order and the mask of
     * those still ticked (bit i % 64 of word i / 64: entries[i] is
     * awake).
     * Only the shard's own lane writes the mask inside a window
     * (same-shard wakes and the components' own sleeps); cross-shard
     * wakes go through the shard's inbox words instead.
     */
    struct Shard
    {
        std::vector<Entry> entries;
        std::vector<std::uint64_t> awake;
        std::size_t inbox = 0; ///< first of its words in inbox_
    };

    /** One contiguous same-class run of a shard's entry array: entries
     * [prev.end, end) all carry @p cls. Registration groups classes
     * (routers, then adapters, then endpoints), so a shard has ~3 runs
     * and the profiled tick path needs only ~runs clock reads per cycle
     * instead of one per component. */
    struct ClassRun
    {
        std::size_t end = 0;
        HostCompClass cls = HostCompClass::Other;
    };

    /** Contiguous shard range [begin, end) assigned to one lane. */
    struct Lane
    {
        std::size_t begin = 0;
        std::size_t end = 0;
    };

    /** A serial-tail observation schedule windows must align to. */
    struct Alignment
    {
        Cycle period = 1;
        Cycle phase = 0;
    };

    /** Tick shards [begin, end) through the window. With @p kCount
     * (a profiler is attached) every tick is also counted per
     * component class; without it the loop is the bare schedule. */
    template <bool kCount>
    void tickShardRange(std::size_t begin, std::size_t end, Cycle start,
                        Cycle window);
    /** The sampled-window variant: same order, same sleepers, plus
     * per-shard and per-class timestamps reported to profiler_. */
    void tickShardRangeProfiled(std::size_t begin, std::size_t end,
                                Cycle start, Cycle window);
    /** One lane's share of a window (dispatches on the profiler). */
    void tickLane(std::size_t begin, std::size_t end, Cycle start,
                  Cycle window, bool sampled, bool cycle_major);
    void rebuildLanes();
    void rebuildClassRuns();
    /** Largest window <= @p w whose final cycle respects alignments_. */
    Cycle alignedWindow(Cycle w) const;
    /** (Re)size the activity masks after registration and bind every
     * sharded component to its bit, all awake. */
    void bindActivity();
    /** Move the cross-shard wakes of the last window into the awake
     * masks (after the barrier: no lane is running). */
    void foldInbox();

    std::vector<Shard> shards_;
    std::vector<Component *> components_; ///< serial tail
    std::vector<std::function<void(Cycle)>> serial_phases_;
    std::vector<Lane> lanes_;
    std::vector<Alignment> alignments_;
    /** Cross-shard wake words, Shard::inbox onwards for each shard. */
    std::unique_ptr<std::atomic<std::uint64_t>[]> inbox_;
    std::unique_ptr<CycleWorkerPool> pool_;
    EngineProfiler *profiler_ = nullptr;
    std::vector<std::vector<ClassRun>> class_runs_;
    int threads_ = 1;
    Cycle window_ = 1;
    std::size_t cycle_order_holds_ = 0;
    bool activity_dirty_ = true;
    bool lanes_dirty_ = false;
    bool class_runs_dirty_ = true;
    Cycle now_ = 0;
};

} // namespace anton2
