/**
 * @file
 * Lookahead-window engine suite: the conservative-window scheduler that
 * lets each worker tick its shards k consecutive cycles between
 * barriers, where k is the minimum cross-shard (torus) wire latency.
 *
 * What is pinned here:
 *  - window-size computation across topologies, including mixed-latency
 *    packaging-derived links, clamping, and the k = 1 degenerate case
 *    (which is exactly the pre-lookahead per-cycle engine);
 *  - the engine-level windowed schedule: shard ticks before the serial
 *    replay, barrier alignment truncation, component sleep/wake with
 *    onIdleSkip() replay at every window, and a cycle-order hold that
 *    runs threaded windows on one thread in window-1 order;
 *  - staged observations (observer-bus lanes, deferred delivery
 *    records) replay in canonical per-cycle order, and every injection
 *    source - drivers, read replies, counted-write handlers - runs in
 *    its chip's shard, proven by byte-identical exports across thread
 *    counts *and* windows for runs with all of that feedback, and by
 *    handlers sharing unsynchronized host state giving the same totals
 *    at every thread count and window;
 *  - a seeded credit fault trips the watchdog at the same cycle with
 *    the same forensic report whether the run is serial or threaded,
 *    windowed or per-cycle;
 *  - a seeded randomized config sweep (property test) and a pinned
 *    8x8x8 short-run regression: 200 open-loop cycles at 60% of
 *    analytic saturation (the name keeps the host-speed bench it was
 *    first taken from).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "analysis/loads.hpp"
#include "core/machine.hpp"
#include "routing/route.hpp"
#include "sim/engine.hpp"
#include "sim/observer_bus.hpp"
#include "sim/rng.hpp"
#include "sim/thread_pool.hpp"
#include "traffic/driver.hpp"
#include "traffic/patterns.hpp"

namespace anton2 {
namespace {

// ---------------------------------------------------------------------
// Engine-level windowed schedule
// ---------------------------------------------------------------------

/** Counts its own ticks; busy until it has ticked @p quota times. */
class TickCounter final : public Component
{
  public:
    explicit TickCounter(int quota = 0)
        : Component("tick_counter"), quota_(quota)
    {
    }
    void tick(Cycle) override { ++ticks_; }
    bool busy() const override { return ticks_ < quota_; }
    int ticks() const { return ticks_; }

  private:
    int quota_;
    int ticks_ = 0;
};

TEST(LookaheadEngine, WindowedShardTicksCompleteBeforeSerialReplay)
{
    Engine e;
    e.setWindow(4);
    EXPECT_EQ(e.window(), 4u);
    TickCounter sharded(1000);
    TickCounter tail;
    const std::size_t shard = e.newShard();
    e.addSharded(shard, sharded);
    e.add(tail);

    std::vector<int> sharded_at_phase;
    std::vector<int> tail_at_phase;
    e.addSerialPhase([&](Cycle) {
        sharded_at_phase.push_back(sharded.ticks());
        tail_at_phase.push_back(tail.ticks());
    });

    e.run(10);
    EXPECT_EQ(e.now(), 10u);
    EXPECT_EQ(sharded.ticks(), 10);
    EXPECT_EQ(tail.ticks(), 10);
    // Windows [0,3], [4,7], [8,9] (the last clamped by the budget):
    // every shard tick of the window lands before its serial replay,
    // and the per-cycle serial tail still runs once per cycle.
    EXPECT_EQ(sharded_at_phase,
              (std::vector<int>{ 4, 4, 4, 4, 8, 8, 8, 8, 10, 10 }));
    EXPECT_EQ(tail_at_phase,
              (std::vector<int>{ 0, 1, 2, 3, 4, 5, 6, 7, 8, 9 }));
}

TEST(LookaheadEngine, SetWindowClampsToOne)
{
    Engine e;
    EXPECT_EQ(e.window(), 1u);
    e.setWindow(0);
    EXPECT_EQ(e.window(), 1u);
    e.setWindow(7);
    EXPECT_EQ(e.window(), 7u);
}

TEST(LookaheadEngine, AdvanceHonorsBudgetAndBarrierAlignment)
{
    Engine e;
    e.setWindow(4);
    TickCounter c(1000000);
    const std::size_t shard = e.newShard();
    e.addSharded(shard, c);

    // Observation cycles are those == 4 (mod 5); each must be the final
    // cycle of its window, so the schedule alternates 4-cycle and
    // 1-cycle windows: [0,3], [4], [5,8], [9], ...
    e.addBarrierAlignment(5, 4);
    EXPECT_EQ(e.advance(100), 4u);
    EXPECT_EQ(e.now(), 4u);
    EXPECT_EQ(e.advance(100), 1u);
    EXPECT_EQ(e.now(), 5u);
    EXPECT_EQ(e.advance(100), 4u);
    EXPECT_EQ(e.advance(100), 1u);
    EXPECT_EQ(e.now(), 10u);
    // The budget clamps below both the window and the alignment.
    EXPECT_EQ(e.advance(2), 2u);
    EXPECT_EQ(e.now(), 12u);
    EXPECT_EQ(c.ticks(), 12);
}

TEST(LookaheadEngine, ThreadedWindowedScheduleMatchesSerial)
{
    for (int threads : { 1, 2, 4 }) {
        Engine e;
        e.setThreads(threads);
        e.setWindow(6);
        std::deque<TickCounter> cs;
        for (int i = 0; i < 8; ++i)
            cs.emplace_back(1000000);
        for (auto &c : cs) {
            const std::size_t shard = e.newShard();
            e.addSharded(shard, c);
        }
        int phase_runs = 0;
        e.addSerialPhase([&](Cycle) { ++phase_runs; });
        e.run(20);
        EXPECT_EQ(e.now(), 20u) << "threads=" << threads;
        EXPECT_EQ(phase_runs, 20) << "threads=" << threads;
        for (const auto &c : cs)
            EXPECT_EQ(c.ticks(), 20) << "threads=" << threads;
    }
}

/** Logs (cycle, shard) of every tick into a log shared by all shards. */
class OrderLogger final : public Component
{
  public:
    OrderLogger(int shard, std::vector<std::pair<Cycle, int>> &log)
        : Component("order_logger"), shard_(shard), log_(log)
    {
    }
    void tick(Cycle now) override { log_.emplace_back(now, shard_); }

  private:
    int shard_;
    std::vector<std::pair<Cycle, int>> &log_;
};

TEST(LookaheadEngine, CycleOrderHoldRunsThreadedWindowsOnOneThread)
{
    // The loggers share one unsynchronized vector, as handlers share
    // host state: under a hold, a threaded windowed engine must tick
    // them on one thread (no data race), every shard's cycle c before
    // any shard's c+1 - the serial window-1 order.
    for (int threads : { 1, 2, 4 }) {
        Engine e;
        e.setThreads(threads);
        e.setWindow(5);
        std::vector<std::pair<Cycle, int>> log;
        std::deque<OrderLogger> cs;
        for (int i = 0; i < 4; ++i) {
            cs.emplace_back(i, log);
            e.addSharded(e.newShard(), cs.back());
        }
        e.holdCycleOrder(true);
        e.run(12);
        std::vector<std::pair<Cycle, int>> want;
        for (Cycle c = 0; c < 12; ++c) {
            for (int i = 0; i < 4; ++i)
                want.emplace_back(c, i);
        }
        EXPECT_EQ(log, want) << "threads=" << threads;
        e.holdCycleOrder(false);
    }
}

/** A component that sleeps whenever it has no work: give() hands it
 * ticks of work and wakes it; onIdleSkip() logs the replayed span. */
class Sleeper final : public Component
{
  public:
    Sleeper() : Component("sleeper") {}
    void
    tick(Cycle now) override
    {
        ++ticks_;
        if (work_ > 0)
            --work_;
        if (work_ == 0)
            sleep(now);
    }
    bool busy() const override { return work_ > 0; }
    void onIdleSkip(Cycle skipped) override { skipped_ += skipped; }

    void
    give(int ticks)
    {
        work_ += ticks;
        wake();
    }
    int ticks() const { return ticks_; }
    Cycle skippedReplayed() const { return skipped_; }

  private:
    int work_ = 0;
    int ticks_ = 0;
    Cycle skipped_ = 0;
};

/** The sleep/wake schedule both window tests pin. */
void
expectSleepSchedule(Engine &e)
{
    Sleeper p;
    const std::size_t shard = e.newShard();
    e.addSharded(shard, p);

    // Everything starts awake: one idle tick at cycle 0, then asleep
    // and never ticked again while idle.
    e.run(8);
    EXPECT_EQ(p.ticks(), 1);
    EXPECT_EQ(p.skippedReplayed(), 0u);
    EXPECT_TRUE(p.asleep());
    EXPECT_FALSE(e.busy());
    EXPECT_EQ(e.awakeCount(), 0u);

    // Work arrives between cycles: the wake replays the 7 skipped
    // cycles (1-7) before its first tick, at cycle 8.
    p.give(4);
    EXPECT_TRUE(e.busy());
    e.run(4);
    EXPECT_EQ(p.ticks(), 5);
    EXPECT_EQ(p.skippedReplayed(), 7u);

    // Out of work after cycle 11: asleep through cycles 12-19, and the
    // next wake replays exactly those 8.
    e.run(8);
    EXPECT_EQ(p.ticks(), 5);
    p.give(1);
    e.run(4);
    EXPECT_EQ(p.ticks(), 6);
    EXPECT_EQ(p.skippedReplayed(), 15u);

    // wakeAll (the checkpoint path) replays the span up to now: the
    // tick at cycle 20 was the last, so cycles 21-23.
    e.wakeAll();
    EXPECT_EQ(p.skippedReplayed(), 18u);
    EXPECT_FALSE(p.asleep());
    e.run(1);
    EXPECT_EQ(p.ticks(), 7);
    EXPECT_EQ(p.skippedReplayed(), 18u);
}

TEST(LookaheadEngine, IdleComponentsSleepAndReplayOnWake)
{
    Engine e;
    e.setWindow(4);
    expectSleepSchedule(e);
}

TEST(LookaheadEngine, SleepWorksAtWindowOne)
{
    Engine e; // default window 1: sleeping is exact here too
    expectSleepSchedule(e);
}

TEST(LookaheadEngine, SleepMasksSpanSeveralWords)
{
    // 150 components in one shard: three 64-bit awake words.
    Engine e;
    std::deque<Sleeper> sleepers(150);
    const std::size_t shard = e.newShard();
    for (Sleeper &s : sleepers)
        e.addSharded(shard, s);
    e.run(10); // one idle tick each, then asleep
    EXPECT_EQ(e.awakeCount(), 0u);
    const std::vector<std::size_t> worked{ 3, 64, 127, 149 };
    for (std::size_t i : worked)
        sleepers[i].give(2);
    EXPECT_EQ(e.awakeCount(), worked.size());
    e.run(10);
    for (std::size_t i = 0; i < sleepers.size(); ++i) {
        const bool w =
            std::find(worked.begin(), worked.end(), i) != worked.end();
        EXPECT_EQ(sleepers[i].ticks(), w ? 3 : 1) << i;
        EXPECT_EQ(sleepers[i].skippedReplayed(), w ? 9u : 0u) << i;
    }
    EXPECT_EQ(e.awakeCount(), 0u);
}

// ---------------------------------------------------------------------
// Staged observer-bus replay
// ---------------------------------------------------------------------

TEST(LookaheadTrace, StagedEventsMergeInCanonicalPerCycleOrder)
{
    RingTraceSink sink(64);
    ObserverBus bus;
    bus.attachTrace(sink);
    bus.configure(2, /*depth=*/4);
    const ObsBinding ob{ &bus, 0, 0, {} };

    auto emit = [&](std::uint64_t packet, Cycle cycle) {
        tracePacketEvent(ob, TraceUnitKind::Endpoint,
                         TraceEventType::Inject, cycle, packet, -1, 0);
    };

    // Shard-major recording order (what a windowed worker produces):
    // lane 1 first, and within it cycle 1 before cycle 0.
    {
        par::LaneScope lane(1);
        emit(21, 1);
        emit(20, 0);
    }
    {
        par::LaneScope lane(0);
        emit(10, 0);
        emit(11, 1);
    }
    EXPECT_EQ(sink.size(), 0u) << "events must stage, not publish";

    // The serial replay drains one cycle at a time, lanes in order.
    bus.merge(0);
    bus.merge(1);
    const auto events = sink.drain();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events[0].packet, 10u);
    EXPECT_EQ(events[1].packet, 20u);
    EXPECT_EQ(events[2].packet, 11u);
    EXPECT_EQ(events[3].packet, 21u);
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_GE(events[i].cycle, events[i - 1].cycle);
}

/** The sampled span of the one packet sent corner to corner on a
 * 2x2x2 machine (node 0 to node 7, three torus links). */
std::vector<FlowHopRecord>
cornerToCornerSpan(int threads, Cycle lookahead)
{
    MachineConfig cfg;
    cfg.radix = { 2, 2, 2 };
    cfg.chip.endpoints_per_node = 2;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 12;
    cfg.seed = 5;
    cfg.threads = threads;
    cfg.lookahead = lookahead;
    Machine m(cfg);
    Instrumentation inst;
    FlowProbeConfig fcfg;
    fcfg.sample = 1;
    inst.flows = fcfg;
    m.attachInstrumentation(inst);
    // Cross traffic keeps every lane busy while the packet travels.
    for (NodeId n = 0; n < m.geom().numNodes(); ++n)
        m.send(m.makeWrite({ n, 1 }, { (n + 3) % 8, 1 }, 0, 2));
    m.send(m.makeWrite({ 0, 0 }, { 7, 0 }, 0, 2));
    EXPECT_TRUE(m.run(RunSpec::untilDelivered(9, 100000)).reason
                == StopReason::Delivered);
    for (const FlowProbe::Span &s : m.flows()->sampledSpans()) {
        if (s.meta.src_node == 0 && s.meta.dst_node == 7)
            return s.path;
    }
    ADD_FAILURE() << "the corner-to-corner packet left no span";
    return {};
}

TEST(LookaheadTrace, SampledPacketAcrossLanesLogsHopsInCanonicalOrder)
{
    // Each unit appends its hop to the packet's own log from the shard
    // that ticks it, so at 4 threads the path is written from several
    // lanes; window auto runs 12 cycles per barrier. The log must still
    // read as a serial window-1 run records it: chronological, every
    // hop once.
    const std::vector<FlowHopRecord> want = cornerToCornerSpan(1, 1);
    const std::vector<FlowHopRecord> got = cornerToCornerSpan(4, 0);
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(want.front().kind, FlowUnitKind::Endpoint);
    int links = 0;
    std::vector<std::int32_t> nodes;
    for (std::size_t i = 0; i < want.size(); ++i) {
        if (i > 0)
            EXPECT_LT(want[i - 1].cycle, want[i].cycle) << "hop " << i;
        links += want[i].kind == FlowUnitKind::Link ? 1 : 0;
        if (nodes.empty() || nodes.back() != want[i].node)
            nodes.push_back(want[i].node);
    }
    EXPECT_EQ(links, 3);
    EXPECT_EQ(nodes.size(), 4u) << "the path crosses four chips";
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].kind, want[i].kind) << "hop " << i;
        EXPECT_EQ(got[i].node, want[i].node) << "hop " << i;
        EXPECT_EQ(got[i].unit, want[i].unit) << "hop " << i;
        EXPECT_EQ(got[i].port, want[i].port) << "hop " << i;
        EXPECT_EQ(got[i].vc, want[i].vc) << "hop " << i;
        EXPECT_EQ(got[i].arrival, want[i].arrival) << "hop " << i;
        EXPECT_EQ(got[i].grant, want[i].grant) << "hop " << i;
        EXPECT_EQ(got[i].cycle, want[i].cycle) << "hop " << i;
    }
}

// ---------------------------------------------------------------------
// Machine window computation
// ---------------------------------------------------------------------

MachineConfig
smallConfig(Cycle latency, Cycle lookahead)
{
    MachineConfig cfg;
    cfg.radix = { 2, 2, 2 };
    cfg.chip.endpoints_per_node = 2;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = latency;
    cfg.seed = 11;
    cfg.lookahead = lookahead;
    return cfg;
}

TEST(LookaheadWindow, AutoWindowIsMinTorusLatencyAndClamps)
{
    // Default lookahead = 1: the legacy per-cycle engine.
    {
        Machine m(smallConfig(20, 1));
        EXPECT_EQ(m.lookaheadCap(), 20u);
        EXPECT_EQ(m.lookaheadWindow(), 1u);
    }
    // 0 = auto: the machine's safe bound, the min torus link latency.
    {
        Machine m(smallConfig(20, 0));
        EXPECT_EQ(m.lookaheadWindow(), 20u);
    }
    // Explicit windows pass through below the cap and clamp above it.
    {
        Machine m(smallConfig(20, 5));
        EXPECT_EQ(m.lookaheadWindow(), 5u);
        m.setLookahead(100);
        EXPECT_EQ(m.lookaheadWindow(), 20u);
        m.setLookahead(3);
        EXPECT_EQ(m.lookaheadWindow(), 3u);
        m.setLookahead(0);
        EXPECT_EQ(m.lookaheadWindow(), 20u);
    }
    // k = 1 torus links degenerate to per-cycle barriers even on auto.
    {
        Machine m(smallConfig(1, 0));
        EXPECT_EQ(m.lookaheadCap(), 1u);
        EXPECT_EQ(m.lookaheadWindow(), 1u);
    }
}

TEST(LookaheadWindow, PackagingDerivedWindowIsMinOverMixedLatencies)
{
    MachineConfig cfg;
    cfg.radix = { 8, 4, 2 };
    cfg.chip.endpoints_per_node = 2;
    cfg.use_packaging = true; // backplane/rack-dependent link latencies
    cfg.seed = 11;
    cfg.lookahead = 0;
    Machine m(cfg);

    const TorusGeom geom(cfg.radix);
    Cycle expect = kNoCycle;
    for (NodeId n = 0; n < geom.numNodes(); ++n) {
        for (int dim = 0; dim < 3; ++dim) {
            for (Dir dir : kDirs) {
                const Cycle l =
                    cfg.packaging.linkLatency(geom, n, dim, dir);
                if (l < expect)
                    expect = l;
            }
        }
    }
    ASSERT_NE(expect, kNoCycle);
    EXPECT_EQ(m.lookaheadCap(), expect);
    EXPECT_EQ(m.lookaheadWindow(), expect);
    EXPECT_GT(m.lookaheadWindow(), 1u)
        << "packaging latencies should allow a real window";
}

// ---------------------------------------------------------------------
// Byte-identity across threads and windows
// ---------------------------------------------------------------------

/** Every deterministic export a fully-instrumented run produces. */
struct RunExports
{
    std::uint64_t delivered = 0;
    Cycle final_cycle = 0;
    std::string metrics;
    std::string flows;
    std::string chrome;
    std::string flights;
    std::string timeseries;
    std::string heatmap;
    std::string audit;
};

void
expectIdentical(const RunExports &a, const RunExports &b,
                const std::string &what)
{
    EXPECT_EQ(a.delivered, b.delivered) << what;
    EXPECT_EQ(a.final_cycle, b.final_cycle) << what;
    EXPECT_EQ(a.metrics, b.metrics) << what << ": metrics JSON differs";
    EXPECT_EQ(a.flows, b.flows) << what << ": flow matrix differs";
    EXPECT_EQ(a.chrome, b.chrome) << what << ": Chrome trace differs";
    EXPECT_EQ(a.flights, b.flights) << what << ": flight CSV differs";
    EXPECT_EQ(a.timeseries, b.timeseries)
        << what << ": time-series JSON differs";
    EXPECT_EQ(a.heatmap, b.heatmap) << what << ": heatmap CSV differs";
    EXPECT_EQ(a.audit, b.audit) << what << ": audit report differs";
}

Instrumentation
fullInstrumentation(bool with_trace = true)
{
    Instrumentation inst;
    inst.metrics = true;
    if (with_trace) {
        TraceConfig tcfg;
        tcfg.capacity = std::size_t{ 1 } << 16;
        inst.trace = tcfg;
    }
    TimeseriesConfig scfg;
    scfg.window = 64;
    scfg.per_router = true;
    inst.timeseries = scfg;
    AuditConfig acfg;
    acfg.audit_interval = 32;
    acfg.watchdog_interval = 16;
    inst.audit = acfg;
    return inst;
}

RunExports
captureExports(Machine &m)
{
    RunExports r;
    r.delivered = m.totalDelivered();
    r.final_cycle = m.now();
    r.metrics = m.metricsJson();
    if (m.flows() != nullptr)
        r.flows = m.flowMatrixCsv();
    if (m.trace() != nullptr) {
        r.chrome = m.traceChromeJson();
        r.flights = m.traceFlightCsv();
    }
    r.timeseries = m.timeseriesJson();
    r.heatmap = m.heatmapCsv();
    r.audit = m.audit()->reportJson();
    return r;
}

/** Figure 9-style throughput workload: uniform batch over all cores,
 * full instrumentation, driver injections from the chips' shards. */
RunExports
runFig9Style(int threads, Cycle lookahead)
{
    MachineConfig cfg;
    cfg.radix = { 2, 2, 2 };
    cfg.chip.endpoints_per_node = 2;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 8;
    cfg.seed = 11;
    cfg.threads = threads;
    cfg.lookahead = lookahead;
    Machine m(cfg);
    m.attachInstrumentation(fullInstrumentation());

    UniformPattern pat(m.geom());
    BatchDriver::Config dcfg;
    dcfg.cores = { 0, 1 };
    dcfg.batch_size = 12;
    dcfg.pattern = &pat;
    BatchDriver driver(m, dcfg);
    m.engine().add(driver);

    EXPECT_TRUE(driver.run(1000000))
        << "threads=" << threads << " lookahead=" << lookahead;
    EXPECT_TRUE(m.run(RunSpec::untilQuiescent(100000)).ok())
        << "threads=" << threads << " lookahead=" << lookahead;
    return captureExports(m);
}

TEST(LookaheadDeterminism, Fig9ExportsByteIdenticalAcrossThreads)
{
    // Neither the thread count nor the window is observable.
    const RunExports base = runFig9Style(1, 1);
    EXPECT_GT(base.delivered, 0u);
    EXPECT_NE(base.metrics.find("\"delivered\""), std::string::npos);
    for (Cycle lookahead : { Cycle{ 1 }, Cycle{ 0 } }) {
        for (int threads : { 1, 2, 4 }) {
            if (threads == 1 && lookahead == 1)
                continue;
            expectIdentical(base, runFig9Style(threads, lookahead),
                            "fig9 lookahead=" + std::to_string(lookahead)
                                + " threads=" + std::to_string(threads));
        }
    }
}

/**
 * Every feedback path at once, all of it reacting to the network
 * within the window: a blended batch driver (its injectors tick in the
 * chips' shards), pre-injected read requests whose replies leave from
 * the target's shard at the delivery cycle, and a counted-write
 * ping-pong whose handlers answer, re-arm and issue reads in their own
 * endpoints' shards. Full instrumentation plus the flow probe.
 */
RunExports
runWithFeedback(int threads, Cycle lookahead)
{
    MachineConfig cfg;
    cfg.radix = { 2, 2, 2 };
    cfg.chip.endpoints_per_node = 4;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 12;
    cfg.seed = 9;
    cfg.threads = threads;
    cfg.lookahead = lookahead;
    Machine m(cfg);
    Instrumentation inst = fullInstrumentation();
    inst.flows = FlowProbeConfig{};
    m.attachInstrumentation(inst);

    UniformPattern uniform(m.geom());
    NHopNeighborPattern near(m.geom(), 1);
    BatchDriver::Config dcfg;
    dcfg.cores = { 0, 1 };
    dcfg.batch_size = 10;
    dcfg.pattern = &uniform;
    dcfg.pattern2 = &near;
    dcfg.blend_fraction2 = 0.3;
    BatchDriver driver(m, dcfg);
    m.engine().add(driver);

    for (NodeId n = 0; n < m.geom().numNodes(); ++n)
        m.send(m.makeRead({ n, 2 }, { (n + 3) % m.geom().numNodes(), 2 }));

    const EndpointAddr a{ 0, 3 };
    const EndpointAddr b{ 7, 3 };
    const int rounds = 4;
    int completed = 0;
    int pongs = 0;
    m.endpoint(b).setHandlerFn([&](std::int32_t, Cycle) {
        m.send(m.makeWrite(b, a, 0, 1, /*counter=*/2));
        if (++pongs < rounds)
            m.endpoint(b).armCounter(1, 1);
    });
    m.endpoint(a).setHandlerFn([&](std::int32_t, Cycle) {
        m.send(m.makeRead(a, { 5, 3 }));
        if (++completed >= rounds)
            return;
        m.endpoint(a).armCounter(2, 1);
        m.send(m.makeWrite(a, b, 0, 2, /*counter=*/1));
    });
    m.endpoint(b).armCounter(1, 1);
    m.endpoint(a).armCounter(2, 1);
    m.send(m.makeWrite(a, b, 0, 2, /*counter=*/1));

    EXPECT_TRUE(driver.run(1000000))
        << "threads=" << threads << " lookahead=" << lookahead;
    EXPECT_TRUE(m.run(RunSpec::untilQuiescent(100000)).ok())
        << "threads=" << threads << " lookahead=" << lookahead;
    EXPECT_EQ(completed, rounds);
    m.endpoint(a).setHandlerFn(nullptr);
    m.endpoint(b).setHandlerFn(nullptr);
    return captureExports(m);
}

TEST(LookaheadDeterminism, FeedbackRunsByteIdenticalAcrossWindows)
{
    const RunExports base = runWithFeedback(1, 1);
    EXPECT_GT(base.delivered, 0u);
    for (int threads : { 1, 2, 4 }) {
        for (Cycle lookahead : { Cycle{ 1 }, Cycle{ 0 }, Cycle{ 5 } }) {
            if (threads == 1 && lookahead == 1)
                continue;
            expectIdentical(base, runWithFeedback(threads, lookahead),
                            "feedback threads=" + std::to_string(threads)
                                + " lookahead="
                                + std::to_string(lookahead));
        }
    }
}

/** What two ping-pong pairs' handlers accumulate in shared host state. */
struct SharedHandlerState
{
    std::uint64_t pairs_done = 0;
    std::uint64_t round_trip_sum = 0;
    std::uint64_t sent = 0;
    Cycle last_done = 0;
    std::uint64_t delivered = 0;

    bool
    operator==(const SharedHandlerState &o) const
    {
        return pairs_done == o.pairs_done
               && round_trip_sum == o.round_trip_sum && sent == o.sent
               && last_done == o.last_done && delivered == o.delivered;
    }
};

/**
 * Two counted-write ping-pong pairs whose handlers update the same
 * plain (unsynchronized) counters, and whose A-side handlers arm the
 * B node's counter on another chip - the shape of a benchmark that
 * keeps its totals in shared host variables. The pairs' endpoints sit
 * on chips in different halves of the machine, so at 2 and 4 threads
 * their handlers belong to different lanes.
 */
SharedHandlerState
runSharedStatePingPong(int threads, Cycle lookahead)
{
    MachineConfig cfg;
    cfg.radix = { 2, 2, 2 };
    cfg.chip.endpoints_per_node = 4;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 12;
    cfg.seed = 3;
    cfg.threads = threads;
    cfg.lookahead = lookahead;
    Machine m(cfg);

    struct Pair
    {
        EndpointAddr a, b;
        Cycle round_start = 0;
        int rounds = 0;
    };
    Pair pairs[2] = { { { 0, 1 }, { 7, 2 } }, { { 6, 1 }, { 1, 2 } } };
    const int rounds = 5;
    SharedHandlerState st;
    auto ping = [&](Pair &p, Cycle now) {
        m.endpoint(p.b).armCounter(1, 1);
        m.endpoint(p.a).armCounter(2, 1);
        p.round_start = now;
        m.send(m.makeWrite(p.a, p.b, 0, 1, /*counter=*/1));
        ++st.sent;
    };
    for (Pair &p : pairs) {
        m.endpoint(p.b).setHandlerFn([&, pp = &p](std::int32_t, Cycle) {
            m.send(m.makeWrite(pp->b, pp->a, 0, 1, /*counter=*/2));
            ++st.sent;
        });
        m.endpoint(p.a).setHandlerFn([&, pp = &p](std::int32_t, Cycle now) {
            st.round_trip_sum += now - pp->round_start;
            if (++pp->rounds < rounds) {
                ping(*pp, now);
            } else {
                ++st.pairs_done;
                st.last_done = now;
            }
        });
    }
    for (Pair &p : pairs)
        ping(p, m.now());
    RunSpec spec;
    spec.max_cycles = 100000;
    spec.stop = [&] { return st.pairs_done == 2; };
    EXPECT_TRUE(m.run(spec).ok())
        << "threads=" << threads << " lookahead=" << lookahead;
    for (Pair &p : pairs) {
        m.endpoint(p.a).setHandlerFn(nullptr);
        m.endpoint(p.b).setHandlerFn(nullptr);
    }
    st.delivered = m.totalDelivered();
    return st;
}

TEST(LookaheadDeterminism, HandlersSharingHostStateAreExactAtAnyThreadCount)
{
    const SharedHandlerState base = runSharedStatePingPong(1, 1);
    EXPECT_EQ(base.pairs_done, 2u);
    EXPECT_EQ(base.sent, 2u * 5 * 2);
    EXPECT_GT(base.last_done, 0u);
    for (int threads : { 1, 2, 4 }) {
        for (Cycle lookahead : { Cycle{ 1 }, Cycle{ 0 } }) {
            const SharedHandlerState got =
                runSharedStatePingPong(threads, lookahead);
            EXPECT_TRUE(got == base)
                << "threads=" << threads << " lookahead=" << lookahead
                << ": round_trip_sum " << got.round_trip_sum << " vs "
                << base.round_trip_sum << ", last_done " << got.last_done
                << " vs " << base.last_done;
        }
    }
}

// ---------------------------------------------------------------------
// Property test: seeded randomized configs
// ---------------------------------------------------------------------

TEST(LookaheadDeterminism, RandomizedConfigsSerialVsThreadedByteEqual)
{
    const std::vector<std::vector<int>> radixes{
        { 2, 2, 2 }, { 4, 2, 2 }, { 2, 3, 2 }, { 3, 2, 2 }
    };
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        Rng gen(seed * 2654435761ULL + 3);
        MachineConfig cfg;
        cfg.radix = radixes[gen.below(radixes.size())];
        cfg.chip.endpoints_per_node = gen.below(2) == 0 ? 2 : 4;
        cfg.use_packaging = false;
        cfg.fixed_torus_latency = 2 + static_cast<Cycle>(gen.below(19));
        cfg.seed = seed;
        // Tracing on even seeds only: traced machines pin the staged
        // trace path, untraced ones let idle routers sleep.
        const bool with_trace = seed % 2 == 0;

        auto run = [&](int threads, Cycle lookahead) {
            MachineConfig c = cfg;
            c.threads = threads;
            c.lookahead = lookahead;
            Machine m(c);
            m.attachInstrumentation(fullInstrumentation(with_trace));
            Rng traffic(seed * 1315423911ULL + 7);
            const auto nodes =
                static_cast<std::uint64_t>(m.geom().numNodes());
            const auto eps = static_cast<std::uint64_t>(
                cfg.chip.endpoints_per_node);
            for (int i = 0; i < 150; ++i) {
                const EndpointAddr src{
                    static_cast<NodeId>(traffic.below(nodes)),
                    static_cast<int>(traffic.below(eps))
                };
                const EndpointAddr dst{
                    static_cast<NodeId>(traffic.below(nodes)),
                    static_cast<int>(traffic.below(eps))
                };
                if (src.node == dst.node)
                    continue;
                const int size = 1 + static_cast<int>(traffic.below(2));
                m.send(m.makeWrite(src, dst, 0, size));
            }
            m.run(RunSpec::forCycles(1536));
            EXPECT_FALSE(m.audit()->tripped())
                << "seed=" << seed << " threads=" << threads;
            return captureExports(m);
        };

        const RunExports base = run(1, 1);
        EXPECT_GT(base.delivered, 0u) << "seed=" << seed;
        const std::string tag =
            "seed=" + std::to_string(seed) + " latency="
            + std::to_string(cfg.fixed_torus_latency);
        expectIdentical(base, run(1, 0), tag + " serial windowed");
        expectIdentical(base, run(2, 0), tag + " threads=2 windowed");
        expectIdentical(base, run(4, 0), tag + " threads=4 windowed");
    }
}

// ---------------------------------------------------------------------
// Seeded-fault watchdog equality under lookahead
// ---------------------------------------------------------------------

/** Route @p count forced X+ slice-0 packets from @p src to @p dst. */
std::uint64_t
sendForcedXPlus(Machine &m, NodeId src, NodeId dst, int count, Rng &tie)
{
    std::uint64_t sent = 0;
    for (int i = 0; i < count; ++i) {
        auto pkt = m.makeWrite({ src, i % 4 }, { dst, 1 }, 0, 2);
        pkt->route = makeRoute(m.geom(), src, dst, DimOrder{ 0, 1, 2 }, 0,
                               tie);
        pkt->route.dirs[0] = Dir::Pos;
        pkt->vc = VcState(m.config().chip.vc_policy);
        m.chip(src).setExit(*pkt, nextRouteDim(m.geom(), src, dst,
                                               pkt->route));
        m.send(pkt);
        ++sent;
    }
    return sent;
}

TEST(LookaheadDeterminism, FaultedWatchdogTripsAtSameCycleUnderLookahead)
{
    // The trip cycle and snapshot must agree across thread counts *and*
    // windows, and so must the full report (the run loop's default
    // stride does not depend on the window).
    Cycle ref_trip = 0;
    std::string ref_report;
    bool have_ref = false;
    for (Cycle lookahead : { Cycle{ 1 }, Cycle{ 0 } }) {
        for (int threads : { 1, 2, 4 }) {
            MachineConfig cfg;
            cfg.radix = { 4, 2, 2 };
            cfg.chip.endpoints_per_node = 4;
            cfg.use_packaging = false;
            cfg.fixed_torus_latency = 12;
            cfg.seed = 7;
            cfg.threads = threads;
            cfg.lookahead = lookahead;
            Machine m(cfg);

            Instrumentation inst;
            inst.metrics = true;
            NetworkFault fault;
            fault.kind = NetworkFault::Kind::WithholdTorusCredits;
            fault.node = 0;
            inst.faults.push_back(fault);
            AuditConfig acfg;
            acfg.audit_interval = 32;
            acfg.watchdog_interval = 16;
            acfg.stall_threshold = 300;
            inst.audit = acfg;
            m.attachInstrumentation(inst);

            Rng tie(3);
            const NodeId dst = m.geom().id({ 2, 0, 0 });
            const auto sent = sendForcedXPlus(m, 0, dst, 40, tie);
            EXPECT_FALSE(m.run(RunSpec::untilDelivered(sent, 100000)).reason == StopReason::Delivered)
                << "threads=" << threads << " lookahead=" << lookahead;

            Auditor &a = *m.audit();
            ASSERT_TRUE(a.tripped())
                << "threads=" << threads << " lookahead=" << lookahead;
            const MachineSnapshot *snap = a.tripSnapshot();
            ASSERT_NE(snap, nullptr);
            if (!have_ref) {
                ref_trip = snap->now;
                ref_report = a.reportJson();
                have_ref = true;
                EXPECT_GT(ref_trip, 0u);
            } else {
                EXPECT_EQ(snap->now, ref_trip)
                    << "threads=" << threads
                    << " lookahead=" << lookahead;
                EXPECT_EQ(a.reportJson(), ref_report)
                    << "threads=" << threads
                    << " lookahead=" << lookahead;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Pinned 8x8x8 short-run regression (200 open-loop cycles)
// ---------------------------------------------------------------------

/** 8x8x8, 8 endpoints per chip, 4 cores injecting uniform traffic
 * open-loop at 60% of the analytic saturation point for 200 cycles;
 * returns the delivered count. */
std::uint64_t
runBenchLoad8x8x8(int threads, Cycle lookahead)
{
    const std::vector<int> radix{ 8, 8, 8 };

    // The bench's default rate: 60% of the analytic saturation point.
    ChipConfig chip;
    chip.endpoints_per_node = 8;
    const TorusGeom geom(radix);
    const ChipLayout layout(8, 3);
    LoadModel lm(geom, layout, chip, 1);
    Rng lrng(2);
    UniformPattern uniform(geom);
    lm.addPattern(0, uniform, firstEndpoints(4), 300, lrng);
    const double rate = 0.6 * lm.idealCoreThroughput(0);

    MachineConfig cfg;
    cfg.radix = radix;
    cfg.chip.endpoints_per_node = 8;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 20;
    cfg.seed = 17;
    cfg.threads = threads;
    cfg.lookahead = lookahead;
    Machine m(cfg);

    UniformPattern pat(m.geom());
    OpenLoopDriver::Config dcfg;
    dcfg.cores = firstEndpoints(4);
    dcfg.rate = rate;
    dcfg.pattern = &pat;
    OpenLoopDriver driver(m, dcfg);
    m.engine().add(driver);

    m.run(RunSpec::forCycles(200));
    EXPECT_EQ(m.now(), 200u);
    return m.totalDelivered();
}

TEST(LookaheadRegression, BenchHostSpeed8x8x8DeliveredCountIsPinned)
{
    // Pinned from the first run with per-chip random streams; a change
    // here means the simulated machine itself changed, not just its
    // speed. The window and the thread count must not move it.
    constexpr std::uint64_t kExpectedDelivered = 2431;
    const std::uint64_t serial = runBenchLoad8x8x8(1, 0);
    EXPECT_EQ(serial, kExpectedDelivered);
    EXPECT_EQ(runBenchLoad8x8x8(4, 0), serial)
        << "threaded 8x8x8 short run diverged from serial";
    EXPECT_EQ(runBenchLoad8x8x8(1, 1), serial)
        << "window-1 8x8x8 short run diverged from window auto";
}

} // namespace
} // namespace anton2
