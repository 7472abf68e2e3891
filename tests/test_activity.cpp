/**
 * @file
 * Activity suite: the engine ticks only components that have work.
 *
 * Routers, channel adapters and endpoints go to sleep at the end of a
 * tick in which they hold nothing and no wire attached to them carries
 * anything; a send on one of their wires (or a host-side mutation such
 * as an injection) wakes them, and the first tick after a wake replays
 * the skipped idle cycles through Component::onIdleSkip. The contract
 * is exactness: no simulated bit may depend on which components slept.
 *
 * What is pinned here:
 *  - a golden mixed run - counted-write ping-pong pairs with handler
 *    replies, read requests, and an open-loop burst that drains to idle
 *    and restarts - reproduces the delivery count, completion cycle,
 *    latency sum, flit hops, quiescence cycle and (with tracing bound)
 *    every router's stall totals of a build that ticked every component
 *    every cycle, at threads {1,2,4} x lookahead {1,auto} - one golden
 *    for the whole grid;
 *  - after every cycle of a mixed run, every sleeping component is
 *    !busy() with no wire into it in flight, and on an idle-heavy
 *    machine the awake count stays far below the component count;
 *  - a checkpoint saved while most components sleep is byte-identical
 *    to the per-cycle build's image, and resuming from it matches the
 *    uninterrupted run;
 *  - engine level: a cross-shard wake that waits in the inbox until
 *    the barrier yet reaches its receiver before the delivery cycle
 *    (the single-component schedule, and shards wider than one mask
 *    word, are pinned in test_lookahead.cpp).
 */
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/machine.hpp"
#include "debug/checkpoint.hpp"
#include "sim/engine.hpp"
#include "sim/wire.hpp"
#include "traffic/driver.hpp"
#include "traffic/patterns.hpp"

namespace anton2 {
namespace {

// ---------------------------------------------------------------------
// Golden mixed run
// ---------------------------------------------------------------------

MachineConfig
mixedConfig(int threads, Cycle lookahead)
{
    MachineConfig cfg;
    cfg.radix = { 4, 4, 4 };
    cfg.chip.endpoints_per_node = 4;
    cfg.use_packaging = true;
    cfg.seed = 11;
    cfg.threads = threads;
    cfg.lookahead = lookahead;
    return cfg;
}

/** Everything the golden run pins. */
struct MixedOutcome
{
    std::uint64_t delivered = 0;
    Cycle completion = 0;
    std::uint64_t latency_sum = 0;
    std::uint64_t flit_hops = 0;
    std::uint64_t round_trips = 0;
    std::uint64_t round_trip_sum = 0;
    Cycle drained_at = 0; ///< first quiescence (burst drained)
    Cycle end = 0;        ///< second quiescence (end of run)
    /** Machine-wide stall totals per class (traced runs only). */
    std::array<std::uint64_t, kNumStallClasses> stalls{};
    /** FNV-1a over every router's per-port class totals, in router
     * order (traced runs only). */
    std::uint64_t stall_digest = 0;
};

/** Closed-loop ping-pong pair: a counted write A -> B fires B's
 * handler, which replies B -> A; A's handler closes the round, issues a
 * read request to @p reader, and starts the next round. Each handler
 * runs in its own endpoint's shard and touches only its own side's
 * fields, endpoint and counters. */
struct PingPair
{
    EndpointAddr a, b, reader;
    int rounds_left = 0;   ///< A side
    Cycle round_start = 0; ///< A side
    std::uint64_t round_trips = 0;    ///< A side
    std::uint64_t round_trip_sum = 0; ///< A side
    int pongs_left = 0;    ///< B side
};

class MixedRun
{
  public:
    MixedRun(int threads, Cycle lookahead, bool traced)
        : m_(mixedConfig(threads, lookahead)), uniform_(m_.geom())
    {
        if (traced) {
            Instrumentation inst;
            TraceConfig tcfg;
            tcfg.capacity = std::size_t{ 1 } << 12;
            inst.trace = tcfg;
            m_.attachInstrumentation(inst);
        }
        pairs_ = {
            { { 0, 0 }, { 63, 1 }, { 21, 2 } },
            { { 5, 2 }, { 6, 3 }, { 40, 0 } },
            { { 17, 0 }, { 42, 2 }, { 9, 1 } },
            { { 30, 1 }, { 33, 3 }, { 54, 2 } },
        };
        for (PingPair &p : pairs_) {
            m_.endpoint(p.b).setHandlerFn([this, pp = &p](std::int32_t,
                                                          Cycle) {
                m_.send(m_.makeWrite(pp->b, pp->a, 0, 1, /*counter=*/2));
                if (--pp->pongs_left > 0)
                    m_.endpoint(pp->b).armCounter(1, 1);
            });
            m_.endpoint(p.a).setHandlerFn([this, pp = &p](std::int32_t,
                                                          Cycle now) {
                ++pp->round_trips;
                pp->round_trip_sum += now - pp->round_start;
                m_.send(m_.makeRead(pp->a, pp->reader));
                if (--pp->rounds_left > 0) {
                    m_.endpoint(pp->a).armCounter(2, 1);
                    ping(*pp, now);
                }
            });
        }
        OpenLoopDriver::Config dcfg;
        dcfg.cores = { 0, 1, 2, 3 };
        dcfg.rate = 0.01;
        dcfg.size_flits = 2;
        dcfg.pattern = &uniform_;
        driver_ = std::make_unique<OpenLoopDriver>(m_, dcfg);
        m_.engine().add(*driver_);
    }

    Machine &machine() { return m_; }

    /** Take over @p other's host-side ping state (a resumed run's
     * handlers must continue where the saved run's left off; the
     * checkpoint carries only the machine). */
    void
    adoptHostState(const MixedRun &other)
    {
        for (std::size_t i = 0; i < pairs_.size(); ++i) {
            pairs_[i].rounds_left = other.pairs_[i].rounds_left;
            pairs_[i].round_start = other.pairs_[i].round_start;
            pairs_[i].round_trips = other.pairs_[i].round_trips;
            pairs_[i].round_trip_sum = other.pairs_[i].round_trip_sum;
            pairs_[i].pongs_left = other.pairs_[i].pongs_left;
        }
        out_ = other.out_;
    }
    OpenLoopDriver &driver() { return *driver_; }

    /** Start @p rounds rounds on every pair. */
    void
    startPings(int rounds)
    {
        for (PingPair &p : pairs_) {
            p.rounds_left = rounds;
            p.pongs_left = rounds;
            m_.endpoint(p.b).armCounter(1, 1);
            m_.endpoint(p.a).armCounter(2, 1);
            ping(p, m_.now());
        }
    }

    /** The whole golden schedule: burst + pings, drain to idle, a
     * second burst + pings, drain again. */
    MixedOutcome
    runAll()
    {
        startPings(2);
        m_.run(RunSpec::forCycles(300));
        driver_->setEnabled(false);
        m_.run(RunSpec::untilQuiescent(40000));
        out_.drained_at = m_.now();
        // Restart from idle: everything must wake again.
        driver_->setEnabled(true);
        startPings(1);
        m_.run(RunSpec::forCycles(200));
        driver_->setEnabled(false);
        m_.run(RunSpec::untilQuiescent(40000));
        return finish();
    }

    MixedOutcome
    finish()
    {
        out_.end = m_.now();
        out_.round_trips = 0;
        out_.round_trip_sum = 0;
        for (const PingPair &p : pairs_) {
            out_.round_trips += p.round_trips;
            out_.round_trip_sum += p.round_trip_sum;
        }
        out_.delivered = m_.totalDelivered();
        out_.completion = m_.lastDeliveryTime();
        out_.latency_sum =
            static_cast<std::uint64_t>(m_.latencyStat().sum());
        const RouterId routers =
            static_cast<RouterId>(m_.layout().numRouters());
        std::uint64_t h = 0xcbf29ce484222325ULL;
        for (NodeId n = 0; n < m_.geom().numNodes(); ++n) {
            for (RouterId r = 0; r < routers; ++r) {
                const Router &router = m_.chip(n).router(r);
                out_.flit_hops += router.flitsRouted();
                const RouterStallSampler *s = router.stallSampler();
                if (s == nullptr)
                    continue;
                for (const PortStallTotals &port : s->ports) {
                    for (int c = 0; c < kNumStallClasses; ++c) {
                        const std::uint64_t v =
                            port.cycles[static_cast<std::size_t>(c)];
                        out_.stalls[static_cast<std::size_t>(c)] += v;
                        for (int i = 0; i < 8; ++i) {
                            h ^= (v >> (8 * i)) & 0xffu;
                            h *= 0x100000001b3ULL;
                        }
                    }
                }
            }
        }
        out_.stall_digest = h;
        return out_;
    }

  private:
    /** Issue A's ping (counters already armed). */
    void
    ping(PingPair &p, Cycle now)
    {
        p.round_start = now;
        m_.send(m_.makeWrite(p.a, p.b, 0, 1, /*counter=*/1));
    }

    Machine m_;
    UniformPattern uniform_;
    std::vector<PingPair> pairs_;
    std::unique_ptr<OpenLoopDriver> driver_;
    MixedOutcome out_;
};

/** The golden values, from a build that ticked every component every
 * cycle; identical at threads {1, 2, 4} x lookahead {1, auto}, since
 * handler and driver injections run in their chips' shards. */
MixedOutcome
golden()
{
    MixedOutcome g;
    g.round_trips = 12;
    g.delivered = 1265;
    g.completion = 2201;
    g.latency_sum = 250483;
    g.flit_hops = 33474;
    g.round_trip_sum = 4344;
    g.drained_at = 1336;
    g.end = 2239;
    g.stalls = { 33474, 0, 0, 49143, 9661511 };
    g.stall_digest = 0xf226999545dd19bbULL;
    return g;
}

void
expectOutcome(const MixedOutcome &got, const MixedOutcome &want,
              bool traced, const std::string &where)
{
    EXPECT_EQ(got.delivered, want.delivered) << where;
    EXPECT_EQ(got.completion, want.completion) << where;
    EXPECT_EQ(got.latency_sum, want.latency_sum) << where;
    EXPECT_EQ(got.flit_hops, want.flit_hops) << where;
    EXPECT_EQ(got.round_trips, want.round_trips) << where;
    EXPECT_EQ(got.round_trip_sum, want.round_trip_sum) << where;
    EXPECT_EQ(got.drained_at, want.drained_at) << where;
    EXPECT_EQ(got.end, want.end) << where;
    if (!traced)
        return;
    for (int c = 0; c < kNumStallClasses; ++c) {
        EXPECT_EQ(got.stalls[static_cast<std::size_t>(c)],
                  want.stalls[static_cast<std::size_t>(c)])
            << where << " stall class " << c;
    }
    EXPECT_EQ(got.stall_digest, want.stall_digest) << where;
}

void
expectGoldenGrid(bool traced)
{
    for (Cycle lookahead : { Cycle{ 1 }, Cycle{ 0 } }) {
        for (int threads : { 1, 2, 4 }) {
            MixedRun run(threads, lookahead, traced);
            expectOutcome(run.runAll(), golden(), traced,
                          "threads=" + std::to_string(threads)
                              + " lookahead="
                              + std::to_string(lookahead));
        }
    }
}

TEST(Activity, GoldenMixedRunMatchesPerCycleBuild)
{
    expectGoldenGrid(/*traced=*/false);
}

TEST(Activity, GoldenTracedStallTotalsMatchPerCycleBuild)
{
    // Traced routers sleep too: their stall samplers replay the idle
    // span on wake, so the totals match a build that ticked everything.
    expectGoldenGrid(/*traced=*/true);
}

// ---------------------------------------------------------------------
// Sleep invariants
// ---------------------------------------------------------------------

/** Counts sleeping components that break the sleep contract. */
struct SleepAudit
{
    std::uint64_t asleep = 0;     ///< sleeping component observations
    std::uint64_t violations = 0; ///< ... that were busy or had input
    std::string first;            ///< the first violation, named

    void
    check(const Component &c, bool inbound_in_flight, Cycle now)
    {
        if (!c.asleep())
            return;
        ++asleep;
        if (!c.busy() && !inbound_in_flight)
            return;
        if (violations++ == 0)
            first = c.name() + " at cycle " + std::to_string(now)
                    + (c.busy() ? " busy" : " with input in flight");
    }

    void
    audit(Machine &m)
    {
        const Cycle now = m.now();
        for (NodeId n = 0; n < m.geom().numNodes(); ++n) {
            const Chip &chip = m.chip(n);
            for (RouterId r = 0; r < m.layout().numRouters(); ++r) {
                const Router &router = chip.router(r);
                bool in = false;
                for (int p = 0; p < kRouterPorts; ++p) {
                    if (router.inConnected(p))
                        in |= router.inChannel(p)->data.busy();
                    if (router.outConnected(p))
                        in |= router.outChannel(p)->credit.busy();
                }
                check(router, in, now);
            }
            for (int a = 0; a < m.layout().numChannelAdapters(); ++a) {
                const ChannelAdapter &ca = chip.channelAdapter(a);
                const bool in = ca.routerIn()->data.busy()
                                || ca.routerOut()->credit.busy()
                                || ca.torusIn()->data.busy()
                                || ca.torusOut()->credit.busy();
                check(ca, in, now);
            }
            for (EndpointId e = 0; e < m.layout().numEndpoints(); ++e) {
                const EndpointAdapter &ep = chip.endpoint(e);
                check(ep,
                      ep.fromRouter()->data.busy()
                          || ep.toRouter()->credit.busy(),
                      now);
            }
        }
    }
};

TEST(Activity, SleepersAreNeverBusyAfterAnyCycle)
{
    for (Cycle lookahead : { Cycle{ 1 }, Cycle{ 0 } }) {
        MixedRun run(2, lookahead, /*traced=*/false);
        Machine &m = run.machine();
        SleepAudit audit;
        run.startPings(1);
        // Burst, then drain to idle and keep the pings going: advance
        // one window at a time and audit at every window boundary (at
        // lookahead 1, after every cycle).
        while (m.now() < 1500) {
            if (m.now() >= 150)
                run.driver().setEnabled(false);
            m.engine().advance(m.lookaheadWindow());
            audit.audit(m);
        }
        const std::string where = "lookahead=" + std::to_string(lookahead);
        EXPECT_EQ(audit.violations, 0u) << where << ": " << audit.first;
        EXPECT_GT(audit.asleep, 0u) << where;
    }
}

TEST(Activity, IdleHeavyMachineKeepsFewComponentsAwake)
{
    // Ping-pong and read requests only: a handful of packets in
    // flight on 64 chips.
    MixedRun run(1, 1, /*traced=*/false);
    Machine &m = run.machine();
    run.driver().setEnabled(false);
    run.startPings(2);
    const std::size_t components =
        m.engine().componentCount() - 1; // minus the serial-tail driver
    std::uint64_t awake = 0;
    Cycle cycles = 0;
    while (m.engine().busy() && cycles < 5000) {
        m.engine().advance(1);
        awake += m.engine().awakeCount();
        ++cycles;
    }
    ASSERT_GT(cycles, 100u);
    const double mean =
        static_cast<double>(awake) / static_cast<double>(cycles);
    EXPECT_LT(mean, 0.05 * static_cast<double>(components))
        << "mean awake " << mean << " of " << components;
    EXPECT_EQ(run.finish().round_trips, 8u);
}

// ---------------------------------------------------------------------
// Engine-level sleep and wake
// ---------------------------------------------------------------------

/** Takes values off a wire; sleeps whenever the wire is empty. */
class WireReader final : public Component
{
  public:
    explicit WireReader(Wire<int> &in) : Component("reader"), in_(in)
    {
        in_.setReceiver(*this, WakePath::Remote);
    }
    void
    tick(Cycle now) override
    {
        if (auto v = in_.take(now))
            got_.push_back({ now, *v });
        if (!in_.busy())
            sleep(now);
    }
    bool busy() const override { return in_.busy(); }
    const std::vector<std::pair<Cycle, int>> &got() const { return got_; }

  private:
    Wire<int> &in_;
    std::vector<std::pair<Cycle, int>> got_;
};

/** Sends its cycle number at the given cycles; never sleeps. */
class WireWriter final : public Component
{
  public:
    WireWriter(Wire<int> &out, std::vector<Cycle> at)
        : Component("writer"), out_(out), at_(std::move(at))
    {
    }
    void
    tick(Cycle now) override
    {
        for (Cycle c : at_) {
            if (c == now)
                out_.send(now, static_cast<int>(now));
        }
    }

  private:
    Wire<int> &out_;
    std::vector<Cycle> at_;
};

TEST(Activity, CrossShardWakeArrivesBeforeDelivery)
{
    // A latency-6 wire between two shards, ticked in windows of 6 on
    // two lanes: the remote wake sits in the receiving shard's inbox
    // until the barrier and still lands before the delivery cycle.
    for (int threads : { 1, 2 }) {
        Wire<int> wire(6, 5);
        WireReader reader(wire);
        WireWriter writer(wire, { 0, 5, 6, 23, 40 });
        Engine e;
        e.setWindow(6);
        e.setThreads(threads);
        const std::size_t s0 = e.newShard();
        const std::size_t s1 = e.newShard();
        e.addSharded(s0, writer);
        e.addSharded(s1, reader);
        e.run(60);
        const std::vector<std::pair<Cycle, int>> want{
            { 6, 0 }, { 11, 5 }, { 12, 6 }, { 29, 23 }, { 46, 40 }
        };
        EXPECT_EQ(reader.got(), want) << "threads=" << threads;
        EXPECT_TRUE(reader.asleep());
    }
}

// ---------------------------------------------------------------------
// Checkpoints of a mostly sleeping machine
// ---------------------------------------------------------------------

std::string
ckptPath(const char *name)
{
    return std::string(::testing::TempDir()) + "activity_" + name + ".bin";
}

std::uint64_t
fileDigest(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
    return ckptHash(bytes.data(), bytes.size());
}

TEST(Activity, SleepingMachineCheckpointMatchesPerCycleImage)
{
    // The image digest from a build that ticked every component every
    // cycle, saved at cycle 600 of a ping-pong-only run; the same at
    // every window.
    constexpr std::uint64_t digest = 0xc1e39efa6cd1b6d7ULL;
    for (Cycle lookahead : { Cycle{ 1 }, Cycle{ 0 } }) {
        const std::string where =
            "lookahead=" + std::to_string(lookahead);
        const std::string path = ckptPath("sleeping");
        MixedRun run(2, lookahead, /*traced=*/false);
        run.driver().setEnabled(false);
        run.startPings(3);
        run.machine().run(RunSpec::forCycles(600));
        EXPECT_LT(run.machine().engine().awakeCount(),
                  run.machine().engine().componentCount() / 4)
            << where << ": most components should sleep at the save";
        run.machine().saveCheckpoint(path);
        EXPECT_EQ(fileDigest(path), digest) << where;

        // Resume in a fresh machine and finish both runs.
        MixedRun resumed(2, lookahead, /*traced=*/false);
        resumed.driver().setEnabled(false);
        resumed.machine().restoreCheckpoint(path);
        resumed.adoptHostState(run);
        run.machine().run(RunSpec::untilQuiescent(40000));
        resumed.machine().run(RunSpec::untilQuiescent(40000));
        const MixedOutcome want = run.finish();
        const MixedOutcome got = resumed.finish();
        expectOutcome(got, want, /*traced=*/false, where);
        EXPECT_EQ(want.round_trips, 12u) << where;
        std::remove(path.c_str());
    }
}

} // namespace
} // namespace anton2
