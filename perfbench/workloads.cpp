/**
 * @file
 * Workload bodies. Every timing here is a span around a public library
 * call, taken from outside the library: the simulator itself is built
 * without any benchmark hooks.
 */
#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <stdexcept>

#include "analysis/loads.hpp"
#include "core/machine.hpp"
#include "stats.hpp"
#include "traffic/driver.hpp"
#include "traffic/patterns.hpp"

namespace perfbench {

using namespace anton2;

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec)
               + 1e-6 * static_cast<double>(tv.tv_usec);
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/** Wraps a serial-tail component (a traffic driver) to time its tick. */
class TimedComponent final : public Component
{
  public:
    explicit TimedComponent(Component &inner)
        : Component(inner.name()), inner_(inner)
    {
    }

    void
    tick(Cycle now) override
    {
        const auto t0 = Clock::now();
        inner_.tick(now);
        seconds_ += since(t0);
    }
    bool busy() const override { return inner_.busy(); }
    void onIdleSkip(Cycle skipped) override { inner_.onIdleSkip(skipped); }

    double seconds() const { return seconds_; }

  private:
    Component &inner_;
    double seconds_ = 0.0;
};

/** State shared by the three workload bodies for one run. */
class RunContext
{
  public:
    RunContext(Mode mode, Observer observer, int threads)
        : mode_(mode), observer_(observer), threads_(threads),
          t0_(Clock::now()), cpu0_(cpuSeconds())
    {
    }

    bool traced() const { return mode_ == Mode::Traced; }
    bool reference() const { return mode_ == Mode::Reference; }
    bool setupOnly() const { return mode_ == Mode::SetupOnly; }

    /** Build the machine. The reference run pins threads = 1 and
     * lookahead = 1; every other run leaves lookahead at the library
     * default so a change of that default is measured, not bypassed. */
    std::unique_ptr<Machine>
    build(MachineConfig cfg)
    {
        cfg.threads = reference() ? 1 : threads_;
        if (reference())
            cfg.lookahead = 1;
        const auto t = Clock::now();
        auto m = std::make_unique<Machine>(cfg);
        layer("core.build_s", since(t));
        return m;
    }

    /** Attach the run's observers: @p own is the workload's default
     * set; the observer-overhead rows replace it. */
    void
    attach(Machine &m, const Instrumentation &own)
    {
        Instrumentation inst;
        switch (reference() ? Observer::None : observer_) {
          case Observer::Default: inst = own; break;
          case Observer::None: break;
          case Observer::Metrics:
            inst.metrics = true;
            inst.metrics_level = MetricsLevel::Machine;
            break;
          case Observer::Flows: inst.flows = FlowProbeConfig{}; break;
          case Observer::Trace: inst.trace = TraceConfig{}; break;
        }
        const auto t = Clock::now();
        m.attachInstrumentation(inst);
        layer("obs.attach_s", since(t));
        if (traced()) {
            Instrumentation prof;
            prof.host_profile = EngineProfileConfig{};
            m.attachInstrumentation(prof);
        }
    }

    /** The simulated cycle set-up ends and the run phase begins. */
    void
    startRun(Machine &m)
    {
        res.setup_s = since(t0_);
        run_start_cycle_ = m.now();
        run_t0_ = Clock::now();
    }

    /** Advance @p m under @p spec. Traced runs advance in one-cycle
     * slices so each Machine::run call is one timing sample; slicing
     * changes no simulated result because every stop condition used
     * here is monotone. */
    StopReason
    run(Machine &m, const RunSpec &spec)
    {
        if (!traced())
            return m.run(spec).reason;
        Cycle left = spec.max_cycles;
        for (;;) {
            RunSpec slice = spec;
            slice.max_cycles = std::min<Cycle>(1, left);
            const auto t = Clock::now();
            const RunResult r = m.run(slice);
            slice_ms_.push_back(1e3 * since(t));
            left -= r.cycles;
            if (r.reason != StopReason::MaxCycles || left == 0)
                return r.reason;
        }
    }

    void
    endRun(Machine &m)
    {
        res.run_s = since(run_t0_);
        res.sim_cycles = m.now() - run_start_cycle_;
    }

    /** Close the run: timings, schedule, flit hops, and (traced) the
     * engine and component-class layers. */
    void
    finish(Machine &m)
    {
        res.wall_s = since(t0_);
        res.cpu_s = cpuSeconds() - cpu0_;
        res.threads = m.threads();
        res.window = m.lookaheadWindow();

        const NodeId nodes = m.geom().numNodes();
        const auto routers = static_cast<RouterId>(m.layout().numRouters());
        for (NodeId n = 0; n < nodes; ++n)
            for (RouterId r = 0; r < routers; ++r)
                res.out.flit_hops += m.chip(n).router(r).flitsRouted();
        if (!traced())
            return;

        layer("core.packet_pool_bytes",
              static_cast<double>(m.packetPoolBytes()));
        addTimingLayers("core.run_slice_ms", slice_ms_);
        layer("noc.flit_hops", static_cast<double>(res.out.flit_hops));
        layer("noc.ns_per_flit_hop",
              res.out.flit_hops > 0
                  ? 1e9 * res.run_s / static_cast<double>(res.out.flit_hops)
                  : 0.0);

        const EngineProfiler &ep = *m.hostProfile();
        double tick = 0.0, wait = 0.0;
        for (std::size_t l = 0; l < ep.lanes(); ++l) {
            tick += ep.laneTickSeconds(l);
            wait += ep.laneWaitSeconds(l);
        }
        layer("sim.engine.windows", static_cast<double>(ep.windows()));
        layer("sim.engine.tick_s", tick);
        layer("sim.engine.barrier_wait_s", wait);
        layer("sim.engine.serial_replay_s", ep.serialSeconds());
        layer("sim.engine.imbalance", ep.imbalance());

        // Class time is sampled every Nth window; scale it to the whole
        // run, then divide by the ticks the class performed.
        const double scale =
            ep.sampledWindows() > 0
                ? static_cast<double>(ep.windows())
                      / static_cast<double>(ep.sampledWindows())
                : 0.0;
        const double cycles = static_cast<double>(ep.profiledCycles());
        const double per_node[] = {
            static_cast<double>(m.layout().numRouters()),
            static_cast<double>(m.layout().numChannelAdapters()),
            static_cast<double>(m.layout().numEndpoints()),
        };
        const HostCompClass classes[] = { HostCompClass::Router,
                                          HostCompClass::ChannelAdapter,
                                          HostCompClass::Endpoint };
        for (int c = 0; c < 3; ++c) {
            const double self = ep.classSeconds(classes[c]) * scale;
            const double ticks =
                cycles * per_node[c] * static_cast<double>(nodes);
            const std::string base =
                std::string("noc.") + hostCompClassName(classes[c]);
            layer(base + ".self_s", self);
            layer(base + ".ns_per_tick", ticks > 0 ? 1e9 * self / ticks : 0);
        }
    }

    /** Record a per-layer value (traced runs only). */
    void
    layer(const std::string &name, double v)
    {
        if (traced())
            res.layers.emplace_back(name, v);
    }

    /** Record @p samples as name.p50 / name.p99 / name.samples. */
    void
    addTimingLayers(const std::string &name, std::vector<double> samples)
    {
        const Summary s = summarize(std::move(samples));
        layer(name + ".p50", s.p50);
        layer(name + ".p99", s.p99);
        layer(name + ".samples", static_cast<double>(s.samples));
    }

    Result res;

  private:
    Mode mode_;
    Observer observer_;
    int threads_;
    Clock::time_point t0_;
    double cpu0_;
    Cycle run_start_cycle_ = 0;
    Clock::time_point run_t0_;
    std::vector<double> slice_ms_;
};

/** Default layer values for layers a workload does not exercise, so the
 * traced metric set is the same on every workload. */
void
zeroLayers(RunContext &ctx, std::initializer_list<const char *> names)
{
    for (const char *n : names)
        ctx.layer(n, 0.0);
}

/** 60 % of the analytic uniform-traffic saturation rate (the
 * bench_host_speed operating point). */
constexpr double kOpenLoadFraction = 0.6;
constexpr Cycle kOpenCycles = 3000;

Result
uniformOpen(std::uint64_t seed, RunContext &ctx)
{
    MachineConfig cfg;
    cfg.radix = { 4, 4, 4 };
    cfg.chip.endpoints_per_node = 8;
    cfg.chip.arb = ArbPolicy::RoundRobin;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 20;
    cfg.seed = seed;
    auto m = ctx.build(cfg);
    ctx.attach(*m, Instrumentation{});

    const auto cores = firstEndpoints(4);
    UniformPattern uniform(m->geom());
    auto t = Clock::now();
    LoadModel lm(m->geom(), m->layout(), cfg.chip, 1);
    Rng lrng(seed + 1);
    lm.addPattern(0, uniform, cores, 300, lrng);
    const double rate = kOpenLoadFraction * lm.idealCoreThroughput(0);
    ctx.layer("analysis.load_model_s", since(t));
    zeroLayers(ctx, { "analysis.apply_weights_s" });

    OpenLoopDriver::Config dcfg;
    dcfg.cores = cores;
    dcfg.rate = rate;
    dcfg.pattern = &uniform;
    OpenLoopDriver driver(*m, dcfg);
    TimedComponent timed(driver);
    if (ctx.traced())
        m->engine().add(timed);
    else
        m->engine().add(driver);

    ctx.startRun(*m);
    if (ctx.setupOnly())
        return ctx.res;
    ctx.run(*m, RunSpec::forCycles(kOpenCycles));
    // Open-loop check: nothing is delivered that was not offered.
    const bool bounded = m->totalDelivered() <= driver.offered();
    driver.setEnabled(false);
    RunSpec drain = RunSpec::untilQuiescent(20000);
    drain.check_every = 8;
    const StopReason drained = ctx.run(*m, drain);
    ctx.endRun(*m);

    Result &r = ctx.res;
    r.ops = 1;
    r.ops_failed = bounded && drained == StopReason::Quiescent
                           && m->totalDelivered() == driver.offered()
                       ? 0
                       : 1;
    r.out.delivered = m->totalDelivered();
    r.out.completion = m->lastDeliveryTime();
    r.out.latency_sum = static_cast<std::uint64_t>(m->latencyStat().sum());
    r.sim_latency_ns = kNsPerCycle * m->latencyStat().mean();
    ctx.layer("traffic.driver.tick_s", timed.seconds());
    ctx.layer("traffic.driver.offered",
              static_cast<double>(driver.offered()));
    zeroLayers(ctx, { "core.handler_s", "obs.report_export_s",
                      "obs.metrics.registry_bytes" });
    ctx.finish(*m);
    return r;
}

constexpr std::uint64_t kBatchPerCore = 64;

Result
fig9Batch(std::uint64_t seed, RunContext &ctx)
{
    MachineConfig cfg;
    cfg.radix = { 8, 4, 4 };
    cfg.chip.endpoints_per_node = 8;
    cfg.chip.arb = ArbPolicy::InverseWeighted;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 20;
    cfg.seed = seed;
    auto m = ctx.build(cfg);
    // How the full-scale smoke and real sweeps run: machine-level
    // metrics, the flow probe, and an exported run report.
    Instrumentation own;
    own.metrics = true;
    own.metrics_level = MetricsLevel::Machine;
    own.flows = FlowProbeConfig{};
    ctx.attach(*m, own);

    const auto cores = firstEndpoints(8);
    UniformPattern uniform(m->geom());
    auto t = Clock::now();
    LoadModel lm(m->geom(), m->layout(), cfg.chip, 1);
    Rng lrng(seed + 1);
    lm.addPattern(0, uniform, cores, 200, lrng);
    ctx.layer("analysis.load_model_s", since(t));
    t = Clock::now();
    lm.applyWeights(*m);
    ctx.layer("analysis.apply_weights_s", since(t));

    BatchDriver::Config dcfg;
    dcfg.cores = cores;
    dcfg.batch_size = kBatchPerCore;
    dcfg.max_queue = 2;
    dcfg.pattern = &uniform;
    BatchDriver driver(*m, dcfg);
    TimedComponent timed(driver);
    if (ctx.traced())
        m->engine().add(timed);
    else
        m->engine().add(driver);

    ctx.startRun(*m);
    if (ctx.setupOnly())
        return ctx.res;
    const StopReason why = ctx.run(
        *m, RunSpec::untilDelivered(driver.deliveredTarget(), 400000));
    ctx.endRun(*m);
    t = Clock::now();
    std::string report;
    if (m->metrics() != nullptr)
        report = m->runReportJson();
    if (m->flows() != nullptr)
        report += m->flowMatrixCsv();
    ctx.layer("obs.report_export_s", report.empty() ? 0.0 : since(t));

    Result &r = ctx.res;
    r.ops = driver.expected();
    const std::uint64_t got = m->totalDelivered();
    r.ops_failed =
        why == StopReason::Delivered ? 0 : r.ops - std::min(got, r.ops);
    r.out.delivered = got;
    r.out.completion = driver.completionTime();
    r.out.latency_sum = static_cast<std::uint64_t>(m->latencyStat().sum());
    r.sim_latency_ns = kNsPerCycle * m->latencyStat().mean();
    ctx.layer("traffic.driver.tick_s", timed.seconds());
    ctx.layer("traffic.driver.offered",
              static_cast<double>(driver.sentTotal()));
    zeroLayers(ctx, { "core.handler_s" });
    ctx.finish(*m);
    if (ctx.traced())
        ctx.layer("obs.metrics.registry_bytes",
                  m->metrics() != nullptr
                      ? static_cast<double>(m->metricsJson().size())
                      : 0.0);
    return r;
}

/** Software send + handler dispatch per one-way traversal, in cycles
 * (the bench_fig11_latency model, ~29 ns per end). */
constexpr Cycle kSoftwareCycles = 44;
constexpr int kPairsPerHop = 2;
constexpr int kRounds = 1;

Result
fig11PingPong(std::uint64_t seed, RunContext &ctx)
{
    MachineConfig cfg;
    cfg.radix = { 8, 8, 8 };
    cfg.chip.endpoints_per_node = 4;
    cfg.chip.arb = ArbPolicy::RoundRobin;
    cfg.use_packaging = true;
    cfg.seed = seed;
    auto m = ctx.build(cfg);
    ctx.attach(*m, Instrumentation{});
    zeroLayers(ctx, { "analysis.load_model_s", "analysis.apply_weights_s" });

    // Seeded pairs, kPairsPerHop at every hop distance (the Fig 11
    // sampling), no endpoint shared between pairs so each endpoint's
    // handler serves exactly one pair.
    struct Pair
    {
        EndpointAddr a, b;
        int rounds = 0;
        Cycle round_start = 0;
    };
    const TorusGeom &geom = m->geom();
    const int eps = cfg.chip.endpoints_per_node;
    std::vector<Pair> pairs;
    std::vector<bool> used(geom.numNodes() * static_cast<std::size_t>(eps));
    Rng prng(seed + 3);
    const int max_hops = 3 * (cfg.radix[0] / 2);
    for (int h = 1; h <= max_hops; ++h) {
        int found = 0;
        for (long tries = 0; found < kPairsPerHop; ++tries) {
            if (tries > 2000000)
                throw std::runtime_error("fig11: no free endpoint pair");
            const auto a = static_cast<NodeId>(prng.below(geom.numNodes()));
            const auto b = static_cast<NodeId>(prng.below(geom.numNodes()));
            const auto ea = static_cast<EndpointId>(prng.below(eps));
            const auto eb = static_cast<EndpointId>(prng.below(eps));
            const std::size_t ia = a * static_cast<std::size_t>(eps) + ea;
            const std::size_t ib = b * static_cast<std::size_t>(eps) + eb;
            if (geom.hopDistance(a, b) != h || used[ia] || used[ib])
                continue;
            used[ia] = used[ib] = true;
            pairs.push_back(Pair{ { a, ea }, { b, eb } });
            ++found;
        }
    }

    // Closed loop, one message outstanding per pair: a counted write
    // A -> B fires B's handler, which replies B -> A; A's handler closes
    // the round and starts the next one.
    std::size_t pairs_done = 0;
    Cycle last_done = 0;
    std::uint64_t round_trip_sum = 0;
    std::uint64_t sent = 0;
    double handler_s = 0.0;
    const bool timed = ctx.traced();
    auto ping = [&](Pair &p, Cycle now) {
        m->endpoint(p.b).armCounter(1, 1);
        m->endpoint(p.a).armCounter(2, 1);
        p.round_start = now;
        m->send(m->makeWrite(p.a, p.b, 0, 1, /*counter=*/1));
        ++sent;
    };
    for (Pair &p : pairs) {
        m->endpoint(p.b).setHandlerFn([&, pp = &p](std::int32_t, Cycle) {
            const auto t = timed ? Clock::now() : Clock::time_point{};
            m->send(m->makeWrite(pp->b, pp->a, 0, 1, /*counter=*/2));
            ++sent;
            if (timed)
                handler_s += since(t);
        });
        m->endpoint(p.a).setHandlerFn([&, pp = &p](std::int32_t, Cycle now) {
            const auto t = timed ? Clock::now() : Clock::time_point{};
            round_trip_sum += now - pp->round_start;
            if (++pp->rounds < kRounds) {
                ping(*pp, now);
            } else {
                ++pairs_done;
                last_done = now;
            }
            if (timed)
                handler_s += since(t);
        });
    }

    ctx.startRun(*m);
    if (ctx.setupOnly())
        return ctx.res;
    for (Pair &p : pairs)
        ping(p, m->now());
    RunSpec spec;
    spec.max_cycles = 1000000;
    spec.stop = [&] { return pairs_done == pairs.size(); };
    ctx.run(*m, spec);
    ctx.endRun(*m);
    for (Pair &p : pairs) {
        m->endpoint(p.a).setHandlerFn(nullptr);
        m->endpoint(p.b).setHandlerFn(nullptr);
    }

    Result &r = ctx.res;
    r.ops = pairs.size() * static_cast<std::uint64_t>(kRounds);
    std::uint64_t rounds = 0;
    for (const Pair &p : pairs)
        rounds += static_cast<std::uint64_t>(p.rounds);
    r.ops_failed = r.ops - rounds;
    r.out.delivered = m->totalDelivered();
    r.out.completion = last_done;
    r.out.latency_sum = round_trip_sum;
    // One-way latency: half the round trip plus the software overhead of
    // one traversal, as in the Fig 11 bench.
    r.sim_latency_ns =
        rounds > 0 ? kNsPerCycle
                         * (static_cast<double>(round_trip_sum)
                                / (2.0 * static_cast<double>(rounds))
                            + static_cast<double>(kSoftwareCycles))
                   : 0.0;
    ctx.layer("core.handler_s", handler_s);
    zeroLayers(ctx, { "traffic.driver.tick_s" });
    ctx.layer("traffic.driver.offered", static_cast<double>(sent));
    zeroLayers(ctx, { "obs.report_export_s", "obs.metrics.registry_bytes" });
    ctx.finish(*m);
    return r;
}

} // namespace

Result
runWorkload(const std::string &name, std::uint64_t seed, Mode mode,
            Observer observer, int threads)
{
    RunContext ctx(mode, observer, threads);
    if (name == "uniform_open")
        return uniformOpen(seed, ctx);
    if (name == "fig9_batch")
        return fig9Batch(seed, ctx);
    if (name == "fig11_pingpong")
        return fig11PingPong(seed, ctx);
    throw std::invalid_argument("unknown workload: " + name);
}

} // namespace perfbench
