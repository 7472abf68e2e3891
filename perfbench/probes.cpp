/**
 * @file
 * Standalone layer probes: per-call host time of one arbiter grant, one
 * source-route construction, and one router tick (idle and loaded), each
 * on canned seeded inputs outside any Machine. A sample is the mean over
 * a batch of calls, so clock reads stay out of the per-call figure.
 */
#include <array>
#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arb/basic_arbiters.hpp"
#include "arb/inverse_weighted.hpp"
#include "noc/channel.hpp"
#include "noc/router.hpp"
#include "routing/route.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace anton2;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSamples = 1000; // p99 keeps ten samples beyond it
constexpr int kWarmup = 50;
constexpr int kBatch = 256;    // calls per sample
constexpr int kArbInputs = 6;  // a router output arbiter's input count

/** Sink the probes write results into, so no call is optimised away. */
volatile std::uint64_t g_sink = 0;

/** Time @p batch (which makes kBatch calls) kSamples times after a
 * warm-up; returns ns per call for each sample. */
template <typename Fn>
std::vector<double>
sampleNs(Fn &&batch)
{
    std::vector<double> ns;
    ns.reserve(kSamples);
    for (int s = 0; s < kWarmup + kSamples; ++s) {
        const auto t0 = Clock::now();
        batch();
        const double dt =
            std::chrono::duration<double, std::nano>(Clock::now() - t0)
                .count();
        if (s >= kWarmup)
            ns.push_back(dt / kBatch);
    }
    return ns;
}

void
addProbe(std::vector<std::pair<std::string, double>> &out,
         const std::string &name, std::vector<double> ns)
{
    const Summary s = summarize(std::move(ns));
    out.emplace_back(name + ".p50", s.p50);
    out.emplace_back(name + ".p99", s.p99);
    out.emplace_back(name + ".samples", static_cast<double>(s.samples));
}

/** Canned non-empty request masks with per-input pattern ids. */
struct ArbInputs
{
    std::vector<std::uint32_t> masks;
    std::vector<ReqInfo> info; ///< kArbInputs entries per mask

    explicit ArbInputs(Rng &rng)
    {
        const std::uint32_t all = (1u << kArbInputs) - 1;
        for (int i = 0; i < kBatch; ++i) {
            masks.push_back(1u + static_cast<std::uint32_t>(
                                     rng.below(all)));
            for (int k = 0; k < kArbInputs; ++k) {
                ReqInfo r;
                r.pattern = static_cast<std::uint8_t>(
                    rng.below(kNumPatterns));
                info.push_back(r);
            }
        }
    }
};

std::vector<double>
probeArbiter(Arbiter &arb, const ArbInputs &in)
{
    return sampleNs([&] {
        std::uint64_t acc = 0;
        for (int i = 0; i < kBatch; ++i)
            acc += static_cast<std::uint64_t>(arb.pick(
                in.masks[static_cast<std::size_t>(i)],
                &in.info[static_cast<std::size_t>(i) * kArbInputs]));
        g_sink = g_sink + acc;
    });
}

/** Per-packet source-route construction on the 8x8x8 torus: the random
 * dimension order / slice / tie-breaks plus the first routing
 * dimension, as the packet factory builds them. */
std::vector<double>
probeRoute(Rng &rng)
{
    const TorusGeom geom(8, 8, 8);
    std::vector<std::pair<NodeId, NodeId>> pairs;
    while (pairs.size() < static_cast<std::size_t>(kBatch)) {
        const auto a = static_cast<NodeId>(rng.below(geom.numNodes()));
        const auto b = static_cast<NodeId>(rng.below(geom.numNodes()));
        if (a != b)
            pairs.emplace_back(a, b);
    }
    Rng route_rng(rng.next());
    return sampleNs([&] {
        std::uint64_t acc = 0;
        for (const auto &[a, b] : pairs) {
            const RouteSpec spec = randomRoute(geom, a, b, route_rng);
            acc += static_cast<std::uint64_t>(
                nextRouteDim(geom, a, b, spec) + spec.slice);
        }
        g_sink = g_sink + acc;
    });
}

/** A 2-port router wired as the component tests wire one: an injector
 * channel into port 0, port 1 out to a sink that returns credits. A
 * sample covers the router tick plus the two test-side wire polls. */
struct LoneRouter
{
    LoneRouter() : in(1, 1), out(1, 1)
    {
        RouterConfig cfg;
        cfg.num_ports = 2;
        cfg.num_vcs = 2;
        cfg.buf_flits_per_vc = 8;
        router = std::make_unique<Router>(
            "probe", cfg, [](Packet &) { return RouteDecision{ 1, 0 }; });
        router->connectIn(0, in);
        router->connectOut(1, out, 8);
        for (auto &p : pkts) {
            p = std::make_shared<Packet>();
            p->size_flits = 1;
            p->payload.resize(1);
        }
    }

    /** One cycle; with @p inject a one-flit packet enters port 0. */
    void
    cycle(bool inject)
    {
        if (inject) {
            Phit phit;
            phit.pkt = pkts[now % pkts.size()];
            phit.head = phit.tail = true;
            in.data.send(now, phit);
        }
        router->tick(now);
        ++now;
        (void)in.credit.take(now);
        if (auto phit = out.data.take(now)) {
            ++forwarded;
            out.credit.send(now, Credit{ phit->vc });
        }
    }

    Channel in;
    Channel out;
    std::unique_ptr<Router> router;
    std::array<PacketPtr, 64> pkts;
    Cycle now = 0;
    std::uint64_t forwarded = 0;
};

std::vector<double>
probeRouter(bool loaded)
{
    LoneRouter r;
    auto ns = sampleNs([&] {
        for (int i = 0; i < kBatch; ++i)
            r.cycle(loaded);
    });
    g_sink = g_sink + r.forwarded;
    return ns;
}

} // namespace

std::vector<std::pair<std::string, double>>
runProbes(std::uint64_t seed)
{
    std::vector<std::pair<std::string, double>> out;
    Rng rng(seed);
    const ArbInputs arb_in(rng);

    RoundRobinArbiter rr(kArbInputs);
    addProbe(out, "arb.round_robin.grant_ns", probeArbiter(rr, arb_in));

    InverseWeightedArbiter iw(kArbInputs);
    for (int i = 0; i < kArbInputs; ++i)
        for (int p = 0; p < kNumPatterns; ++p)
            iw.accumulators().setWeight(
                i, p,
                1 + static_cast<std::uint32_t>(
                        rng.below((1u << kDefaultWeightBits) - 1)));
    addProbe(out, "arb.inverse_weighted.grant_ns",
             probeArbiter(iw, arb_in));

    addProbe(out, "routing.route_ns", probeRoute(rng));
    addProbe(out, "noc.router.tick_idle_ns", probeRouter(false));
    addProbe(out, "noc.router.tick_loaded_ns", probeRouter(true));
    return out;
}

} // namespace perfbench
