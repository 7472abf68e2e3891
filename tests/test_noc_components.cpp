/**
 * @file
 * Component-level tests of the router, channel adapter, and endpoint
 * adapter: pipeline latency, credit backpressure, serialization rate, and
 * cut-through behavior.
 */
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arb/inverse_weighted.hpp"
#include "noc/router.hpp"
#include "sim/engine.hpp"

namespace anton2 {
namespace {

PacketPtr
makeTestPacket(int flits)
{
    auto pkt = std::make_shared<Packet>();
    pkt->size_flits = static_cast<std::uint16_t>(flits);
    pkt->payload.resize(static_cast<std::size_t>(flits));
    return pkt;
}

/** A 2-port router test bench: injector channel -> router -> sink channel. */
struct RouterBench
{
    explicit RouterBench(int num_vcs = 2, int buf = 4,
                         int downstream_buf = 4)
        : in(1, 1), out(1, 1)
    {
        RouterConfig cfg;
        cfg.num_ports = 2;
        cfg.num_vcs = num_vcs;
        cfg.buf_flits_per_vc = buf;
        router = std::make_unique<Router>(
            "r", cfg, [this](Packet &) { return decision; });
        router->connectIn(0, in);
        router->connectOut(1, out, downstream_buf);
        engine.add(*router);
    }

    void
    sendPacket(const PacketPtr &pkt, int vc)
    {
        // Drive the wire directly, one flit per cycle.
        for (int f = 0; f < pkt->size_flits; ++f) {
            Phit phit;
            phit.pkt = pkt;
            phit.vc = static_cast<std::uint8_t>(vc);
            phit.index = static_cast<std::uint16_t>(f);
            phit.head = (f == 0);
            phit.tail = (f + 1 == pkt->size_flits);
            in.data.send(engine.now() + static_cast<Cycle>(f), phit);
        }
    }

    /** Drain the output for @p cycles, returning (flits, first_cycle). */
    std::pair<int, Cycle>
    drain(Cycle cycles, bool return_credits = true)
    {
        int flits = 0;
        Cycle first = 0;
        for (Cycle i = 0; i < cycles; ++i) {
            engine.step();
            // Behave like an upstream component: consume returned credits
            // every cycle (unpolled wire slots count as channel activity).
            (void)in.credit.take(engine.now());
            if (auto phit = out.data.take(engine.now())) {
                if (flits == 0)
                    first = engine.now();
                ++flits;
                if (return_credits)
                    out.credit.send(engine.now(), Credit{ phit->vc });
            }
        }
        return { flits, first };
    }

    Engine engine;
    Channel in;
    Channel out;
    RouteDecision decision{ 1, 0 };
    std::unique_ptr<Router> router;
};

TEST(RouterUnit, SingleFlitTraversesInPipelineLatency)
{
    RouterBench b;
    b.sendPacket(makeTestPacket(1), 0);
    const auto [flits, first] = b.drain(20);
    EXPECT_EQ(flits, 1);
    // Head arrives at the router at cycle 1 (wire latency); the
    // RC/VA/SA1/SA2 pipeline plus switch traversal put the flit on the
    // output wire at cycle 5, deliverable downstream at cycle 6.
    EXPECT_EQ(first, 6u);
}

TEST(RouterUnit, TwoFlitPacketStaysContiguous)
{
    RouterBench b;
    b.sendPacket(makeTestPacket(2), 1);
    Cycle times[2] = { 0, 0 };
    int n = 0;
    for (Cycle i = 0; i < 30; ++i) {
        b.engine.step();
        if (auto phit = b.out.data.take(b.engine.now())) {
            ASSERT_LT(n, 2);
            times[n++] = b.engine.now();
            b.out.credit.send(b.engine.now(), Credit{ phit->vc });
            EXPECT_EQ(phit->vc, 0); // out_vc from the route decision
        }
    }
    ASSERT_EQ(n, 2);
    EXPECT_EQ(times[1], times[0] + 1);
}

TEST(RouterUnit, BackToBackPacketsSustainFullRate)
{
    // A wire holds at most `latency` in-flight values, so interleave one
    // send per cycle with the drain.
    RouterBench b(2, 8, 8);
    int flits = 0;
    for (Cycle t = 0; t < 60; ++t) {
        if (t < 20) {
            auto pkt = makeTestPacket(1);
            Phit phit;
            phit.pkt = pkt;
            phit.vc = 0;
            phit.head = phit.tail = true;
            b.in.data.send(b.engine.now(), phit);
        }
        b.engine.step();
        (void)b.in.credit.take(b.engine.now());
        if (auto phit = b.out.data.take(b.engine.now())) {
            ++flits;
            b.out.credit.send(b.engine.now(), Credit{ phit->vc });
        }
    }
    EXPECT_EQ(flits, 20);
}

TEST(RouterUnit, CreditExhaustionBlocksTransmission)
{
    // Downstream buffer of 2 flits and no credits returned: only two
    // single-flit packets may cross.
    RouterBench b(2, 8, /*downstream_buf=*/2);
    int flits = 0;
    for (int i = 0; i < 6; ++i) {
        auto pkt = makeTestPacket(1);
        Phit phit;
        phit.pkt = pkt;
        phit.vc = 0;
        phit.head = phit.tail = true;
        b.in.data.send(b.engine.now(), phit);
        b.engine.step();
        (void)b.in.credit.take(b.engine.now());
        flits += b.out.data.take(b.engine.now()).has_value();
    }
    const auto [more, first] = b.drain(50, /*return_credits=*/false);
    (void)first;
    flits += more;
    EXPECT_EQ(flits, 2);
    EXPECT_TRUE(b.router->busy());
}

TEST(RouterUnit, CreditsResumeBlockedTraffic)
{
    RouterBench b(2, 8, 2);
    for (int i = 0; i < 4; ++i) {
        auto pkt = makeTestPacket(1);
        Phit phit;
        phit.pkt = pkt;
        phit.vc = 0;
        phit.head = phit.tail = true;
        b.in.data.send(b.engine.now(), phit);
        b.engine.step();
    }
    auto [flits, first] = b.drain(30, false);
    (void)first;
    EXPECT_EQ(flits, 2);
    // Return credits: the remaining packets flow.
    b.out.credit.send(b.engine.now(), Credit{ 0 });
    b.out.credit.send(b.engine.now() + 1, Credit{ 0 });
    auto [more, f2] = b.drain(30, true);
    (void)f2;
    EXPECT_EQ(more, 2);
    EXPECT_FALSE(b.router->busy());
}

TEST(RouterUnit, VcsArbitrateFairlyAtSa1)
{
    // Two VCs continuously loaded: both should progress.
    RouterBench b(2, 8, 16);
    int got[2] = { 0, 0 };
    // Drive alternating VCs, one flit per cycle, and count deliveries.
    for (Cycle t = 0; t < 60; ++t) {
        const int vc = static_cast<int>(t % 2);
        auto pkt = makeTestPacket(1);
        Phit phit;
        phit.pkt = pkt;
        phit.vc = static_cast<std::uint8_t>(vc);
        phit.head = phit.tail = true;
        b.in.data.send(b.engine.now(), phit);
        b.engine.step();
        // Drain the upstream credit wire like a real neighbor would;
        // leaving it full would block the router's credit returns.
        (void)b.in.credit.take(b.engine.now());
        if (auto out = b.out.data.take(b.engine.now())) {
            ++got[out->vc % 2];
            b.out.credit.send(b.engine.now(), Credit{ out->vc });
        }
    }
    // Both VCs served. (The route decision maps out_vc = 0 for all in the
    // default bench; use input vc labels via modulo instead.)
    EXPECT_GT(got[0] + got[1], 40);
}

TEST(RouterUnit, StallAttributionSumsExactlyToSampledCycles)
{
    // Two 2-flit packets against a 2-flit downstream buffer: the first
    // consumes every credit at grant time, so the second sits in
    // CreditStall until credits come back - exercising the busy, credit
    // and no-input classes in one run.
    RouterBench b(2, 8, /*downstream_buf=*/2);
    b.router->enableStallSampling();
    auto first_pkt = makeTestPacket(2);
    auto second_pkt = makeTestPacket(2);
    for (int f = 0; f < 4; ++f) {
        Phit phit;
        phit.pkt = f < 2 ? first_pkt : second_pkt;
        phit.vc = 0;
        phit.index = static_cast<std::uint16_t>(f % 2);
        phit.head = (f % 2 == 0);
        phit.tail = (f % 2 == 1);
        b.in.data.send(b.engine.now(), phit);
        b.engine.step();
        (void)b.in.credit.take(b.engine.now());
    }
    // No credits returned: the first packet crosses, the second stalls.
    const auto [flits, t0] = b.drain(16, /*return_credits=*/false);
    (void)t0;
    EXPECT_EQ(flits, 2);
    b.out.credit.send(b.engine.now(), Credit{ 0 });
    b.out.credit.send(b.engine.now() + 1, Credit{ 0 });
    const auto [more, t1] = b.drain(20, /*return_credits=*/true);
    (void)t1;
    EXPECT_EQ(more, 2);

    const RouterStallSampler *s = b.router->stallSampler();
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->sampled_cycles, 40u); // one classification per step
    ASSERT_EQ(s->ports.size(), 2u);
    // Port 0 has no output channel: never classified.
    EXPECT_EQ(s->ports[0].total(), 0u);
    // Port 1 is connected: exactly one class per sampled cycle, so the
    // class totals sum to the sampled cycle count - no cycle is double
    // counted or unaccounted.
    EXPECT_EQ(s->ports[1].total(), s->sampled_cycles);
    const auto &cy = s->ports[1].cycles;
    EXPECT_EQ(cy[static_cast<std::size_t>(StallClass::Busy)], 4u);
    EXPECT_GT(cy[static_cast<std::size_t>(StallClass::CreditStall)], 0u);
    EXPECT_GT(cy[static_cast<std::size_t>(StallClass::NoInput)], 0u);
    // aggregate() mirrors the per-port sums.
    EXPECT_EQ(s->aggregate().total(), s->sampled_cycles);
}

/**
 * Three inputs (ports 0-2) contending for two outputs (ports 3, 4). Each
 * input streams 12 packets with a per-packet output, VC, size and
 * pattern, honoring the router's credits like a real upstream neighbor;
 * the outputs return a credit for every flit after a one-cycle turn, so
 * SA2 also re-validates credits that an earlier grant consumed.
 */
struct ContentionBench
{
    static constexpr int kInputs = 3;
    static constexpr int kPacketsPerInput = 12;
    static constexpr int kVcs = 2;
    static constexpr int kBuf = 4;

    /** One head flit leaving the router: (cycle, output, packet id). */
    struct Grant
    {
        Cycle cycle;
        int out;
        std::uint64_t id;
        bool operator==(const Grant &) const = default;
    };

    explicit ContentionBench(ArbPolicy policy)
    {
        RouterConfig cfg;
        cfg.num_ports = 5;
        cfg.num_vcs = kVcs;
        cfg.buf_flits_per_vc = kBuf;
        cfg.out_arb = policy;
        router = std::make_unique<Router>(
            "r", cfg, [](Packet &p) {
                return RouteDecision{ 3 + p.dst.ep % 2,
                                      static_cast<std::uint8_t>(
                                          p.dst.ep / 2 % kVcs) };
            });
        for (int i = 0; i < kInputs; ++i) {
            router->connectIn(i, in[i]);
            credits[i].init(kVcs, kBuf);
            for (int k = 0; k < kPacketsPerInput; ++k) {
                auto pkt = makeTestPacket(1 + ((i + k) % 3 == 0));
                pkt->id = static_cast<std::uint64_t>(100 * i + k);
                pkt->src.ep = i;
                pkt->dst.ep = (i + 2 * k + k / 3) % 4;
                pkt->pattern = static_cast<std::uint8_t>((i + k) % 2);
                pkt->birth = static_cast<Cycle>(k);
                queue[i].push_back(pkt);
            }
        }
        for (int o = 0; o < 2; ++o)
            router->connectOut(3 + o, out[o], 2);
        engine.add(*router);
    }

    /** Run until every packet left the router; returns the head grants. */
    std::vector<Grant>
    run()
    {
        std::vector<Grant> grants;
        int delivered = 0;
        for (Cycle guard = 0; guard < 400 && delivered < kInputs
                                  * kPacketsPerInput; ++guard) {
            const Cycle now = engine.now();
            for (int i = 0; i < kInputs; ++i) {
                if (auto cr = in[i].credit.take(now))
                    credits[i].release(cr->vc);
                if (next[i] >= queue[i].size())
                    continue;
                const PacketPtr &pkt = queue[i][next[i]];
                const int vc = pkt->dst.ep / 2 % kVcs;
                // A whole packet needs its credits before its head goes.
                if (flit[i] == 0
                    && credits[i].available(vc) < pkt->size_flits)
                    continue;
                Phit phit;
                phit.pkt = pkt;
                phit.vc = static_cast<std::uint8_t>(vc);
                phit.index = flit[i];
                phit.head = flit[i] == 0;
                phit.tail = flit[i] + 1 == pkt->size_flits;
                if (phit.head)
                    credits[i].consume(vc, pkt->size_flits);
                in[i].data.send(now, phit);
                if (phit.tail) {
                    flit[i] = 0;
                    ++next[i];
                } else {
                    ++flit[i];
                }
            }
            for (int o = 0; o < 2; ++o) {
                if (auto cr = pending_credit[o]) {
                    out[o].credit.send(now, *cr);
                    pending_credit[o].reset();
                }
                if (auto phit = out[o].data.take(now)) {
                    if (phit->head)
                        grants.push_back({ now, 3 + o, phit->pkt->id });
                    if (phit->tail)
                        ++delivered;
                    pending_credit[o] = Credit{ phit->vc };
                }
            }
            engine.step();
        }
        EXPECT_EQ(delivered, kInputs * kPacketsPerInput);
        return grants;
    }

    Engine engine;
    Channel in[kInputs];
    Channel out[2];
    CreditCounter credits[kInputs];
    std::vector<PacketPtr> queue[kInputs];
    std::size_t next[kInputs] = {};
    std::uint16_t flit[kInputs] = {};
    std::optional<Credit> pending_credit[2];
    std::unique_ptr<Router> router;
};

std::string
grantLog(const std::vector<ContentionBench::Grant> &grants)
{
    std::string s;
    for (const auto &g : grants) {
        s += std::to_string(g.cycle) + ":" + std::to_string(g.out) + ":"
             + std::to_string(g.id) + " ";
    }
    return s;
}

TEST(RouterUnit, Sa2ContentionGrantSequenceRoundRobin)
{
    // Pinned grant log, one "cycle:output:packet" per head flit leaving
    // the router.
    ContentionBench b(ArbPolicy::RoundRobin);
    EXPECT_EQ(grantLog(b.run()),
              "6:3:0 6:4:100 7:4:101 8:3:200 9:3:1 9:4:102 11:3:104 "
              "12:3:202 12:4:3 13:3:103 14:3:2 15:4:5 16:4:4 17:3:201 "
              "17:4:106 19:3:6 20:4:203 21:3:105 21:4:204 23:3:8 "
              "23:4:205 24:3:206 24:4:107 25:3:7 25:4:108 27:3:110 "
              "27:4:9 28:3:208 29:3:109 29:4:10 30:4:11 32:3:111 "
              "34:4:210 36:3:207 38:4:209 39:4:211 ");
}

TEST(RouterUnit, Sa2ContentionGrantSequenceInverseWeighted)
{
    ContentionBench b(ArbPolicy::InverseWeighted);
    // Uneven programmed weights so the accumulators, not the round-robin
    // tie-break, decide most contended grants.
    for (int o = 3; o < 5; ++o) {
        auto &acc = b.router->outputArbiter(o)->accumulators();
        for (int i = 0; i < ContentionBench::kInputs; ++i) {
            acc.setWeight(i, 0, static_cast<std::uint32_t>(3 + 5 * i));
            acc.setWeight(i, 1, static_cast<std::uint32_t>(17 - 6 * i));
        }
    }
    EXPECT_EQ(grantLog(b.run()),
              "6:3:200 6:4:100 7:3:0 7:4:101 9:3:202 9:4:102 10:3:2 "
              "11:3:104 12:3:1 12:4:204 13:3:103 14:4:4 16:3:201 "
              "16:4:3 18:4:203 19:4:106 20:3:105 20:4:5 21:4:205 "
              "22:3:6 22:4:107 24:3:206 25:3:7 25:4:108 27:3:110 "
              "28:3:208 28:4:9 29:3:109 30:3:8 31:4:11 32:4:10 "
              "33:3:207 35:4:210 37:3:111 37:4:209 38:4:211 ");
}

TEST(RouterUnit, StallSamplerIdleRouterChargesNoInput)
{
    RouterBench b;
    b.router->enableStallSampling();
    b.drain(15);
    const RouterStallSampler *s = b.router->stallSampler();
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->sampled_cycles, 15u);
    EXPECT_EQ(s->ports[1].cycles[static_cast<std::size_t>(
                  StallClass::NoInput)],
              15u);
    EXPECT_EQ(s->ports[1].total(), 15u);
}

} // namespace
} // namespace anton2
