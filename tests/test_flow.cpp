/**
 * @file
 * Tests for the flow-level observability layer: the per-(src, dst,
 * class) flow matrix, per-hop span attribution, congestion blame, and
 * the determinism contract (flow exports byte-identical across thread
 * counts and lookahead windows). Also the diameter-scaled total-latency
 * histogram regression: worst-path latencies on a large torus must land
 * in real bins, not the overflow bin.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "sim/flow.hpp"
#include "sim/rng.hpp"
#include "tiny_json.hpp"

namespace anton2 {
namespace {

using testjson::JsonValue;
using testjson::TinyJsonParser;

constexpr std::uint64_t kPackets = 120;

/**
 * Build a flow-probed 2x2x2 machine and drive seeded random unicast
 * writes, all injected before the run starts.
 */
struct FlowRun
{
    std::string flows_json; ///< FlowProbe::reportJson (full matrix)
    std::string csv;        ///< flow-matrix CSV
    std::string report;     ///< Machine::runReportJson
    std::uint64_t sent = 0;
    std::uint64_t flits_sent = 0;
};

FlowRun
runFlows(std::uint64_t seed, int threads, Cycle lookahead,
         std::uint64_t sample = 0)
{
    MachineConfig cfg;
    cfg.radix = { 2, 2, 2 };
    cfg.chip.endpoints_per_node = 4;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 12;
    cfg.seed = seed;
    Machine m(cfg);
    m.attachInstrumentation({ .metrics = true });
    m.setThreads(threads);
    m.setLookahead(lookahead);
    FlowProbeConfig fc;
    fc.sample = sample;
    Instrumentation finst;
    finst.flows = fc;
    m.attachInstrumentation(finst);

    Rng traffic(seed * 1315423911ULL + 1);
    const auto nodes = static_cast<std::uint64_t>(m.geom().numNodes());
    FlowRun run;
    for (std::uint64_t i = 0; i < kPackets; ++i) {
        const EndpointAddr src{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(4)) };
        const EndpointAddr dst{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(4)) };
        if (src.node == dst.node)
            continue;
        const int size = 1 + static_cast<int>(traffic.below(2));
        m.send(m.makeWrite(src, dst, 0, size));
        ++run.sent;
        run.flits_sent += static_cast<std::uint64_t>(size);
    }
    EXPECT_TRUE(m.run(RunSpec::untilDelivered(run.sent, 500000)).reason == StopReason::Delivered);

    run.flows_json = m.flows()->reportJson(
        /*full_matrix=*/true, m.geom().numNodes());
    run.csv = m.flowMatrixCsv();
    run.report = m.runReportJson();
    return run;
}

// ---------------------------------------------------------------------
// Determinism: the tentpole's cross-thread / cross-window contract
// ---------------------------------------------------------------------

TEST(FlowExports, ByteIdenticalAcrossThreadsAndWindows)
{
    const auto base = runFlows(71, 1, 1);
    ASSERT_FALSE(base.flows_json.empty());
    ASSERT_FALSE(base.csv.empty());
    for (const Cycle lookahead : { Cycle{ 1 }, Cycle{ 0 } }) {
        // The run report's elapsed-cycles gauge depends on where the
        // delivery run stops (a window boundary under lookahead),
        // so the *full* report is only compared across thread counts at
        // a fixed window; the flow exports must match everywhere.
        const auto window_base = runFlows(71, 1, lookahead);
        for (const int threads : { 1, 2, 4 }) {
            const auto run = runFlows(71, threads, lookahead);
            EXPECT_EQ(run.flows_json, base.flows_json)
                << "threads=" << threads << " lookahead=" << lookahead;
            EXPECT_EQ(run.csv, base.csv)
                << "threads=" << threads << " lookahead=" << lookahead;
            EXPECT_EQ(run.report, window_base.report)
                << "threads=" << threads << " lookahead=" << lookahead;
        }
    }
    // Different seed, different exports: the identity above is not
    // vacuous.
    EXPECT_NE(runFlows(72, 1, 1).csv, base.csv);
}

// ---------------------------------------------------------------------
// Reconciliation: flow matrix vs. the aggregate telemetry
// ---------------------------------------------------------------------

TEST(FlowMatrix, LatencySumsReconcileExactlyWithAggregateStats)
{
    MachineConfig cfg;
    cfg.radix = { 2, 2, 2 };
    cfg.chip.endpoints_per_node = 4;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 12;
    cfg.seed = 9;
    Machine m(cfg);
    m.attachInstrumentation({ .metrics = true });
    Instrumentation finst;
    finst.flows = FlowProbeConfig{};
    m.attachInstrumentation(finst);

    Rng traffic(1234567);
    const auto nodes = static_cast<std::uint64_t>(m.geom().numNodes());
    std::uint64_t sent = 0, flits = 0, reads = 0;
    for (std::uint64_t i = 0; i < kPackets; ++i) {
        const EndpointAddr src{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(4)) };
        const EndpointAddr dst{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(4)) };
        if (src.node == dst.node)
            continue;
        if (traffic.below(4) == 0) {
            // Read requests produce reply-class flows too.
            m.send(m.makeRead(src, dst));
            ++reads;
            ++flits;
        } else {
            const int size = 1 + static_cast<int>(traffic.below(2));
            m.send(m.makeWrite(src, dst, 0, size));
            flits += static_cast<std::uint64_t>(size);
        }
        ++sent;
    }
    ASSERT_GT(reads, 0u);
    // Replies are extra deliveries beyond the requests.
    ASSERT_TRUE(m.run(RunSpec::untilDelivered(sent + reads, 500000)).reason == StopReason::Delivered);

    const FlowProbe &probe = *m.flows();
    std::uint64_t pkt_total = 0, lat_total = 0;
    bool saw_reply_cell = false;
    for (const auto &[key, cell] : probe.cells()) {
        pkt_total += cell.packets;
        lat_total += cell.lat_sum;
        if (key.tc == 1)
            saw_reply_cell = true;
        EXPECT_LE(cell.lat_min, cell.lat_max);
        EXPECT_GE(cell.lat_sum,
                  cell.packets * static_cast<std::uint64_t>(cell.lat_min));
    }
    EXPECT_TRUE(saw_reply_cell);
    EXPECT_EQ(pkt_total, probe.deliveries());
    EXPECT_EQ(pkt_total, m.totalDelivered());

    // Exact cross-check against the machine-wide aggregate: the flow
    // cells and the `machine.latency.total` histogram both record
    // delivered - birth, and every sum here is far below 2^53, so the
    // double-vs-integer comparison is byte-exact.
    const Histogram *h =
        m.metrics()->findHistogram("machine.latency.total");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->stat().count(), pkt_total);
    EXPECT_EQ(h->stat().sum(), static_cast<double>(lat_total));

    // The reply-class rows surface in the CSV vocabulary.
    EXPECT_NE(m.flowMatrixCsv().find(",reply,"), std::string::npos);
}

// ---------------------------------------------------------------------
// Congestion blame: conservation against delivered traffic
// ---------------------------------------------------------------------

TEST(FlowBlame, LinkFlitsConserveAgainstDeliveredHopCrossings)
{
    MachineConfig cfg;
    cfg.radix = { 2, 2, 2 };
    cfg.chip.endpoints_per_node = 4;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 12;
    cfg.seed = 5;
    Machine m(cfg);
    Instrumentation finst;
    finst.flows = FlowProbeConfig{};
    m.attachInstrumentation(finst);

    std::uint64_t crossings = 0; // sum over deliveries of flits x hops
    std::uint64_t delivered_pkts = 0;
    m.setDeliverHook([&](const PacketPtr &p, Cycle) {
        crossings += static_cast<std::uint64_t>(p->size_flits)
                     * static_cast<std::uint64_t>(p->hops);
        ++delivered_pkts;
    });

    Rng traffic(4242);
    const auto nodes = static_cast<std::uint64_t>(m.geom().numNodes());
    std::uint64_t sent = 0;
    for (std::uint64_t i = 0; i < kPackets; ++i) {
        const EndpointAddr src{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(4)) };
        const EndpointAddr dst{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(4)) };
        if (src.node == dst.node)
            continue;
        const int size = 1 + static_cast<int>(traffic.below(2));
        m.send(m.makeWrite(src, dst, 0, size));
        ++sent;
    }
    ASSERT_TRUE(m.run(RunSpec::untilDelivered(sent, 500000)).reason == StopReason::Delivered);

    const FlowProbe &probe = *m.flows();
    std::uint64_t link_flits = 0, link_pkt_hops = 0, ep_packets = 0;
    for (const auto &[key, b] : probe.blame()) {
        if (key.kind == FlowUnitKind::Link) {
            link_flits += b.flits;
            link_pkt_hops += b.packets;
            EXPECT_NE(b.name, "?") << "every link unit is registered";
        }
        if (key.kind == FlowUnitKind::Endpoint)
            ep_packets += b.packets;
    }
    // Every delivered packet crossed `hops` torus links, each crossing
    // billed once with the packet's full flit count.
    EXPECT_EQ(delivered_pkts, sent);
    EXPECT_EQ(link_flits, crossings);
    std::uint64_t hop_sum = 0;
    for (const auto &[key, cell] : probe.cells())
        hop_sum += cell.hop_sum;
    EXPECT_EQ(link_pkt_hops, hop_sum);
    // Exactly one source-queueing span per injected packet.
    EXPECT_EQ(ep_packets, sent);
}

// ---------------------------------------------------------------------
// Report schema: digest keys and the dense full-level matrix
// ---------------------------------------------------------------------

TEST(FlowReport, DigestSchemaAndDenseMatrixRowCount)
{
    const auto run = runFlows(71, 1, 1);
    const auto doc = TinyJsonParser(run.flows_json).parse();
    const JsonValue &digest = doc->at("digest");
    EXPECT_EQ(digest.at("k").number, 8.0);
    EXPECT_GT(digest.at("deliveries").number, 0.0);
    EXPECT_GT(digest.at("flows").number, 0.0);
    const JsonValue &worst = digest.at("worst_flows");
    ASSERT_EQ(worst.kind, JsonValue::Kind::Array);
    ASSERT_FALSE(worst.array.empty());
    EXPECT_LE(worst.array.size(), 8u);
    // Ranking: mean latency non-increasing down the digest.
    double prev_mean = -1.0;
    for (std::size_t i = 0; i < worst.array.size(); ++i) {
        const JsonValue &f = *worst.array[i];
        const double mean = f.path("latency.mean").number;
        if (i > 0) {
            EXPECT_LE(mean, prev_mean) << "worst_flows must be sorted";
        }
        prev_mean = mean;
        EXPECT_GT(f.at("packets").number, 0.0);
        const JsonValue &path = f.path("worst_packet.path");
        ASSERT_EQ(path.kind, JsonValue::Kind::Array);
        ASSERT_FALSE(path.array.empty());
        EXPECT_EQ(path.array.front()->at("kind").string, "endpoint");
    }
    for (const char *list : { "blamed_links", "blamed_routers" }) {
        const JsonValue &blamed = digest.at(list);
        ASSERT_EQ(blamed.kind, JsonValue::Kind::Array);
        ASSERT_FALSE(blamed.array.empty());
        double prev_wait = -1.0;
        for (std::size_t i = 0; i < blamed.array.size(); ++i) {
            const double wait = blamed.array[i]->at("queue_wait").number;
            if (i > 0) {
                EXPECT_LE(wait, prev_wait) << list << " must be sorted";
            }
            prev_wait = wait;
        }
    }

    // Full level: a dense num_nodes^2 matrix, zero rows included.
    const JsonValue &matrix = doc->at("matrix");
    ASSERT_EQ(matrix.kind, JsonValue::Kind::Array);
    EXPECT_EQ(matrix.array.size(), 64u); // 2x2x2 nodes squared
    double matrix_packets = 0.0;
    for (const auto &row : matrix.array)
        matrix_packets += row->at("packets").number;
    EXPECT_EQ(matrix_packets, digest.at("deliveries").number);

    // The machine report embeds the same section under "flows".
    const auto report = TinyJsonParser(run.report).parse();
    EXPECT_TRUE(report->at("flows").has("digest"));
    EXPECT_TRUE(report->at("flows").has("matrix"));
}

// ---------------------------------------------------------------------
// Sampled spans: the per-packet hop paths behind the Chrome export
// ---------------------------------------------------------------------

TEST(FlowSpans, SampledPacketsCarryOrderedCompleteHopPaths)
{
    MachineConfig cfg;
    cfg.radix = { 2, 2, 2 };
    cfg.chip.endpoints_per_node = 4;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 12;
    cfg.seed = 7;
    Machine m(cfg);
    FlowProbeConfig fc;
    fc.sample = 1; // retain every delivered packet's span
    Instrumentation finst;
    finst.flows = fc;
    m.attachInstrumentation(finst);

    Rng traffic(99);
    const auto nodes = static_cast<std::uint64_t>(m.geom().numNodes());
    std::uint64_t sent = 0;
    for (std::uint64_t i = 0; i < kPackets; ++i) {
        const EndpointAddr src{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(4)) };
        const EndpointAddr dst{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(4)) };
        if (src.node == dst.node)
            continue;
        m.send(m.makeWrite(src, dst));
        ++sent;
    }
    ASSERT_TRUE(m.run(RunSpec::untilDelivered(sent, 500000)).reason == StopReason::Delivered);

    const FlowProbe &probe = *m.flows();
    EXPECT_EQ(probe.droppedSpans(), 0u);
    ASSERT_EQ(probe.sampledSpans().size(), sent);
    for (const FlowProbe::Span &s : probe.sampledSpans()) {
        ASSERT_FALSE(s.path.empty());
        // The first span of every flight is the source endpoint's
        // injection-queue wait.
        EXPECT_EQ(s.path.front().kind, FlowUnitKind::Endpoint);
        int link_hops = 0;
        Cycle prev_depart = 0;
        for (const FlowHopRecord &h : s.path) {
            EXPECT_LE(h.arrival, h.grant) << "packet " << s.meta.packet;
            EXPECT_LE(h.grant, h.cycle) << "packet " << s.meta.packet;
            EXPECT_GE(h.arrival, prev_depart)
                << "hops must be chronological, packet " << s.meta.packet;
            prev_depart = h.cycle;
            if (h.kind == FlowUnitKind::Link)
                ++link_hops;
        }
        // Span attribution is complete: one Link record per torus hop
        // the packet reported at delivery.
        EXPECT_EQ(link_hops, s.meta.hops) << "packet " << s.meta.packet;
        EXPECT_LE(s.path.back().cycle, s.meta.delivered);
    }
}

TEST(FlowSpans, DecodedPathsReconcileWithUnitBlame)
{
    // A unit adds each hop's blame from the raw cycles and appends the
    // hop to the packet's log; with every packet sampled, the decoded
    // paths must add up to the blame counters unit by unit. The
    // 1500-cycle torus links put every hop after a link past the
    // packed gap field, so those hops take the log's wide form.
    for (const Cycle torus_latency : { Cycle{ 12 }, Cycle{ 1500 } }) {
        MachineConfig cfg;
        cfg.radix = { 2, 2, 2 };
        cfg.chip.endpoints_per_node = 4;
        cfg.use_packaging = false;
        cfg.fixed_torus_latency = torus_latency;
        cfg.seed = 8;
        cfg.threads = 2;
        Machine m(cfg);
        FlowProbeConfig fc;
        fc.sample = 1;
        Instrumentation finst;
        finst.flows = fc;
        m.attachInstrumentation(finst);

        Rng traffic(41);
        const auto nodes = static_cast<std::uint64_t>(m.geom().numNodes());
        std::uint64_t sent = 0;
        for (std::uint64_t i = 0; i < kPackets; ++i) {
            const EndpointAddr src{
                static_cast<NodeId>(traffic.below(nodes)),
                static_cast<int>(traffic.below(4)) };
            const EndpointAddr dst{
                static_cast<NodeId>(traffic.below(nodes)),
                static_cast<int>(traffic.below(4)) };
            if (src.node == dst.node)
                continue;
            m.send(m.makeWrite(src, dst, 0,
                               1 + static_cast<int>(traffic.below(2))));
            ++sent;
        }
        ASSERT_TRUE(m.run(RunSpec::untilDelivered(sent, 500000)).reason
                    == StopReason::Delivered);

        const FlowProbe &probe = *m.flows();
        ASSERT_EQ(probe.sampledSpans().size(), sent);
        std::map<FlowUnitKey, FlowUnitBlame> from_paths;
        std::int64_t widest_gap = 0; // arrival after the last departure
        for (const FlowProbe::Span &s : probe.sampledSpans()) {
            Cycle prev_depart = s.meta.birth;
            for (const FlowHopRecord &h : s.path) {
                FlowUnitBlame &b =
                    from_paths[FlowUnitKey{ h.node, h.kind, h.unit }];
                ++b.packets;
                b.flits += static_cast<std::uint64_t>(h.size_flits);
                b.queue_wait += h.grant - h.arrival;
                b.xfer_cycles += h.cycle - h.grant;
                widest_gap = std::max(
                    widest_gap,
                    static_cast<std::int64_t>(h.arrival - prev_depart));
                prev_depart = h.cycle;
            }
        }
        std::size_t busy_units = 0;
        for (const auto &[key, b] : probe.blame()) {
            if (b.packets == 0)
                continue;
            ++busy_units;
            const std::string where =
                "latency " + std::to_string(torus_latency) + " unit "
                + b.name + " on node " + std::to_string(key.node);
            const FlowUnitBlame &p = from_paths[key];
            EXPECT_EQ(p.packets, b.packets) << where;
            EXPECT_EQ(p.flits, b.flits) << where;
            EXPECT_EQ(p.queue_wait, b.queue_wait) << where;
            EXPECT_EQ(p.xfer_cycles, b.xfer_cycles) << where;
        }
        EXPECT_EQ(busy_units, from_paths.size());
        if (torus_latency > 1024)
            EXPECT_GE(widest_gap, 1500);
        else
            EXPECT_LT(widest_gap, 1024);
    }
}

TEST(FlowHopLog, NarrowAndWideHopsDecodeExactly)
{
    struct Hop
    {
        std::uint32_t unit;
        int port, vc;
        Cycle arrival, grant, depart;
    };
    // Offsets of each hop: arrival from the previous departure (from
    // birth for the first hop), grant from arrival, departure from
    // grant. The packed word holds a gap in [-1024, 1023], a queue in
    // [0, 8191] and a transfer in [0, 255]; each hop below sits on or
    // just past one of those edges, and negative queue and transfer
    // offsets only fit the wide form.
    struct Offsets
    {
        std::uint32_t unit;
        int port, vc;
        std::int64_t gap, queue, xfer;
    };
    const std::vector<Offsets> offsets = {
        { 0, -1, 0, 0, 10, 0 },                   // narrow
        { (1u << 19) - 1, 14, 255, -3, 2, 2 },    // widest head fields
        { 7, 3, 1, -1024, 5, 255 },               // narrow edges
        { 7, 3, 1, 1023, 8191, 0 },               // narrow edges
        { 7, 3, 1, -1025, 0, 1 },                 // wide: gap
        { 8, 0, 2, 1024, 0, 1 },                  // wide: gap
        { 9, 1, 3, 0, 8192, 1 },                  // wide: queue
        { 9, 1, 3, 0, 0, 256 },                   // wide: transfer
        { 9, 1, 3, 0, -1, 2 },                    // wide: negative queue
        { 9, 1, 3, 0, 3, -1 },                    // wide: negative xfer
        { 5, 2, 0, 4, 0, 1 },                     // narrow again
    };
    const Cycle birth = 100000;
    std::vector<Hop> hops;
    Cycle at = birth;
    FlowHopLog log;
    EXPECT_TRUE(log.empty());
    for (const Offsets &o : offsets) {
        Hop h{ o.unit, o.port, o.vc, 0, 0, 0 };
        h.arrival = at + static_cast<Cycle>(o.gap);
        h.grant = h.arrival + static_cast<Cycle>(o.queue);
        h.depart = h.grant + static_cast<Cycle>(o.xfer);
        at = h.depart;
        hops.push_back(h);
        log.append(h.unit, h.port, h.vc, h.arrival, h.grant, h.depart,
                   birth);
    }
    EXPECT_FALSE(log.empty());
    std::vector<Hop> got;
    log.forEach(birth, [&](std::uint32_t unit, int port, int vc,
                           Cycle arrival, Cycle grant, Cycle depart) {
        got.push_back({ unit, port, vc, arrival, grant, depart });
    });
    ASSERT_EQ(got.size(), hops.size());
    for (std::size_t i = 0; i < hops.size(); ++i) {
        EXPECT_EQ(got[i].unit, hops[i].unit) << "hop " << i;
        EXPECT_EQ(got[i].port, hops[i].port) << "hop " << i;
        EXPECT_EQ(got[i].vc, hops[i].vc) << "hop " << i;
        EXPECT_EQ(got[i].arrival, hops[i].arrival) << "hop " << i;
        EXPECT_EQ(got[i].grant, hops[i].grant) << "hop " << i;
        EXPECT_EQ(got[i].depart, hops[i].depart) << "hop " << i;
    }

    // A swap moves the whole log, including where its offsets resume.
    FlowHopLog other;
    other.swap(log);
    EXPECT_TRUE(log.empty());
    other.append(4, 0, 0, at + 2, at + 2, at + 3, birth);
    Cycle last = 0;
    other.forEach(birth, [&](std::uint32_t, int, int, Cycle, Cycle,
                             Cycle depart) { last = depart; });
    EXPECT_EQ(last, at + 3);
}

// ---------------------------------------------------------------------
// Satellite regression: diameter-scaled total-latency histogram
// ---------------------------------------------------------------------

TEST(LatencyHistogram, BinWidthScalesWithMachineDiameter)
{
    // Small machine, default link latency: the legacy 32-cycle bins are
    // preserved (fig9's default exports stay byte-identical).
    {
        MachineConfig cfg;
        cfg.radix = { 8, 4, 4 };
        cfg.chip.endpoints_per_node = 1;
        cfg.use_packaging = false;
        cfg.fixed_torus_latency = 20;
        Machine m(cfg);
        m.attachInstrumentation({ .metrics = true });
        const Histogram *h =
            m.metrics()->findHistogram("machine.latency.total");
        ASSERT_NE(h, nullptr);
        EXPECT_EQ(h->binWidth(), 32.0);
    }
    // Full-scale 8x8x8: wider bins so a worst-path (12-hop) latency
    // lands inside the histogram's 64-bin range.
    {
        MachineConfig cfg;
        cfg.radix = { 8, 8, 8 };
        cfg.chip.endpoints_per_node = 1;
        cfg.use_packaging = false;
        cfg.fixed_torus_latency = 20;
        Machine m(cfg);
        m.attachInstrumentation({ .metrics = true });
        const Histogram *h =
            m.metrics()->findHistogram("machine.latency.total");
        ASSERT_NE(h, nullptr);
        EXPECT_EQ(h->binWidth(), 64.0);
    }
}

TEST(LatencyHistogram, WorstPathOnLargeTorusLandsInRealBins)
{
    // 8x8x8 with slow links: before the diameter scaling, the fixed
    // 64 x 32-cycle range (2048 cycles) put every worst-path delivery
    // in the overflow bin.
    MachineConfig cfg;
    cfg.radix = { 8, 8, 8 };
    cfg.chip.endpoints_per_node = 1;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 200;
    cfg.seed = 3;
    Machine m(cfg);
    m.attachInstrumentation({ .metrics = true });
    const Histogram *h =
        m.metrics()->findHistogram("machine.latency.total");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->binWidth(), 192.0);

    // One packet across the full diameter: 4 hops in each dimension.
    const NodeId a = m.geom().id({ 0, 0, 0 });
    const NodeId b = m.geom().id({ 4, 4, 4 });
    m.send(m.makeWrite({ a, 0 }, { b, 0 }));
    ASSERT_TRUE(m.run(RunSpec::untilDelivered(1, 100000)).reason == StopReason::Delivered);

    ASSERT_EQ(h->stat().count(), 1u);
    const double lat = h->stat().sum();
    // The regression is only meaningful if this latency overflows the
    // legacy fixed-width range ...
    EXPECT_GT(lat, 64.0 * 32.0);
    // ... and the scaled bins must absorb it: overflow bin empty, the
    // delivery counted in the real bin its latency falls in.
    const auto &counts = h->counts();
    EXPECT_EQ(counts.back(), 0u) << "overflow bin must stay empty";
    const auto bin = static_cast<std::size_t>(lat / h->binWidth());
    ASSERT_LT(bin, counts.size() - 1);
    EXPECT_EQ(counts[bin], 1u);
}

// ---------------------------------------------------------------------
// Trace and flows attached together
// ---------------------------------------------------------------------

/**
 * Trace and flows on one machine: trace events stage on the observer
 * bus while flow hops are accounted in the shards, and the Chrome trace
 * carries both. A fixed cycle budget (not a stop condition) ends every
 * schedule on the same cycle, so the Chrome trace's end cycle and stall
 * totals are comparable across windows.
 */
struct TraceFlowRun
{
    std::string chrome; ///< Machine::traceChromeJson (with flow spans)
    std::string csv;    ///< flow-matrix CSV
};

TraceFlowRun
runTraceAndFlows(int threads, Cycle lookahead)
{
    MachineConfig cfg;
    cfg.radix = { 2, 2, 2 };
    cfg.chip.endpoints_per_node = 4;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 12;
    cfg.seed = 71;
    Machine m(cfg);
    m.setThreads(threads);
    m.setLookahead(lookahead);
    Instrumentation inst;
    TraceConfig tc;
    tc.capacity = std::size_t{ 1 } << 14;
    inst.trace = tc;
    FlowProbeConfig fc;
    fc.sample = 4;
    inst.flows = fc;
    m.attachInstrumentation(inst);

    Rng traffic(71 * 1315423911ULL + 1);
    const auto nodes = static_cast<std::uint64_t>(m.geom().numNodes());
    std::uint64_t sent = 0;
    for (std::uint64_t i = 0; i < kPackets; ++i) {
        const EndpointAddr src{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(4)) };
        const EndpointAddr dst{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(4)) };
        if (src.node == dst.node)
            continue;
        m.send(m.makeWrite(src, dst, 0,
                           1 + static_cast<int>(traffic.below(2))));
        ++sent;
    }
    m.run(RunSpec::forCycles(4000));
    EXPECT_EQ(m.totalDelivered(), sent);
    EXPECT_EQ(m.trace()->dropped(), 0u);
    return { m.traceChromeJson(), m.flowMatrixCsv() };
}

TEST(ObserverBus, TraceAndFlowsTogetherByteIdenticalAcrossThreadsAndWindows)
{
    const auto base = runTraceAndFlows(1, 1);
    ASSERT_NE(base.chrome.find("\"traceEvents\""), std::string::npos);
    ASSERT_NE(base.chrome.find("\"queue_cycles\""), std::string::npos)
        << "sampled flow spans must ride in the Chrome trace";
    ASSERT_FALSE(base.csv.empty());
    for (const Cycle lookahead : { Cycle{ 1 }, Cycle{ 0 } }) {
        for (const int threads : { 1, 2, 4 }) {
            const auto run = runTraceAndFlows(threads, lookahead);
            EXPECT_EQ(run.chrome, base.chrome)
                << "threads=" << threads << " lookahead=" << lookahead;
            EXPECT_EQ(run.csv, base.csv)
                << "threads=" << threads << " lookahead=" << lookahead;
        }
    }
}

// ---------------------------------------------------------------------
// Golden exports: the flow accounting's byte-level contract
// ---------------------------------------------------------------------

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** The three flow exports, as FNV-1a digests plus their sizes. */
struct FlowGoldenExports
{
    std::uint64_t report_flows = 0; ///< the run report's `flows` section
    std::uint64_t csv = 0;          ///< flow-matrix CSV
    std::uint64_t chrome = 0;       ///< Chrome trace with sampled spans
    std::size_t report_flows_bytes = 0;
    std::size_t csv_bytes = 0;
    std::size_t chrome_bytes = 0;
    std::uint64_t deliveries = 0;
    /** Sampled spans whose path starts past the source endpoint. */
    std::size_t partial_spans = 0;
};

/** Queue @p count seeded packets: 1- and 2-flit writes and, one in
 * four, a read request whose reply is a reply-class flow. */
void
sendMixed(Machine &m, Rng &traffic, int count)
{
    const auto nodes = static_cast<std::uint64_t>(m.geom().numNodes());
    for (int i = 0; i < count; ++i) {
        const EndpointAddr src{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(4)) };
        const EndpointAddr dst{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(4)) };
        if (src.node == dst.node)
            continue;
        if (traffic.below(4) == 0)
            m.send(m.makeRead(src, dst));
        else
            m.send(m.makeWrite(src, dst, 0,
                               1 + static_cast<int>(traffic.below(2))));
    }
}

/**
 * A mixed run with metrics at `full`, tracing, and a flow probe that
 * samples every third packet's spans: one burst at cycle 0, a second
 * at cycle 150, and a fixed 3000-cycle budget so every schedule ends
 * on the same cycle. With @p attach_mid_run the probe attaches at
 * cycle 150, while the first burst is still in flight.
 */
FlowGoldenExports
runFlowGolden(int threads, Cycle lookahead, bool attach_mid_run)
{
    MachineConfig cfg;
    cfg.radix = { 2, 2, 2 };
    cfg.chip.endpoints_per_node = 4;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 12;
    cfg.seed = 23;
    cfg.threads = threads;
    cfg.lookahead = lookahead;
    Machine m(cfg);
    Instrumentation inst;
    inst.metrics = true;
    inst.metrics_level = MetricsLevel::Full;
    TraceConfig tc;
    tc.capacity = std::size_t{ 1 } << 15;
    inst.trace = tc;
    FlowProbeConfig fc;
    fc.sample = 3;
    Instrumentation flows;
    flows.flows = fc;
    if (!attach_mid_run)
        inst.flows = fc;
    m.attachInstrumentation(inst);

    Rng traffic(23 * 2654435761ULL + 5);
    sendMixed(m, traffic, 160);
    m.run(RunSpec::forCycles(150));
    EXPECT_EQ(m.now(), 150u);
    if (attach_mid_run)
        m.attachInstrumentation(flows);
    sendMixed(m, traffic, 160);
    m.run(RunSpec::forCycles(2850));
    EXPECT_EQ(m.trace()->dropped(), 0u);

    FlowGoldenExports out;
    const std::string report = m.runReportJson();
    const std::string open = "\n  \"flows\": ";
    const std::size_t at = report.find(open);
    const std::size_t end = report.find(",\n  \"steady_state\": ");
    EXPECT_NE(at, std::string::npos);
    EXPECT_NE(end, std::string::npos);
    const std::string section =
        at == std::string::npos || end == std::string::npos
            ? std::string()
            : report.substr(at + open.size(), end - at - open.size());
    const std::string csv = m.flowMatrixCsv();
    const std::string chrome = m.traceChromeJson();
    out.report_flows = fnv1a(section);
    out.csv = fnv1a(csv);
    out.chrome = fnv1a(chrome);
    out.report_flows_bytes = section.size();
    out.csv_bytes = csv.size();
    out.chrome_bytes = chrome.size();
    out.deliveries = m.flows()->deliveries();
    for (const FlowProbe::Span &sp : m.flows()->sampledSpans()) {
        if (sp.path.empty() || sp.path.front().kind != FlowUnitKind::Endpoint)
            ++out.partial_spans;
    }
    return out;
}

void
expectFlowGolden(const FlowGoldenExports &got,
                 const FlowGoldenExports &want, const std::string &where)
{
    EXPECT_EQ(got.deliveries, want.deliveries) << where;
    EXPECT_EQ(got.report_flows_bytes, want.report_flows_bytes) << where;
    EXPECT_EQ(got.csv_bytes, want.csv_bytes) << where;
    EXPECT_EQ(got.chrome_bytes, want.chrome_bytes) << where;
    EXPECT_EQ(got.report_flows, want.report_flows)
        << where << std::hex << " got 0x" << got.report_flows;
    EXPECT_EQ(got.csv, want.csv) << where << std::hex << " got 0x"
                                 << got.csv;
    EXPECT_EQ(got.chrome, want.chrome)
        << where << std::hex << " got 0x" << got.chrome;
}

// The expected values below were taken from a build whose flow probe
// staged every hop through the observer bus and replayed it serially
// into a blame map and per-packet path logs; the per-unit, per-packet
// accounting must reproduce them exactly.

TEST(FlowGolden, MixedRunExportsAreExactAtEveryThreadCountAndWindow)
{
    FlowGoldenExports want;
    want.deliveries = 351;
    want.report_flows_bytes = 26096;
    want.csv_bytes = 6064;
    want.chrome_bytes = 2497073;
    want.report_flows = 0xfa1ca37086e390c7ULL;
    want.csv = 0xfc6108326b301ea9ULL;
    want.chrome = 0x2902b4b0575a226eULL;
    for (const Cycle lookahead : { Cycle{ 1 }, Cycle{ 0 } }) {
        for (const int threads : { 1, 2, 4 }) {
            expectFlowGolden(runFlowGolden(threads, lookahead, false), want,
                             "threads=" + std::to_string(threads)
                                 + " lookahead="
                                 + std::to_string(lookahead));
        }
    }
}

TEST(FlowGolden, ProbeAttachedMidRunExportsAreExact)
{
    // Packets in flight at the attach carry only the hops they take
    // after it; blame counts only those hops.
    FlowGoldenExports want;
    want.deliveries = 197;
    want.report_flows_bytes = 22011;
    want.csv_bytes = 5235;
    want.chrome_bytes = 2360482;
    want.report_flows = 0xad3f434637b04351ULL;
    want.csv = 0xfd6eb9a450eca5bbULL;
    want.chrome = 0x519faee5da99a9baULL;
    for (const Cycle lookahead : { Cycle{ 1 }, Cycle{ 0 } }) {
        const FlowGoldenExports got = runFlowGolden(4, lookahead, true);
        expectFlowGolden(got, want,
                         "threads=4 lookahead="
                             + std::to_string(lookahead));
        EXPECT_GT(got.partial_spans, 0u)
            << "the attach must catch packets in flight";
    }
}

} // namespace
} // namespace anton2
