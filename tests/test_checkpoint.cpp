/**
 * @file
 * Checkpoint/restore round-trip suite.
 *
 * The contract under test (src/debug/checkpoint.*, Machine::save/
 * restoreCheckpoint): a machine saved at cycle C and restored into a
 * freshly constructed machine continues *byte-identically* to the
 * uninterrupted run - same metrics, trace, flow, time-series, and audit
 * exports after C+N cycles - at any thread count and lookahead window.
 * Instrumentation is not checkpointed; both the baseline and the
 * restored run attach the same bundle at cycle C.
 *
 * Also pinned here: traffic-driver state rides along through the
 * checkpoint-client registry (a batch saved mid-flight completes after
 * restore), the RunSpec checkpoint_in/checkpoint_out plumbing, and the
 * reader's rejection of corrupted, truncated, version-mismatched,
 * config-mismatched, and client-mismatched files.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "debug/checkpoint.hpp"
#include "noc/channel.hpp"
#include "sim/rng.hpp"
#include "traffic/driver.hpp"
#include "traffic/patterns.hpp"

namespace anton2 {
namespace {

/** Scratch checkpoint path, unique per test to allow parallel ctest. */
std::string
ckptPath(const char *name)
{
    return std::string(::testing::TempDir()) + "ckpt_" + name + ".bin";
}

MachineConfig
smallConfig(std::uint64_t seed = 7)
{
    MachineConfig cfg;
    cfg.radix = { 2, 2, 2 };
    cfg.chip.endpoints_per_node = 2;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 12;
    cfg.seed = seed;
    return cfg;
}

/** Seeded pre-injected workload (byte-identical across lookahead
 * windows and thread counts, like every workload). */
void
preInject(Machine &m, std::uint64_t seed, std::uint64_t packets = 96)
{
    Rng traffic(seed * 2654435761ULL + 17);
    const auto nodes = static_cast<std::uint64_t>(m.geom().numNodes());
    for (std::uint64_t i = 0; i < packets; ++i) {
        const EndpointAddr src{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(2)) };
        const EndpointAddr dst{ static_cast<NodeId>(traffic.below(nodes)),
                                static_cast<int>(traffic.below(2)) };
        if (src.node == dst.node)
            continue;
        m.send(m.makeWrite(src, dst, 0,
                           1 + static_cast<int>(traffic.below(2))));
    }
}

/** The full observability stack, attached at the fork cycle by both the
 * uninterrupted baseline and every restored run. */
Instrumentation
forkInstrumentation()
{
    Instrumentation inst;
    inst.metrics = true;
    TraceConfig tcfg;
    tcfg.capacity = std::size_t{ 1 } << 16;
    inst.trace = tcfg;
    inst.flows = FlowProbeConfig{};
    TimeseriesConfig scfg;
    scfg.window = 32;
    inst.timeseries = scfg;
    AuditConfig acfg;
    acfg.audit_interval = 32;
    acfg.watchdog_interval = 64;
    inst.audit = acfg;
    return inst;
}

/** Every deterministic export the fork instrumentation produces. */
struct Exports
{
    std::uint64_t delivered = 0;
    Cycle final_cycle = 0;
    std::string metrics;
    std::string chrome;
    std::string flights;
    std::string flows;
    std::string timeseries;
    std::string audit;
};

Exports
capture(Machine &m)
{
    Exports e;
    e.delivered = m.totalDelivered();
    e.final_cycle = m.now();
    e.metrics = m.metricsJson();
    e.chrome = m.traceChromeJson();
    e.flights = m.traceFlightCsv();
    e.flows = m.flowMatrixCsv();
    e.timeseries = m.timeseriesJson();
    e.audit = m.audit()->reportJson();
    return e;
}

void
expectIdentical(const Exports &a, const Exports &b, const std::string &what)
{
    EXPECT_EQ(a.delivered, b.delivered) << what;
    EXPECT_EQ(a.final_cycle, b.final_cycle) << what;
    EXPECT_EQ(a.metrics, b.metrics) << what << ": metrics JSON differs";
    EXPECT_EQ(a.chrome, b.chrome) << what << ": Chrome trace differs";
    EXPECT_EQ(a.flights, b.flights) << what << ": flight CSV differs";
    EXPECT_EQ(a.flows, b.flows) << what << ": flow matrix differs";
    EXPECT_EQ(a.timeseries, b.timeseries)
        << what << ": time-series JSON differs";
    EXPECT_EQ(a.audit, b.audit) << what << ": audit report differs";
}

constexpr Cycle kForkCycle = 60;
constexpr Cycle kTailCycles = 400;

// ---------------------------------------------------------------------
// Byte-identical restore, pre-injected workload
// ---------------------------------------------------------------------

TEST(Checkpoint, RestoredRunMatchesUninterruptedAcrossThreadsAndWindows)
{
    // Uninterrupted baseline: run to C, attach the stack, run N more.
    Machine base(smallConfig());
    preInject(base, smallConfig().seed);
    base.run(RunSpec::forCycles(kForkCycle));
    base.attachInstrumentation(forkInstrumentation());
    base.run(RunSpec::forCycles(kTailCycles));
    const Exports expected = capture(base);
    EXPECT_GT(expected.delivered, 0u);
    EXPECT_EQ(expected.final_cycle, kForkCycle + kTailCycles);

    // Save at C from an identical (instrumentation-free) run.
    const std::string path = ckptPath("roundtrip");
    {
        Machine saver(smallConfig());
        preInject(saver, smallConfig().seed);
        saver.run(RunSpec::forCycles(kForkCycle));
        saver.saveCheckpoint(path);
    }

    // Restore into every thread-count x window combination; each must
    // reproduce the baseline exports byte for byte.
    for (int threads : { 1, 2, 4 }) {
        for (Cycle window : { Cycle{ 1 }, Cycle{ 0 } /* = auto */ }) {
            MachineConfig cfg = smallConfig();
            cfg.threads = threads;
            cfg.lookahead = window;
            Machine m(cfg);
            m.restoreCheckpoint(path);
            EXPECT_EQ(m.now(), kForkCycle);
            EXPECT_EQ(m.restoredFrom(), path);
            EXPECT_EQ(m.restoredCycle(), kForkCycle);
            m.attachInstrumentation(forkInstrumentation());
            m.run(RunSpec::forCycles(kTailCycles));
            expectIdentical(expected, capture(m),
                            "threads=" + std::to_string(threads)
                                + " window=" + std::to_string(window));
        }
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Driver state rides along (checkpoint clients)
// ---------------------------------------------------------------------

/** Drive a fig9-style batch: run to C with the driver mid-flight, then
 * either save (path non-empty) or keep going to completion. */
struct BatchOutcome
{
    std::uint64_t delivered = 0;
    Cycle done_cycle = 0;
    std::string metrics;
};

TEST(Checkpoint, BatchDriverSavedMidFlightCompletesAfterRestore)
{
    // The BatchDriver injects from its chips' shards, so the window is a
    // host knob like the thread count: an image saved mid-batch at
    // window 1 resumes at window auto (and at window 1) on another
    // thread count and finishes exactly like the uninterrupted run.
    MachineConfig cfg = smallConfig(23);
    cfg.lookahead = 1;

    auto drive = [&](Machine &m, BatchDriver &driver,
                     const std::string &save_path) {
        m.engine().add(driver);
        m.run(RunSpec::forCycles(kForkCycle));
        // The batch must actually be mid-flight at the fork.
        EXPECT_GT(driver.sentTotal(), 0u);
        EXPECT_LT(m.totalDelivered(), driver.deliveredTarget());
        if (!save_path.empty()) {
            m.saveCheckpoint(save_path);
            return BatchOutcome{};
        }
        Instrumentation inst;
        inst.metrics = true;
        m.attachInstrumentation(inst);
        RunResult res = m.run(
            RunSpec::untilDelivered(driver.deliveredTarget(), 500000));
        EXPECT_EQ(res.reason, StopReason::Delivered);
        EXPECT_TRUE(driver.done(m));
        return BatchOutcome{ m.totalDelivered(), m.now(),
                             m.metricsJson() };
    };

    // Uninterrupted baseline.
    Machine base(cfg);
    UniformPattern bpat(base.geom());
    BatchDriver::Config dcfg;
    dcfg.cores = { 0, 1 };
    dcfg.batch_size = 24;
    dcfg.pattern = &bpat;
    BatchDriver bdriver(base, dcfg);
    const BatchOutcome expected = drive(base, bdriver, "");

    // Save mid-batch at window 1...
    const std::string path = ckptPath("driver");
    {
        Machine saver(cfg);
        UniformPattern spat(saver.geom());
        BatchDriver sdriver(saver, dcfg);
        drive(saver, sdriver, path);
    }

    // ...and restore into a different thread count and either window.
    // The driver's progress is part of the image: the batch completes
    // at the same cycle with the same telemetry.
    for (Cycle window : { Cycle{ 0 } /* = auto */, Cycle{ 1 } }) {
        MachineConfig rcfg = cfg;
        rcfg.threads = 2;
        rcfg.lookahead = window;
        Machine restored(rcfg);
        UniformPattern rpat(restored.geom());
        BatchDriver rdriver(restored, dcfg);
        restored.engine().add(rdriver);
        restored.restoreCheckpoint(path);
        EXPECT_GT(rdriver.sentTotal(), 0u);
        Instrumentation inst;
        inst.metrics = true;
        restored.attachInstrumentation(inst);
        RunResult res = restored.run(
            RunSpec::untilDelivered(rdriver.deliveredTarget(), 500000));
        EXPECT_EQ(res.reason, StopReason::Delivered);
        EXPECT_TRUE(rdriver.done(restored));
        EXPECT_EQ(restored.totalDelivered(), expected.delivered)
            << "window=" << window;
        EXPECT_EQ(restored.now(), expected.done_cycle)
            << "window=" << window;
        EXPECT_EQ(restored.metricsJson(), expected.metrics)
            << "window=" << window;
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// RunSpec checkpoint plumbing
// ---------------------------------------------------------------------

TEST(Checkpoint, RunSpecSavesAtRunEndAndRestoresBeforeRunning)
{
    const std::string path = ckptPath("runspec");

    Machine a(smallConfig(31));
    preInject(a, 31);
    RunSpec out_spec = RunSpec::forCycles(kForkCycle);
    out_spec.checkpoint_out = path;
    RunResult res = a.run(out_spec);
    // No steady-state sampler attached: the save lands at run end.
    EXPECT_TRUE(res.checkpoint_saved);
    EXPECT_EQ(res.checkpoint_cycle, kForkCycle);
    EXPECT_EQ(res.end_cycle, kForkCycle);
    a.run(RunSpec::forCycles(kTailCycles));

    Machine b(smallConfig(31));
    RunSpec in_spec = RunSpec::forCycles(kTailCycles);
    in_spec.checkpoint_in = path;
    b.run(in_spec);
    EXPECT_EQ(b.now(), kForkCycle + kTailCycles);
    EXPECT_EQ(b.restoredCycle(), kForkCycle);
    EXPECT_EQ(b.totalDelivered(), a.totalDelivered());
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Rejection: corrupted / mismatched files fail loudly
// ---------------------------------------------------------------------

std::vector<char>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return { std::istreambuf_iterator<char>(in),
             std::istreambuf_iterator<char>() };
}

void
writeAll(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** Save a valid checkpoint from a mid-run machine. */
std::string
makeValidCheckpoint(const char *name)
{
    const std::string path = ckptPath(name);
    Machine m(smallConfig());
    preInject(m, smallConfig().seed);
    m.run(RunSpec::forCycles(kForkCycle));
    m.saveCheckpoint(path);
    return path;
}

TEST(CheckpointReject, CorruptedPayloadFailsChecksum)
{
    const std::string path = makeValidCheckpoint("corrupt");
    std::vector<char> bytes = readAll(path);
    ASSERT_GT(bytes.size(), 64u);
    bytes[48] = static_cast<char>(bytes[48] ^ 0x5a); // inside the payload

    writeAll(path, bytes);
    Machine m(smallConfig());
    try {
        m.restoreCheckpoint(path);
        FAIL() << "corrupted checkpoint accepted";
    } catch (const CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find("checksum"),
                  std::string::npos)
            << "unexpected error: " << e.what();
    }
    std::remove(path.c_str());
}

TEST(CheckpointReject, VersionMismatchNamesBothVersions)
{
    const std::string path = makeValidCheckpoint("version");
    std::vector<char> bytes = readAll(path);
    // Header layout: 8-byte magic, then the little-endian u32 version.
    bytes[8] = static_cast<char>(kCheckpointVersion + 1);

    writeAll(path, bytes);
    Machine m(smallConfig());
    try {
        m.restoreCheckpoint(path);
        FAIL() << "version-mismatched checkpoint accepted";
    } catch (const CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
            << "unexpected error: " << e.what();
    }
    std::remove(path.c_str());
}

TEST(CheckpointReject, TruncatedFileIsRejected)
{
    const std::string path = makeValidCheckpoint("truncated");
    std::vector<char> bytes = readAll(path);
    bytes.resize(bytes.size() / 2);
    writeAll(path, bytes);
    Machine m(smallConfig());
    EXPECT_THROW(m.restoreCheckpoint(path), CheckpointError);
    std::remove(path.c_str());
}

TEST(CheckpointReject, ConfigFingerprintMismatchIsRejected)
{
    const std::string path = makeValidCheckpoint("fingerprint");
    // A different seed changes the fingerprint (and the RNG state the
    // image would silently clobber); restore must refuse.
    Machine other(smallConfig(/*seed=*/99));
    try {
        other.restoreCheckpoint(path);
        FAIL() << "fingerprint-mismatched checkpoint accepted";
    } catch (const CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find("fingerprint"),
                  std::string::npos)
            << "unexpected error: " << e.what();
    }
    std::remove(path.c_str());
}

TEST(CheckpointReject, ClientCountMismatchIsRejected)
{
    // Save with a BatchDriver registered as a checkpoint client...
    const std::string path = ckptPath("clients");
    MachineConfig cfg = smallConfig(23);
    {
        Machine m(cfg);
        UniformPattern pat(m.geom());
        BatchDriver::Config dcfg;
        dcfg.cores = { 0, 1 };
        dcfg.batch_size = 24;
        dcfg.pattern = &pat;
        BatchDriver driver(m, dcfg);
        m.engine().add(driver);
        m.run(RunSpec::forCycles(kForkCycle));
        m.saveCheckpoint(path);
    }
    // ...then restore into a machine with no driver: the client
    // registry no longer matches the file.
    Machine bare(cfg);
    try {
        bare.restoreCheckpoint(path);
        FAIL() << "client-mismatched checkpoint accepted";
    } catch (const CheckpointError &e) {
        EXPECT_NE(std::string(e.what()).find("client"), std::string::npos)
            << "unexpected error: " << e.what();
    }
    std::remove(path.c_str());
}

TEST(CheckpointReject, MissingFileIsRejected)
{
    Machine m(smallConfig());
    EXPECT_THROW(m.restoreCheckpoint(ckptPath("does_not_exist")),
                 CheckpointError);
}

// ---------------------------------------------------------------------
// Reader robustness: seeded mutations of a real image
// ---------------------------------------------------------------------

/** File layout: 8-byte magic, u32 version, u64 fingerprint, u64
 * payload size, payload, u64 FNV-1a checksum of the payload. */
constexpr std::size_t kPayloadAt = 28;

std::uint32_t
getLe32(const std::vector<char> &b, std::size_t off)
{
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | static_cast<std::uint8_t>(b[off + i]);
    return v;
}

void
putLe(std::vector<char> &b, std::size_t off, std::uint64_t v, int bytes)
{
    for (int i = 0; i < bytes; ++i)
        b[off + static_cast<std::size_t>(i)] =
            static_cast<char>((v >> (8 * i)) & 0xffu);
}

/** Recompute the checksum so an edited payload reaches the decoder. */
void
reseal(std::vector<char> &b)
{
    const std::size_t payload = b.size() - kPayloadAt - 8;
    putLe(b, b.size() - 8, ckptHash(b.data() + kPayloadAt, payload), 8);
}

/** Offsets of the packet-table count and of the first @p max_packets
 * packets' length fields (payload, route order, route dirs), walking
 * the packet codec's layout. */
std::vector<std::size_t>
lengthFields(const std::vector<char> &b, std::size_t max_packets)
{
    std::vector<std::size_t> out{ kPayloadAt };
    const std::uint32_t packets = getLe32(b, kPayloadAt);
    std::size_t p = kPayloadAt + 4;
    for (std::uint32_t i = 0; i < packets && i < max_packets; ++i) {
        p += 29; // id, src, dst, class, op, pattern, size
        out.push_back(p);
        p += 4 + getLe32(b, p) * sizeof(FlitPayload) + 8; // + counter, group
        out.push_back(p);
        p += 4 + getLe32(b, p) * 4 + 1; // + slice
        out.push_back(p);
        p += 4 + getLe32(b, p) + 40; // + vc, exit, x_through, cycles, hops
    }
    return out;
}

TEST(CheckpointReject, SeededMutationsAlwaysThrowCheckpointError)
{
    const std::string path = makeValidCheckpoint("mutations");
    const std::vector<char> image = readAll(path);
    ASSERT_GT(image.size(), 256u);
    ASSERT_GT(getLe32(image, kPayloadAt), 0u) << "image holds no packets";

    std::size_t trials = 0;
    std::size_t failures = 0;
    std::string first;
    auto expectRejected = [&](const std::vector<char> &bytes,
                              const std::string &what) {
        ++trials;
        writeAll(path, bytes);
        Machine m(smallConfig());
        std::string wrong;
        try {
            m.restoreCheckpoint(path);
            wrong = "accepted";
        } catch (const CheckpointError &) {
        } catch (const std::exception &e) {
            wrong = std::string("threw ") + e.what();
        }
        if (!wrong.empty() && failures++ == 0)
            first = what + ": " + wrong;
    };

    Rng rng(0x5eedULL);
    // Byte flips anywhere: header, payload, checksum.
    for (int t = 0; t < 48; ++t) {
        std::vector<char> b = image;
        const int flips = 1 + static_cast<int>(rng.below(3));
        for (int f = 0; f < flips; ++f) {
            const std::size_t off = rng.below(b.size());
            b[off] = static_cast<char>(b[off] ^ (1 + rng.below(255)));
        }
        expectRejected(b, "flip #" + std::to_string(t));
    }
    // Truncations, inside the header and anywhere after it.
    std::vector<std::size_t> lengths{ 0, 4, 27, 28, 29 };
    for (int t = 0; t < 12; ++t)
        lengths.push_back(rng.below(image.size()));
    for (std::size_t len : lengths) {
        std::vector<char> b = image;
        b.resize(len);
        expectRejected(b, "truncated to " + std::to_string(len));
    }
    // The header's payload length, inflated.
    const std::uint64_t payload = image.size() - kPayloadAt - 8;
    for (std::uint64_t v : { payload + 1, payload + 8,
                             std::uint64_t{ 1 } << 40, ~std::uint64_t{ 0 } }) {
        std::vector<char> b = image;
        putLe(b, kPayloadAt - 8, v, 8);
        expectRejected(b, "payload length " + std::to_string(v));
    }
    // Length fields inside the payload, inflated and resealed: the
    // decoder itself must reject them, without allocating what they
    // claim.
    for (std::size_t off : lengthFields(image, 6)) {
        const std::uint32_t was = getLe32(image, off);
        for (std::uint32_t v : { was + 1, 0x10000u, 0x7fffffffu,
                                 0xffffffffu }) {
            std::vector<char> b = image;
            putLe(b, off, v, 4);
            reseal(b);
            expectRejected(b, "length at " + std::to_string(off) + " = "
                                  + std::to_string(v));
        }
    }
    EXPECT_EQ(failures, 0u) << failures << " of " << trials
                            << " mutations not rejected; first: " << first;
    std::remove(path.c_str());
}

TEST(Checkpoint, ColdStartReportsNoProvenance)
{
    Machine m(smallConfig());
    EXPECT_EQ(m.restoredFrom(), "");
    EXPECT_EQ(m.restoredCycle(), 0u);
}

TEST(Checkpoint, ChannelWithPhitsAndCreditsInFlightRoundTripsBytes)
{
    // Data latency 5, credit latency 3, window slack 2 (a cross-shard
    // torus channel). Two phits of one packet and two credits in flight.
    Channel ch(5, 3, 2);
    auto pkt = std::make_shared<Packet>();
    pkt->id = 42;
    pkt->size_flits = 2;
    pkt->payload = { FlitPayload{ 1, 2, 3 }, FlitPayload{ 4, 5, 6 } };
    for (std::uint16_t f = 0; f < 2; ++f) {
        Phit phit;
        phit.pkt = pkt;
        phit.vc = 3;
        phit.index = f;
        phit.head = f == 0;
        phit.tail = f == 1;
        phit.payload = pkt->payload[f];
        ch.data.send(10 + f, phit);
    }
    ch.credit.send(10, Credit{ 1 });
    ch.credit.send(12, Credit{ 6 });

    const std::string first = ckptPath("channel_first");
    const std::string second = ckptPath("channel_second");
    constexpr std::uint64_t kFingerprint = 0xc4a22e1;
    CkptWriter w;
    ch.saveState(w);
    w.writeFile(first, kFingerprint);

    Channel back(5, 3, 2);
    CkptReader r(first, kFingerprint,
                 [] { return std::make_shared<Packet>(); });
    back.loadState(r);
    r.finish();
    EXPECT_EQ(back.data.inFlight(), 2u);
    EXPECT_EQ(back.credit.inFlight(), 2u);
    EXPECT_TRUE(back.busy());

    CkptWriter w2;
    back.saveState(w2);
    w2.writeFile(second, kFingerprint);
    EXPECT_EQ(readAll(first), readAll(second));

    // The restored wires deliver the same values at the same cycles.
    EXPECT_FALSE(back.data.take(14).has_value());
    const auto head = back.data.take(15);
    ASSERT_TRUE(head.has_value());
    EXPECT_EQ(head->pkt->id, 42u);
    EXPECT_TRUE(head->head);
    EXPECT_EQ(head->payload, (FlitPayload{ 1, 2, 3 }));
    const auto tail = back.data.take(16);
    ASSERT_TRUE(tail.has_value());
    EXPECT_EQ(tail->pkt, head->pkt); // one packet, shared
    EXPECT_TRUE(tail->tail);
    EXPECT_EQ(back.credit.take(13).value().vc, 1);
    EXPECT_EQ(back.credit.take(15).value().vc, 6);
    EXPECT_FALSE(back.busy());
    std::remove(first.c_str());
    std::remove(second.c_str());
}

} // namespace
} // namespace anton2
