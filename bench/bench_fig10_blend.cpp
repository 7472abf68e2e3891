/**
 * @file
 * Figure 10: blending tornado and reverse-tornado traffic under four
 * arbiter-weight configurations (Section 4.2).
 *
 * Packets are split between the two patterns with a fraction varying along
 * the horizontal axis; each packet carries its pattern id. Configurations:
 *   None    - round-robin arbitration;
 *   Forward - a single weight set computed from tornado loads;
 *   Reverse - a single weight set computed from reverse-tornado loads;
 *   Both    - two weight sets, one per pattern (the inverse-weighted
 *             arbiter's headline capability).
 *
 * Paper's result: single-weight-set configurations degrade toward
 * round-robin when the blend moves away from their pattern; Both holds
 * ~85% across the entire range.
 *
 * Default: 8x4x4 torus, 8 cores/node, 256 packets per core (the paper used
 * 8x8x8 with 1,024 per core; --kx/--ky/--kz/--batch scale up).
 */
#include <cstdio>
#include <string>

#include "analysis/loads.hpp"
#include "common.hpp"
#include "core/machine.hpp"
#include "traffic/driver.hpp"
#include "traffic/patterns.hpp"

using namespace anton2;

namespace {

constexpr int kEndpointsPerNode = 8;

enum class WeightMode { None, Forward, Reverse, Both };

/** One sweep point's normalized throughput, or -1 when the batch did
 * not complete (bench::runSucceeded). */
double
runBlend(const std::vector<int> &radix, int cores, std::uint64_t batch,
         WeightMode mode, double reverse_fraction, std::uint64_t seed,
         const bench::RunOptions &run, bool probe,
         std::string *report_body, std::string *host_json)
{
    MachineConfig cfg;
    cfg.radix = radix;
    cfg.chip.endpoints_per_node = kEndpointsPerNode;
    cfg.chip.arb = mode == WeightMode::None ? ArbPolicy::RoundRobin
                                            : ArbPolicy::InverseWeighted;
    cfg.use_packaging = false;
    cfg.fixed_torus_latency = 20;
    cfg.seed = seed;
    Machine m(cfg);
    // The probe run (last sweep point, Both mode) carries the requested
    // instrumentation (trace, flows, run report, self-profiling, ...);
    // the rest of the sweep stays uninstrumented.
    if (probe) {
        run.apply(m);
    } else {
        m.setThreads(static_cast<int>(run.threads));
        m.setLookahead(static_cast<Cycle>(run.lookahead));
    }

    const auto eps = firstEndpoints(cores);
    TornadoPattern fwd(m.geom(), false);
    TornadoPattern rev(m.geom(), true);

    // Program weights per the mode. Pattern slot 0 = forward tornado,
    // slot 1 = reverse tornado; packets are labeled accordingly.
    LoadModel lm(m.geom(), m.layout(), cfg.chip, 2);
    Rng lrng(seed + 1);
    switch (mode) {
      case WeightMode::None:
        break;
      case WeightMode::Forward:
        // One weight set used for both labels.
        lm.addPattern(0, fwd, eps, 200, lrng);
        lm.addPattern(1, fwd, eps, 200, lrng);
        lm.applyWeights(m);
        break;
      case WeightMode::Reverse:
        lm.addPattern(0, rev, eps, 200, lrng);
        lm.addPattern(1, rev, eps, 200, lrng);
        lm.applyWeights(m);
        break;
      case WeightMode::Both:
        lm.addPattern(0, fwd, eps, 200, lrng);
        lm.addPattern(1, rev, eps, 200, lrng);
        lm.applyWeights(m);
        break;
    }

    // Normalization: the blended demand's ideal throughput, from a mixed
    // sample stream (blended load = (1-f)*L_fwd + f*L_rev).
    LoadModel norm2(m.geom(), m.layout(), cfg.chip, 1);
    class Mixed : public TrafficPattern
    {
      public:
        Mixed(const TorusGeom &g, double f)
            : TrafficPattern(g), fwd_(g, false), rev_(g, true), f_(f)
        {
        }
        NodeId
        dest(NodeId src, Rng &rng) const override
        {
            return rng.chance(f_) ? rev_.dest(src, rng)
                                  : fwd_.dest(src, rng);
        }
        std::string name() const override { return "mixed"; }

      private:
        TornadoPattern fwd_;
        TornadoPattern rev_;
        double f_;
    } mixed(m.geom(), reverse_fraction);
    Rng nrng2(seed + 3);
    norm2.addPattern(0, mixed, eps, 400, nrng2);
    const double ideal = norm2.idealCoreThroughput(0);

    BatchDriver::Config dcfg;
    dcfg.cores = eps;
    dcfg.batch_size = batch;
    dcfg.pattern = &fwd;
    dcfg.pattern_id = 0;
    dcfg.pattern2 = &rev;
    dcfg.pattern2_id = 1;
    dcfg.blend_fraction2 = reverse_fraction;
    BatchDriver driver(m, dcfg);
    m.engine().add(driver);
    const StopReason why =
        m.run(RunSpec::untilDelivered(driver.deliveredTarget(),
                                      static_cast<Cycle>(batch) * 3000
                                          + 300000))
            .reason;
    if (probe) {
        run.writeOutputs(m);
        if (run.report.enabled()) {
            *report_body = run.report.bodyJson(m);
            *host_json = m.hostJson();
        }
    }
    if (!bench::runSucceeded(why, run.audit.fault != nullptr)) {
        std::fprintf(stderr, "error: blend run stopped: %s\n",
                     stopReasonName(why));
        return -1.0;
    }
    return driver.throughputPerCore() / ideal;
}

} // namespace

int
main(int argc, char **argv)
{
    long kx = 8, ky = 4, kz = 4;
    long cores = 8, batch_flag = 256, seed_flag = 21, steps_flag = 4;
    bench::RunOptions run;
    bench::OptionRegistry reg(
        "Figure 10: tornado / reverse-tornado blending under the four "
        "arbiter weight modes");
    reg.add("--kx", "N", "torus X radix (default 8)", &kx);
    reg.add("--ky", "N", "torus Y radix (default 4)", &ky);
    reg.add("--kz", "N", "torus Z radix (default 4)", &kz);
    reg.add("--cores", "N", "participating cores per node (default 8)",
            &cores);
    reg.add("--batch", "N", "packets per core (default 256)", &batch_flag);
    reg.add("--seed", "N", "simulation seed (default 21)", &seed_flag);
    reg.add("--steps", "N", "blend-fraction sweep steps (default 4)",
            &steps_flag);
    run.registerInto(reg);
    if (!reg.parse(argc, argv))
        return 1;
    if (!run.validate()
        || !bench::validateCores(cores, kEndpointsPerNode)
        || !bench::validateShape(kx, ky, kz, "--batch", batch_flag))
        return 1;
    const std::vector<int> radix{ static_cast<int>(kx),
                                  static_cast<int>(ky),
                                  static_cast<int>(kz) };
    const auto batch = static_cast<std::uint64_t>(batch_flag);
    const auto seed = static_cast<std::uint64_t>(seed_flag);
    const int steps = static_cast<int>(steps_flag);

    bench::printHeader(
        "Figure 10: tornado / reverse-tornado blending (normalized "
        "throughput)");
    std::printf("torus %dx%dx%d, %ld cores/node, %llu packets/core\n",
                radix[0], radix[1], radix[2], cores,
                static_cast<unsigned long long>(batch));
    std::printf("%-22s %8s %8s %8s %8s\n", "fraction reverse", "None",
                "Forward", "Reverse", "Both");
    bench::printRule(60);

    std::string report_body, report_host;
    bool all_ok = true;
    for (int i = 0; i <= steps; ++i) {
        const double f = static_cast<double>(i) / steps;
        double point[4];
        for (WeightMode mode : { WeightMode::None, WeightMode::Forward,
                                 WeightMode::Reverse, WeightMode::Both }) {
            const bool probe = mode == WeightMode::Both && i == steps;
            const double v = runBlend(
                radix, static_cast<int>(cores), batch, mode, f, seed, run,
                probe, probe ? &report_body : nullptr,
                probe ? &report_host : nullptr);
            all_ok = all_ok && v >= 0.0;
            point[static_cast<int>(mode)] = v;
        }
        std::printf("%-22.2f %8.3f %8.3f %8.3f %8.3f\n", f, point[0],
                    point[1], point[2], point[3]);
    }
    bench::printRule(60);
    std::printf(
        "Paper (8x8x8): Both holds ~0.85 across all blends; Forward/"
        "Reverse fall\ntoward round-robin as the blend moves away from "
        "their pattern.\n");
    run.report.write("fig10_blend",
                 bench::JsonObj()
                     .add("kx", bench::num(radix[0]))
                     .add("ky", bench::num(radix[1]))
                     .add("kz", bench::num(radix[2]))
                     .add("cores", bench::num(cores))
                     .add("batch", bench::num(static_cast<double>(batch)))
                     .add("steps", bench::num(steps))
                     .dump(0),
                 report_body, report_host);
    return all_ok ? 0 : 1;
}
