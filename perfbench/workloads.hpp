/**
 * @file
 * The benchmark's three workloads, driven through the simulator's public
 * API only (Machine, LoadModel, the traffic drivers, EngineProfiler
 * accessors). Each call builds one Machine, runs one workload to its
 * intended end, and returns host timings plus the simulated outputs the
 * correctness gate compares.
 */
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** How a workload run is scheduled and observed. */
enum class Mode
{
    /** Library-default schedule (the requested thread count, lookahead
     * left at MachineConfig's default), the workload's own observers,
     * no tracing: the end-to-end measurement. */
    Measure,
    /** The exact reference schedule: threads = 1, lookahead = 1, no
     * observers. Its simulated outputs are the gate's ground truth. */
    Reference,
    /** Measure, plus timing spans around the public calls of every layer
     * and the engine self-profiler: the per-layer run. */
    Traced,
    /** Measure, stopped at the first simulated cycle: extra set-up
     * samples for the set-up time median. */
    SetupOnly,
};

/** Observer set for a run. Default keeps the workload's own set; the
 * others replace it for the observer-overhead rows. */
enum class Observer
{
    Default,
    None,
    Metrics,
    Flows,
    Trace,
};

/** Simulated results: deterministic for a seed, independent of threads,
 * lookahead window and attached observers. */
struct Outputs
{
    std::uint64_t delivered = 0;   ///< packets delivered
    std::uint64_t completion = 0;  ///< simulated cycle the workload ended
    std::uint64_t flit_hops = 0;   ///< flits routed, summed over routers
    std::uint64_t latency_sum = 0; ///< summed packet (or round) latency
};

struct Result
{
    Outputs out;
    std::uint64_t ops = 0;        ///< packets, rounds, or 1 open-loop run
    std::uint64_t ops_failed = 0; ///< ops whose own check failed
    int threads = 1;              ///< engine threads actually used
    std::uint64_t window = 1;     ///< lookahead window actually used

    double setup_s = 0.0;  ///< t0 to the first simulated cycle
    double run_s = 0.0;    ///< simulation phase
    double wall_s = 0.0;   ///< setup + run + report export
    double cpu_s = 0.0;    ///< user + sys over the same span
    std::uint64_t sim_cycles = 0;      ///< cycles advanced in run phase
    double sim_latency_ns = 0.0;       ///< mean latency, simulated ns

    /** Per-layer values, filled in Traced mode only. */
    std::vector<std::pair<std::string, double>> layers;
};

/** Run workload @p name once on @p threads engine threads (the
 * reference mode always uses 1); throws std::invalid_argument for an
 * unknown name. */
Result runWorkload(const std::string &name, std::uint64_t seed, Mode mode,
                   Observer observer, int threads);

/** Standalone per-call layer probes (arbiters, routing, a lone router):
 * name -> value pairs, each probe as p50, p99 and sample count. */
std::vector<std::pair<std::string, double>> runProbes(std::uint64_t seed);

} // namespace perfbench
