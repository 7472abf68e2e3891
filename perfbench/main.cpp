/**
 * @file
 * One benchmark step per process, so each measured repetition starts
 * from a fresh heap and its peak RSS is its own. run.py drives it:
 *
 *   anton2_perfbench info
 *   anton2_perfbench probes <seed>
 *   anton2_perfbench run <workload> <seed> <measure|reference|traced|setup>
 *                    [default|none|metrics|flows|trace [threads]]
 *
 * Each prints one JSON object on stdout.
 */
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <string>

#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

using namespace perfbench;

namespace {

std::string
quoted(const std::string &s)
{
    std::string q = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            q += '\\';
        q += c;
    }
    return q + "\"";
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

std::string
object(const std::vector<std::pair<std::string, double>> &kv)
{
    std::string s = "{";
    for (const auto &[k, v] : kv)
        s += (s.size() > 1 ? "," : "") + quoted(k) + ":" + num(v);
    return s + "}";
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: anton2_perfbench info\n"
                 "       anton2_perfbench probes <seed>\n"
                 "       anton2_perfbench run <workload> <seed> "
                 "<measure|reference|traced|setup> "
                 "[default|none|metrics|flows|trace [threads]]\n");
    return 2;
}

bool
parseMode(const std::string &s, Mode &m)
{
    if (s == "measure")
        m = Mode::Measure;
    else if (s == "reference")
        m = Mode::Reference;
    else if (s == "traced")
        m = Mode::Traced;
    else if (s == "setup")
        m = Mode::SetupOnly;
    else
        return false;
    return true;
}

bool
parseObserver(const std::string &s, Observer &o)
{
    if (s == "default")
        o = Observer::Default;
    else if (s == "none")
        o = Observer::None;
    else if (s == "metrics")
        o = Observer::Metrics;
    else if (s == "flows")
        o = Observer::Flows;
    else if (s == "trace")
        o = Observer::Trace;
    else
        return false;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    if (cmd == "info") {
#ifdef NDEBUG
        const bool ndebug = true;
#else
        const bool ndebug = false;
#endif
        std::printf("{\"ndebug\":%s,\"compiler\":%s,\"build_type\":%s,"
                    "\"cxx_flags\":%s}\n",
                    ndebug ? "true" : "false", quoted(__VERSION__).c_str(),
                    quoted(PERFBENCH_BUILD_TYPE).c_str(),
                    quoted(PERFBENCH_CXX_FLAGS).c_str());
        return 0;
    }
    if (cmd == "probes" && argc == 3) {
        const auto seed = std::strtoull(argv[2], nullptr, 10);
        std::printf("{\"layers\":%s}\n", object(runProbes(seed)).c_str());
        return 0;
    }
    Mode mode{};
    Observer observer = Observer::Default;
    const int threads = argc == 7 ? std::atoi(argv[6]) : 1;
    if (cmd != "run" || argc < 5 || argc > 7 || !parseMode(argv[4], mode)
        || (argc >= 6 && !parseObserver(argv[5], observer)) || threads < 1)
        return usage();
    const auto seed = std::strtoull(argv[3], nullptr, 10);
    Result r;
    try {
        r = runWorkload(argv[2], seed, mode, observer, threads);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    const Outputs &o = r.out;
    std::printf(
        "{\"outputs\":%s,\"ops\":%llu,\"ops_failed\":%llu,"
        "\"threads\":%d,\"window\":%llu,\"timings\":%s,\"layers\":%s}\n",
        object({ { "delivered", static_cast<double>(o.delivered) },
                 { "completion", static_cast<double>(o.completion) },
                 { "flit_hops", static_cast<double>(o.flit_hops) },
                 { "latency_sum", static_cast<double>(o.latency_sum) } })
            .c_str(),
        static_cast<unsigned long long>(r.ops),
        static_cast<unsigned long long>(r.ops_failed), r.threads,
        static_cast<unsigned long long>(r.window),
        object({ { "setup_s", r.setup_s },
                 { "run_s", r.run_s },
                 { "wall_s", r.wall_s },
                 { "cpu_s", r.cpu_s },
                 { "peak_rss_mb", peakRssMb() },
                 { "sim_cycles", static_cast<double>(r.sim_cycles) },
                 { "sim_latency_ns", r.sim_latency_ns } })
            .c_str(),
        object(r.layers).c_str());
    return 0;
}
