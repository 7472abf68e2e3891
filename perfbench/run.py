#!/usr/bin/env python3
"""Benchmark for the Anton 2 network simulator.

Builds the simulator and the benchmark binary from this checkout
(Release, into .bench_build/), then runs one workload, or all of them:

    python3 perfbench/run.py --workload fig9_batch --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics named in BENCHMARK.json;
--trace 1 runs the separate traced pass that gives the per-layer metrics.
Every repetition runs in its own process. Its simulated outputs are
compared against the exact reference schedule (threads = 1,
lookahead = 1). The last stdout line is the JSON result. The exit status
is 1 when a correctness check fails, and 2 or 3 when the benchmark
cannot build or refuses the build.
"""
import argparse
import hashlib
import json
import os
from statistics import median
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "anton2_perfbench")
WORKLOADS = ["uniform_open", "fig9_batch", "fig11_pingpong"]
DEFAULT_SEED = 1
CHILD_TIMEOUT_S = 170
OBSERVER_ROWS = ["metrics", "flows", "trace"]
# Measured runs are serial: on a shared host, time lost to vCPU steal
# swings a 2-thread run several-fold. The threaded engine is measured
# in the traced pass instead.
ENGINE_THREADS = 2
SETUP_SAMPLES = 5  # set-up-only runs added to each run's set-up median


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure and build into .bench_build; exit 2 if that fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("error: simulator sources (src/) not found next to perfbench/")
        sys.exit(2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j",
                  str(len(os.sched_getaffinity(0)))])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("error: build failed: " + " ".join(cmd))
            sys.exit(2)


def child(*args):
    """Run one benchmark step in its own process; return its JSON."""
    out = subprocess.run([BINARY, *map(str, args)], capture_output=True,
                         text=True, timeout=CHILD_TIMEOUT_S)
    if out.returncode != 0:
        log(out.stderr)
        raise RuntimeError("benchmark step failed: " + " ".join(map(str, args)))
    return json.loads(out.stdout.strip().splitlines()[-1])


def provenance(info):
    """Host and build identity, printed with every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or commit
    # The checkout may not be a git repository: a digest of the sources
    # identifies the measured code either way.
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(d, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return {"cpu_model": cpu, "nproc": len(os.sched_getaffinity(0)),
            "compiler": info["compiler"], "cxx_flags": info["cxx_flags"],
            "build_type": info["build_type"], "commit": commit,
            "source_sha256": h.hexdigest()[:16]}


class Gate:
    """Correctness gate: every run must end for its intended reason and
    reproduce the reference schedule's simulated outputs exactly."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.reference = None
        self.attempted = 0
        self.failed = 0

    def check(self, rep):
        if self.reference is None:
            if rep["threads"] == 1 and rep["window"] == 1:
                # This run already used the reference schedule.
                self.reference = rep["outputs"]
            else:
                ref = child("run", self.workload, self.seed, "reference")
                self.reference = ref["outputs"]
                if ref["ops_failed"]:
                    log(f"FAIL {self.workload}: reference run failed "
                        f"{ref['ops_failed']} ops")
                    self.reference = {}
        ops, failed = rep["ops"], rep["ops_failed"]
        if rep["outputs"] != self.reference:
            log(f"FAIL {self.workload}: outputs {rep['outputs']} differ from "
                f"the threads=1/lookahead=1 reference {self.reference}")
            failed = ops
        self.attempted += ops
        self.failed += failed


def measure(workload, seed, seconds, gate):
    """Repeat the untraced run for `seconds`; medians of each metric."""
    reps = []
    t0 = time.monotonic()
    while not reps or time.monotonic() - t0 < seconds:
        rep = child("run", workload, seed, "measure")
        gate.check(rep)
        reps.append(rep)
    setups = [child("run", workload, seed, "setup")["timings"]["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    t = [r["timings"] for r in reps]
    return {
        "wall_s": median(x["wall_s"] for x in t),
        "setup_s": median(setups + [x["setup_s"] for x in t]),
        "sim_cycles_per_s": median(x["sim_cycles"] / x["run_s"] for x in t),
        "cpu_s": median(x["cpu_s"] for x in t),
        "peak_rss_mb": median(x["peak_rss_mb"] for x in t),
        "sim_completion_cycles": median(r["outputs"]["completion"] for r in reps),
        "sim_latency_ns": median(x["sim_latency_ns"] for x in t),
    }, len(reps)


def traced(workload, seed, seconds, gate):
    """The per-layer pass: probes, alternating untraced/traced runs, one
    traced run on ENGINE_THREADS threads, then one run per observer row."""
    layers = dict(child("probes", seed)["layers"])
    plain, tr = [], []
    t0 = time.monotonic()
    while not tr or time.monotonic() - t0 < seconds / 2:
        for mode, into in (("measure", plain), ("traced", tr)):
            rep = child("run", workload, seed, mode)
            gate.check(rep)
            into.append(rep)
    for name in tr[0]["layers"]:
        layers[name] = median(r["layers"][name] for r in tr)
    layers["trace_overhead_ratio"] = (
        median(r["timings"]["wall_s"] for r in tr)
        / median(r["timings"]["wall_s"] for r in plain))
    # Barrier wait and lane imbalance only exist with more than one lane.
    threaded = child("run", workload, seed, "traced", "default",
                     ENGINE_THREADS)
    gate.check(threaded)
    for name, value in threaded["layers"].items():
        if name.startswith("sim.engine."):
            layers[name] = value
    layers["sim.engine.threaded_speedup"] = (
        median(r["timings"]["run_s"] for r in tr)
        / threaded["timings"]["run_s"])
    bare = child("run", workload, seed, "measure", "none")
    gate.check(bare)
    for obs in OBSERVER_ROWS:
        rep = child("run", workload, seed, "measure", obs)
        gate.check(rep)
        layers[f"obs.{obs}.overhead_ratio"] = (
            rep["timings"]["run_s"] / bare["timings"]["run_s"])
    return layers, len(tr)


def run_workload(workload, seed, seconds, trace, metric_units):
    gate = Gate(workload, seed)
    if trace:
        values, reps = traced(workload, seed, seconds, gate)
    else:
        values, reps = measure(workload, seed, seconds, gate)
    missing = set(metric_units) - set(values)
    if missing:
        raise RuntimeError(f"{workload}: metrics not produced: {sorted(missing)}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in metric_units.items()}
    log(f"{workload}: {reps} run(s), {gate.attempted} ops, "
        f"{gate.failed} failed")
    return metrics, gate


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload "
                         "(default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    bench = spec()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    build()
    info = child("info")
    if not info["ndebug"]:
        log("error: refusing to time a build with assertions enabled "
            "(NDEBUG unset): it measures a different program")
        sys.exit(3)
    print(json.dumps({"provenance": provenance(info), "seed": args.seed}),
          flush=True)

    kind = "per_layer" if args.trace else "end_to_end"
    metric_units = {m["name"]: m["unit"] for m in bench[kind]}
    names = WORKLOADS if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for w in names:
        values, gate = run_workload(w, args.seed, seconds, args.trace,
                                    metric_units)
        prefix = f"{w}." if len(names) > 1 else ""
        for name, m in values.items():
            metrics[prefix + name] = m
            print(f"{w:16s} {name:40s} {m['value']:>16.6g} {m['unit']}")
        attempted += gate.attempted
        failed += gate.failed
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
