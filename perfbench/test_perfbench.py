"""Self-tests of the benchmark itself (not of the simulator).

Run from the repository root:
    python3 -m unittest discover -s perfbench -p 'test_*.py'
The metric-set tests run every workload once, so they take minutes.
"""
import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def bench(*args):
    """Run the benchmark command; return the parsed result line."""
    out = subprocess.run([sys.executable, os.path.join(run.ROOT, "perfbench",
                                                       "run.py"), *args],
                         capture_output=True, text=True, cwd=run.ROOT)
    if out.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


class BenchmarkSpec(unittest.TestCase):
    def test_names_units_and_workloads(self):
        spec = run.spec()
        self.assertEqual([w["name"] for w in spec["workloads"]], run.WORKLOADS)
        names = []
        for kind in ("end_to_end", "per_layer"):
            for m in spec[kind]:
                self.assertTrue(NAME.fullmatch(m["name"]), m["name"])
                self.assertTrue(UNIT.fullmatch(m["unit"]), m["unit"])
                names.append(m["name"])
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


class MetricSets(unittest.TestCase):
    """Every metric named in BENCHMARK.json is emitted, with its unit, on
    every workload, in both passes."""

    @classmethod
    def setUpClass(cls):
        run.build()

    def check_pass(self, trace, kind):
        result = bench("--seconds", "1", "--trace", str(trace))
        self.assertEqual(set(result), RESULT_KEYS)
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        want = {f"{w}.{m['name']}": m["unit"]
                for w in run.WORKLOADS for m in run.spec()[kind]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for k, v in result["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), k)

    def test_end_to_end(self):
        self.check_pass(0, "end_to_end")

    def test_per_layer(self):
        self.check_pass(1, "per_layer")


class Seeds(unittest.TestCase):
    """A changed seed changes the generated traffic, not the metric set."""

    @classmethod
    def setUpClass(cls):
        run.build()

    def test_seed_changes_traffic(self):
        for w in ("uniform_open", "fig11_pingpong"):
            a = run.child("run", w, 1, "reference")["outputs"]
            b = run.child("run", w, 2, "reference")["outputs"]
            again = run.child("run", w, 1, "reference")["outputs"]
            self.assertNotEqual(a, b, w)
            self.assertEqual(a, again, w)

    def test_seed_keeps_metric_set(self):
        a = bench("--workload", "uniform_open", "--seed", "1", "--seconds", "1")
        b = bench("--workload", "uniform_open", "--seed", "2", "--seconds", "1")
        self.assertEqual(set(a["metrics"]), set(b["metrics"]))
        self.assertEqual({m["name"] for m in run.spec()["end_to_end"]},
                         set(a["metrics"]))


if __name__ == "__main__":
    unittest.main()
