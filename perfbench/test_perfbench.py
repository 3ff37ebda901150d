"""Tests of the host-time benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The smoke tests build perfbench_driver on first use (as run.py does) and run every workload at tiny
sizes, untraced and traced.
"""

import copy
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import benchlib  # noqa: E402
import run  # noqa: E402

MANIFEST_PATH = HERE.parent / "BENCHMARK.json"


def manifest_doc():
    return json.loads(MANIFEST_PATH.read_text())


class NamingTest(unittest.TestCase):
    def test_accepts_metric_names(self):
        for name in ("wall_s", "sim.charge_limit_ns.p64", "fs8_diff_co", "0x", "a-b", "a" * 64):
            self.assertTrue(benchlib.valid_name(name), name)

    def test_rejects_bad_names(self):
        for name in ("", "_x", ".x", "-x", "a b", "a/b", "é", "a" * 65, None, 3):
            self.assertFalse(benchlib.valid_name(name), name)

    def test_units(self):
        for unit in ("s", "ms", "1/s", "%", "count", "MB", "sim_s"):
            self.assertTrue(benchlib.valid_unit(unit), unit)
        for unit in ("", "a b", "x" * 17):
            self.assertFalse(benchlib.valid_unit(unit), unit)

    def test_every_manifest_name_is_valid(self):
        doc = manifest_doc()
        for entry in doc["workloads"] + doc["end_to_end"] + doc["per_layer"]:
            self.assertTrue(benchlib.valid_name(entry["name"]), entry["name"])


class ArithmeticTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(benchlib.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(benchlib.median([4.0, 1.0, 2.0, 3.0]), 2.5)
        with self.assertRaises(ValueError):
            benchlib.median([])

    def test_ratio(self):
        self.assertEqual(benchlib.ratio(3, 4), 0.75)
        self.assertEqual(benchlib.ratio(3, 0), 0.0)

    def test_self_times(self):
        spans = [
            {"name": "run", "start_ns": 0, "end_ns": 100, "parent": -1},
            {"name": "step", "start_ns": 10, "end_ns": 40, "parent": 0},
            {"name": "step", "start_ns": 50, "end_ns": 70, "parent": 0},
            {"name": "leaf", "start_ns": 55, "end_ns": 60, "parent": 2},
        ]
        st = benchlib.self_times(spans)
        self.assertAlmostEqual(st["run"][0], 100e-9)
        self.assertAlmostEqual(st["run"][1], 50e-9)
        self.assertAlmostEqual(st["step"][0], 50e-9)
        self.assertAlmostEqual(st["step"][1], 45e-9)

    def test_result_line(self):
        line = benchlib.result_line(True, 5, 0, {"wall_s": 1.25}, {"wall_s": "s"})
        doc = json.loads(line)
        self.assertEqual(set(doc), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(doc["metrics"], {"wall_s": {"value": 1.25, "unit": "s"}})


class ManifestTest(unittest.TestCase):
    def test_repository_manifest_parses(self):
        doc = benchlib.load_manifest(MANIFEST_PATH)
        self.assertEqual([w["name"] for w in doc["workloads"]],
                         ["jacobi64", "quad8", "fs8_diff_co"])
        self.assertEqual([m["name"] for m in doc["end_to_end"]],
                         ["wall_s", "setup_s", "peak_rss_mb", "makespan_s"])
        setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"], max(m["bound"] for m in doc["end_to_end"]))

    def test_every_layer_metric_names_what_it_moves(self):
        layers = {m["name"] for m in manifest_doc()["per_layer"]}
        self.assertEqual(layers, set(run.MOVES))

    def test_budget_fits(self):
        doc = manifest_doc()
        runs = 4 + 22 * len(doc["workloads"])
        # A run measures run_seconds plus at most ~10 s of set-up, reference and overrun.
        self.assertLess(runs * (doc["run_seconds"] + 10) + 2 * 120, 3420)

    def assert_rejected(self, mutate):
        doc = manifest_doc()
        mutate(doc)
        with self.assertRaises(benchlib.ManifestError):
            benchlib.parse_manifest(json.dumps(doc))

    def test_rejects_broken_manifests(self):
        self.assert_rejected(lambda d: d.pop("per_layer"))
        self.assert_rejected(lambda d: d["end_to_end"][0].update(bound=0.3))
        self.assert_rejected(lambda d: d["end_to_end"][0].pop("bound"))
        self.assert_rejected(lambda d: d["per_layer"][0].update(bound=0.1))
        self.assert_rejected(lambda d: d.update(end_to_end=[x for x in d["end_to_end"]
                                                            if x["name"] != "setup_s"]))
        self.assert_rejected(lambda d: d["per_layer"].append(copy.deepcopy(d["per_layer"][0])))
        self.assert_rejected(lambda d: d["workloads"].append({"name": "wall_s", "why": "clash"}))
        self.assert_rejected(lambda d: d["per_layer"][0].update(name="bad name"))
        self.assert_rejected(lambda d: d["per_layer"][0].update(unit="two words"))
        with self.assertRaises(benchlib.ManifestError):
            benchlib.parse_manifest("{not json")


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.units = {
            trace: {m["name"] for m in manifest_doc()["per_layer" if trace else "end_to_end"]}
            for trace in (0, 1)
        }

    def run_bench(self, workload, trace):
        p = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
             "--seconds", "1", "--trace", str(trace), "--smoke"],
            capture_output=True, text=True, timeout=300,
        )
        self.assertEqual(p.returncode, 0, p.stderr)
        return json.loads(p.stdout.strip().splitlines()[-1])

    def test_every_workload(self):
        for workload in ("jacobi64", "quad8", "fs8_diff_co"):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    doc = self.run_bench(workload, trace)
                    self.assertTrue(doc["correct"])
                    self.assertEqual(doc["failed"], 0)
                    self.assertGreaterEqual(doc["attempted"], 1)
                    self.assertEqual(set(doc["metrics"]), self.units[trace])
                    if trace == 0:
                        for name in ("wall_s", "setup_s", "peak_rss_mb", "makespan_s"):
                            self.assertGreater(doc["metrics"][name]["value"], 0, name)

    def smoke_runner(self):
        opts = run.argparse.Namespace(workload="quad8", seed=5, trace=0, smoke=True)
        runner = run.Runner(opts)
        runner.reference()
        return runner

    def test_failed_attempts_are_counted_not_fatal(self):
        runner = self.smoke_runner()
        runner.expect = ["--expect-checksum", "1.5", "--expect-digest", "1"]
        self.assertIsNone(runner.attempt(traced=False))
        self.assertEqual((runner.attempted, len(runner.failures)), (1, 1))
        self.assertIn("wrong answer", runner.failures[0])

    def test_determinism_mismatch_is_a_failure(self):
        runner = self.smoke_runner()
        self.assertIsNotNone(runner.attempt(traced=False))
        runner.signature = dict(runner.signature, makespan_ns=runner.signature["makespan_ns"] + 1)
        self.assertIsNone(runner.attempt(traced=True))
        self.assertIn("nondeterministic", runner.failures[0])

    def test_driver_rejects_unknown_workload(self):
        out, err, _, _ = run.driver(["attempt", "--workload", "nope", "--seed", "1"], 60)
        self.assertIsNone(out)
        self.assertIn("exit code 2", err)


if __name__ == "__main__":
    unittest.main()
