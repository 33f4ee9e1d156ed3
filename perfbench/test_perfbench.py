#!/usr/bin/env python3
"""The benchmark's own tests: tiny-size runs of every workload.

    python3 perfbench/test_perfbench.py

Checks that every metric BENCHMARK.json names is printed with its unit, that
ok_frac is 1, that the model counts repeat exactly across two same-seed
traced runs, that one corrupted answer drives ok_frac below 1, and that the
benchmark fails cleanly without the library sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
REPEATING = ["core.refine.iters", "core.indefinite.perturbations", "simnet.sim_s", "simnet.msgs"]


def result(workload, trace, seed=7, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace), "--tiny", *extra]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if r.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {r.returncode}: {r.stderr[-2000:]}")
    lines = r.stdout.strip().splitlines()
    prov = json.loads(lines[-2])["provenance"]
    return json.loads(lines[-1]), prov


class Workloads(unittest.TestCase):
    def check_metrics(self, res, prov, declared):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(res["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
        for key in ("machine_fingerprint", "nproc", "git_describe", "seed", "env_bst", "samples"):
            self.assertIn(key, prov)
        self.assertEqual(prov["env_bst"], {"BST_THREADS": "1"})

    def test_end_to_end(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                res, prov = result(w["name"], 0)
                self.check_metrics(res, prov, SPEC["end_to_end"])
                self.assertTrue(res["correct"])
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], 0)
                self.assertEqual(res["metrics"]["ok_frac"]["value"], 1)
                self.assertGreater(prov["samples"]["latency_p50_ms"], 0)

    def test_traced_counts_repeat(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                first, prov = result(w["name"], 1, seed=11)
                self.check_metrics(first, prov, SPEC["per_layer"])
                self.assertTrue(first["correct"])
                self.assertTrue(os.path.exists(prov["chrome_trace"]))
                with open(prov["chrome_trace"]) as f:
                    self.assertTrue(json.load(f)["traceEvents"])
                second, _ = result(w["name"], 1, seed=11)
                for name in REPEATING:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)

    def test_corrupted_answer_is_caught(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                res, _ = result(w["name"], 0, extra=["--corrupt-one"])
                self.assertFalse(res["correct"])
                self.assertGreaterEqual(res["failed"], 1)
                self.assertLess(res["metrics"]["ok_frac"]["value"], 1)

    def test_fails_without_library_sources(self):
        base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        bare = os.path.join(ROOT, base, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
        r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "schur_cold",
                            "--seed", "1", "--seconds", "1", "--trace", "0"],
                           cwd=bare, env=env, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(r.returncode, 0)
        self.assertNotIn('"correct"', r.stdout)


if __name__ == "__main__":
    unittest.main()
