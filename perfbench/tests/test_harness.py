"""End-to-end tests of the benchmark command: seeded inputs and failing
output checks. They build the harness on first use (a few minutes).

    python3 -m unittest discover -s perfbench/tests
"""

import filecmp
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def generate(harness, workload, seed, out):
    status = run.run_child([harness, "gen", "--workload", workload,
                            "--seed", seed, "--out", out], timeout=120)
    if status != 0:
        raise AssertionError(f"gen {workload} seed {seed} failed")
    with open(Path(out) / "manifest.json") as f:
        return json.load(f)["designs"]


class SeededInputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.harness, _ = run.build()
        run.WORK.mkdir(parents=True, exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(dir=run.WORK))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def check_workload(self, workload):
        dirs = {key: self.tmp / f"{workload}-{key}" for key in ("a", "b", "c")}
        a = generate(self.harness, workload, 5, dirs["a"])
        b = generate(self.harness, workload, 5, dirs["b"])
        c = generate(self.harness, workload, 6, dirs["c"])
        names = sorted(p.name for p in dirs["a"].iterdir())
        _, mismatch, errors = filecmp.cmpfiles(dirs["a"], dirs["b"], names,
                                               shallow=False)
        self.assertEqual((mismatch, errors), ([], []),
                         "same seed must give byte-identical inputs")
        _, mismatch, _ = filecmp.cmpfiles(dirs["a"], dirs["c"], names,
                                          shallow=False)
        self.assertTrue(mismatch, "another seed must give other inputs")
        self.assertEqual(a, b)
        return a, c

    def test_place_design_same_class_other_netlist(self):
        a, c = self.check_workload("place_congested")
        self.assertEqual(a[0]["cells"], c[0]["cells"])
        self.assertTrue(18000 < a[0]["cells"] < 20000)

    def test_explore_design_same_class_other_netlist(self):
        a, c = self.check_workload("explore_trials")
        self.assertEqual(a[0]["cells"], c[0]["cells"])

    def test_serve_jobs_same_mix_other_designs(self):
        a, c = self.check_workload("serve_small_jobs")
        self.assertEqual(len(a), len(c))
        for jobs in (a, c):
            large = [j for j in jobs if j["cells"] > 1000]
            self.assertEqual(len(large), len(jobs) // 5)
            self.assertTrue(all(250 <= j["cells"] <= 350
                                for j in jobs if j["cells"] <= 1000))
        self.assertNotEqual([j["name"] for j in a], [j["name"] for j in c])


class BrokenOutputFailsTheRun(unittest.TestCase):
    def run_bench(self, workload, *extra):
        return subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "1", "--seconds", "1", "--trace", "0", *extra],
            capture_output=True, text=True, timeout=600)

    def check(self, workload):
        good = self.run_bench(workload)
        self.assertEqual(good.returncode, 0, good.stderr)
        result = json.loads(good.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

        bad = self.run_bench(workload, "--inject-fault")
        self.assertNotEqual(bad.returncode, 0)
        self.assertIn("FAILED", bad.stderr)
        self.assertNotIn('"correct"', bad.stdout)

    def test_serve(self):
        self.check("serve_small_jobs")

    def test_explore(self):
        self.check("explore_trials")

    def test_place(self):
        self.check("place_congested")


if __name__ == "__main__":
    unittest.main()
