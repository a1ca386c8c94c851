"""Tests of the benchmark end to end: a tiny-size run of every workload, in
both modes, passes its output checks and prints every metric named in
BENCHMARK.json with its unit.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The math (percentiles, ratios, shares, self time) is tested in the Rust
package: ``cargo test --manifest-path perfbench/Cargo.toml``.
"""

import json
import math
import os
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)


def run(workload, trace, seed=7):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    return done.returncode, done.stdout.splitlines(), done.stderr


class TinyRuns(unittest.TestCase):
    def check_mode(self, trace):
        section = SPEC["per_layer" if trace else "end_to_end"]
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                code, lines, err = run(w["name"], trace)
                self.assertEqual(code, 0, err)
                result = json.loads(lines[-1])
                self.assertTrue(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(
                    {n: m["unit"] for n, m in result["metrics"].items()},
                    {m["name"]: m["unit"] for m in section},
                )
                for name, m in result["metrics"].items():
                    self.assertTrue(math.isfinite(m["value"]), name)
                    if not trace:
                        self.assertGreater(m["value"], 0, name)
                info = [json.loads(l) for l in lines if l.startswith('{"info"')]
                self.assertEqual(info[0]["info"]["workload"], w["name"])

    def test_untraced_runs_print_every_end_to_end_metric(self):
        self.check_mode(0)

    def test_traced_runs_print_every_per_layer_metric_and_a_trace(self):
        self.check_mode(1)
        path = os.path.join(BENCH_DIR, "out", "transfer_crash-seed7.trace.json")
        with open(path, encoding="utf-8") as f:
            events = json.load(f)["traceEvents"]
        names = {e["name"] for e in events}
        for call in ("action", "begin", "invoke_first_touch", "commit", "try_passivate",
                     "recover_node"):
            self.assertIn(call, names)
        actions = {e["args"]["id"] for e in events if e["name"] == "action"}
        children = [e for e in events if e["name"] in ("begin", "commit")]
        self.assertTrue(children)
        self.assertTrue(all(e["args"]["parent"] in actions for e in children))

    def test_traced_shares_cover_the_window(self):
        code, lines, err = run("transfer_crash", 1)
        self.assertEqual(code, 0, err)
        metrics = json.loads(lines[-1])["metrics"]
        total = sum(m["value"] for n, m in metrics.items() if n.endswith("_share"))
        self.assertAlmostEqual(total, 1.0, places=9)

    def test_same_seed_gives_same_counts(self):
        runs = [run("read_mostly_warm", 0, seed=3) for _ in range(2)]
        results = [json.loads(lines[-1]) for _, lines, _ in runs]
        for key in ("sim_tx_p50_ms", "sim_tx_p99_ms", "commit_ratio"):
            self.assertEqual(results[0]["metrics"][key], results[1]["metrics"][key], key)
        self.assertEqual(results[0]["failed"], results[1]["failed"])
        # The program's hash maps are seeded per process, which can shift a
        # table's resize and so a few allocations.
        allocs = [r["metrics"]["allocs_per_tx"]["value"] for r in results]
        self.assertAlmostEqual(allocs[0] / allocs[1], 1.0, delta=1e-3)

    def test_bad_arguments_fail_without_a_result(self):
        code, lines, _ = run("no_such_workload", 0)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(l.startswith('{"correct"') for l in lines))


if __name__ == "__main__":
    unittest.main()
