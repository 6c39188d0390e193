#!/usr/bin/env python3
"""Self-tests of the benchmark, at tiny packet counts (about a minute).

Run from the repository root:

    python3 perfbench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# Packets per pass: enough for the overload buffer to fill and push out,
# and for the sharded frontend to migrate flows.
TINY = {"steady_small": 20000, "million_zipf": 20000,
        "overload_pushout": 30000, "sharded_skew": 20000}

# Metrics that depend only on the seed and the trace.
DETERMINISTIC = ["sojourn_p99_us", "fairness_jain", "delivered_frac", "modeled_mpps"]

SORTERS = ["trie", "fastpath", "heap", "pipelined"]

# Per-layer metrics that must read non-zero wherever the layer runs.
EVERYWHERE = [
    "traffic.ns_per_pkt", "link.ns_per_pkt",
    "hwsched.enqueue_ns_p50", "hwsched.enqueue_ns_p99",
    "hwsched.dequeue_ns_p50", "hwsched.dequeue_ns_p99",
    "rank.arrival_ns", "quantize.ns_per_call",
    "buffer.store_ns", "buffer.release_ns", "buffer.peak",
    "trace.span_overhead_ns",
] + [f"sorter.{b}.{m}" for b in SORTERS for m in ("insert_ns", "pop_min_ns", "cycles_per_op")]
POP_MAX = [f"sorter.{b}.pop_max_ns" for b in SORTERS]
SHARD = ["shard.enqueue_ns_p50", "shard.enqueue_ns_p99", "shard.dequeue_ns_p50",
         "shard.dequeue_ns_p99", "shard.rebalance_us_p50", "shard.migrations",
         "shard.balance", "shard.setup_mb"]
LAYERS = {
    "steady_small": EVERYWHERE,
    "million_zipf": EVERYWHERE + ["hwsched.resident_words_peak"],
    "overload_pushout": EVERYWHERE + POP_MAX + ["hwsched.pushed_out", "link.drop_frac",
                                                "hwsched.resident_words_peak"],
    "sharded_skew": EVERYWHERE + SHARD,
}
# ... and metrics of layers a workload never enters, which must read zero.
ABSENT = {
    "steady_small": SHARD + POP_MAX,
    "million_zipf": SHARD + POP_MAX,
    "overload_pushout": SHARD,
    "sharded_skew": POP_MAX,
}

_cache = {}


def bench(workload, trace, seed=1):
    """Runs the binary once per (workload, trace, seed); returns
    (exit code, stdout lines, parsed last line)."""
    key = (workload, trace, seed)
    if key not in _cache:
        cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--packets", str(TINY[workload])]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
        lines = proc.stdout.strip().splitlines()
        _cache[key] = (proc.returncode, lines, json.loads(lines[-1]))
    return _cache[key]


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.workloads = [w["name"] for w in cls.spec["workloads"]]

    def test_workloads_match_the_binary(self):
        self.assertEqual(sorted(self.workloads), sorted(TINY))

    def test_output_parses_and_every_check_passes(self):
        for w in self.workloads:
            for trace in (0, 1):
                code, _, result = bench(w, trace)
                self.assertEqual(code, 0, (w, trace))
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertIs(result["correct"], True)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                for name, m in result["metrics"].items():
                    self.assertEqual(set(m), {"value", "unit"}, name)
                    self.assertIsInstance(m["value"], (int, float), name)

    def test_emitted_names_and_units_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in self.spec[key]}
            for w in self.workloads:
                got = {n: m["unit"] for n, m in bench(w, trace)[2]["metrics"].items()}
                self.assertEqual(got, want, (w, key))

    def test_end_to_end_metrics_are_never_zero(self):
        for w in self.workloads:
            for name, m in bench(w, 0)[2]["metrics"].items():
                self.assertGreater(m["value"], 0, (w, name))

    def test_deterministic_metrics_repeat_across_runs(self):
        for w in self.workloads:
            first = bench(w, 0)[2]["metrics"]
            _cache.pop((w, 0, 1))
            second = bench(w, 0)[2]["metrics"]
            for name in DETERMINISTIC:
                self.assertEqual(first[name]["value"], second[name]["value"], (w, name))

    def test_another_seed_gives_another_trace(self):
        a = bench("steady_small", 0, seed=1)[2]["metrics"]["sojourn_p99_us"]["value"]
        b = bench("steady_small", 0, seed=2)[2]["metrics"]["sojourn_p99_us"]["value"]
        self.assertNotEqual(a, b)

    def test_every_layer_a_workload_runs_is_reported(self):
        for w in self.workloads:
            metrics = bench(w, 1)[2]["metrics"]
            for name in LAYERS[w]:
                self.assertGreater(metrics[name]["value"], 0, (w, name))
            for name in ABSENT[w]:
                self.assertEqual(metrics[name]["value"], 0, (w, name))

    def test_modeled_rate_is_labelled_beside_the_measured_one(self):
        for w in self.workloads:
            text = "\n".join(bench(w, 0)[1][:-1])
            self.assertIn("(measured", text)
            self.assertIn("(modeled", text)

    def test_bad_arguments_fail_without_a_result(self):
        for args in (["--workload", "nope"], ["--workload", "steady_small", "--trace", "2"], []):
            proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True)
            self.assertEqual(proc.returncode, 2, args)
            self.assertEqual(proc.stdout, "", args)

    def test_fails_in_a_directory_without_the_repository(self):
        bare = os.path.join(os.path.dirname(os.path.dirname(BINARY)), "selftest_bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("target", "__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
        cmd = [sys.executable, "perfbench/run.py", "--workload", "steady_small",
               "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=170)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
