"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of the diskrd source tree; the last test launches short
traced `diskrd run` processes.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import unittest
from pathlib import Path

import run
from check import RTOL, check_equilibrium, compare, ricker_top_root
from spans import layer_metrics, self_times
from workloads import SEEDS, WORKLOADS

ROOT = Path.cwd()


class SelfTime(unittest.TestCase):
    def test_synthetic_span_tree(self):
        spans = [
            ["root", 0.0, 10.0, -1],
            ["a", 1.0, 4.0, 0],
            ["a.inner", 2.0, 3.0, 1],
            ["b", 5.0, 7.0, 0],
            ["c", 6.0, 8.0, 0],  # overlaps b: the union, 5..8, is covered once
            ["d", 9.5, 11.0, 0],  # runs past its parent: only 9.5..10 counts
        ]
        self.assertEqual(self_times(spans), [10.0 - 3.0 - 3.0 - 0.5, 2.0, 1.0, 2.0, 2.0, 1.5])

    def test_no_children_is_whole_duration(self):
        self.assertEqual(self_times([["x", 1.0, 2.5, -1]]), [1.5])


class OutputCheck(unittest.TestCase):
    def setUp(self):
        refs = json.loads(run.REFERENCES.read_text(encoding="utf-8"))["workloads"]
        self.reference = refs["establishment"][str(SEEDS[0])]
        self.config = {"radius": "1.0", "dt": "0.01", "variant": "mode_forced_birth"}

    def perturbed(self, part, key, factor):
        actual = copy.deepcopy(self.reference)
        actual[part][key] = format(float(actual[part][key]) * factor, ".17g")
        return actual

    def test_reference_matches_itself(self):
        self.assertEqual(compare(self.reference, self.reference, self.config), [])

    def test_drift_within_tolerance_passes(self):
        for part, key in (("summary", "terminal_total_population"), ("last_row", "max")):
            actual = self.perturbed(part, key, 1.0 + 1e-12)
            self.assertEqual(compare(actual, self.reference, self.config), [])

    def test_perturbation_beyond_tolerance_fails(self):
        for part, key in (
            ("summary", "terminal_total_population"),
            ("summary", "terminal_mean_density"),
            ("last_row", "max"),
            ("last_row", "min"),
        ):
            actual = self.perturbed(part, key, 1.0 + 20 * RTOL)
            self.assertEqual(len(compare(actual, self.reference, self.config)), 1, key)

    def test_changed_flag_fails(self):
        actual = copy.deepcopy(self.reference)
        actual["summary"]["converged"] = "true"
        self.assertTrue(compare(actual, self.reference, self.config))

    def test_converged_run_must_sit_at_equilibrium(self):
        config = {
            **self.config,
            "birth": "ricker_quadratic",
            "birth_scale": "0.25",
            "birth_decay": "0.1",
            "mortality": "0.01",
        }
        root = ricker_top_root(0.25, 0.1, 0.01)
        self.assertAlmostEqual(root, 75.4194, places=3)
        at_root = {"converged": "true", "terminal_mean_density": repr(root)}
        off_root = {"converged": "true", "terminal_mean_density": repr(0.99 * root)}
        self.assertEqual(check_equilibrium(at_root, config), [])
        self.assertEqual(len(check_equilibrium(off_root, config)), 1)


class Declaration(unittest.TestCase):
    def test_benchmark_json_matches_run_py(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(
            [(w["name"], w["why"]) for w in declared["workloads"]],
            [(w.name, w.why) for w in WORKLOADS.values()],
        )
        self.assertEqual({m["name"]: m["unit"] for m in declared["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in declared["per_layer"]}, run.PER_LAYER)

    def test_refuses_a_tree_without_the_program(self):
        empty = run.WORK / "selftest-empty"
        empty.mkdir(parents=True, exist_ok=True)
        cwd = Path.cwd()
        try:
            os.chdir(empty)
            self.assertNotEqual(run.main(["--workload", "establishment", "--seed", "0", "--seconds", "1"]), 0)
        finally:
            os.chdir(cwd)
            shutil.rmtree(empty)


class TracedCounts(unittest.TestCase):
    """Per-step counts of the traced run at the reference commit, repeated exactly."""

    EXPECTED = {  # analyze, synthesize, radial_table per step
        "establishment": (1.0, 2.0, 0.0),
        "full_disk_delayed": (2.0, 3.0, 0.0),
        "radial_persistence": (1.0, 2.0, 2.0),
    }
    SHORT = {"establishment": "1.0", "full_disk_delayed": "0.2", "radial_persistence": "0.2"}

    def test_counts_repeat_across_two_traced_runs(self):
        work = run.WORK / "selftest-counts"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            for name, workload in WORKLOADS.items():
                config = work / f"{name}.cfg"
                config.write_text(workload.config_text(1) + f"t_end = {self.SHORT[name]}\n")
                counts = []
                for k in range(2):
                    sample = run.run_child(ROOT, "layers", f"{name}-{k}", config, work / f"{name}-{k}")
                    self.assertNotIn("error", sample)
                    layers = layer_metrics(sample["spans"])
                    counts.append(
                        (
                            layers["transform.analyze_per_step"],
                            layers["transform.synthesize_per_step"],
                            layers["bessel.radial_table_per_step"],
                            layers["model.linear_rates_per_step"],
                        )
                    )
                self.assertEqual(counts[0], counts[1], name)
                self.assertEqual(counts[0], self.EXPECTED[name] + (1.0,), name)
        finally:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
