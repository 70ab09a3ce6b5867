"""Benchmark of diskrd: end-to-end and per-layer timings of `diskrd run`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a diskrd source tree. For S seconds (and at least
MIN_RUNS times) it launches fresh `diskrd run <config> --out <dir>`
processes, one after another, on the config that workload NAME draws from
seed N (see workloads.py). Every run's outputs are checked against the
recorded references and against the first run of the set, byte for byte.

``--trace 0`` reports the end-to-end metrics, medians over the runs.
``--trace 1`` alternates untraced runs with traced ones, which wrap the
public functions of every layer (see child.py), and reports the per-layer
metrics, medians over the traced runs. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
``--workload all`` prints the table of every workload instead.

Work files go to perfbench/_work/; a record of the machine, the workload
and every run is kept there as results/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from check import check_equilibrium, compare, fingerprint, read_key_values, read_last_row, record
from spans import layer_metrics, phase_times
from workloads import SEEDS, WORKLOADS

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
REFERENCES = HERE / "references.json"

# One BLAS thread: on a 2-core Xeon (KVM) a second thread made every
# workload slower; the transform shapes are too small to split.
BLAS_THREADS = 1
MIN_RUNS = 3
CHILD_TIMEOUT_S = 150.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "bessel.build_bases_s": "s",
    "bessel.radial_table_per_step": "count/step",
    "bessel.radial_table_s": "s",
    "transform.tables_s": "s",
    "transform.analyze_per_step": "count/step",
    "transform.synthesize_per_step": "count/step",
    "transform.analyze_ms": "ms",
    "transform.synthesize_ms": "ms",
    "kernel.maturation_s": "s",
    "model.rhs_self_s": "s",
    "model.linear_rates_per_step": "count/step",
    "solver.history_init_s": "s",
    "solver.step_self_s": "s",
    "solver.integrate_self_s": "s",
    "solver.step_p50_ms": "ms",
    "solver.step_p99_ms": "ms",
    "cli.output_s": "s",
    "cli.snapshot_write_s": "s",
    "cli.output_bytes": "B",
    "trace.overhead_ratio": "ratio",
    "run.failed_ratio": "ratio",
}


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def launch(argv: list[str], env: dict[str, str], stderr_path: Path) -> tuple[int, float, float]:
    """Run one process to its end: (exit status, wall seconds, peak RSS in MB)."""
    waited = []
    with open(stderr_path, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=stderr)
        waiter = threading.Thread(target=lambda: waited.append(os.wait4(proc.pid, 0)))
        waiter.start()
        waiter.join(CHILD_TIMEOUT_S)
        if waiter.is_alive():
            proc.kill()
            waiter.join()
        wall = time.perf_counter() - start
    _, status, usage = waited[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_child(root: Path, mode: str, run_id: str, config: Path, out: Path) -> dict:
    """One `diskrd run` in a fresh process; its timings, spans and any error."""
    spans_path = out.with_suffix(".spans.json")
    stderr_path = out.with_suffix(".stderr")
    argv = [sys.executable, str(HERE / "child.py"), str(spans_path), mode, run_id, str(config), str(out)]
    status, wall, rss = launch(argv, child_env(root), stderr_path)
    sample = {"run_id": run_id, "mode": mode, "status": status, "wall_s": wall, "peak_rss_mb": rss}
    if status != 0:
        tail = stderr_path.read_text(encoding="utf-8", errors="replace")[-400:]
        sample["error"] = f"exit status {status}: {tail}"
        return sample
    traced = json.loads(spans_path.read_text(encoding="utf-8"))
    sample.update(spans=traced["spans"], counts=traced["counts"])
    return sample


def _median(samples: list[dict], key: str) -> float:
    values = [s[key] for s in samples]
    return statistics.median(values) if values else 0.0


def machine_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() != "Instruction":
                caches[f"L{(index / 'level').read_text().strip()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "caches_per_core": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def _bytes(size: str) -> int:
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)


def workload_record(effective: dict[str, str], machine: dict) -> dict:
    """Sizes of one workload as the program resolved them, tables computed."""
    n_max, j_max = int(effective["n_max"]), int(effective["j_max"])
    n_r, n_theta = int(effective["n_r"]), int(effective["n_theta"])
    dt, delay = float(effective["dt"]), float(effective["delay"])
    # DiskTransform keeps two float64 tables shaped (n_max+1, j_max, n_r):
    # the Bessel samples and the analysis weights.
    table = (n_max + 1) * j_max * n_r * 8
    l2 = machine["caches_per_core"].get("L2")
    return {
        "variant": effective["variant"],
        "grid": f"{n_r}x{n_theta}",
        "n_max": n_max,
        "j_max": j_max,
        "dt": round(dt, 12),
        "lag_steps": round(delay / dt) if delay else 0,
        "transform_table_bytes": table,
        "transform_tables": 2,
        "l2_per_core_bytes": _bytes(l2) if l2 else None,
        "table_exceeds_l2": bool(l2) and table > _bytes(l2),
    }


def run_workload(root: Path, machine: dict, name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = WORKLOADS[name]
    shipped = SEEDS[seed % len(SEEDS)]
    reference = json.loads(REFERENCES.read_text(encoding="utf-8"))["workloads"][name][str(shipped)]
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "workload.cfg"
    config.write_text(workload.config_text(seed), encoding="utf-8")

    modes = ("phases", "layers") if traced else ("phases",)
    samples: list[dict] = []
    first = None  # (fingerprint, effective_config, output bytes) of the first good run
    deadline = time.perf_counter() + seconds
    try:
        while time.perf_counter() < deadline or len(samples) < MIN_RUNS * len(modes):
            k = len(samples)
            out = work / f"run{k}"
            sample = run_child(root, modes[k % len(modes)], f"{name}-{seed}-{k}", config, out)
            samples.append(sample)
            if "error" in sample:
                continue
            try:
                effective = read_key_values(out / "effective_config")
                actual = record(out)
                _, n_steps = read_last_row(out / "diagnostics.csv")
                problems = compare(actual, reference, effective)
                problems += check_equilibrium(actual["summary"], effective)
                prints = fingerprint(out)
                if first is None:
                    size = sum(p.stat().st_size for p in out.iterdir())
                    first = (prints, effective, size)
                elif prints != first[0]:
                    problems.append("deterministic artifacts differ from the first run of this set")
                setup, stepping = phase_times(sample["spans"])
                if sample["mode"] == "layers":
                    sample["layers"] = layer_metrics(sample["spans"])
            except (OSError, KeyError, ValueError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            if problems:
                sample["error"] = "; ".join(problems)
                continue
            sample.update(setup_s=setup, steps_per_s=n_steps / stepping, n_steps=n_steps)
            shutil.rmtree(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [s for s in samples if "error" in s]
    good = [s for s in samples if "error" not in s]
    untraced = [s for s in good if s["mode"] == "phases"]
    if traced:
        layered = [s for s in good if s["mode"] == "layers"]
        metrics = {
            key: statistics.median(s["layers"][key] for s in layered) if layered else 0.0
            for key in PER_LAYER
            if key not in ("cli.output_bytes", "trace.overhead_ratio", "run.failed_ratio")
        }
        metrics["cli.output_bytes"] = first[2] if first else 0
        untraced_wall = _median(untraced, "wall_s")
        metrics["trace.overhead_ratio"] = _median(layered, "wall_s") / untraced_wall if untraced_wall else 0.0
        metrics["run.failed_ratio"] = len(failed) / len(samples)
        units = PER_LAYER
    else:
        metrics = {key: _median(untraced, key) for key in END_TO_END}
        units = END_TO_END

    result = {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    detail = {
        "workload": name,
        "seed": seed,
        "reference_seed": shipped,
        "seconds": seconds,
        "trace": int(traced),
        "machine": machine,
        "workload_record": workload_record(first[1], machine) if first else None,
        "runs": [{k: v for k, v in s.items() if k not in ("spans", "layers")} for s in samples],
        **result,
    }
    (results_dir / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8"
    )
    return {**result, "errors": [s["error"] for s in failed], "record": detail["workload_record"]}


def print_table(name: str, seed: int, result: dict) -> None:
    print(f"[perfbench] {name} seed {seed}: {result['attempted']} runs, {result['failed']} failed")
    for error in result["errors"]:
        print(f"  FAILED: {error}")
    print(f"  {'failed_ratio':<32} {result['failed'] / result['attempted']:.4g} ratio")
    for key, metric in result["metrics"].items():
        print(f"  {key:<32} {metric['value']:.6g} {metric['unit']}")
    if result["record"]:
        print(f"  workload: {json.dumps(result['record'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "diskrd" / "cli.py").is_file():
        print(f"error: no diskrd source tree (src/diskrd) under {root}", file=sys.stderr)
        return 2
    # Compile once up front so no run pays for writing bytecode.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(root / "src")],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    machine = machine_record()
    print(f"[perfbench] machine: {json.dumps(machine)}")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(root, machine, name, args.seed, args.seconds, bool(args.trace))
        print_table(name, args.seed, results[name])
    if args.workload == "all":
        return 0 if all(r["correct"] for r in results.values()) else 1
    result = results[args.workload]
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
