"""In-memory spans around wrapped calls, and the per-layer figures drawn from them.

A span is ``[name, start, end, parent]``: ``parent`` is the index of the
enclosing span in the same list, or -1. All spans of one list belong to
one run (one `diskrd run` process); the run id is stored beside them.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter

STEP = "solver.step"


class Tracer:
    """Records a span and a call count around every function it wraps."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_spans, counts, clock = self.spans, self._open, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1]
            spans.append(span)
            open_spans.append(index)
            counts[name] += 1
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_spans.pop()

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a module global or a class method) by its wrapper."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def dump(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans, "counts": dict(self.counts)}


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def _quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer figures of one traced run, in the units BENCHMARK.json names.

    "Per step" means the stepping window: from the start of the first
    `SpectralIntegrator.step` to the end of `integrate`, divided by the
    number of steps. Calls in set-up (tables, history fill) and in output
    fall outside it.
    """
    own = self_times(spans)
    durations: dict[str, float] = {}
    self_sum: dict[str, float] = {}
    for (name, start, end, _), self_time in zip(spans, own):
        durations[name] = durations.get(name, 0.0) + (end - start)
        self_sum[name] = self_sum.get(name, 0.0) + self_time

    steps = [end - start for name, start, end, _ in spans if name == STEP]
    window_start = min(start for name, start, _, _ in spans if name == STEP)
    window_end = max(end for name, _, end, _ in spans if name == "solver.integrate")
    in_window: dict[str, list[float]] = {}
    for name, start, end, _ in spans:
        if window_start <= start and end <= window_end:
            in_window.setdefault(name, []).append(end - start)

    def per_step(name: str) -> float:
        return len(in_window.get(name, ())) / len(steps)

    def median_ms(name: str) -> float:
        calls = in_window.get(name)
        return 1e3 * statistics.median(calls) if calls else 0.0

    step_ms = [1e3 * d for d in steps]
    return {
        "bessel.build_bases_s": durations.get("bessel.build_bases", 0.0),
        "bessel.radial_table_per_step": per_step("bessel.radial_table"),
        "bessel.radial_table_s": sum(in_window.get("bessel.radial_table", ())),
        "transform.tables_s": durations.get("transform.tables", 0.0),
        "transform.analyze_per_step": per_step("transform.analyze_values"),
        "transform.synthesize_per_step": per_step("transform.synthesize_values"),
        "transform.analyze_ms": median_ms("transform.analyze_values"),
        "transform.synthesize_ms": median_ms("transform.synthesize_values"),
        "kernel.maturation_s": self_sum.get("kernel.maturation_term", 0.0)
        + self_sum.get("kernel.maturation_term_radial", 0.0),
        "model.rhs_self_s": self_sum.get("model.rhs", 0.0),
        "model.linear_rates_per_step": per_step("model.linear_rates"),
        "solver.history_init_s": durations.get("solver.initialize_history", 0.0),
        "solver.step_self_s": self_sum.get(STEP, 0.0),
        "solver.integrate_self_s": self_sum.get("solver.integrate", 0.0),
        "solver.step_p50_ms": _quantile(step_ms, 50),
        "solver.step_p99_ms": _quantile(step_ms, 99),
        "cli.output_s": durations.get("cli.run", 0.0)
        - durations.get("solver.SpectralIntegrator", 0.0)
        - durations.get("solver.integrate", 0.0),
        "cli.snapshot_write_s": durations.get("cli.write_field_csv", 0.0),
    }


def phase_times(spans: list) -> tuple[float, float]:
    """(set-up, stepping) seconds of an untraced run.

    Set-up is `SpectralIntegrator(...)` plus `initialize_history`; stepping
    is `integrate` minus the history fill it starts with.
    """
    total: dict[str, float] = {}
    for name, start, end, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start)
    history = total["solver.initialize_history"]
    return total["solver.SpectralIntegrator"] + history, total["solver.integrate"] - history
