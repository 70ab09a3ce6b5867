"""Output checks for one `diskrd run`: reference values and byte identity.

A run passes when its ``summary`` and last ``diagnostics.csv`` row agree
with the values recorded in ``references.json`` for its workload and
seed. The relative tolerance RTOL admits the 1e-12 rounding drift that a
reordering of the arithmetic may cause and catches a wrong answer. Each
quantity is compared on its own natural scale, so values near zero (a
minimum density, a small rate of change) do not demand more digits than
the state they are computed from carries.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

RTOL = 1e-9
EQUILIBRIUM_RTOL = 1e-3
DETERMINISTIC = ("diagnostics.csv", "summary")


def read_key_values(path: Path) -> dict[str, str]:
    pairs = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            pairs[key] = value
    return pairs


def read_last_row(path: Path) -> tuple[dict[str, str], int]:
    """Last diagnostics row as {column: text}, and the number of steps taken."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return dict(zip(header, lines[-1].split(","))), len(lines) - 2


def record(out_dir: Path) -> dict:
    """The values a reference stores for one run."""
    last_row, _ = read_last_row(out_dir / "diagnostics.csv")
    return {"summary": read_key_values(out_dir / "summary"), "last_row": last_row}


def fingerprint(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every deterministic artifact: diagnostics, summary, snapshots."""
    names = list(DETERMINISTIC) + sorted(p.name for p in out_dir.glob("snapshot_*.csv"))
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in names}


def _scales(reference: dict, config: dict[str, str]) -> dict[str, float]:
    """Natural magnitude of each checked quantity."""
    summary = reference["summary"]
    peak = max(
        abs(float(summary["terminal_max_density"])), abs(float(summary["terminal_min_density"]))
    )
    area = math.pi * float(config["radius"]) ** 2
    rate = peak * math.sqrt(area) / float(config["dt"])
    return {
        "t": 0.0,
        "terminal_time": 0.0,
        "max": peak,
        "min": peak,
        "terminal_max_density": peak,
        "terminal_min_density": peak,
        "terminal_mean_density": peak,
        "total_population": peak * area,
        "terminal_total_population": peak * area,
        "dwdt_norm": rate,
        "terminal_dwdt_norm": rate,
    }


def _close(value: str, expected: str, scale: float) -> bool:
    a, b = float(value), float(expected)
    return math.isfinite(a) and abs(a - b) <= RTOL * max(abs(b), scale)


def compare(actual: dict, reference: dict, config: dict[str, str]) -> list[str]:
    """Differences between a run's recorded values and its reference; empty if it passes.

    ``config`` is the run's effective_config (for the radius and rounded dt).
    """
    problems = []
    scales = _scales(reference, config)
    dt = float(config["dt"])
    for part in ("summary", "last_row"):
        got, want = actual[part], reference[part]
        if set(got) != set(want):
            problems.append(f"{part}: keys {sorted(got)} != {sorted(want)}")
            continue
        for key, expected in want.items():
            value = got[key]
            if key in scales:
                ok = _close(value, expected, scales[key])
            elif key == "equilibria":
                roots, ref_roots = value.split(","), expected.split(",")
                top = max(abs(float(r)) for r in ref_roots)
                ok = len(roots) == len(ref_roots) and all(
                    _close(r, e, top) for r, e in zip(roots, ref_roots)
                )
            elif key == "converged_at" and "none" not in (value, expected):
                ok = abs(float(value) - float(expected)) <= 1.5 * dt
            else:
                ok = value == expected
            if not ok:
                problems.append(f"{part}.{key} = {value}, reference {expected}")
    return problems


def ricker_top_root(scale: float, decay: float, mortality: float) -> float:
    """Largest root of scale * w^2 * exp(-decay * w) = mortality * w, by bisection."""
    lo, hi = 1.0 / decay, 1.0 / decay
    if scale * lo * math.exp(-decay * lo) < mortality:
        return 0.0
    while scale * hi * math.exp(-decay * hi) >= mortality:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if scale * mid * math.exp(-decay * mid) >= mortality:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def check_equilibrium(summary: dict[str, str], config: dict[str, str]) -> list[str]:
    """A converged forced-birth run must sit at the largest flat equilibrium."""
    if (
        summary.get("converged") != "true"
        or config.get("variant") != "mode_forced_birth"
        or config.get("birth") != "ricker_quadratic"
    ):
        return []
    root = ricker_top_root(
        float(config["birth_scale"]), float(config["birth_decay"]), float(config["mortality"])
    )
    mean = float(summary["terminal_mean_density"])
    if abs(mean - root) <= EQUILIBRIUM_RTOL * root:
        return []
    return [f"converged mean {mean:.6g} is not the equilibrium {root:.6g}"]
