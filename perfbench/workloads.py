"""The benchmark's workloads and the `diskrd run` config each one generates.

Every workload is a fixed model plus an initial condition drawn from a
seed. The program only ever sees the generated config file. Seeds map onto
the SEEDS the benchmark ships references for (``seed % len(SEEDS)``), so
any integer seed gives a checked input, and the same seed the same input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

SEEDS = tuple(range(16))

# Physical parameters of the `fig3_establishment` preset, written out here
# so the benchmark does not depend on how the program stores its presets.
_FIG3_MODEL = {
    "bc": "zero_flux",
    "diffusion": "5.0",
    "mortality": "0.01",
    "survival": "0.1",
    "spread": "0.1",
    "delay": "1.0",
    "radius": "1.0",
    "birth": "ricker_quadratic",
    "birth_scale": "0.25",
    "birth_decay": "0.1",
    "forcing_constant": "1.0",
    "forcing_mode_k": "3.8317",
    "forcing_exponent_linear": "false",
    "dt": "0.01",
}


def _trig_patch(base: tuple[float, float], amp: tuple[float, float]):
    def draw(rng: random.Random) -> dict[str, str]:
        return {
            "w0_kind": "trig_patch",
            "w0_base": f"{rng.uniform(*base):.6f}",
            "w0_amp": f"{rng.uniform(*amp):.6f}",
            "w0_kx": f"{rng.uniform(2.0, 4.0):.6f}",
            "w0_ky": f"{rng.uniform(1.0, 3.0):.6f}",
        }

    return draw


def _first_radial_mode(rng: random.Random) -> dict[str, str]:
    return {
        "w0_kind": "mode",
        "w0_order": "0",
        "w0_index": "1",
        "w0_amp": f"{rng.uniform(0.05, 0.2):.6f}",
    }


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: dict[str, str]
    draw_initial: Callable[[random.Random], dict[str, str]]

    def config_text(self, seed: int) -> str:
        """The `diskrd run` config for ``seed``: the model plus the drawn initial history."""
        shipped = SEEDS[seed % len(SEEDS)]
        settings = {**self.model, **self.draw_initial(random.Random(f"{self.name}:{shipped}"))}
        lines = [f"# perfbench workload {self.name}, seed {shipped}"]
        lines += [f"{key} = {value}" for key, value in sorted(settings.items())]
        return "\n".join(lines) + "\n"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="establishment",
            why=(
                "the paper's headline forced-birth run at preset resolution; per-step loop "
                "overhead and CSV output dominate and the nonlocal source never runs"
            ),
            # 6000 steps with the preset's outputs: diagnostics every step and
            # a snapshot every 2000 steps.
            model={
                **_FIG3_MODEL,
                "variant": "mode_forced_birth",
                "n_max": "16",
                "j_max": "32",
                "t_end": "60.0",
                "snapshot_every": "2000",
            },
            draw_initial=_trig_patch(base=(0.15, 0.25), amp=(0.01, 0.03)),
        ),
        Workload(
            name="full_disk_delayed",
            why=(
                "the core delayed nonlocal model at n_max=32, j_max=64; transforms and the "
                "maturation source dominate and the tables exceed per-core L2"
            ),
            # Started near the flat equilibrium survival*b(w) = mortality*w,
            # w ~ 47.9, so the run stays in one regime for every seed.
            model={
                **_FIG3_MODEL,
                "variant": "full_zero_flux",
                "n_max": "32",
                "j_max": "64",
                "t_end": "5.0",
                "snapshot_every": "2000",
            },
            draw_initial=_trig_patch(base=(46.9, 48.9), amp=(0.5, 1.5)),
        ),
        Workload(
            name="radial_persistence",
            why=(
                "order-0 radial model past the critical patch radius; per-step J_0 "
                "re-tabulation in the bessel layer dominates and the 2-D transform is tiny"
            ),
            # Critical radius R* solves D j01^2/R^2 + mu = survival * b'(0) *
            # exp(-j01^2 spread / R^2); here R* ~ 2.9, so R = 3.5 persists.
            model={
                "variant": "radial",
                "bc": "dirichlet",
                "diffusion": "1.0",
                "mortality": "0.1",
                "survival": "0.8",
                "spread": "0.05",
                "delay": "1.0",
                "radius": "3.5",
                "birth": "logistic",
                "birth_rate": "1.0",
                "birth_capacity": "1.0",
                "n_max": "0",
                "j_max": "64",
                "dt": "0.01",
                "t_end": "2.5",
                "snapshot_every": "2000",
            },
            draw_initial=_first_radial_mode,
        ),
    )
}
