"""Batch front end: flat key=value configs in, CSV artifacts out.

Config files hold one ``key = value`` pair per line; ``#`` starts a
comment. Unknown keys are rejected so typos cannot silently change a run.
The recognised keys, with defaults, are listed in DEFAULTS below and in
the README. A run writes under its output directory:

    effective_config   every resolved tunable, one per line
    diagnostics.csv    t, max, min, total_population, dwdt_norm per step
    snapshot_<t>.csv   field dumps (r, theta, value)
    summary            terminal diagnostics and flags

Two presets reproduce the bundled dispersal experiments:
``fig2_extinction`` (forced mode, no density dependence) and
``fig3_establishment`` (the same plus a quadratic birth law).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .bessel import BoundaryCondition, bessel_j, find_eigenvalues
from .model import Identity, Logistic, ModelSpec, RickerQuadratic, Variant, homogeneous_equilibria
from .solver import BlowUpError, SolverConfig, SpectralIntegrator, reference_fd
from .transform import build_bases, field_csv_prefixes, write_field_csv

__all__ = ["run", "dump_eigen_table", "main", "parse_config", "PRESETS"]


class ConfigError(ValueError):
    pass


DEFAULTS: dict[str, str] = {
    # model
    "variant": "",
    "bc": "",
    "bc_mixed_a": "1.0",
    "bc_mixed_b": "1.0",
    "diffusion": "1.0",
    "mortality": "0.0",
    "survival": "1.0",
    "spread": "0.0",
    "delay": "1.0",
    "radius": "1.0",
    "birth": "none",
    "birth_rate": "1.0",        # logistic slope at the origin
    "birth_capacity": "1.0",    # logistic capacity
    "birth_scale": "0.25",      # quadratic law scale
    "birth_decay": "0.1",       # quadratic law decay
    "forcing_constant": "1.0",  # time factor f of the forcing mode
    "forcing_mode_k": "3.8317",
    "forcing_exponent_linear": "false",
    "n_max": "16",
    "j_max": "32",
    # initial history
    "w0_kind": "constant",
    "w0_value": "0.0",
    "w0_base": "0.0",
    "w0_amp": "0.0",
    "w0_kx": "0.0",
    "w0_ky": "0.0",
    "w0_order": "0",
    "w0_index": "1",
    # grid (0 means sized automatically from the truncation)
    "n_r": "0",
    "n_theta": "0",
    # time stepping
    "scheme": "etd_ab2",
    "dt": "0.01",
    "t_end": "400.0",
    "snapshot_every": "2000",
    "convergence_tol": "1e-6",
    "fd_n_r": "32",      # reference-FD mesh (reference_fd scheme only)
    "fd_n_theta": "24",
    # output
    "output_dir": "out",
    "preset": "",
}

# Model, initial patch and stepping shared by both bundled experiments.
_PRESET_BASE: dict[str, str] = {
    "bc": "zero_flux",
    "diffusion": "5.0",
    "mortality": "0.01",
    "survival": "0.1",
    "spread": "0.1",
    "delay": "1.0",
    "radius": "1.0",
    "forcing_constant": "1.0",
    "forcing_mode_k": "3.8317",
    "forcing_exponent_linear": "false",
    "w0_kind": "trig_patch",
    "w0_base": "0.2",
    "w0_amp": "0.02",
    "w0_kx": "3.0",
    "w0_ky": "2.0",
    "dt": "0.01",
    "t_end": "400.0",
}

PRESETS: dict[str, dict[str, str]] = {
    "fig2_extinction": {**_PRESET_BASE, "variant": "mode_forced", "birth": "none"},
    "fig3_establishment": {
        **_PRESET_BASE,
        "variant": "mode_forced_birth",
        "birth": "ricker_quadratic",
        "birth_scale": "0.25",
        "birth_decay": "0.1",
    },
}

_VARIANTS = {v.value: v for v in Variant}
_SCHEMES = ("etd_ab2", "reference_fd")


def parse_config(path) -> dict[str, str]:
    """Read a flat key = value file, rejecting unknown keys."""
    settings: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown config key: {key}")
        settings[key] = value
    return settings


def _to_float(settings, key) -> float:
    try:
        value = float(settings[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key}: {exc}") from None
    if not np.isfinite(value):
        raise ConfigError(f"config key {key}: expected a finite number, got {settings[key]!r}")
    return value


def _to_int(settings, key) -> int:
    try:
        return int(settings[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key}: {exc}") from None


def _to_bool(settings, key) -> bool:
    value = settings[key].lower()
    if value in ("true", "1", "yes"):
        return True
    if value in ("false", "0", "no"):
        return False
    raise ConfigError(f"config key {key}: expected true/false, got {settings[key]!r}")


def _resolve(settings: dict[str, str], preset: str | None) -> dict[str, str]:
    resolved = dict(DEFAULTS)
    resolved.update(settings)
    preset_name = preset or resolved.get("preset", "")
    if preset_name:
        if preset_name not in PRESETS:
            raise ConfigError(
                f"config key preset: unknown preset {preset_name!r} "
                f"(choose from {', '.join(sorted(PRESETS))})"
            )
        # Preset values win over individual settings so the bundled runs
        # stay reproducible; the final values land in effective_config.
        resolved.update(PRESETS[preset_name])
        resolved["preset"] = preset_name
    if not resolved["variant"]:
        raise ConfigError("config key variant: required (or choose a preset)")
    return resolved


def _boundary_condition(name: str, mixed) -> BoundaryCondition:
    """The edge condition ``name`` selects; ``mixed()`` gives the (A, B) of
    a mixed one and is called only for it."""
    if name == "dirichlet":
        return BoundaryCondition.dirichlet()
    if name == "zero_flux":
        return BoundaryCondition.zero_flux()
    if name == "mixed":
        return BoundaryCondition.mixed(*mixed())
    raise ConfigError(f"config key bc: unknown boundary condition {name!r}")


def _parse_bc(resolved) -> BoundaryCondition | None:
    name = resolved["bc"].lower()
    if not name:
        return None
    return _boundary_condition(
        name, lambda: (_to_float(resolved, "bc_mixed_a"), _to_float(resolved, "bc_mixed_b"))
    )


def _parse_birth(resolved):
    name = resolved["birth"].lower()
    if name in ("", "none"):
        return None
    if name == "identity":
        return Identity()
    if name == "logistic":
        return Logistic(_to_float(resolved, "birth_rate"), _to_float(resolved, "birth_capacity"))
    if name == "ricker_quadratic":
        return RickerQuadratic(_to_float(resolved, "birth_scale"), _to_float(resolved, "birth_decay"))
    raise ConfigError(f"config key birth: unknown birth law {name!r}")


def _once_per_mesh(profile):
    """Initial history w0(t, r, theta) = profile(r, theta), constant in time.

    The history fill passes the same mesh arrays for every ring sample, so
    the profile is evaluated once per mesh and the values are reused.
    """
    last: list = [None, None, None]  # r, theta, values

    def w0(t, r, th):
        if r is not last[0] or th is not last[1]:
            last[:] = [r, th, profile(r, th)]
        return last[2]

    return w0


def _mode_w0(order: int, k: float, amp: float):
    return _once_per_mesh(lambda r, th: amp * bessel_j(order, k * r) * np.cos(order * th))


def _build_w0(resolved, spec):
    kind = resolved["w0_kind"].lower()
    if kind == "constant":
        value = _to_float(resolved, "w0_value")
        return _once_per_mesh(lambda r, th: np.full_like(r, value))
    if kind == "trig_patch":
        base = _to_float(resolved, "w0_base")
        amp = _to_float(resolved, "w0_amp")
        kx = _to_float(resolved, "w0_kx")
        ky = _to_float(resolved, "w0_ky")

        def profile(r, th):
            x = r * np.cos(th)
            y = r * np.sin(th)
            return base + amp * np.sin(kx * x) * np.cos(ky * y)

        return _once_per_mesh(profile)
    if kind == "mode":
        order, index = _to_int(resolved, "w0_order"), _to_int(resolved, "w0_index")
        if not (0 <= order <= spec.n_max and 1 <= index <= spec.j_max):
            raise ConfigError("config key w0_order/w0_index: outside the truncation")
        k = find_eigenvalues(order, spec.radius, spec.bc, index).eigenvalues[-1]
        return _mode_w0(order, k, _to_float(resolved, "w0_amp"))
    raise ConfigError(f"config key w0_kind: unknown initial condition {kind!r}")


def _build_run(resolved):
    variant_name = resolved["variant"].lower()
    if variant_name not in _VARIANTS:
        raise ConfigError(f"config key variant: unknown variant {variant_name!r}")
    scheme = resolved["scheme"].lower()
    if scheme not in _SCHEMES:
        raise ConfigError(f"config key scheme: unknown scheme {scheme!r}")
    forcing_value = _to_float(resolved, "forcing_constant")
    try:
        spec = ModelSpec(
            variant=_VARIANTS[variant_name],
            diffusion=_to_float(resolved, "diffusion"),
            mortality=_to_float(resolved, "mortality"),
            survival=_to_float(resolved, "survival"),
            spread=_to_float(resolved, "spread"),
            delay=_to_float(resolved, "delay"),
            radius=_to_float(resolved, "radius"),
            bc=_parse_bc(resolved),
            birth=_parse_birth(resolved),
            forcing=(lambda t: forcing_value),
            forcing_mode_k=_to_float(resolved, "forcing_mode_k"),
            forcing_exponent_linear=_to_bool(resolved, "forcing_exponent_linear"),
            n_max=_to_int(resolved, "n_max"),
            j_max=_to_int(resolved, "j_max"),
        )
        config = SolverConfig(
            dt=_to_float(resolved, "dt"),
            t_end=_to_float(resolved, "t_end"),
            snapshot_every=_to_int(resolved, "snapshot_every"),
            convergence_tol=_to_float(resolved, "convergence_tol"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        # Model, solver, birth-law and boundary-condition checks.
        raise ConfigError(f"invalid config: {exc}") from None
    return spec, config, scheme


def _format(value: float) -> str:
    return format(value, ".17g")


def _write_diagnostics(result, path) -> None:
    """The diagnostics rows as CSV, each value as ``_format`` writes it."""
    columns = (result.times, result.max_density, result.min_density)
    columns += (result.total_population, result.dwdt_norm)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,max,min,total_population,dwdt_norm\n")
        for t, high, low, total, rate in zip(*(column.tolist() for column in columns)):
            fh.write(f"{t:.17g},{high:.17g},{low:.17g},{total:.17g},{rate:.17g}\n")


def _write_effective_config(resolved: dict[str, str], spec, overrides: dict[str, str], path) -> None:
    effective = dict(resolved)
    effective["bc"] = spec.bc.label()
    effective.update(overrides)
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(effective):
            fh.write(f"{key} = {effective[key]}\n")


def _write_summary(result, spec, path) -> None:
    lines = {
        "status": "completed",
        "terminal_time": _format(result.times[-1]),
        "terminal_max_density": _format(result.max_density[-1]),
        "terminal_min_density": _format(result.min_density[-1]),
        "terminal_total_population": _format(result.total_population[-1]),
        "terminal_mean_density": _format(
            result.total_population[-1] / (np.pi * spec.radius**2)
        ),
        "terminal_dwdt_norm": _format(result.dwdt_norm[-1]),
        "converged": "true" if result.converged else "false",
        "converged_at": _format(result.converged_at) if result.converged else "none",
    }
    if isinstance(spec.birth, (Logistic, RickerQuadratic)):
        roots = homogeneous_equilibria(spec)
        lines["equilibria"] = ",".join(_format(w) for w in roots)
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in lines.items():
            fh.write(f"{key} = {value}\n")


def run(config_path=None, preset: str | None = None, out_dir=None) -> int:
    """Execute one configured run; returns a process exit status."""
    try:
        settings = parse_config(config_path) if config_path else {}
        resolved = _resolve(settings, preset)
        if out_dir is not None:
            resolved["output_dir"] = str(out_dir)
        spec, config, scheme = _build_run(resolved)

        out = Path(resolved["output_dir"])
        try:
            out.mkdir(parents=True, exist_ok=True)
            probe = out / ".write_probe"
            probe.write_text("")
            probe.unlink()
        except OSError as exc:
            raise ConfigError(f"config key output_dir: not writable ({exc})") from None

        w0 = _build_w0(resolved, spec)

        if scheme == "etd_ab2":
            n_r, n_theta = _to_int(resolved, "n_r"), _to_int(resolved, "n_theta")
            try:
                integrator = SpectralIntegrator(spec, config, n_r, n_theta)
            except ValueError as exc:  # the grid sizes, and the step count after dt is rounded
                raise ConfigError(f"invalid config: {exc}") from None
            overrides = {
                "n_r": str(integrator.grid.n_r),
                "n_theta": str(integrator.grid.n_theta),
                "dt": _format(integrator.dt),  # after delay rounding
            }
            _write_effective_config(resolved, spec, overrides, out / "effective_config")
            result = integrator.integrate(w0)
        else:
            fd_n_r, fd_n_theta = _to_int(resolved, "fd_n_r"), _to_int(resolved, "fd_n_theta")
            # reference_fd checks its inputs before the first step, so the
            # file is written only for a run that started: one that ended,
            # or one that blew up.
            try:
                result = reference_fd(spec, config, w0, fd_n_r, fd_n_theta)
            except ValueError as exc:  # the FD mesh, delay and step count
                raise ConfigError(f"invalid config: {exc}") from None
            except BlowUpError:
                _write_effective_config(resolved, spec, {}, out / "effective_config")
                raise
            _write_effective_config(resolved, spec, {}, out / "effective_config")

        _write_diagnostics(result, out / "diagnostics.csv")
        prefixes = field_csv_prefixes(result.grid)
        for t, snapshot in result.snapshots:
            write_field_csv(snapshot, out / f"snapshot_{t:.15g}.csv", prefixes)
        _write_summary(result, spec, out / "summary")
        print(f"[diskrd] wrote {out / 'summary'}")
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def dump_eigen_table(n_max: int, j_max: int, radius: float, bc: BoundaryCondition, out_path) -> int:
    """Write the eigenvalue/norm table as CSV rows (n, j, k, norm)."""
    try:
        bases = build_bases(n_max, j_max, radius, bc)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write("n,j,k,norm\n")
            for n, basis in enumerate(bases):
                for j in range(j_max):
                    fh.write(
                        f"{n},{j + 1},{_format(basis.eigenvalues[j])},{_format(basis.norms[j])}\n"
                    )
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="diskrd",
        description="Spectral simulator for delayed dispersal on a circular habitat",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured simulation")
    p_run.add_argument("config", nargs="?", default=None, help="flat key=value config file")
    p_run.add_argument("--preset", choices=sorted(PRESETS), default=None)
    p_run.add_argument("--out", default=None, help="output directory (overrides the config)")

    p_eig = sub.add_parser("eigen-table", help="dump eigenvalues and norms to CSV")
    p_eig.add_argument("--n-max", type=int, default=0)
    p_eig.add_argument("--j-max", type=int, default=8)
    p_eig.add_argument("--radius", type=float, default=1.0)
    p_eig.add_argument("--bc", choices=["dirichlet", "zero_flux", "mixed"], default="dirichlet")
    p_eig.add_argument("--mixed-a", type=float, default=1.0)
    p_eig.add_argument("--mixed-b", type=float, default=1.0)
    p_eig.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    if args.command == "run":
        if args.config is None and args.preset is None:
            print("error: provide a config file or --preset", file=sys.stderr)
            return 2
        return run(args.config, preset=args.preset, out_dir=args.out)
    if args.command == "eigen-table":
        try:
            bc = _boundary_condition(args.bc, lambda: (args.mixed_a, args.mixed_b))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return dump_eigen_table(args.n_max, args.j_max, args.radius, bc, args.out)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
