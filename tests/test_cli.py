import ast
import csv
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from diskrd import cli
from diskrd.cli import DEFAULTS, PRESETS, ConfigError, dump_eigen_table, main, parse_config, run
from diskrd.bessel import MAX_ARGUMENT, BoundaryCondition, bessel_j, find_eigenvalues
from diskrd.solver import SpectralIntegrator
from diskrd.transform import DiskTransform

from oracles import bessel_zero

SMALL_CONFIG = """
# tiny forced run for interface tests
variant = mode_forced
bc = zero_flux
diffusion = 5.0
mortality = 0.01
survival = 0.1
spread = 0.1
delay = 1.0
radius = 1.0
forcing_constant = 1.0
forcing_mode_k = 3.8317
n_max = 2
j_max = 3
w0_kind = trig_patch
w0_base = 0.2
w0_amp = 0.02
w0_kx = 3.0
w0_ky = 2.0
dt = 0.05
t_end = {t_end}
snapshot_every = 4
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_parses_comments_and_blanks(self, tmp_path):
        path = write_config(tmp_path, "# header\n\ndt = 0.5  # inline\n")
        assert parse_config(path) == {"dt": "0.5"}

    def test_rejects_unknown_key(self, tmp_path):
        path = write_config(tmp_path, "dly = 0.5\n")
        with pytest.raises(ConfigError, match="unknown config key: dly"):
            parse_config(path)

    def test_rejects_malformed_line(self, tmp_path):
        path = write_config(tmp_path, "just words\n")
        with pytest.raises(ConfigError, match="expected"):
            parse_config(path)


class TestRun:
    def test_zero_horizon_writes_projection(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONFIG.format(t_end="0.0"))
        out = tmp_path / "out"
        assert run(cfg, out_dir=out) == 0
        files = {p.name for p in out.iterdir()}
        assert {"effective_config", "diagnostics.csv", "summary", "snapshot_0.csv"} <= files

        with open(out / "snapshot_0.csv") as fh:
            rows = list(csv.DictReader(fh))
        values = np.array([float(row["value"]) for row in rows])
        r = np.array([float(row["r"]) for row in rows])
        th = np.array([float(row["theta"]) for row in rows])
        # The dump is the truncated projection of the initial patch; its
        # flat part survives exactly under the zero-flux basis.
        mean = values.mean()
        assert mean == pytest.approx(0.2, abs=1e-3)
        assert np.all(np.isfinite(values)) and r.size == values.size and th.size == values.size

        summary = dict(
            line.split(" = ") for line in (out / "summary").read_text().splitlines()
        )
        assert summary["status"] == "completed"
        assert float(summary["terminal_time"]) == 0.0

    def test_determinism_bitwise(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONFIG.format(t_end="0.5"))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(cfg, out_dir=out1) == 0
        assert run(cfg, out_dir=out2) == 0
        for name in ("diagnostics.csv", "summary", "snapshot_0.5.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_effective_config_lists_every_tunable(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONFIG.format(t_end="0.0"))
        out = tmp_path / "out"
        assert run(cfg, out_dir=out) == 0
        keys = {
            line.split(" = ")[0]
            for line in (out / "effective_config").read_text().splitlines()
        }
        assert set(DEFAULTS) <= keys

    def test_missing_variant_names_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "dt = 0.5\n")
        assert run(cfg, out_dir=tmp_path / "out") == 2
        assert "variant" in capsys.readouterr().err

    def test_bad_value_names_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_CONFIG.format(t_end="soon"))
        assert run(cfg, out_dir=tmp_path / "out") == 2
        assert "t_end" in capsys.readouterr().err

    def test_unwritable_output_dir(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMALL_CONFIG.format(t_end="0.0"))
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        assert run(cfg, out_dir=blocker / "sub") == 2
        assert "output_dir" in capsys.readouterr().err

    def test_blowup_exits_nonzero(self, tmp_path, capsys):
        text = SMALL_CONFIG.format(t_end="1.0").replace(
            "forcing_constant = 1.0", "forcing_constant = 1e20"
        )
        cfg = write_config(tmp_path, text)
        assert run(cfg, out_dir=tmp_path / "out") == 1
        assert "blew up" in capsys.readouterr().err

    def test_overflow_within_one_step_exits_nonzero(self, tmp_path, capsys):
        # The Ricker law's exp overflows at a large negative density before
        # the coefficient threshold can be checked.
        cfg = write_config(
            tmp_path,
            "variant = full_zero_flux\nbirth = ricker_quadratic\n"
            "w0_value = -20000\nn_max = 4\nj_max = 6\nt_end = 0.1\n",
        )
        assert run(cfg, out_dir=tmp_path / "out") == 1
        assert "blew up" in capsys.readouterr().err

    def test_births_analysis_overflow_with_a_dead_band_exits_nonzero(
        self, tmp_path, capsys, monkeypatch
    ):
        # Recruits past the second radial index are damped below 2^-53 of
        # survival * max|b| / (packed size), so the births are analysed 2
        # indices wide. The Ricker law maps w0 to a finite ~5e306 whose
        # analysis overflows, while |c| stays far below the blow-up threshold.
        overflowed = []
        analyze = DiskTransform.analyze_values

        def recording(self, values, live=None):
            coeffs = analyze(self, values, live)
            if np.isfinite(values).all() and not np.isfinite(coeffs).all():
                overflowed.append(live)
            return coeffs

        monkeypatch.setattr(DiskTransform, "analyze_values", recording)
        cfg = write_config(
            tmp_path,
            "variant = full_zero_flux\nbirth = ricker_quadratic\nspread = 1.0\n"
            "delay = 0.1\nw0_value = -6900\nn_max = 4\nj_max = 16\nt_end = 0.1\n",
        )
        assert run(cfg, out_dir=tmp_path / "out") == 1
        assert overflowed and all(live is not None and live[1] < 16 for live in overflowed)
        assert "blew up" in capsys.readouterr().err

    def test_overflowing_births_fail_only_the_state_they_enter(self, tmp_path, capsys):
        # A strong forcing drives the state of step 1 to about -2.8e5, where
        # the Ricker law overflows. Its births enter the source of step 2:
        # a run that ends at step 1 never reads them and completes, one that
        # goes on blows up at step 2.
        text = SMALL_CONFIG.replace(
            "variant = mode_forced", "variant = mode_forced_birth\nbirth = ricker_quadratic"
        ).replace("forcing_constant = 1.0", "forcing_constant = 1e9")
        out = tmp_path / "short"
        cfg = write_config(tmp_path, text.format(t_end="0.05"))
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        with open(out / "diagnostics.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 2 and float(rows[1][2]) < -2e5
        assert np.all(np.isfinite(np.array(rows, dtype=float)))
        summary = dict(line.split(" = ") for line in (out / "summary").read_text().splitlines())
        assert summary["status"] == "completed"
        terminal = [float(value) for key, value in summary.items() if key.startswith("terminal_")]
        assert np.all(np.isfinite(terminal))
        snapshots = sorted(out.glob("snapshot_*.csv"))
        assert len(snapshots) == 2
        for snapshot in snapshots:
            assert np.all(np.isfinite(np.loadtxt(snapshot, delimiter=",", skiprows=1)))
        capsys.readouterr()
        cfg = write_config(tmp_path, text.format(t_end="0.1"))
        assert main(["run", str(cfg), "--out", str(tmp_path / "long")]) == 1
        err = capsys.readouterr().err
        assert "blew up at t=0.1 (step 2): |c| reached inf" in err and "Traceback" not in err

    def test_history_overflow_exits_nonzero(self, tmp_path, capsys):
        # w0 is finite, but its analysis overflows before any step.
        cfg = write_config(
            tmp_path,
            "variant = full_zero_flux\nbirth = identity\nn_max = 4\nj_max = 8\n"
            "w0_value = 5e306\nt_end = 0.1\n",
        )
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "blew up" in err and "Traceback" not in err

    def test_population_past_the_float_range_exits_nonzero(self, tmp_path, capsys):
        # w0 is finite, but past the blow-up threshold: the run fails at its
        # first history sample, t = -delay, before any row is recorded. A
        # population past the float range is recorded as inf with a warning
        # only at an infinite threshold (see ``test_solver``).
        cfg = write_config(
            tmp_path,
            "variant = radial\nbirth = identity\nn_max = 0\nj_max = 8\nradius = 3.0\n"
            "w0_kind = constant\nw0_value = 1e307\nt_end = 0.1\n",
        )
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "blew up at t=-1 (step -100)" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "line, key",
        [
            ("w0_kind = constant\nw0_value = nan\n", "w0_value"),
            ("radius = inf\n", "radius"),
            ("dt = nan\n", "dt"),
            ("t_end = inf\n", "t_end"),
        ],
        ids=["w0_value_nan", "radius_inf", "dt_nan", "t_end_inf"],
    )
    def test_non_finite_number_exits_2(self, tmp_path, capsys, line, key):
        cfg = write_config(tmp_path, SMALL_CONFIG.format(t_end="0.1") + line)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key {key}: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "text, key",
        [
            (SMALL_CONFIG.format(t_end="0.1") + "diffusion = -1\n", "diffusion"),
            (SMALL_CONFIG.format(t_end="0.1") + "dt = 0\n", "dt"),
            ("variant = full_dirichlet\nbc = zero_flux\nbirth = identity\n", "Dirichlet"),
            ("variant = full_zero_flux\nbirth = identity\nscheme = reference_fd\n", "delay"),
            (
                SMALL_CONFIG.format(t_end="0.1") + "bc = mixed\nbc_mixed_a = 1\nbc_mixed_b = -1\n",
                "bc_mixed_a",
            ),
            (
                SMALL_CONFIG.format(t_end="0.1")
                + "scheme = reference_fd\nfd_n_r = 2\nfd_n_theta = 4\n",
                "fd_n_r",
            ),
            (SMALL_CONFIG.format(t_end="0.1") + "n_max = 201\n", "n_max"),
            (SMALL_CONFIG.format(t_end="0.1") + "j_max = 257\n", "j_max"),
            # Each of these overflowed or underflowed while the run was set up.
            (SMALL_CONFIG.format(t_end="0.1") + "radius = 1e-200\n", "radius"),
            (SMALL_CONFIG.format(t_end="0.1") + "radius = 1e200\n", "radius"),
            (SMALL_CONFIG.format(t_end="0.1") + "forcing_mode_k = 1e300\n", "forcing_mode_k"),
            # Just past the widest eigenvalue scan, at radius 1.
            (
                SMALL_CONFIG.format(t_end="0.1")
                + f"forcing_mode_k = {np.nextafter(MAX_ARGUMENT, np.inf)!r}\n",
                "forcing_mode_k",
            ),
            (SMALL_CONFIG.format(t_end="0.1") + "dt = 1e-300\n", "dt"),
            (SMALL_CONFIG.format(t_end="0.1") + "t_end = 1e300\n", "t_end"),
            (SMALL_CONFIG.format(t_end="0.1") + "delay = 1e-300\n", "delay"),
            (
                SMALL_CONFIG.format(t_end="0.1")
                + "variant = radial\nbirth = identity\nn_max = 16\n",
                "n_max",
            ),
            # diffusion * k^2 overflows although diffusion is finite.
            (
                SMALL_CONFIG.format(t_end="0.1")
                + "variant = full_zero_flux\nbirth = logistic\ndiffusion = 1e308\n",
                "diffusion",
            ),
            # mode_forced applies no birth law, so naming one is an error.
            (SMALL_CONFIG.format(t_end="0.1") + "birth = logistic\nbirth_rate = 2\n", "birth"),
            # mode_forced_birth applies one, so birth = none is an error too.
            (SMALL_CONFIG.format(t_end="0.1") + "variant = mode_forced_birth\n", "birth"),
            # No run converges below a negative tolerance.
            (SMALL_CONFIG.format(t_end="0.1") + "convergence_tol = -1\n", "convergence_tol"),
        ],
        ids=[
            "negative_diffusion",
            "zero_dt",
            "variant_bc_mismatch",
            "reference_fd_delay",
            "negative_robin_ratio",
            "fd_n_r_below_3",
            "n_max_above_200",
            "j_max_above_256",
            "tiny_radius",
            "huge_radius",
            "huge_forcing_k",
            "forcing_k_past_max_argument",
            "tiny_dt",
            "huge_t_end",
            "tiny_delay",
            "radial_with_angular_orders",
            "overflowing_decay_rates",
            "mode_forced_with_birth_law",
            "mode_forced_birth_without_birth_law",
            "negative_convergence_tol",
        ],
    )
    def test_invalid_model_or_solver_exits_2(self, tmp_path, capsys, text, key):
        cfg = write_config(tmp_path, text)
        assert run(cfg, out_dir=tmp_path / "out") == 2
        assert key in capsys.readouterr().err
        # Only a run that starts records its effective config.
        assert not (tmp_path / "out" / "effective_config").exists()

    @pytest.mark.parametrize(
        "grid_key, key",
        [("n_theta = 8\n", "n_theta"), ("n_r = 20\n", "n_r"), ("n_theta = -1\n", "n_theta")],
        ids=["n_theta_below_34", "n_r_below_34", "negative_n_theta"],
    )
    def test_unresolvable_grid_override_exits_2(self, tmp_path, capsys, grid_key, key):
        # n_max = 16 needs n_theta >= 34 and j_max = 32 needs n_r >= 34.
        text = SMALL_CONFIG.format(t_end="0.05").replace("n_max = 2", "n_max = 16")
        text = text.replace("j_max = 3", "j_max = 32") + grid_key
        cfg = write_config(tmp_path, text)
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        # The transform's own check, which names the key and its value.
        assert err.startswith(f"error: invalid config: {key}=") and "Traceback" not in err

    def test_unbounded_reference_fd_exits_2_at_once(self, tmp_path, capsys):
        # The explicit FD step shrinks as 1 / diffusion: ~1e301 Euler steps here.
        text = SMALL_CONFIG.format(t_end="0.1") + "scheme = reference_fd\ndiffusion = 1e300\n"
        start = time.perf_counter()
        assert run(write_config(tmp_path, text), out_dir=tmp_path / "out") == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert all(key in err for key in ("diffusion", "mortality", "fd_n_r", "fd_n_theta"))
        assert not (tmp_path / "out" / "effective_config").exists()

    def test_reference_fd_blowup_writes_effective_config(self, tmp_path, capsys):
        text = SMALL_CONFIG.format(t_end="1.0").replace(
            "forcing_constant = 1.0", "forcing_constant = 1e20"
        )
        text += "scheme = reference_fd\nfd_n_r = 8\nfd_n_theta = 8\n"
        out = tmp_path / "out"
        assert run(write_config(tmp_path, text), out_dir=out) == 1
        assert "blew up" in capsys.readouterr().err
        assert "scheme = reference_fd" in (out / "effective_config").read_text()

    def test_equilibria_reported_for_density_dependent_birth(self, tmp_path):
        text = SMALL_CONFIG.format(t_end="0.0").replace(
            "variant = mode_forced",
            "variant = mode_forced_birth\nbirth = ricker_quadratic",
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert run(cfg, out_dir=out) == 0
        summary = dict(
            line.split(" = ") for line in (out / "summary").read_text().splitlines()
        )
        roots = [float(x) for x in summary["equilibria"].split(",")]
        assert roots[0] == 0.0 and len(roots) == 3

    def test_reference_scheme_via_config(self, tmp_path):
        text = SMALL_CONFIG.format(t_end="0.05") + (
            "scheme = reference_fd\nfd_n_r = 16\nfd_n_theta = 8\n"
        )
        cfg = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert run(cfg, out_dir=out) == 0
        summary = dict(
            line.split(" = ") for line in (out / "summary").read_text().splitlines()
        )
        assert summary["status"] == "completed"
        effective = (out / "effective_config").read_text()
        assert "scheme = reference_fd" in effective

    def test_unknown_scheme_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, SMALL_CONFIG.format(t_end="0.0") + "scheme = magic\n"
        )
        assert run(cfg, out_dir=tmp_path / "out") == 2
        assert "scheme" in capsys.readouterr().err

    def test_preset_names_are_exposed(self):
        assert set(PRESETS) == {"fig2_extinction", "fig3_establishment"}

    def test_preset_overrides_individual_settings(self, tmp_path):
        from diskrd.cli import _resolve

        # Presets pin the experiment values even when the config disagrees.
        resolved = _resolve({"diffusion": "1.0", "t_end": "3.0"}, "fig2_extinction")
        assert resolved["diffusion"] == "5.0"
        assert resolved["t_end"] == "400.0"
        assert resolved["bc"] == "zero_flux"
        assert resolved["forcing_mode_k"] == "3.8317"
        assert resolved["preset"] == "fig2_extinction"
        establishment = _resolve({}, "fig3_establishment")
        assert establishment["birth"] == "ricker_quadratic"
        assert establishment["birth_scale"] == "0.25"
        assert establishment["birth_decay"] == "0.1"

    def test_unknown_preset_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "preset = nope\n")
        assert run(cfg, out_dir=tmp_path / "out") == 2
        assert "preset" in capsys.readouterr().err


MODE_CONFIG = """
variant = full_dirichlet
birth = logistic
n_max = 3
j_max = 5
delay = 0.2
dt = 0.05
t_end = 0.1
w0_kind = mode
w0_order = 2
w0_index = 3
w0_amp = 0.1
"""


class TestRunSetupAndFiles:
    @pytest.mark.parametrize(
        "grid_keys", ["", "n_r = 20\n", "n_theta = 80\n"], ids=["default_grid", "n_r", "n_theta"]
    )
    def test_bases_built_once(self, tmp_path, monkeypatch, grid_keys):
        from diskrd import transform

        calls = []
        search = transform.find_bases

        def counting(orders, *args):
            calls.append(list(orders))
            return search(orders, *args)

        monkeypatch.setattr(transform, "find_bases", counting)
        text = SMALL_CONFIG.format(t_end="0.05").replace("n_max = 2", "n_max = 4") + grid_keys
        assert run(write_config(tmp_path, text), out_dir=tmp_path / "out") == 0
        # One search over angular orders 0..4, whether or not the grid is sized by hand.
        assert calls == [[0, 1, 2, 3, 4]]

    def test_order_zero_run_uses_two_angles(self, tmp_path):
        text = SMALL_CONFIG.format(t_end="0.1") + (
            "variant = radial\nbc = dirichlet\nbirth = logistic\nn_max = 0\nj_max = 4\n"
        )
        out = tmp_path / "out"
        assert run(write_config(tmp_path, text), out_dir=out) == 0
        effective = (out / "effective_config").read_text().splitlines()
        assert "n_theta = 2" in effective
        n_r = int(next(line for line in effective if line.startswith("n_r = "))[6:])
        with open(out / "snapshot_0.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * n_r and {float(row["theta"]) for row in rows} == {0.0, np.pi}

    def test_diagnostics_rows_are_each_value_formatted_as_17g(self, tmp_path):
        # Each row is one f-string over the columns' Python floats; it must
        # write what format(x, ".17g") of each numpy scalar writes.
        rows = np.array(
            [
                [0.0, np.inf, -0.0, 5e-324, 0.0],
                [0.01, -np.inf, 1e-310, 75.41988862531667, 4.533855149634315e-11],
                [0.02, 2.2250738585072014e-308, -1e300, np.nan, 236.93704606853703],
            ]
        )
        times, high, low, total, rate = rows.T
        result = SimpleNamespace(
            times=times, max_density=high, min_density=low, total_population=total, dwdt_norm=rate
        )
        path = tmp_path / "diagnostics.csv"
        cli._write_diagnostics(result, path)
        expected = "t,max,min,total_population,dwdt_norm\n" + "".join(
            ",".join(format(value, ".17g") for value in row) + "\n" for row in rows
        )
        assert path.read_text() == expected
        assert "-0," in expected and "4.9406564584124654e-324," in expected

    def test_one_snapshot_file_per_time(self, tmp_path, monkeypatch):
        # Snapshot times a millisecond apart near t = 1000 (dt = 0.001 run
        # that long) first differ in their seventh significant digit.
        integrate = SpectralIntegrator.integrate

        def late(self, w0):
            result = integrate(self, w0)
            result.snapshots = [
                (1000.0 + 0.001 * i, field) for i, (_, field) in enumerate(result.snapshots)
            ]
            return result

        monkeypatch.setattr(SpectralIntegrator, "integrate", late)
        out = tmp_path / "out"
        assert run(write_config(tmp_path, SMALL_CONFIG.format(t_end="0.5")), out_dir=out) == 0
        names = sorted(path.name for path in out.glob("snapshot_*.csv"))
        assert names == [
            "snapshot_1000.001.csv",
            "snapshot_1000.002.csv",
            "snapshot_1000.003.csv",
            "snapshot_1000.csv",
        ]


class TestInitialHistory:
    def count_bessel_calls(self, monkeypatch):
        calls = []

        def counting(order, x):
            calls.append(order)
            return bessel_j(order, x)

        monkeypatch.setattr(cli, "bessel_j", counting)
        return calls

    def test_mode_history_evaluated_once_per_run(self, tmp_path, monkeypatch):
        calls = self.count_bessel_calls(monkeypatch)
        samples = []
        fill = SpectralIntegrator.initialize_history

        def recording_fill(self, w0, record=None):
            def recorded(t, r, th):
                values = w0(t, r, th)
                samples.append((r, th, np.array(values)))
                return values

            return fill(self, recorded, record)

        monkeypatch.setattr(SpectralIntegrator, "initialize_history", recording_fill)
        assert run(write_config(tmp_path, MODE_CONFIG), out_dir=tmp_path / "out") == 0
        # delay / dt = 4 lag steps: five ring samples, one profile evaluation.
        assert len(samples) == 5 and calls == [2]
        k = find_eigenvalues(2, 1.0, BoundaryCondition.dirichlet(), 3).eigenvalues[-1]
        for r, th, values in samples:
            assert np.array_equal(values, 0.1 * bessel_j(2, k * r) * np.cos(2 * th))

    def test_mode_history_on_reference_scheme(self, tmp_path, monkeypatch):
        calls = self.count_bessel_calls(monkeypatch)
        text = SMALL_CONFIG.format(t_end="0.05") + (
            "scheme = reference_fd\nfd_n_r = 16\nfd_n_theta = 8\n"
            "w0_kind = mode\nw0_order = 1\nw0_index = 2\n"
        )
        assert run(write_config(tmp_path, text), out_dir=tmp_path / "out") == 0
        assert calls == [1]

    def test_profile_reevaluated_only_for_a_new_mesh(self):
        evaluations = []

        def profile(r, th):
            evaluations.append(r)
            return r + th

        w0 = cli._once_per_mesh(profile)
        r, th = np.meshgrid(np.linspace(0.1, 0.9, 4), np.linspace(0.0, 3.0, 3), indexing="ij")
        first = w0(-1.0, r, th)
        assert w0(0.0, r, th) is first and len(evaluations) == 1
        assert np.array_equal(w0(0.0, r.copy(), th), first) and len(evaluations) == 2


class TestEigenTable:
    def read_rows(self, path):
        with open(path) as fh:
            return list(csv.DictReader(fh))

    def test_dirichlet_order_zero(self, tmp_path):
        path = tmp_path / "eig.csv"
        assert dump_eigen_table(0, 2, 1.0, BoundaryCondition.dirichlet(), path) == 0
        rows = self.read_rows(path)
        assert len(rows) == 2
        assert float(rows[0]["k"]) == pytest.approx(bessel_zero(0, 1), abs=1e-9)
        assert float(rows[1]["k"]) == pytest.approx(bessel_zero(0, 2), abs=1e-9)

    def test_order_one_row_present(self, tmp_path):
        path = tmp_path / "eig.csv"
        assert dump_eigen_table(1, 1, 1.0, BoundaryCondition.dirichlet(), path) == 0
        rows = self.read_rows(path)
        by_order = {row["n"]: float(row["k"]) for row in rows}
        assert by_order["1"] == pytest.approx(3.8317, abs=1e-4)

    def test_zero_flux_constant_mode_row(self, tmp_path):
        path = tmp_path / "eig.csv"
        assert dump_eigen_table(0, 1, 1.0, BoundaryCondition.zero_flux(), path) == 0
        rows = self.read_rows(path)
        assert float(rows[0]["k"]) == 0.0
        assert float(rows[0]["norm"]) == pytest.approx(0.5)

    def test_unwritable_path(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        status = dump_eigen_table(
            0, 1, 1.0, BoundaryCondition.dirichlet(), blocker / "sub" / "eig.csv"
        )
        assert status == 2
        assert "cannot write" in capsys.readouterr().err

    def test_count_out_of_range_exits_2_without_a_file(self, tmp_path, capsys):
        path = tmp_path / "eig.csv"
        assert dump_eigen_table(0, 0, 1.0, BoundaryCondition.dirichlet(), path) == 2
        assert "count must be in" in capsys.readouterr().err
        assert not path.exists()


class TestMain:
    def test_eigen_table_subcommand(self, tmp_path):
        out = tmp_path / "table.csv"
        status = main(
            ["eigen-table", "--n-max", "0", "--j-max", "2", "--radius", "1.0",
             "--bc", "dirichlet", "--out", str(out)]
        )
        assert status == 0
        assert out.exists()

    @pytest.mark.parametrize("bc", ["dirichlet", "zero_flux", "mixed"])
    def test_eigen_table_reaches_the_highest_order(self, tmp_path, bc):
        # J_n(pi/4) underflows to 0 from order 150 up; no such point is a root.
        out = tmp_path / "table.csv"
        status = main(
            ["eigen-table", "--n-max", "200", "--j-max", "2", "--radius", "1.0", "--bc", bc,
             "--out", str(out)]
        )
        assert status == 0
        with open(out) as fh:
            rows = [(int(row["n"]), float(row["k"]), float(row["norm"])) for row in csv.DictReader(fh)]
        assert len(rows) == 201 * 2
        # Every root lies at kR > n; the zero-flux constant mode is k = 0.
        assert all((k > n or (n, k) == (0, 0.0)) and norm > 0.0 for n, k, norm in rows)

    def test_eigen_table_rejects_negative_robin_ratio(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        status = main(
            ["eigen-table", "--n-max", "0", "--j-max", "2", "--bc", "mixed",
             "--mixed-a", "1", "--mixed-b", "-1", "--out", str(out)]
        )
        assert status == 2
        assert "A * B >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--radius", "inf"],
            ["--bc", "mixed", "--mixed-a", "nan"],
            ["--bc", "mixed", "--mixed-b", "inf"],
        ],
        ids=["radius_inf", "mixed_a_nan", "mixed_b_inf"],
    )
    def test_eigen_table_rejects_non_finite_input(self, tmp_path, capsys, flags):
        out = tmp_path / "table.csv"
        assert main(["eigen-table", "--n-max", "1", "--j-max", "2", "--out", str(out)] + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "finite" in err and "Traceback" not in err
        assert not out.exists()

    def test_run_requires_config_or_preset(self, capsys):
        assert main(["run"]) == 2
        assert "config" in capsys.readouterr().err

    def test_run_subcommand_with_config(self, tmp_path):
        cfg = write_config(tmp_path, SMALL_CONFIG.format(t_end="0.0"))
        status = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert status == 0

    @pytest.mark.parametrize(
        "config",
        sorted((Path(cli.__file__).resolve().parents[2] / "configs").glob("*.cfg")),
        ids=lambda path: path.name,
    )
    def test_bundled_config_runs(self, tmp_path, config):
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "summary").exists()


class TestReadme:
    @staticmethod
    def text():
        return (Path(cli.__file__).resolve().parents[2] / "README.md").read_text(encoding="utf-8")

    def test_every_config_key_is_documented(self):
        assert [key for key in DEFAULTS if f"`{key}`" not in self.text()] == []

    def test_library_use_example_runs(self, capsys):
        # The example is the library's documented API; it must run as written.
        section = self.text().split("## Library use", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        names = {}
        exec(compile(code, "README.md", "exec"), names)
        result = names["result"]
        printed = capsys.readouterr().out.split()
        assert printed == [str(result.max_density[-1]), str(result.converged)]
        assert len(names["check"].times) == 2


class TestImports:
    def test_run_and_eigen_table_load_no_scipy(self, tmp_path):
        # A fresh interpreter runs both commands (the Ricker birth law puts
        # the Lambert-W equilibria in the summary); no scipy module may load.
        text = SMALL_CONFIG.format(t_end="0.1").replace(
            "variant = mode_forced",
            "variant = mode_forced_birth\nbirth = ricker_quadratic\nw0_kind = mode\n"
            "w0_order = 1\nw0_index = 2\nw0_amp = 0.1",
        ).replace("w0_kind = trig_patch\n", "")
        cfg = write_config(tmp_path, text)
        code = (
            "import sys; from diskrd import cli; "
            f"a = cli.main(['run', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}]); "
            "b = cli.main(['eigen-table', '--n-max', '3', '--j-max', '4', '--bc', 'mixed', "
            f"'--mixed-a', '1', '--mixed-b', '2', '--out', {str(tmp_path / 'table.csv')!r}]); "
            "print(a, b, *sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.splitlines()[-1].split() == ["0", "0"]
        summary = (tmp_path / "out" / "summary").read_text()
        assert len(summary.split("equilibria = ")[1].splitlines()[0].split(",")) == 3
        assert (tmp_path / "table.csv").exists()

    def test_cli_leaves_optimize_and_integrate_unloaded(self):
        # A fresh interpreter: the run path needs scipy.special alone.
        src = Path(cli.__file__).resolve().parents[1]
        code = (
            "import sys, diskrd.cli; "
            "print(' '.join(m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules))"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == ""

    def test_cli_imports_no_private_name(self):
        # The CLI reaches the library through public names only, so it
        # keeps no copy of a rule that a private helper states.
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        private = [
            f"{node.module}.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "diskrd")
            for alias in node.names
            if alias.name.startswith("_")
        ]
        assert private == []

    def test_benchmark_wrap_list_resolves(self):
        # The traced benchmark wraps calls of every layer by name
        # (perfbench/child.py); a name dropped from the package fails here.
        src = Path(cli.__file__).resolve().parents[1]
        code = "import child, spans; child.install(spans.Tracer('t'), layers=True)"
        path = os.pathsep.join([str(src.parent / "perfbench"), str(src)])
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
