"""One `diskrd run` process with spans around chosen calls into the program.

    python3 perfbench/child.py SPANS_JSON {phases|layers} RUN_ID CONFIG OUT_DIR

``phases`` wraps only the two whole-phase calls the end-to-end metrics
need (`SpectralIntegrator(...)` with `initialize_history`, and
`integrate`). ``layers`` also wraps the public functions of every layer,
each where it is looked up, so the per-layer breakdown needs no change to
the program. Spans are kept in memory and written to SPANS_JSON at exit.
The exit status is that of `diskrd run`.
"""

from __future__ import annotations

import json
import sys

from spans import Tracer


def install(tracer: Tracer, layers: bool) -> None:
    from diskrd import bessel, cli, kernel, model, solver, transform

    integrator = solver.SpectralIntegrator
    tracer.patch(cli, "SpectralIntegrator", "solver.SpectralIntegrator")
    tracer.patch(integrator, "initialize_history", "solver.initialize_history")
    tracer.patch(integrator, "integrate", "solver.integrate")
    if not layers:
        return
    for owner, attr, name in (
        (cli, "run", "cli.run"),
        (cli, "write_field_csv", "cli.write_field_csv"),
        (cli, "build_bases", "bessel.build_bases"),
        (solver, "build_bases", "bessel.build_bases"),
        (solver, "rhs", "model.rhs"),
        (solver, "linear_rates", "model.linear_rates"),
        (integrator, "step", "solver.step"),
        (model, "linear_rates", "model.linear_rates"),
        (model, "maturation_term", "kernel.maturation_term"),
        (model, "maturation_term_radial", "kernel.maturation_term_radial"),
        (kernel, "analyze_radial", "transform.analyze_radial"),
        (kernel, "synthesize_radial", "transform.synthesize_radial"),
        (transform.DiskTransform, "__init__", "transform.tables"),
        (transform.DiskTransform, "analyze_values", "transform.analyze_values"),
        (transform.DiskTransform, "synthesize_values", "transform.synthesize_values"),
        (bessel.BesselBasis, "radial_table", "bessel.radial_table"),
    ):
        tracer.patch(owner, attr, name)


def main(argv: list[str]) -> int:
    spans_path, mode, run_id, config, out_dir = argv
    tracer = Tracer(run_id)
    install(tracer, layers=(mode == "layers"))
    from diskrd import cli

    try:
        return cli.main(["run", config, "--out", out_dir])
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
