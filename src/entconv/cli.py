"""Command-line front end for runs, ensembles, sweeps, and curve export.

Commands: run, montecarlo, sweep-fidelity, homodyne-curves, success-table.
All figure data is emitted as CSV/JSON data files, never rendered images.
CSV contract: header row, comma separator, '.' decimal, LF line endings,
reals printed with 12 significant digits.  Exit codes: 0 success, 2
configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .cnot import fidelity_grid
from .config import MAX_TRIALS, ConfigError, RunConfig, config_from_dict, load_config
from .kerr import HomodyneModel, error_probability, homodyne_pdf, peak_distances
from .protocols import (
    PROBE_ALPHA,
    PROBE_THETA,
    ProtocolSpec,
    classify_state,
    fidelity_vs_ideal,
    monte_carlo,
    run_protocol,
    success_series,
)
from .qstate import Pol

CURVE_TAGS = (1, 3, 5)
CURVE_SAMPLES = 1000
CURVE_MARGIN = 6.0


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return "" if value is None else str(value)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            Path(path).write_bytes(text.encode())
        except OSError as err:
            raise ValueError(f"cannot write output: {err}") from err


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _rows_as_json(header: list[str], rows: list[list]) -> str:
    return _json_text([dict(zip(header, row)) for row in rows])


def _emit_table(args, header: list[str], rows: list[list]) -> None:
    out, fmt = _output_choice(args, default_format="csv")
    text = _csv(header, rows) if fmt == "csv" else _rows_as_json(header, rows)
    _write_text(out, text)


def _load_config(args) -> RunConfig:
    if args.config is not None:
        return load_config(args.config)
    return config_from_dict({})


def _output_choice(args, default_format: str = "csv") -> tuple[str | None, str]:
    config = args._config
    out = args.out if args.out is not None else config.output.path
    fmt = args.format if args.format is not None else config.output.format
    return out, fmt if fmt is not None else default_format


def _require_protocol(config: RunConfig) -> ProtocolSpec:
    if config.protocol is None:
        raise ConfigError("a config with a protocol section is required for this command")
    return config.protocol


def _require_seed(args) -> int:
    seed = args.seed if args.seed is not None else args._config.seed
    if seed is None:
        raise ConfigError("seed required for any stochastic run")
    if seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    return int(seed)


def _check_jobs(args) -> None:
    """``--jobs`` is accepted for compatibility and changes nothing, but must be >= 1."""
    if args.jobs is not None and args.jobs < 1:
        raise ConfigError("jobs must be >= 1")


def _state_terms(state) -> list[dict]:
    terms = []
    for idx in np.flatnonzero(np.abs(state.amplitudes) > 1e-12):
        label = "".join(
            Pol(int((int(idx) >> (state.n_photons - i)) & 1)).name for i in range(1, state.n_photons + 1)
        )
        amp = state.amplitudes[int(idx)]
        terms.append({"term": label, "amplitude": [amp.real, amp.imag]})
    return terms


def cmd_run(args) -> int:
    config = args._config
    spec = _require_protocol(config)
    seed = _require_seed(args)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    run = run_protocol(spec, rng=rng)
    cls = classify_state(run.final_state)
    report = {
        "command": "run",
        "seed": seed,
        "n_photons": spec.n_photons,
        "gate_mode": spec.gate_mode,
        "homodyne_mode": spec.homodyne_mode,
        "outcome_class": run.outcome_class,
        "iterations_used": run.iterations_used,
        "homodyne_tags": list(run.homodyne_tags),
        "true_tags": list(run.true_tags),
        "misclassification_events": run.misclassification_events,
        "accumulated_norm": run.accumulated_norm,
        "fidelity_vs_ideal": fidelity_vs_ideal(spec, run),
        "state_class": {
            "kind": cls.kind,
            "l_excitations": cls.l_excitations,
            "r_excitations": cls.r_excitations,
        },
        "final_state": _state_terms(run.final_state),
    }
    out, fmt = _output_choice(args, default_format="json")
    if fmt == "json":
        _write_text(out, _json_text(report))
    else:
        header = ["key", "value"]
        rows = []
        for key, value in report.items():
            if key == "final_state":
                value = ";".join(f"{t['term']}:{_fmt(t['amplitude'][0])}{t['amplitude'][1]:+.12g}j" for t in value)
            elif key == "state_class":
                value = value["kind"]
            elif isinstance(value, list):
                value = ";".join(str(v) for v in value)
            rows.append([key, value])
        _emit_table(args, header, rows)
    return 0


def cmd_montecarlo(args) -> int:
    config = args._config
    spec = _require_protocol(config)
    seed = _require_seed(args)
    trials = args.trials if args.trials is not None else config.trials
    if not 1 <= trials <= MAX_TRIALS:
        raise ConfigError(f"trials must be between 1 and {MAX_TRIALS}")
    _check_jobs(args)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    result = monte_carlo(spec, trials, rng)
    header = ["outcome_class", "iterations", "count", "frequency"]
    rows = [
        [cls, iters, count, count / trials]
        for (cls, iters), count in sorted(result.counts.items())
    ]
    _emit_table(args, header, rows)
    return 0


def cmd_sweep_fidelity(args) -> int:
    config = args._config
    if config.sweep is None:
        raise ConfigError("sweep-fidelity needs a sweep grid in the config")
    grid = config.sweep
    gks = [float(x) for x in np.linspace(*grid.g_over_kappa, grid.steps)]
    ggs = [float(x) for x in np.linspace(*grid.g_over_gamma, grid.steps)]
    _check_jobs(args)
    points = fidelity_grid(gks, ggs, args.input.replace("-", "_"))
    rows = [[p.g_over_kappa, p.g_over_gamma, p.outcome.name.lower(), p.fidelity] for p in points]
    _emit_table(args, ["g_over_kappa", "g_over_gamma", "outcome", "fidelity"], rows)
    return 0


def cmd_homodyne_curves(args) -> int:
    config = args._config
    alpha = config.protocol.alpha if config.protocol is not None else PROBE_ALPHA
    theta = config.protocol.theta if config.protocol is not None else PROBE_THETA
    model = HomodyneModel.for_tags(alpha, theta, CURVE_TAGS)
    xs = np.linspace(min(model.means) - CURVE_MARGIN, max(model.means) + CURVE_MARGIN, CURVE_SAMPLES)
    pdfs = {k: homodyne_pdf(xs, alpha, k, theta) for k in CURVE_TAGS}
    header = ["kind", "x", "pdf_k1", "pdf_k3", "pdf_k5", "value"]
    rows = [
        ["curve", x, pdfs[1][i], pdfs[3][i], pdfs[5][i], None]
        for i, x in enumerate(xs)
    ]
    distances = peak_distances(alpha, theta, CURVE_TAGS)
    for i, x_d in enumerate(distances, start=1):
        rows.append([f"x_d{i}", None, None, None, None, x_d])
    for i, x_d in enumerate(distances, start=1):
        rows.append([f"P_error{i}", None, None, None, None, error_probability(x_d)])
    _emit_table(args, header, rows)
    return 0


def cmd_success_table(args) -> int:
    config = args._config
    n = args.n if args.n is not None else (config.protocol.n_photons if config.protocol else None)
    rounds = args.rounds if args.rounds is not None else (config.protocol.max_iterations if config.protocol else 4)
    try:
        table = success_series(n, rounds)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    header = ["n_photons", "outcome_class", "round", "per_round_probability", "cumulative_probability"]
    rows = []
    for series in table:
        acc = 0.0
        for m, p in enumerate(series.per_round, start=1):
            acc += p
            rows.append([n, series.outcome_class, m, p, acc])
        rows.append([n, series.outcome_class, "limit", None, series.limit])
    _emit_table(args, header, rows)
    return 0


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="JSON run configuration (see config_schema.json)")
    sub.add_argument("--out", metavar="PATH", help="output file (default: stdout or config output.path)")
    sub.add_argument("--format", choices=("csv", "json"), help="output format (overrides config)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="entconv", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run_p = commands.add_parser("run", help="execute one protocol run and report it")
    run_p.set_defaults(handler=cmd_run)

    mc_p = commands.add_parser("montecarlo", help="outcome frequencies over seeded trials")
    mc_p.add_argument("--trials", type=int, help="trial count for ensembles (overrides config)")
    mc_p.set_defaults(handler=cmd_montecarlo)

    sweep_p = commands.add_parser("sweep-fidelity", help="gate fidelity over a coupling-ratio grid")
    sweep_p.add_argument("--input", choices=("uniform", "basis-average"), default="uniform",
                         help="gate input convention for the fidelity")
    sweep_p.set_defaults(handler=cmd_sweep_fidelity)

    curves_p = commands.add_parser("homodyne-curves", help="quadrature distributions and error summary")
    curves_p.set_defaults(handler=cmd_homodyne_curves)

    table_p = commands.add_parser("success-table", help="closed-form success probabilities per round")
    table_p.add_argument("--n", type=int, help="photon number (3, 4 or 5)")
    table_p.add_argument("--rounds", type=int, help="number of recovery rounds to tabulate")
    table_p.set_defaults(handler=cmd_success_table)

    # each command takes only the flags it reads
    for sub in (run_p, mc_p):
        sub.add_argument("--seed", type=int, help="seed for stochastic runs (overrides config)")
    for sub in (mc_p, sweep_p):
        sub.add_argument("--jobs", type=int, help="accepted for compatibility; has no effect (must be >= 1)")
    for sub in (run_p, mc_p, sweep_p, curves_p, table_p):
        _add_common_flags(sub)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        args._config = _load_config(args)
        return args.handler(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
