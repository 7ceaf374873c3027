"""Command-line front end for runs, ensembles, sweeps, and curve export.

Commands: run, montecarlo, sweep-fidelity, homodyne-curves, success-table.
All figure data is emitted as CSV/JSON data files, never rendered images.
CSV contract: header row, comma separator, '.' decimal, LF line endings,
reals printed with 12 significant digits.  Exit codes: 0 success, 2
configuration error, 3 runtime error.
"""

from __future__ import annotations

import itertools
import json
import re
import sys
from pathlib import Path

import numpy as np

from .cnot import fidelity_grid
from .config import ConfigError, load_config
from .kerr import HomodyneModel, error_probability, homodyne_pdf
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
from .qstate import label, row_photons
from .stream import Stream

CURVE_TAGS = (1, 3, 5)
CURVE_SAMPLES = 1000
CURVE_MARGIN = 6.0
CURVE_MAX_STEP = 0.25   # a unit-width peak midway between two samples still prints within 1 % of its height


def _fmt(value) -> str:
    if isinstance(value, float):   # numpy's float64 too
        return f"{value:.12g}"
    return "" if value is None else str(value)


def _emit(config: dict, header: list[str], rows: list[list], report: dict | None = None) -> None:
    """Write a command's output: a table, or a report whose CSV form is the table.

    A report is JSON unless CSV is asked for, and a table is CSV unless JSON
    is; a table's JSON is a list of one object per row.
    """
    output = config.get("output") or {}
    if output.get("format", "json" if report is not None else "csv") == "csv":
        text = "\n".join(",".join(map(_fmt, row)) for row in [header, *rows]) + "\n"
    else:
        text = json.dumps(report if report is not None else [dict(zip(header, row)) for row in rows], indent=2) + "\n"
    if output.get("path") is None:
        sys.stdout.write(text)
    else:
        try:
            Path(output["path"]).write_bytes(text.encode())
        except OSError as err:
            raise ValueError(f"cannot write output: {err}") from err


def _require_protocol(config: dict) -> ProtocolSpec:
    if config.get("protocol") is None:
        raise ConfigError("a config with a protocol section is required for this command")
    return config["protocol"]


def _require_seed(config: dict) -> int:
    if config.get("seed") is None:
        raise ConfigError("seed required for any stochastic run")
    return config["seed"]


def _check_jobs(flags: dict) -> None:
    """``--jobs`` is accepted for compatibility and changes nothing, but must be >= 1."""
    if flags.get("jobs", 1) < 1:
        raise ConfigError("jobs must be >= 1")


def _state_terms(amps) -> list[dict]:
    n = row_photons(amps)
    return [{"term": label(int(i), n), "amplitude": [amps[i].real, amps[i].imag]}
            for i in np.flatnonzero(np.abs(amps) > 1e-12)]


def cmd_run(config: dict, flags: dict) -> int:
    spec = _require_protocol(config)
    seed = _require_seed(config)
    run = run_protocol(spec, rng=Stream(seed))
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
        "state_class": classify_state(run.final_state),
        "final_state": _state_terms(run.final_state),
    }
    terms = ";".join(f"{t['term']}:{_fmt(t['amplitude'][0])}{t['amplitude'][1]:+.12g}j" for t in report["final_state"])
    rows = [[key, ";".join(map(str, value)) if isinstance(value, list) else value]
            for key, value in {**report, "state_class": report["state_class"]["kind"], "final_state": terms}.items()]
    _emit(config, ["key", "value"], rows, report)
    return 0


def cmd_montecarlo(config: dict, flags: dict) -> int:
    spec = _require_protocol(config)
    seed = _require_seed(config)
    trials = config.get("trials", 1)
    _check_jobs(flags)
    counts = monte_carlo(spec, trials, Stream(seed))
    header = ["outcome_class", "iterations", "count", "frequency"]
    rows = [
        [cls, iters, count, count / trials]
        for (cls, iters), count in sorted(counts.items())
    ]
    _emit(config, header, rows)
    return 0


def cmd_sweep_fidelity(config: dict, flags: dict) -> int:
    grid = config.get("sweep")
    if grid is None:
        raise ConfigError("sweep-fidelity needs a sweep grid in the config")
    gks = [float(x) for x in np.linspace(*grid["g_over_kappa"], grid["steps"])]
    ggs = [float(x) for x in np.linspace(*grid["g_over_gamma"], grid["steps"])]
    _check_jobs(flags)
    fidelities = fidelity_grid(gks, ggs, flags.get("input", "uniform").replace("-", "_")).reshape(-1).tolist()
    cells = itertools.product(gks, ggs, ("plus", "minus"))   # the grid's axis order
    rows = [[gk, gg, outcome, fidelity] for (gk, gg, outcome), fidelity in zip(cells, fidelities)]
    _emit(config, ["g_over_kappa", "g_over_gamma", "outcome", "fidelity"], rows)
    return 0


def cmd_homodyne_curves(config: dict, flags: dict) -> int:
    spec = config.get("protocol")
    alpha = spec.alpha if spec is not None else PROBE_ALPHA
    theta = spec.theta if spec is not None else PROBE_THETA
    model = HomodyneModel.for_tags(alpha, theta, CURVE_TAGS)   # rejects overflowing or coinciding means
    xs, step = np.linspace(model.means[0] - CURVE_MARGIN, model.means[-1] + CURVE_MARGIN, CURVE_SAMPLES, retstep=True)
    if step > CURVE_MAX_STEP:
        raise ValueError(f"curve step {step:.3g} exceeds {CURVE_MAX_STEP}: the probe means spread too far to sample")
    pdfs = np.array([homodyne_pdf(xs, alpha, k, theta) for k in CURVE_TAGS]).T   # [x, tag]
    header = ["kind", "x", *(f"pdf_k{k}" for k in CURVE_TAGS), "value"]
    rows = [["curve", x, *pdf, None] for x, pdf in zip(xs, pdfs)]
    blank = [None] * (len(CURVE_TAGS) + 1)   # the x and pdf cells of a summary row
    distances = [hi - lo for lo, hi in zip(model.means, model.means[1:])][::-1]   # from the highest mean down
    rows += [[f"x_d{i}", *blank, x_d] for i, x_d in enumerate(distances, start=1)]
    rows += [[f"P_error{i}", *blank, error_probability(x_d)] for i, x_d in enumerate(distances, start=1)]
    _emit(config, header, rows)
    return 0


def cmd_success_table(config: dict, flags: dict) -> int:
    spec = _require_protocol(config)
    n = spec.n_photons
    header = ["n_photons", "outcome_class", "round", "per_round_probability", "cumulative_probability"]
    rows = []
    for cls, (per_round, limit) in success_series(n, spec.max_iterations).items():
        acc = 0.0
        for m, p in enumerate(per_round, start=1):
            acc += p
            rows.append([n, cls, m, p, acc])
        rows.append([n, cls, "limit", None, limit])
    _emit(config, header, rows)
    return 0


USAGE = """\
usage: entconv run             --config config.json [--seed N] [--out PATH] [--format csv|json]
       entconv montecarlo      --config config.json [--seed N] [--trials N] [--jobs N] [--out PATH] [--format csv|json]
       entconv sweep-fidelity  --config config.json [--input uniform|basis-average] [--jobs N] [--out PATH] [--format csv|json]
       entconv homodyne-curves [--config config.json] [--out PATH] [--format csv|json]
       entconv success-table   [--config config.json] --n 3 --rounds 4 [--out PATH] [--format csv|json]
"""
# each flag: the kind of value it takes (int, str or the tuple of its choices) and the config
# field it is written over before the document is checked (None: the command reads it itself)
FLAGS = {"config": (str, None), "seed": (int, "seed"), "trials": (int, "trials"), "out": (str, "output.path"),
         "format": (("csv", "json"), "output.format"), "n": (int, "protocol.n_photons"),
         "rounds": (int, "protocol.max_iterations"), "jobs": (int, None), "input": (("uniform", "basis-average"), None)}
_COMMON = ("config", "out", "format")
# each command: its handler and the only flags it takes
COMMANDS = {
    "run": (cmd_run, {*_COMMON, "seed"}),
    "montecarlo": (cmd_montecarlo, {*_COMMON, "seed", "trials", "jobs"}),
    "sweep-fidelity": (cmd_sweep_fidelity, {*_COMMON, "input", "jobs"}),
    "homodyne-curves": (cmd_homodyne_curves, {*_COMMON}),
    "success-table": (cmd_success_table, {*_COMMON, "n", "rounds"}),
}
_HELP = ("-h", "--help")
_NEGATIVE_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")   # the one flag-like token that is still a value


class UsageError(Exception):
    """A command line that names no command, a flag the command does not take, or a malformed value."""


def _parse(argv) -> tuple | None:
    """The handler and flag values of a command line (the last of a repeated flag wins); None asks for help."""
    if not argv:
        raise UsageError("a command is required")
    if argv[0] in _HELP:
        return None
    if argv[0] not in COMMANDS:
        raise UsageError(f"invalid choice: {argv[0]!r} (choose from {', '.join(map(repr, COMMANDS))})")
    handler, accepted = COMMANDS[argv[0]]
    flags = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in _HELP:
            return None
        name, inline, value = token.partition("=")
        flag = name[2:] if name.startswith("--") else None
        if flag not in accepted:
            raise UsageError(f"unrecognized arguments: {token}")
        if not inline:
            value = next(tokens, None)
            if value is None or value.startswith("-") and not _NEGATIVE_NUMBER.match(value):
                raise UsageError(f"argument {name}: expected one argument")
        kind = FLAGS[flag][0]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(f"argument {name}: invalid int value: {value!r}") from None
        elif kind is not str and value not in kind:
            raise UsageError(f"argument {name}: invalid choice: {value!r} (choose from {', '.join(map(repr, kind))})")
        flags[flag] = value
    return handler, flags


def main(argv=None) -> int:
    try:
        parsed = _parse(sys.argv[1:] if argv is None else argv)
    except UsageError as err:
        sys.stderr.write(f"{USAGE}entconv: error: {err}\n")
        return 2
    if parsed is None:
        sys.stdout.write(USAGE)
        return 0
    handler, flags = parsed
    fields = {FLAGS[flag][1]: value for flag, value in flags.items() if FLAGS[flag][1] is not None}
    try:
        return handler(load_config(flags.get("config"), fields), flags)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
