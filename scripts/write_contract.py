#!/usr/bin/env python3
"""Write the byte contract: every file that ``results/`` holds.

    PYTHONPATH=src python scripts/write_contract.py [DIR]

writes into ``DIR``, ``results/`` by default:

  success_table_n{3,4,5}.csv   closed-form success probabilities
  montecarlo_n{3,4,5}.csv      seeded 1e6-trial outcome frequencies, configured by _mc_n{3,4,5}.json
  fidelity_sweep_{uniform,basis_average}.csv   20x20 gate-fidelity surfaces, configured by _sweep.json
  homodyne_curves.csv          quadrature distributions and error summary
  run_n5_realistic.json        one seeded realistic five-photon run, configured by _run5.json
  gate_benchmark_report.txt    reference-point gate fidelities and composite protocol products
  contract_digest.txt          one sha256 line per seeded CLI call over a fixed grid

The tier-1 suite writes the contract into a temporary directory and compares
it with ``results/`` file by file, byte for byte.  To see exactly which bytes
a change moves, write it into a scratch directory and ``diff -r results DIR``.
"""

import contextlib
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

from entconv.cli import main
from entconv.cnot import BENCHMARK_TOLERANCE_PP, benchmark_report
from entconv.protocols import COMPOSITE_GATE_FIDELITY, composite_fidelity_report

RESULTS = Path(__file__).resolve().parent.parent / "results"
SEED = 20260810

PARAMS = {
    "paper": {"g": 0.3, "kappa": 26.0, "gamma": 0.0004},
    "weak": {"g": 1.0, "kappa": 3.3333333333333335, "gamma": 2.5},   # CavityParams.from_ratios(0.3, 0.4)
}
PROBES = {"paper": {}, "low_alpha": {"theta": 0.02, "alpha": 1.0}}
RUN_SEEDS = range(5)
MONTECARLO_SEEDS = range(2)
MONTECARLO_TRIALS = 2000
SWEEPS = {
    "results": {"g_over_kappa": [0.5, 10.0], "g_over_gamma": [0.5, 10.0], "steps": 20},
    "weak_descending": {"g_over_kappa": [3.0, 0.05], "g_over_gamma": [0.4, 2.0], "steps": 7},
}


def _config(path: Path, data: dict) -> str:
    path.write_text(json.dumps(data, indent=2) + "\n")
    return str(path)


def _cli(argv: list[str]) -> None:
    code = main(argv)
    if code != 0:
        raise RuntimeError(f"command failed ({code}): {' '.join(argv)}")


def write_datasets(directory: Path) -> None:
    """The success tables, ensembles, sweeps, curves and realistic run, each with the config it ran."""
    for n in (3, 4, 5):
        _cli(["success-table", "--n", str(n), "--rounds", "8", "--out", str(directory / f"success_table_n{n}.csv")])
        config = _config(directory / f"_mc_n{n}.json",
                         {"protocol": {"n_photons": n, "max_iterations": 8}, "seed": SEED, "trials": 1_000_000})
        _cli(["montecarlo", "--config", config, "--out", str(directory / f"montecarlo_n{n}.csv")])

    config = _config(directory / "_sweep.json",
                     {"protocol": {"n_photons": 3}, "sweep": SWEEPS["results"], "seed": SEED})
    for mode in ("uniform", "basis-average"):
        _cli(["sweep-fidelity", "--config", config, "--input", mode,
              "--out", str(directory / f"fidelity_sweep_{mode.replace('-', '_')}.csv")])

    _cli(["homodyne-curves", "--out", str(directory / "homodyne_curves.csv")])

    protocol = {"n_photons": 5, "max_iterations": 8, "gate_mode": "realistic", "params": PARAMS["paper"]}
    config = _config(directory / "_run5.json", {"protocol": protocol, "seed": SEED})
    _cli(["run", "--config", config, "--out", str(directory / "run_n5_realistic.json")])


def gate_report() -> str:
    """The reference-point gate fidelities and composite protocol products.

    The gate is scored at [g, kappa] = [0.3, 26] GHz with the emitter decay
    rate read either as the total rate (0.013 GHz) or as the zero-phonon-line
    rate (0.0004 GHz), under both fidelity input conventions, against the
    target fidelities 99.6% (plus readout) and 99.5% (minus readout).
    Composite numbers multiply per-gate fidelities over the gate count of each
    conversion scenario, quoted under both recovery re-entry conventions.
    """
    lines = [
        f"reference-point gate fidelity (tolerance {BENCHMARK_TOLERANCE_PP} pp)",
        f"{'convention':44s} {'fidelity':>10s} {'target':>7s} {'dev pp':>7s}  verdict",
    ]
    for key, row in sorted(benchmark_report().items()):
        verdict = "matched" if row["matched"] else "deviates"
        lines.append(f"{key:44s} {row['fidelity']:10.6f} {row['target']:7.3f} {row['deviation_pp']:7.3f}  {verdict}")
    lines += [
        "",
        f"composite products at per-gate fidelity {COMPOSITE_GATE_FIDELITY}",
        f"{'scenario':24s} {'gates(suffix/full)':>18s} {'suffix':>9s} {'full':>9s} {'reference':>10s}",
    ]
    for row in composite_fidelity_report():
        gates = f"{row['suffix_gates']}/{row['full_gates']}"
        lines.append(
            f"{row['label']:24s} {gates:>18s} {row['product_suffix']:9.4f} "
            f"{row['product_full']:9.4f} {row['reference']:10.3f}"
        )
    lines += [
        "",
        "note: the executed recovery re-enters at the tagging suffix (fewer gates);",
        "the reference composite numbers correspond to re-running the whole circuit.",
    ]
    return "".join(f"{line}\n" for line in lines)


def digest(work: Path, argv: list[str], config: dict | None) -> str:
    """``<sha256> <exit code>`` of one CLI call writing to a fresh file."""
    out = work / "out"
    out.unlink(missing_ok=True)
    if config is not None:
        (work / "config.json").write_text(json.dumps(config))
        argv = argv + ["--config", str(work / "config.json")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + ["--out", str(out)])
    data = (out.read_bytes() if out.exists() else b"") + b"\0" + err.getvalue().encode()
    return f"{hashlib.sha256(data).hexdigest()} {code}"


def protocol_calls():
    """(label, argv, config) of every seeded run and montecarlo call."""
    grid = itertools.product((3, 4, 5), ("ideal", "realistic"), ("ideal", "gaussian"), PARAMS, PROBES)
    for n, gate, readout, params, probe in grid:
        protocol = {"n_photons": n, "gate_mode": gate, "homodyne_mode": readout,
                    "params": PARAMS[params], **PROBES[probe]}
        name = f"n={n} gate={gate} readout={readout} params={params} probe={probe}"
        for seed in RUN_SEEDS:
            yield f"run {name} seed={seed}", ["run"], {"protocol": protocol, "seed": seed}
        for seed in MONTECARLO_SEEDS:
            config = {"protocol": {**protocol, "max_iterations": 8}, "seed": seed, "trials": MONTECARLO_TRIALS}
            yield f"montecarlo {name} seed={seed}", ["montecarlo"], config
    for gate, readout, seed in itertools.product(("ideal", "realistic"), ("ideal", "gaussian"), RUN_SEEDS):
        protocol = {"n_photons": 4, "gate_mode": gate, "homodyne_mode": readout, "standardize_flipped": True}
        name = f"n=4 gate={gate} readout={readout} standardize_flipped seed={seed}"
        yield f"run {name}", ["run"], {"protocol": protocol, "seed": seed}


def other_calls():
    """(label, argv, config) of the sweep, table and curve calls."""
    for (name, sweep), mode in itertools.product(SWEEPS.items(), ("uniform", "basis-average")):
        yield f"sweep-fidelity {name} input={mode}", ["sweep-fidelity", "--input", mode], {"sweep": sweep}
    for n, rounds in itertools.product((3, 4, 5), (1, 8)):
        yield f"success-table n={n} rounds={rounds}", ["success-table", "--n", str(n), "--rounds", str(rounds)], None
    for probe, fields in PROBES.items():
        yield f"homodyne-curves probe={probe}", ["homodyne-curves"], {"protocol": {"n_photons": 3, **fields}}
    yield "homodyne-curves alpha=10000", ["homodyne-curves"], {"protocol": {"n_photons": 3, "alpha": 10000.0}}


def format_calls():
    """(label, argv, config) of the output forms the calls above leave out: ``run`` as CSV, and each table as JSON."""
    for n, gate, readout in itertools.product((3, 4, 5), ("ideal", "realistic"), ("ideal", "gaussian")):
        protocol = {"n_photons": n, "gate_mode": gate, "homodyne_mode": readout, "params": PARAMS["paper"]}
        name = f"n={n} gate={gate} readout={readout} params=paper probe=paper seed=0"
        yield f"run {name} format=csv", ["run", "--format", "csv"], {"protocol": protocol, "seed": 0}
    as_json = ["--format", "json"]
    protocol = {"n_photons": 5, "gate_mode": "realistic", "homodyne_mode": "gaussian", "params": PARAMS["paper"],
                "max_iterations": 8}
    yield ("montecarlo n=5 gate=realistic readout=gaussian params=paper probe=paper seed=0 format=json",
           ["montecarlo", *as_json], {"protocol": protocol, "seed": 0, "trials": MONTECARLO_TRIALS})
    yield ("sweep-fidelity weak_descending input=basis-average format=json",
           ["sweep-fidelity", "--input", "basis-average", *as_json], {"sweep": SWEEPS["weak_descending"]})
    yield "homodyne-curves probe=paper format=json", ["homodyne-curves", *as_json], {"protocol": {"n_photons": 3}}
    yield "success-table n=5 rounds=8 format=json", ["success-table", "--n", "5", "--rounds", "8", *as_json], None


def digest_lines(work: Path):
    """One ``<sha256> <exit code> <call>`` line per seeded CLI call, each call writing into ``work``.

    The digest covers the call's output file and its stderr.  The grid crosses
    ``run`` and ``montecarlo`` with n in {3, 4, 5}, ideal and realistic gates,
    ideal and gaussian readout, the paper's and a weak parameter set, the
    paper's and a low-alpha probe and a few seeds, adds four-photon runs with
    ``standardize_flipped`` on, and adds ``sweep-fidelity``, ``success-table``
    and ``homodyne-curves`` calls, one of them at a probe too strong for the
    curve grid.  It ends with each output form that no call before reaches:
    ``run`` as CSV, and each table command as JSON.
    """
    for label, argv, config in itertools.chain(protocol_calls(), other_calls(), format_calls()):
        yield f"{digest(work, argv, config)} {label}"


def write_contract(directory) -> None:
    """Write every file of the byte contract into ``directory``, creating it if need be."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_datasets(directory)
    (directory / "gate_benchmark_report.txt").write_text(gate_report())
    with tempfile.TemporaryDirectory() as work:
        lines = "".join(f"{line}\n" for line in digest_lines(Path(work)))
    (directory / "contract_digest.txt").write_text(lines)


if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit("usage: write_contract.py [DIR]")
    target = Path(sys.argv[1]) if len(sys.argv) == 2 else RESULTS
    write_contract(target)
    print(f"contract written to {target}")
