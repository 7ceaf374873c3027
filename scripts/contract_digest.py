#!/usr/bin/env python3
"""Print one sha256 line per seeded CLI call over a fixed grid of configurations.

    PYTHONPATH=src python scripts/contract_digest.py > digests.txt

Each line is ``<sha256> <exit code> <call>``; the digest covers the call's
output file and its stderr.  The grid crosses ``run`` and ``montecarlo`` with
n in {3, 4, 5}, ideal and realistic gates, ideal and gaussian readout, the
paper's and a weak parameter set, the paper's and a low-alpha probe and a
few seeds, adds four-photon runs with ``standardize_flipped`` on, and adds
``sweep-fidelity``, ``success-table`` and ``homodyne-curves`` calls, one of
them at a probe too strong for the curve grid.  Run it against two
checkouts (``PYTHONPATH`` pointing at each one's ``src/``) and ``diff`` the
outputs to see exactly which seeded outputs a change moves.  The tier-1
suite compares ``lines`` with the committed ``results/contract_digest.txt``.
"""

import contextlib
import hashlib
import io
import itertools
import json
import tempfile
from pathlib import Path

from entconv.cli import main

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


def lines(work: Path):
    """Every line of the digest in order, each CLI call writing into ``work``."""
    for label, argv, config in itertools.chain(protocol_calls(), other_calls()):
        yield f"{digest(work, argv, config)} {label}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for line in lines(Path(tmp)):
            print(line, flush=True)
