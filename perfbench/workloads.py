"""The four benchmark workloads: CLI jobs, their inputs and their output checks.

Every job is one ``entconv`` CLI call with ``--jobs 1``.  Job seeds come from
the benchmark's ``--seed``; the checks do not depend on the seed.  Why each
workload was chosen is in README.md next to this file.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Per-cell false-alarm probability of the ensemble checks.  A run checks about
# a thousand cells, so a correct program fails a run about once in 10^6.
CHECK_FAILURE_PROBABILITY = 1e-9
SWEEP_TOLERANCE = 1e-9

ENSEMBLE_CLASSES = ("W", "Dicke", "failed_max_iter")
MONTECARLO_HEADER = ["outcome_class", "iterations", "count", "frequency"]
SWEEP_HEADER = ["g_over_kappa", "g_over_gamma", "outcome", "fidelity"]


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]   # CLI subcommand and its fixed flags
    config: dict               # config document of one job, without the seed
    dominant: tuple[str, tuple[str, ...]]  # ("total" | "self", spanned names) checked against cProfile
    ensemble_check: Callable[[dict, int, dict], list[str]] | None   # (counts, trials, protocol) -> problems

    @property
    def ensemble(self) -> bool:
        return self.ensemble_check is not None

    def work_units(self) -> int:
        """Trials of an ensemble job, or grid points (cell x spin outcome) of a sweep job."""
        if self.ensemble:
            return self.config["trials"]
        return 2 * self.config["sweep"]["steps"] ** 2

    def unit_name(self) -> str:
        return "trials" if self.ensemble else "points"

    def job_argv(self, config_path: Path, job_seed: int, out_path: Path) -> list[str]:
        argv = [*self.command, "--config", str(config_path), "--jobs", "1", "--out", str(out_path)]
        if self.ensemble:
            argv += ["--seed", str(job_seed)]
        return argv

    def warmup_config(self) -> dict:
        """Config of the warm-up call: one trial, or the smallest grid the CLI accepts (2x2)."""
        if self.ensemble:
            return {**self.config, "trials": 1}
        return {"sweep": {**self.config["sweep"], "steps": 2}}

    def check(self, output: bytes) -> list[str]:
        """Problems found in one job's output; empty when the output is correct."""
        try:
            if self.ensemble:
                return self.check_counts(self.counts(output), self.config["trials"])
            return check_sweep(output.decode())
        except (ValueError, KeyError) as err:
            return [f"unreadable output: {err}"]

    def counts(self, output: bytes) -> dict[tuple[str, int], int]:
        return parse_montecarlo(output.decode(), self.config["trials"])

    def check_counts(self, counts: dict, trials: int) -> list[str]:
        """Problems of an ensemble's counts: one job's, or the sum over a run's jobs."""
        return self.ensemble_check(counts, trials, self.config["protocol"])

    def success_per_round(self, output: bytes) -> float:
        """Finished trials over protocol rounds run; 0 for a sweep or an unreadable output."""
        try:
            counts = self.counts(output) if self.ensemble else {}
        except (ValueError, KeyError):
            counts = {}
        if not counts:
            return 0.0
        rounds = sum(c * iters for (_, iters), c in counts.items())
        finished = sum(c for (cls, _), c in counts.items() if cls != "failed_max_iter")
        return finished / rounds


def job_seeds(seed: int):
    """Endless stream of job seeds drawn from the benchmark seed."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(62)


def _protocol(n_photons: int, **fields) -> dict:
    return {"n_photons": n_photons, "max_iterations": 8, **fields}


def parse_montecarlo(text: str, trials: int) -> dict[tuple[str, int], int]:
    """Counts per (class, round) of a montecarlo CSV, with its frequency column checked."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != MONTECARLO_HEADER:
        raise ValueError(f"bad header {rows[:1]}")
    counts: dict[tuple[str, int], int] = {}
    for cls, iters, count, freq in rows[1:]:
        key = (cls, int(iters))
        if key in counts:
            raise ValueError(f"duplicate row {key}")
        counts[key] = int(count)
        if not math.isclose(float(freq), counts[key] / trials, rel_tol=1e-11, abs_tol=0.0):
            raise ValueError(f"frequency {freq} does not match count {count} of {trials}")
    return counts


def deviation_bound(variance: float) -> float:
    """Count deviation that a sum of independent terms bounded by 1 exceeds
    with probability at most CHECK_FAILURE_PROBABILITY (Bernstein's inequality).

    For well-populated cells this is a z-bound with z of about 6.5; for cells
    with almost no weight it still allows a handful of counts.
    """
    log_term = math.log(2.0 / CHECK_FAILURE_PROBABILITY)
    return log_term / 3.0 + math.sqrt(log_term**2 / 9.0 + 2.0 * log_term * variance)


def closed_form_cells(n_photons: int, rounds: int) -> dict[tuple[str, int], float]:
    """Per-(class, round) probabilities of the ideal protocol: the paper's success series."""
    if n_photons == 3:
        per_round = {"W": (0.75, 0.25)}
        fail = 0.25
    elif n_photons == 5:
        per_round = {"W": (5 / 16, 1 / 16), "Dicke": (10 / 16, 1 / 16)}
        fail = 1 / 16
    else:
        raise ValueError(f"no closed form wired in for n={n_photons}")
    cells = {(cls, m): first * ratio ** (m - 1) for cls, (first, ratio) in per_round.items() for m in range(1, rounds + 1)}
    cells[("failed_max_iter", rounds)] = fail**rounds
    return cells


def _check_total(counts: dict, trials: int) -> list[str]:
    total = sum(counts.values())
    return [] if total == trials else [f"counts sum to {total}, not {trials}"]


def check_closed_form(counts: dict, trials: int, protocol: dict) -> list[str]:
    """Every (class, round) count within the bound of the closed-form series."""
    cells = closed_form_cells(protocol["n_photons"], protocol["max_iterations"])
    problems = _check_total(counts, trials)
    problems += [f"unexpected cell {key}" for key in counts if key not in cells]
    for key, p in cells.items():
        count = counts.get(key, 0)
        if abs(count - trials * p) > deviation_bound(trials * p * (1.0 - p)):
            problems.append(f"cell {key}: {count} of {trials}, expected {trials * p:.1f}")
    return problems


def load_realistic_reference() -> tuple[int, dict[tuple[str, int], int]]:
    data = json.loads((REFERENCE_DIR / "realistic_n5.json").read_text())
    return data["trials"], {(cls, iters): count for cls, iters, count in data["counts"]}


def check_reference_ensemble(counts: dict, trials: int, protocol: dict) -> list[str]:
    """Classes in the documented set, and every cell within the bound of the
    reference ensemble recorded with the benchmark (its own sampling spread
    included)."""
    rounds = protocol["max_iterations"]
    ref_trials, ref_counts = load_realistic_reference()
    problems = _check_total(counts, trials)
    for cls, iters in counts:
        if cls not in ENSEMBLE_CLASSES or not 1 <= iters <= rounds or (cls == "failed_max_iter" and iters != rounds):
            problems.append(f"undocumented outcome ({cls}, {iters})")
    for key in set(counts) | set(ref_counts):
        p = ref_counts.get(key, 0) / ref_trials
        variance = trials * p * (1.0 - p) * (1.0 + trials / ref_trials)
        count = counts.get(key, 0)
        if abs(count - trials * p) > deviation_bound(variance):
            problems.append(f"cell {key}: {count} of {trials}, reference share {p:.5f}")
    return problems


def _sweep_rows(text: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != SWEEP_HEADER:
        raise ValueError(f"bad header {rows[:1]}")
    return rows[1:]


def check_sweep(text: str) -> list[str]:
    """Every row within SWEEP_TOLERANCE of the reference grid recorded with the benchmark."""
    reference = _sweep_rows((REFERENCE_DIR / "sweep_basis.csv").read_text())
    rows = _sweep_rows(text)
    if len(rows) != len(reference):
        return [f"{len(rows)} rows, reference has {len(reference)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, reference)):
        same = row[2] == ref[2] and all(
            abs(float(row[j]) - float(ref[j])) <= SWEEP_TOLERANCE for j in (0, 1, 3)
        )
        if not same:
            problems.append(f"row {i + 1}: {row} differs from reference {ref}")
    return problems


REALISTIC_PARAMS = {"g": 0.3, "kappa": 26.0, "gamma": 0.0004}
SWEEP_GRID = {"g_over_kappa": [0.5, 10.0], "g_over_gamma": [0.5, 10.0]}
KERR_SPANS = ("kerr.apply_cross_kerr", "kerr.HomodyneModel.for_tags", "kerr.homodyne_measure")

# Job sizes keep each job near 0.4 s: large enough that the dominant layer's
# share is near that of a full-size run, small enough that a run holds dozens.
WORKLOADS = {
    w.name: w
    for w in (
        # cnot_full dominates; one CavityParams serves every gate
        Workload(
            "realistic_n5",
            ("montecarlo",),
            {"protocol": _protocol(5, gate_mode="realistic", params=REALISTIC_PARAMS), "trials": 300},
            ("total", ("cnot.cnot_full",)),
            check_reference_ensemble,
        ),
        # cnot_full again, with a new CavityParams every 8 gate calls
        Workload(
            "sweep_basis",
            ("sweep-fidelity", "--input", "basis-average"),
            {"sweep": {**SWEEP_GRID, "steps": 15}},
            ("total", ("cnot.cnot_full",)),
            None,
        ),
        # kerr tagging and readout dominate; cnot_full never runs
        Workload(
            "gaussian_n3",
            ("montecarlo",),
            {"protocol": _protocol(3, homodyne_mode="gaussian"), "trials": 1500},
            ("total", KERR_SPANS),
            check_closed_form,
        ),
        # the chain path's tally loop dominates; the gates run once
        Workload(
            "ideal_n5",
            ("montecarlo",),
            {"protocol": _protocol(5), "trials": 500_000},
            ("self", ("protocols.monte_carlo",)),
            check_closed_form,
        ),
    )
}
