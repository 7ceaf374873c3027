"""Conversion protocols: entangling circuits, probe readout, recovery iteration.

Each protocol wires a fixed GHZ-class input through a spread stage (CNOTs from
photon 2), wave plates, and a fold stage (CNOTs back onto photons 1 and 2),
then tags the branches with the cross-Kerr probe and reads the tag out.  A
single-L tag yields a W state; the four-photon circuit succeeds on either tag;
the five-photon circuit also emits a two-R/three-L Dicke branch; the all-L
failure branch is recovered and re-enters the tagging suffix.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .cavity import CavityParams
from .cnot import (
    BENCHMARK_G,
    BENCHMARK_GAMMA_TOTAL,
    BENCHMARK_KAPPA,
    _kraus,
    cnot_rows,
)
from .kerr import HomodyneModel, _tag_branches, read_rows
from .optics import HWP, QWP
from .qstate import QuantumState, Spin, apply_controlled_rows, apply_single_qubit_rows, ket, row_inner, row_norms2
from .qstate import row_photons, superpose

PROBE_THETA = 0.1
PROBE_ALPHA = math.sqrt(1.3e4)

_INPUT_TERMS = {3: ("RLR", "LRL"), 4: ("RLRR", "LRLL"), 5: ("RLRRR", "LRLLL")}

# classified tag -> declared outcome; absent tags trigger recovery
_SUCCESS_TAGS = {3: {1: "W"}, 4: {1: "W", 3: "W"}, 5: {1: "W", 3: "Dicke"}}

_MC_CHUNK = 1024

# Most rounds of a run or a success table; the table's exact fractions take
# ~0.04 s at 1000 rounds and seconds at 10 000.
MAX_ITERATIONS = 1000

_RECOVERY_PREFIX = (("hwp", 2), ("qwp", 2), ("cnot", 2, 1))


def _default_params() -> CavityParams:
    return CavityParams(g=BENCHMARK_G, kappa=BENCHMARK_KAPPA, gamma=BENCHMARK_GAMMA_TOTAL)


@dataclass(frozen=True)
class ProtocolSpec:
    """Everything one conversion run depends on."""

    n_photons: int
    max_iterations: int = 4
    gate_mode: str = "ideal"          # "ideal" | "realistic"
    homodyne_mode: str = "ideal"      # "ideal" | "gaussian"
    params: CavityParams = field(default_factory=_default_params)
    theta: float = PROBE_THETA
    alpha: float = PROBE_ALPHA
    standardize_flipped: bool = False  # flip the four-photon single-R branch to single-L form

    def __post_init__(self) -> None:
        _check_photons(self.n_photons)
        if not 1 <= self.max_iterations <= MAX_ITERATIONS:
            raise ValueError(f"max_iterations must be between 1 and {MAX_ITERATIONS}")
        if self.gate_mode not in ("ideal", "realistic"):
            raise ValueError(f"unknown gate mode {self.gate_mode!r}")
        if self.homodyne_mode not in ("ideal", "gaussian"):
            raise ValueError(f"unknown homodyne mode {self.homodyne_mode!r}")
        if not (0 < self.theta < math.inf and 0 <= self.alpha < math.inf):
            raise ValueError("theta must be finite and > 0, alpha finite and >= 0")


@dataclass(frozen=True)
class ProtocolRun:
    """Record of one conversion attempt."""

    iterations_used: int
    outcome_class: str                # "W" | "Dicke" | "failed_max_iter" | "failed_no_recovery"
    final_state: QuantumState
    homodyne_tags: tuple[int, ...]    # classified tags, one per iteration
    true_tags: tuple[int, ...]
    misclassification_events: int
    accumulated_norm: float           # survival probability of all gate bounces (1 in ideal mode)
    spin_outcomes: tuple[Spin, ...]   # spin readout of each realistic gate, in order (empty in ideal mode)


@dataclass(frozen=True)
class SuccessSeries:
    """Closed-form per-round and cumulative success probabilities."""

    n_photons: int
    outcome_class: str
    per_round: tuple[float, ...]
    cumulative: float
    limit: float


@dataclass(frozen=True)
class StateClass:
    """Support-pattern classification of a photons-only state.

    For Dicke support both excitation conventions are reported: the L-count
    of the support terms and its complement, since either polarization may be
    read as the excited mode.
    """

    kind: str                          # "W" | "W_flipped" | "Dicke" | "GHZ_like" | "other"
    n_photons: int
    l_excitations: int | None = None
    r_excitations: int | None = None


def _check_photons(n_photons: int) -> None:
    if n_photons not in _INPUT_TERMS:
        raise ValueError(f"unsupported photon number: {n_photons}")


def conversion_input(n_photons: int) -> QuantumState:
    """The GHZ-class input state the n-photon circuit is wired for."""
    _check_photons(n_photons)
    a, b = _INPUT_TERMS[n_photons]
    return superpose([(ket(a), 1.0), (ket(b), 1.0)])


def circuit_wiring(n_photons: int) -> tuple[tuple, ...]:
    """Frozen element order of the n-photon conversion circuit.

    The fold-stage control/target assignment is the unique one in this family
    that reproduces the hand-expanded pre-tag states (pinned by tests).
    """
    _check_photons(n_photons)
    n = n_photons
    spread = tuple(("cnot", 2, t) for t in range(3, n + 1))
    plates = tuple(("hwp", t) for t in range(3, n + 1)) + tuple(("qwp", t) for t in range(3, n + 1))
    fold = {3: (("cnot", 3, 1),), 4: (("cnot", 3, 1), ("cnot", 4, 2)), 5: (("cnot", 3, 1), ("cnot", 4, 2), ("cnot", 5, 1))}[n]
    return spread + plates + fold + (("kerr",), ("homodyne",))


def recovery_sequence(n_photons: int) -> tuple[tuple, ...]:
    """Recovery of the all-L failure branch followed by re-entry into the tagging suffix."""
    if n_photons not in (3, 5):
        raise ValueError("no recovery path")
    wiring = circuit_wiring(n_photons)
    return _RECOVERY_PREFIX + wiring[wiring.index(("hwp", 3)):]


def _ideal_cnot(rows, control, target):
    n = row_photons(rows)
    return apply_controlled_rows(rows, n - control, n - target, HWP), 1.0, None


def _realistic_cnot(params: CavityParams, rng, forced_spins):
    """The compiled realistic CNOT on a batch, taking its readouts from ``forced_spins`` in turn if given."""
    kraus = _kraus(params, ideal=False)
    spin_iter = iter(forced_spins) if forced_spins is not None else itertools.repeat(None)

    def cnot(rows, control, target):
        rows, readouts, _, kept = cnot_rows(rows, control, target, kraus, rng, next(spin_iter))
        return rows, kept, readouts

    return cnot


def _run_gates(rows, elements, cnot):
    """Apply the gate prefix of an element list to a batch of amplitude rows, stopping at the probe tag.

    ``rows`` has shape (trials, 2**n); ``cnot(rows, control, target)``
    returns the output rows, the squared norm each row kept and each row's
    readout (None for an ideal gate).  Returns the rows, the product of the
    kept norms and the list of readouts.
    """
    n = row_photons(rows)
    norm_factor = 1.0
    readouts = []
    for el in elements:
        kind = el[0]
        if kind == "cnot":
            rows, kept, readout = cnot(rows, el[1], el[2])
            norm_factor = norm_factor * kept
            if readout is not None:
                readouts.append(readout)
        elif kind in ("hwp", "qwp"):
            rows = apply_single_qubit_rows(rows, n - el[1], HWP if kind == "hwp" else QWP)
        elif kind == "kerr":
            break
        else:
            raise ValueError(f"unknown circuit element {el!r}")
    return rows, norm_factor, readouts


def run_protocol(
    spec: ProtocolSpec,
    rng: np.random.Generator | None = None,
    forced_tags=None,
    forced_spins=None,
) -> ProtocolRun:
    """Execute one conversion attempt with recovery iteration.

    ``forced_tags`` (one per iteration) and ``forced_spins`` (one per
    realistic gate) pin the stochastic choices for branch-by-branch analysis;
    otherwise outcomes are sampled from ``rng``.  Control flow follows the
    classified tag, so a gaussian-mode misclassification steers the protocol
    down the wrong arm while the state keeps the true branch; such events are
    counted on the run record, and the spin outcome of every realistic gate is
    recorded in ``spin_outcomes``.
    """
    cnot = _ideal_cnot if spec.gate_mode == "ideal" else _realistic_cnot(spec.params, rng, forced_spins)
    return _single_run(spec, cnot, rng, forced_tags)


def _single_run(spec: ProtocolSpec, cnot, rng, forced_tags) -> ProtocolRun:
    """A batch of one as a run record."""
    outcome, rounds, final, survival, history = _run_rounds(spec, 1, cnot, rng, forced_tags)
    tags = tuple(int(tags[0]) for _, tags, _, _ in history)
    true_tags = tuple(int(true[0]) for _, _, true, _ in history)
    misses = sum(t != k for t, k in zip(tags, true_tags))
    final_state = QuantumState(spec.n_photons, False, final[0])
    spin_outcomes = tuple(Spin(int(s[0])) for *_, readouts in history for s in readouts)
    return ProtocolRun(
        int(rounds[0]), outcome[0], final_state, tags, true_tags, misses, float(survival[0]), spin_outcomes
    )


def _run_rounds(spec: ProtocolSpec, trials: int, cnot, rng, forced_tags):
    """Rounds of circuit, tag and readout on a batch of trials until each succeeds.

    A trial leaves the batch when its classified tag declares an outcome;
    the rest run the recovery sequence, or, having none at four photons, end
    as ``failed_no_recovery`` unless the round was their last.  Draws go
    trial by trial within each gate and each readout, so a batch of one
    draws as a single run does.  Gaussian readout classifies every round of
    every trial with one receiver, the thresholds between the tags the ideal
    circuit produces.  Returns, per trial, the outcome class,
    rounds used, final amplitude row and product of kept gate norms, and per
    round the trials still in the batch, their classified and true tags and
    their gate readouts.
    """
    n = spec.n_photons
    rows = np.repeat(conversion_input(n).amplitudes[None], trials, axis=0)
    live = np.arange(trials)
    outcome = np.full(trials, "failed_max_iter", dtype=object)
    rounds = np.full(trials, spec.max_iterations)
    final = np.empty_like(rows)
    survival = np.ones(trials)
    history = []
    tag_iter = iter(forced_tags) if forced_tags is not None else itertools.repeat(None)
    success = _SUCCESS_TAGS[n]
    declares = np.array([k in success for k in range(n + 1)])   # by classified tag
    receiver = None   # ideal readout reads the true tag and needs no thresholds
    if spec.homodyne_mode == "gaussian":
        receiver = HomodyneModel.for_tags(spec.alpha, spec.theta, ideal_tags(spec))
    for iteration in range(1, spec.max_iterations + 1):
        elements = circuit_wiring(n) if iteration == 1 else recovery_sequence(n)
        rows, norm_factor, readouts = _run_gates(rows, elements, cnot)
        survival[live] *= norm_factor
        tags, true, rows = read_rows(rows, receiver, spec.homodyne_mode, rng, next(tag_iter))
        history.append((live, tags, true, readouts))
        done = declares[tags]
        if n == 4 and spec.standardize_flipped:
            for photon in range(1, 5):
                rows[tags == 3] = apply_single_qubit_rows(rows[tags == 3], n - photon, HWP)
        final[live] = rows
        outcome[live[done]] = [success[int(k)] for k in tags[done]]
        rounds[live[done]] = iteration
        live, rows = live[~done], rows[~done]
        if not live.size or iteration == spec.max_iterations:
            break
        if n == 4:
            outcome[live] = "failed_no_recovery"
            rounds[live] = iteration
            break
    return outcome, rounds, final, survival, history


def classify_state(state: QuantumState, tol: float = 1e-9) -> StateClass:
    """Classify a photons-only normalized state by its basis support pattern."""
    if state.has_spin:
        raise ValueError("classification expects a photons-only state")
    n = state.n_photons
    amps = state.amplitudes
    support = np.flatnonzero(np.abs(amps) > tol)
    if support.size == 0:
        return StateClass("other", n)
    mags = np.abs(amps[support])
    equal_mags = bool(np.all(np.abs(mags - 1.0 / math.sqrt(support.size)) <= tol))
    l_counts = np.array([bin(int(i)).count("1") for i in support])
    phases_uniform = bool(np.all(np.abs(amps[support] / amps[support[0]] - 1.0) <= tol))
    if equal_mags and np.all(l_counts == l_counts[0]):
        c = int(l_counts[0])
        if support.size == math.comb(n, c):
            if c == 1 and phases_uniform:
                return StateClass("W", n, l_excitations=1, r_excitations=n - 1)
            if c == n - 1 and phases_uniform:
                return StateClass("W_flipped", n, l_excitations=n - 1, r_excitations=1)
            if 2 <= c <= n - 2:
                return StateClass("Dicke", n, l_excitations=c, r_excitations=n - c)
    if support.size == 2 and equal_mags and (int(support[0]) ^ int(support[1])) == state.dim - 1:
        return StateClass("GHZ_like", n)
    return StateClass("other", n)


def success_series(n_photons: int, rounds: int) -> list[SuccessSeries]:
    """Closed-form conversion probabilities per round, with cumulative sums and limits."""
    _check_photons(n_photons)
    if not 1 <= rounds <= MAX_ITERATIONS:
        raise ValueError(f"rounds must be between 1 and {MAX_ITERATIONS}")
    if n_photons == 3:
        raw = [("W", [Fraction(3, 4) * Fraction(1, 4) ** (m - 1) for m in range(1, rounds + 1)], Fraction(1))]
    elif n_photons == 4:
        raw = [("W", [Fraction(1)] + [Fraction(0)] * (rounds - 1), Fraction(1))]
    else:
        raw = [
            ("W", [Fraction(5, 16) * Fraction(1, 16) ** (m - 1) for m in range(1, rounds + 1)], Fraction(1, 3)),
            ("Dicke", [Fraction(10, 16) * Fraction(1, 16) ** (m - 1) for m in range(1, rounds + 1)], Fraction(2, 3)),
        ]
    return [
        SuccessSeries(n_photons, label, tuple(float(p) for p in per), float(sum(per)), float(lim))
        for label, per, lim in raw
    ]


@dataclass(frozen=True)
class MonteCarloResult:
    """Outcome frequencies of a seeded trial ensemble."""

    trials: int
    counts: dict[tuple[str, int], int]   # (outcome_class, iterations_used) -> count

    def class_counts(self) -> dict[str, int]:
        totals: Counter = Counter()
        for (cls, _), c in self.counts.items():
            totals[cls] += c
        return dict(totals)

    def class_frequency(self, outcome_class: str) -> float:
        return self.class_counts().get(outcome_class, 0) / self.trials


def _ideal_gate_table(spec: ProtocolSpec):
    """Exact (outcome class, rounds used) probabilities of an ideal-gate ensemble, and each round's true-tag weights.

    Ideal gates and either readout are a linear instrument, so the running
    trials share one unnormalized density matrix, kept as amplitude rows v
    with rho = sum |v><v|.  Each round books the classified weight of every
    declaring tag (true-tag weights times the identity, or times the
    receiver's confusion matrix in gaussian mode) and carries each true-tag
    branch on, scaled by the root of its chance to be read as a tag that
    declares nothing.  Cells run by class, then round, failure cell last.
    """
    n = spec.n_photons
    success = _SUCCESS_TAGS[n]
    if spec.homodyne_mode == "gaussian":
        receiver = HomodyneModel.for_tags(spec.alpha, spec.theta, ideal_tags(spec))
        confusion, read_as = receiver.confusion(range(n + 1)), receiver.tags
    else:
        confusion, read_as = np.eye(n + 1), range(n + 1)
    carry = np.sqrt(confusion[:, [k not in success for k in read_as]].sum(axis=1))
    rounds = spec.max_iterations
    cells = {(cls, m): 0.0 for cls in dict.fromkeys(success.values()) for m in range(1, rounds + 1)}
    rows = conversion_input(n).amplitudes[None]
    weights = []
    for m in range(1, rounds + 1):
        if not len(rows):
            break
        rows, *_ = _run_gates(rows, circuit_wiring(n) if m == 1 else recovery_sequence(n), _ideal_cnot)
        _, branches = _tag_branches(rows)   # [row, tag, basis]
        weights.append(row_norms2(branches).sum(axis=0))
        for tag, p in zip(read_as, weights[-1] @ confusion):
            if tag in success:
                cells[(success[tag], m)] += float(p)
        rows = (branches * carry[:, None]).reshape(-1, 1 << n)
        rows = rows[(rows != 0).any(axis=1)]
        if len(rows) > 1 << n:
            rows = np.linalg.qr(rows, mode="r")
    cells[("failed_max_iter", rounds)] = float(row_norms2(rows).sum())
    return cells, weights


def ideal_tags(spec: ProtocolSpec) -> frozenset[int]:
    """Probe tags the ideal circuit reads out in any round; every other tag is leaked by realistic gates.

    Read off the table's first two rounds: recovery reproduces the first round's tags.
    """
    _, weights = _ideal_gate_table(replace(spec, homodyne_mode="ideal", max_iterations=2))
    return frozenset(int(k) for w in weights for k in np.flatnonzero(w))


def monte_carlo(spec: ProtocolSpec, trials: int, rng: np.random.Generator) -> MonteCarloResult:
    """Empirical outcome frequencies over seeded trials.

    Ideal-gate ensembles, with either readout, draw all trials at once from
    one multinomial over the exact (class, round) probabilities of
    ``_ideal_gate_table``, so million-trial ensembles are cheap.  Realistic
    gates renormalize the state at every spin readout, which is not linear,
    so they are sampled trial by trial: each trial is one quantum trajectory,
    and the trials run together as batches of up to ``_MC_CHUNK`` amplitude
    rows, all drawing from ``rng``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if spec.gate_mode == "ideal":
        cells, _ = _ideal_gate_table(spec)
        counts = rng.multinomial(trials, list(cells.values()))
        return MonteCarloResult(trials, {cell: int(c) for cell, c in zip(cells, counts) if c})
    tally: Counter = Counter()
    cnot = _realistic_cnot(spec.params, rng, None)
    for start in range(0, trials, _MC_CHUNK):
        outcome, rounds, *_ = _run_rounds(spec, min(_MC_CHUNK, trials - start), cnot, rng, None)
        tally.update(zip(outcome.tolist(), rounds.tolist()))
    return MonteCarloResult(trials, dict(tally))


def fidelity_vs_ideal(spec: ProtocolSpec, run: ProtocolRun) -> float | None:
    """Squared overlap of a realistic run's final state with the ideal circuit's on the same true tags.

    The ideal circuit runs once, its tags forced to the run's true tags; the
    run's spin readouts are not replayed, because every readout of an ideal
    gate gives the same state.  None for ideal gates, and for a run with a
    misclassified readout or a leaked true tag (one the ideal circuit never
    produces): the ideal circuit has no branch for either to follow.
    """
    if spec.gate_mode == "ideal" or run.misclassification_events or not set(run.true_tags) <= ideal_tags(spec):
        return None
    ideal_run = _single_run(spec, _ideal_cnot, None, run.true_tags)
    return abs(complex(row_inner(run.final_state.amplitudes, ideal_run.final_state.amplitudes))) ** 2


def _cnot_count(elements) -> int:
    return sum(el[0] == "cnot" for el in elements)


def composite_fidelity_report(gate_fidelity: float = 0.996) -> list[dict]:
    """Products of per-gate fidelities for each conversion scenario.

    Iterated rounds are counted under both re-entry conventions: suffix
    re-entry (recovery gate plus the tagging suffix, what ``run_protocol``
    executes) and full re-entry (recovery gate plus the whole circuit).  Both
    regenerate the same branch structure but differ in gate count, so the
    composite product is quoted for each; the reference fidelities follow the
    full-re-entry count.
    """
    rows = []
    for label, n, rounds, reference in (
        ("three_photon_round1", 3, 1, 0.992),
        ("four_photon", 4, 1, 0.984),
        ("three_photon_rounds4", 3, 4, 0.957),
        ("five_photon_rounds4", 5, 4, 0.897),
    ):
        first = _cnot_count(circuit_wiring(n))
        retry = _cnot_count(recovery_sequence(n)) if rounds > 1 else 0
        suffix = first + (rounds - 1) * retry
        full = first + (rounds - 1) * (_cnot_count(_RECOVERY_PREFIX) + first)
        rows.append({"label": label, "suffix_gates": suffix, "full_gates": full, "reference": reference,
                     "product_suffix": gate_fidelity ** suffix, "product_full": gate_fidelity ** full})
    return rows
