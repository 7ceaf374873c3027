"""Conversion protocols: entangling circuits, probe readout, recovery iteration.

Each protocol wires a fixed GHZ-class input through a spread stage (CNOTs from
photon 2), wave plates, and a fold stage (CNOTs back onto photons 1 and 2),
then tags the branches with the cross-Kerr probe and reads the tag out.  A
single-L tag yields a W state; the four-photon circuit succeeds on either tag;
the five-photon circuit also emits a two-R/three-L Dicke branch; the all-L
failure branch is recovered and re-enters the tagging suffix.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, namedtuple
from dataclasses import dataclass, field

import numpy as np

from .cavity import CavityParams, spin_photon_map
from .cnot import BENCHMARK_G, BENCHMARK_GAMMA_TOTAL, BENCHMARK_KAPPA, _kraus
from .kerr import HomodyneModel, _tag_branches, read_rows
from .optics import CNOT, HWP, QWP
from .qstate import NORM_TOL, apply_rows, collapse, frozen, held, ket, l_photons, row_inner, row_norms2, row_photons

PROBE_THETA = 0.1
PROBE_ALPHA = math.sqrt(1.3e4)

_INPUT_TERMS = {3: ("RLR", "LRL"), 4: ("RLRR", "LRLL"), 5: ("RLRRR", "LRLLL")}

# classified tag -> declared outcome; absent tags trigger recovery
_SUCCESS_TAGS = {3: {1: "W"}, 4: {1: "W", 3: "W"}, 5: {1: "W", 3: "Dicke"}}

_MC_CHUNK = 1024

# Most rounds of a run, an ideal-gate ensemble table or a success table.
MAX_ITERATIONS = 1000

_RECOVERY_PREFIX = (("hwp", 2), ("qwp", 2), ("cnot", 2, 1))

_CLASSIFY_TOL = 1e-9              # support and equal-weight tolerance of classify_state
COMPOSITE_GATE_FIDELITY = 0.996   # the per-gate fidelity the paper's conversion fidelities are products of


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
    final_state: np.ndarray           # read-only amplitude row
    homodyne_tags: tuple[int, ...]    # classified tags, one per iteration
    true_tags: tuple[int, ...]
    misclassification_events: int
    accumulated_norm: float           # survival probability of all gate bounces (1 in ideal mode)
    spin_outcomes: tuple[int, ...]    # readout of each realistic gate (0 plus, 1 minus), in order; empty in ideal mode


def _check_photons(n_photons: int) -> None:
    if n_photons not in _INPUT_TERMS:
        raise ValueError(f"unsupported photon number: {n_photons}")


def conversion_input(n_photons: int) -> np.ndarray:
    """Read-only row of the GHZ-class input state the n-photon circuit is wired for."""
    _check_photons(n_photons)
    a, b = _INPUT_TERMS[n_photons]
    return frozen((ket(a) + ket(b)) / math.sqrt(2.0))


def circuit_wiring(n_photons: int) -> tuple[tuple, ...]:
    """Frozen gate order of the n-photon conversion circuit; the probe tag and its readout follow it.

    The fold-stage control/target assignment is the unique one in this family
    that reproduces the hand-expanded pre-tag states (pinned by tests).
    """
    _check_photons(n_photons)
    n = n_photons
    spread = tuple(("cnot", 2, t) for t in range(3, n + 1))
    plates = tuple(("hwp", t) for t in range(3, n + 1)) + tuple(("qwp", t) for t in range(3, n + 1))
    fold = {3: (("cnot", 3, 1),), 4: (("cnot", 3, 1), ("cnot", 4, 2)), 5: (("cnot", 3, 1), ("cnot", 4, 2), ("cnot", 5, 1))}[n]
    return spread + plates + fold


def recovery_sequence(n_photons: int) -> tuple[tuple, ...]:
    """Recovery of the all-L failure branch followed by re-entry into the circuit's plates and fold stage."""
    if n_photons not in (3, 5):
        raise ValueError("no recovery path")
    wiring = circuit_wiring(n_photons)
    return _RECOVERY_PREFIX + wiring[wiring.index(("hwp", 3)):]


def _round_elements(n_photons: int, iteration: int) -> tuple[tuple, ...]:
    return circuit_wiring(n_photons) if iteration == 1 else recovery_sequence(n_photons)


def _standardize(spec: ProtocolSpec, rows: np.ndarray, tags: np.ndarray) -> np.ndarray:
    """``rows``, with ``spec.standardize_flipped`` each four-photon row read as tag 3 flipped to single-L form (a HWP on every photon)."""
    if spec.n_photons == 4 and spec.standardize_flipped:
        return np.where((tags == 3)[:, None], rows[:, ::-1], rows)
    return rows


def _run_gates(rows, at, elements, gate, rng=None):
    """Apply an element list to a batch of trials whose amplitude rows, shape (rows, 2**n), are ``rows[at]``.

    Every element goes through ``apply_rows`` on the rows, not on each
    trial: a plate as its transposed matrix, a CNOT as ``gate`` over
    (control, target).  ``gate`` is ``optics.CNOT`` or a realistic Kraus pair
    (``cnot._kraus``); an output with a leading readout axis is measured with
    ``collapse``, and its children and their index replace the rows and
    ``at``.  ``optics.CNOT`` has no readout, so its callers may pass None
    for ``at`` and ``rng``.  Returns the rows, the index, the product of the
    squared norms each trial kept before its readouts and the list of
    readouts, one per trial.
    """
    plates = {"hwp": HWP.T, "qwp": QWP.T}
    norm_factor = 1.0
    readouts = []
    for el in elements:
        op = gate if el[0] == "cnot" else plates.get(el[0])
        if op is None:
            raise ValueError(f"unknown circuit element {el!r}")
        out = apply_rows(rows, el[1:], op)
        if out.ndim > rows.ndim:   # a measured gate: one branch per readout in front
            readout, out, children_at, weights = collapse(out, at, rng)
            norm_factor, at = norm_factor * weights.sum(axis=0)[at], children_at
            readouts.append(readout)
        rows = out
    return rows, at, norm_factor, readouts


def run_protocol(spec: ProtocolSpec, rng=None) -> ProtocolRun:
    """Execute one conversion attempt with recovery iteration: ``_run_rounds`` on one trial, folded.

    Every readout is drawn with ``rng.random``, where ``rng`` is a
    ``stream.Stream`` or a numpy ``Generator``; without one the call raises
    ``ValueError``.  Control flow follows the classified tag, so a
    gaussian-mode misclassification steers the protocol down the wrong arm
    while the state keeps the true branch; such events are counted on the
    run record, and the spin outcome of every realistic gate is recorded in
    ``spin_outcomes``.  The kept norms multiply in round order from 1.0.
    """
    records = list(_run_rounds(spec, 1, rng))
    last = records[-1]
    tags = tuple(int(r.tags[0]) for r in records)
    true_tags = tuple(int(r.true[0]) for r in records)
    misses = sum(t != k for t, k in zip(tags, true_tags))
    spin_outcomes = tuple(int(s[0]) for r in records for s in r.readouts)
    norm = math.prod((r.norms[0] for r in records), start=1.0)
    final = frozen(_standardize(spec, last.rows[last.at], last.tags)[0])
    return ProtocolRun(last.iteration, str(last.ends[0]), final, tags, true_tags, misses, float(norm), spin_outcomes)


def _receiver(spec: ProtocolSpec):
    """``read_rows``' gaussian receiver, a confusion matrix over true tags 0..n and cells between the ideal tags; None for ideal readout."""
    if spec.homodyne_mode == "ideal":
        return None
    model = HomodyneModel.for_tags(spec.alpha, spec.theta, ideal_tags(spec.n_photons))
    return model.confusion(range(spec.n_photons + 1)), model.tags


_Round = namedtuple("_Round", "iteration live readouts norms tags true rows at ends")


def _run_rounds(spec: ProtocolSpec, trials: int, rng):
    """Yield one ``_Round`` per round of circuit, tag and readout on a batch of trials, until none runs on.

    A round holds its number, the trials still in the batch (``live``),
    their gate ``readouts`` (one array per measured gate) and kept gate
    ``norms``, their classified and ``true`` tags, the collapsed ``rows``
    (each readout history's row once, ``collapse``, ``held``) and each
    trial's index ``at`` into them, and the class each trial ``ends`` in,
    or "" while it runs on.  A declaring tag ends a trial in its class;
    any other tag ends it as ``failed_max_iter`` in the last round and as
    ``failed_no_recovery`` at four photons, and sends it into recovery
    otherwise.  Each readout takes one uniform per trial still in the
    batch, in trial order, so a single run handed the uniforms one trial
    drew replays that trial, misread and leaked tags included.  Gaussian
    readout reads with the one confusion matrix of ``_receiver``.
    """
    n = spec.n_photons
    rows, at = conversion_input(n)[None], np.zeros(trials, int)
    live = np.arange(trials)
    gate = CNOT if spec.gate_mode == "ideal" else _kraus(spin_photon_map(spec.params))
    receiver = _receiver(spec)
    for iteration in range(1, spec.max_iterations + 1):
        rows, at, norms, readouts = _run_gates(rows, at, _round_elements(n, iteration), gate, rng)
        tags, true, rows, at = read_rows(rows, at, receiver, rng)
        stuck = "failed_max_iter" if iteration == spec.max_iterations else "failed_no_recovery" if n == 4 else ""
        ends = np.array([_SUCCESS_TAGS[n].get(k, stuck) for k in range(n + 1)])[tags]
        yield _Round(iteration, live, readouts, np.broadcast_to(norms, live.shape), tags, true, rows, at, ends)
        running = ends == ""
        if not running.any():
            return
        used, at = held(at[running], len(rows))   # the rows a trial still running holds
        live, rows = live[running], rows[used]


def _state_class(kind: str, l_excitations: int | None = None, r_excitations: int | None = None) -> dict:
    return {"kind": kind, "l_excitations": l_excitations, "r_excitations": r_excitations}


def classify_state(amps: np.ndarray) -> dict:
    """The ``state_class`` of ``entconv run``: a normalized amplitude row classified by its basis support pattern.

    ``kind`` is "W", "W_flipped", "Dicke", "GHZ_like" or "other".  For the W
    forms and Dicke support both excitation conventions are reported: the L-count of
    the support terms (``l_excitations``) and its complement
    (``r_excitations``), since either polarization may be read as the
    excited mode; both are None for the other kinds.
    """
    n = row_photons(amps)
    support = np.flatnonzero(np.abs(amps) > _CLASSIFY_TOL)
    if support.size == 0:
        return _state_class("other")
    mags = np.abs(amps[support])
    equal_mags = bool(np.all(np.abs(mags - 1.0 / math.sqrt(support.size)) <= _CLASSIFY_TOL))
    l_counts = l_photons(n)[support]
    phases_uniform = bool(np.all(np.abs(amps[support] / amps[support[0]] - 1.0) <= _CLASSIFY_TOL))
    if equal_mags and np.all(l_counts == l_counts[0]):
        c = int(l_counts[0])
        if support.size == math.comb(n, c):
            if c == 1 and phases_uniform:
                return _state_class("W", 1, n - 1)
            if c == n - 1 and phases_uniform:
                return _state_class("W_flipped", n - 1, 1)
            if 2 <= c <= n - 2:
                return _state_class("Dicke", c, n - c)
    if support.size == 2 and equal_mags and (int(support[0]) ^ int(support[1])) == len(amps) - 1:
        return _state_class("GHZ_like")
    return _state_class("other")


def success_series(n_photons: int, rounds: int) -> dict[str, tuple[tuple[float, ...], float]]:
    """Closed-form conversion probabilities by outcome class: ``(per_round, limit)``, the limit over unbounded rounds."""
    _check_photons(n_photons)
    if not 1 <= rounds <= MAX_ITERATIONS:
        raise ValueError(f"rounds must be between 1 and {MAX_ITERATIONS}")
    if n_photons == 3:
        return {"W": (tuple(math.ldexp(3.0, -2 * m) for m in range(1, rounds + 1)), 1.0)}   # 3/4 * (1/4)**(m-1)
    if n_photons == 4:
        return {"W": ((1.0,) + (0.0,) * (rounds - 1), 1.0)}
    return {
        "W": (tuple(math.ldexp(5.0, -4 * m) for m in range(1, rounds + 1)), 1 / 3),          # 5/16 * (1/16)**(m-1)
        "Dicke": (tuple(math.ldexp(5.0, 1 - 4 * m) for m in range(1, rounds + 1)), 2 / 3),   # 10/16 * (1/16)**(m-1)
    }


def _ideal_gate_table(spec: ProtocolSpec):
    """Exact (outcome class, rounds used) probabilities of an ideal-gate ensemble.

    Ideal gates and either readout are a linear instrument, so the running
    trials share one unnormalized density matrix rho.  A round maps rho to
    U rho U† with its circuit's unitary U, books the classified weight of
    each declaring tag (rho's true-tag diagonal weights times the identity,
    or times the receiver's confusion matrix in gaussian mode) and keeps each
    true-tag block, scaled by its chance to be read as a tag that declares
    nothing.  Cells run by class, then round; the trace left fails, last.
    """
    n = spec.n_photons
    success = _SUCCESS_TAGS[n]
    confusion, read_as = _receiver(spec) or (np.eye(n + 1), range(n + 1))
    carry = confusion[:, [k not in success for k in read_as]].sum(axis=1)
    in_tag = l_photons(n) == np.arange(n + 1)[:, None]   # [tag, basis]: where the basis state holds the tag
    keep = in_tag.T @ (carry[:, None] * in_tag)          # carry of a true-tag block of rho, 0 between blocks
    # the basis rows run through a circuit are its unitary, transposed; four
    # photons have no recovery, and every tag their circuit reads out declares
    first, retry = (_run_gates(np.eye(1 << n, dtype=complex), None, elements, CNOT)[0].T
                    for elements in (circuit_wiring(n), recovery_sequence(n) if n != 4 else ()))
    rounds = spec.max_iterations
    cells = {(cls, m): 0.0 for cls in dict.fromkeys(success.values()) for m in range(1, rounds + 1)}
    psi = conversion_input(n)
    rho = np.outer(psi, psi.conj())
    for m, u in enumerate([first] + [retry] * (rounds - 1), start=1):
        rho = u @ rho @ u.conj().T
        for tag, p in zip(read_as, (in_tag * rho.diagonal().real).sum(axis=1) @ confusion):
            if tag in success:
                cells[(success[tag], m)] += float(p)
        rho = keep * rho
    cells[("failed_max_iter", rounds)] = float(rho.trace().real)
    return cells


@functools.lru_cache(maxsize=None)
def ideal_tags(n_photons: int) -> frozenset[int]:
    """Probe tags the ideal circuit of n photons reads out in any round; every other tag is leaked by realistic gates.

    Read off the first round: recovery reproduces its tags.
    """
    rows, *_ = _run_gates(conversion_input(n_photons)[None], None, circuit_wiring(n_photons), CNOT)
    return frozenset(int(k) for k in np.flatnonzero(row_norms2(_tag_branches(rows))[:, 0]))


def monte_carlo(spec: ProtocolSpec, trials: int, rng) -> dict[tuple[str, int], int]:
    """Trial counts by (outcome class, rounds used) over seeded trials; only cells with a trial appear.

    Ideal-gate ensembles, with either readout, draw all trials at once from
    one ``rng.multinomial`` over the exact (class, round) probabilities of
    ``_ideal_gate_table``'s density-matrix recursion, whose cost does not
    grow with ``trials``.  Realistic gates renormalize the state at every
    spin readout, which is not linear, so they are sampled trial by trial:
    each trial is one quantum trajectory, and the trials run together as
    batches of up to ``_MC_CHUNK`` trials, all drawing with ``rng.random``.
    Each round a batch yields (``_run_rounds``) tallies its ending trials
    by (class, round); no per-trial row is kept.  ``rng`` is a
    ``stream.Stream`` or a numpy ``Generator``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if spec.gate_mode == "ideal":
        cells = _ideal_gate_table(spec)
        counts = rng.multinomial(trials, list(cells.values()))
        return {cell: int(c) for cell, c in zip(cells, counts) if c}
    tally: Counter = Counter()
    for start in range(0, trials, _MC_CHUNK):
        for r in _run_rounds(spec, min(_MC_CHUNK, trials - start), rng):
            tally.update((cls, r.iteration) for cls in r.ends[r.ends != ""].tolist())
    return dict(tally)


def fidelity_vs_ideal(spec: ProtocolSpec, run: ProtocolRun) -> float | None:
    """Squared overlap of a realistic run's final state with ``_ideal_branch`` on the run's true tags.

    Spin readouts are not replayed: an ideal CNOT, ``optics.CNOT``, has none.
    None for ideal gates, and for a run with a misclassified readout or a
    leaked true tag (one the ideal circuit never produces): the ideal
    circuit has no branch for either to follow.
    """
    if spec.gate_mode == "ideal" or run.misclassification_events or not set(run.true_tags) <= ideal_tags(spec.n_photons):
        return None
    return abs(complex(row_inner(run.final_state, _ideal_branch(spec, run.true_tags)))) ** 2


def _ideal_branch(spec: ProtocolSpec, true_tags) -> np.ndarray:
    """Final row of the ideal-gate circuit whose tag readouts read ``true_tags``, each branch renormalized as ``collapse`` does it."""
    rows = conversion_input(spec.n_photons)[None]
    for iteration, tag in enumerate(true_tags, start=1):
        branches = _tag_branches(_run_gates(rows, None, _round_elements(spec.n_photons, iteration), CNOT)[0])
        weights = row_norms2(branches)[:, 0]
        if tag not in range(len(weights)) or weights[tag] <= NORM_TOL**2:
            raise ValueError("impossible outcome")
        rows = _standardize(spec, branches[tag] / np.sqrt(weights[tag]), np.array([tag]))
    return rows[0]


def _cnot_count(elements) -> int:
    return sum(el[0] == "cnot" for el in elements)


def composite_fidelity_report() -> list[dict]:
    """Products of the per-gate fidelity COMPOSITE_GATE_FIDELITY for each conversion scenario.

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
                     "product_suffix": COMPOSITE_GATE_FIDELITY ** suffix,
                     "product_full": COMPOSITE_GATE_FIDELITY ** full})
    return rows
