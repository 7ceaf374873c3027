"""Element-by-element oracle of the resonator-bounce CNOT on dense operators.

The register is the photons plus the electron spin: photon 1 at the most
significant bit, the spin at the least.  Every element of the gate is one
full square matrix built with ``np.kron`` and applied by a matrix-vector
product, so the replay shares no arithmetic with ``qstate.apply_rows``.

``classify`` is the physical receiver: it bins a drawn quadrature value by
the thresholds, which the runtime never does.

``branch_table`` is the ideal-gate ensemble table enumerated history by
history, one amplitude row per history, where the runtime carries one
density matrix.  ``realistic_table`` enumerates the readout histories of a
realistic-gate ensemble the same way, under the rule the trajectory sampler
follows, with every gate a pair of dense operators from ``readout_branches``.
"""

import numpy as np

from entconv.cavity import spin_photon_map
from entconv.optics import CNOT, HWP, QWP, SPIN_HADAMARD
from entconv.protocols import _receiver, _run_gates, circuit_wiring, conversion_input, recovery_sequence

PROJECTORS = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))   # onto bit value 0 and 1
SPIN_READY = np.array([1.0, 1.0]) / np.sqrt(2.0)

# bounce diagonal over (R+, R-, L+, L-) in the strong-coupling limit: only |L>|-> flips sign
IDEAL_BOUNCE = np.array((1.0, 1.0, 1.0, -1.0), dtype=np.complex128)
IDEAL_BOUNCE.setflags(write=False)


def embed(m, above: int, below: int) -> np.ndarray:
    """``m`` on one qubit with ``above`` qubits more significant and ``below`` less: a dense matrix."""
    return np.kron(np.kron(np.eye(1 << above), m), np.eye(1 << below))


def readout_branches(amps, control: int, target: int, factors) -> np.ndarray:
    """Photon amplitudes at the plus and minus spin readout, unnormalized and before feed-forward.

    ``factors`` is the bounce diagonal over (R+, R-, L+, L-).  The target
    bounces between quarter-wave plates, the control between spin Hadamards.
    """
    n = amps.size.bit_length() - 1

    def photon(p, m):
        return embed(m, p - 1, n - p + 1)

    def bounce(p):
        return sum(factors[2 * b + s] * photon(p, PROJECTORS[b]) @ embed(PROJECTORS[s], n, 0)
                   for b in (0, 1) for s in (0, 1))

    work = np.kron(amps, SPIN_READY)
    for element in (photon(target, QWP), bounce(target), photon(target, QWP),
                    embed(SPIN_HADAMARD, n, 0), bounce(control), embed(SPIN_HADAMARD, n, 0)):
        work = element @ work
    return work.reshape(-1, 2).T


def replay_cnot(amps, control: int, target: int, factors, rng=None, forced=None):
    """The gate run element by element: readout, corrected photons, readout weight, squared norm before readout.

    Without ``forced``, one ``rng`` draw scaled by the total weight picks the
    minus readout when it reaches the plus weight.
    """
    n = amps.size.bit_length() - 1
    branches = readout_branches(amps, control, target, factors)
    weights = [float(np.sum(np.abs(b) ** 2)) for b in branches]
    s = forced if forced is not None else int(rng.random() * (weights[0] + weights[1]) >= weights[0])
    photons = branches[s] / np.sqrt(weights[s])
    if s == 1:   # feed-forward: a half-wave plate on the target
        photons = embed(HWP, target - 1, n - target) @ photons
    return s, photons, weights[s], weights[0] + weights[1]


def dense_gate(n: int, control: int, target: int, factors) -> tuple[np.ndarray, np.ndarray]:
    """The gate's plus and minus readout as dense photon operators, the minus one with its feed-forward half-wave plate.

    Column j is ``readout_branches`` of basis state j: the unnormalized branches of ``replay_cnot``.
    """
    plus, minus = np.stack([readout_branches(e, control, target, factors) for e in np.eye(1 << n)], axis=-1)
    return plus, embed(HWP, target - 1, n - target) @ minus


def l_count(n: int) -> np.ndarray:
    """Number of L photons (bit value 1) of each basis index, counted from its binary digits."""
    return np.array([bin(i).count("1") for i in range(1 << n)])


def classify(model, x):
    """Tag of the decision cell of ``model`` (a ``kerr.HomodyneModel``) that each quadrature value ``x`` lands in."""
    cell = np.searchsorted(np.asarray(model.thresholds), x, side="left")
    return np.asarray(model.tags)[cell]


# classified tag -> the outcome it declares, as the paper reads each circuit out
DECLARED = {3: {1: "W"}, 4: {1: "W", 3: "W"}, 5: {1: "W", 3: "Dicke"}}


def branch_table(spec):
    """Exact (outcome class, rounds used) probabilities of an ideal-gate ensemble, one amplitude row per history.

    A history is the sequence of true and classified tags of every round.
    Each round runs the round's circuit on every row, splits each row by
    true tag (the basis states with that many L photons) and each split by
    classified tag, scaled by the root of the chance to read the one as the
    other: the true tag alone for ideal readout, every entry of the true
    tag's row of the receiver's confusion matrix for gaussian readout.  A
    history whose classified tag declares ends in its cell; the rest run
    on, and the weight left after the last round fails.  Four photons have
    no recovery, so their rows stay as they are.  No row is dropped or
    merged, and no density matrix is formed.
    """
    n, rounds = spec.n_photons, spec.max_iterations
    declared = DECLARED[n]
    receiver = _receiver(spec)
    l_photons = l_count(n)
    cells = {(cls, m): 0.0 for cls in dict.fromkeys(declared.values()) for m in range(1, rounds + 1)}
    rows = conversion_input(n)[None]
    for m in range(1, rounds + 1):
        if m == 1 or n != 4:
            rows, *_ = _run_gates(rows, None, circuit_wiring(n) if m == 1 else recovery_sequence(n), CNOT)
        carried = [np.zeros((0, 1 << n))]
        for true in range(n + 1):
            split = np.where(l_photons == true, rows, 0.0)
            # (classified tag, chance) pairs; a gaussian receiver is (confusion, tags)
            reads = [(true, 1.0)] if receiver is None else zip(receiver[1], receiver[0][true])
            for tag, chance in reads:
                history = split * np.sqrt(chance)
                if tag in declared:
                    cells[(declared[tag], m)] += float(np.sum(np.abs(history) ** 2))
                else:
                    carried.append(history)
        rows = np.concatenate(carried)
    cells[("failed_max_iter", rounds)] = float(np.sum(np.abs(rows) ** 2))
    return cells


IMPOSSIBLE = 1e-24   # a branch weight no ensemble of feasible size reads out: dropped, not renormalized


def realistic_table(spec):
    """Exact (outcome class, rounds used) probabilities of a realistic-gate ensemble, one amplitude row per readout history.

    The rule is the trajectory sampler's.  A gate's spin readout s has the
    chance ||K_s phi||^2 / (||K_0 phi||^2 + ||K_1 phi||^2) on the
    normalized row phi, with K_s from ``dense_gate``, and its child K_s phi
    is renormalized.  The true tag is drawn by branch weight, the basis
    states with that many L photons, and renormalized.  The classified tag
    is the true tag for ideal readout, and for gaussian readout is drawn
    from the true tag's row of the receiver's confusion matrix.  A history
    whose classified tag declares ends in its cell.  The others end as
    ``failed_max_iter`` in the last round; before it they end as
    ``failed_no_recovery`` at four photons, which have no recovery, and run
    the recovery sequence otherwise.  A branch of weight at most
    ``IMPOSSIBLE`` is dropped.
    """
    n, rounds = spec.n_photons, spec.max_iterations
    declared = DECLARED[n]
    receiver = _receiver(spec)
    factors = spin_photon_map(spec.params)
    tag_of = l_count(n)
    plates = {"hwp": HWP, "qwp": QWP}
    cells = {}

    def book(cell, p):
        cells[cell] = cells.get(cell, 0.0) + float(np.sum(p))

    def children(probs, branches):
        """Each branch of each history, its chance times the history's, renormalized; impossible ones dropped."""
        weights = [np.sum(np.abs(b) ** 2, axis=1) for b in branches]
        total = sum(weights)
        kept = [w > IMPOSSIBLE for w in weights]
        return ([(probs * w / total)[k] for w, k in zip(weights, kept)],
                [b[k] / np.sqrt(w[k])[:, None] for b, w, k in zip(branches, weights, kept)])

    probs, rows = np.ones(1), conversion_input(n)[None]
    for m in range(1, rounds + 1):
        for el in circuit_wiring(n) if m == 1 else recovery_sequence(n):
            if el[0] == "cnot":
                p, r = children(probs, [rows @ k.T for k in dense_gate(n, el[1], el[2], factors)])
                probs, rows = np.concatenate(p), np.concatenate(r)
            else:
                rows = rows @ embed(plates[el[0]], el[1] - 1, n - el[1]).T
        p, r = children(probs, [np.where(tag_of == k, rows, 0.0) for k in range(n + 1)])
        carried_probs, carried_rows = [np.zeros(0)], [np.zeros((0, 1 << n))]
        for true in range(n + 1):
            reads = [(true, 1.0)] if receiver is None else zip(receiver[1], receiver[0][true])
            for tag, chance in reads:
                if tag in declared:
                    book((declared[tag], m), p[true] * chance)
                elif m == rounds:
                    book(("failed_max_iter", m), p[true] * chance)
                elif n == 4:
                    book(("failed_no_recovery", m), p[true] * chance)
                elif chance > 0:
                    carried_probs.append(p[true] * chance)
                    carried_rows.append(r[true])
        probs, rows = np.concatenate(carried_probs), np.concatenate(carried_rows)
        if not probs.size:
            break
    return cells
