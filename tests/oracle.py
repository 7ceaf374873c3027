"""Element-by-element oracle of the resonator-bounce CNOT on dense operators.

The register is the photons plus the electron spin: photon 1 at the most
significant bit, the spin at the least.  Every element of the gate is one
full square matrix built with ``np.kron`` and applied by a matrix-vector
product, so the replay shares no arithmetic with ``qstate.apply_rows``.

``classify`` is the physical receiver: it bins a drawn quadrature value by
the thresholds, which the runtime never does.

``branch_table`` is the ideal-gate ensemble table enumerated history by
history, one amplitude row per history, where the runtime carries one
density matrix.
"""

import numpy as np

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
    l_photons = np.array([bin(i).count("1") for i in range(1 << n)])   # bit value 1 is L
    cells = {(cls, m): 0.0 for cls in dict.fromkeys(declared.values()) for m in range(1, rounds + 1)}
    rows = conversion_input(n)[None]
    for m in range(1, rounds + 1):
        if m == 1 or n != 4:
            rows, *_ = _run_gates(rows, circuit_wiring(n) if m == 1 else recovery_sequence(n), CNOT)
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
