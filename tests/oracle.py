"""Element-by-element oracle of the resonator-bounce CNOT on dense operators.

The register is the photons plus the electron spin: photon 1 at the most
significant bit, the spin at the least.  Every element of the gate is one
full square matrix built with ``np.kron`` and applied by a matrix-vector
product, so the replay shares no arithmetic with ``qstate.apply_rows``.

``classify`` is the physical receiver: it bins a drawn quadrature value by
the thresholds, which the runtime never does.

``history_tables`` walks every readout history of an ensemble, one
unnormalized amplitude row per history, where the runtime carries one
density matrix or samples trajectories.  It reads the walk two ways: the
trajectory sampler's renormalized chances, and the lossy instrument's
squared norms.
"""

import numpy as np

from entconv.cavity import spin_photon_map
from entconv.optics import HWP, QWP, SPIN_HADAMARD
from entconv.protocols import _receiver, circuit_wiring, conversion_input, ideal_tags, recovery_sequence

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


def dense_cnot(n: int, control: int, target: int) -> np.ndarray:
    """The ideal gate on n photons as a dense permutation matrix: the target flips where the control is L."""
    flipped = [i ^ (1 << (n - target)) if (i >> (n - control)) & 1 else i for i in range(1 << n)]
    return np.eye(1 << n)[:, flipped]


def l_count(n: int) -> np.ndarray:
    """Number of L photons (bit value 1) of each basis index, counted from its binary digits."""
    return np.array([bin(i).count("1") for i in range(1 << n)])


def classify(model, x):
    """Tag of the decision cell of ``model`` (a ``kerr.HomodyneModel``) that each quadrature value ``x`` lands in."""
    cell = np.searchsorted(np.asarray(model.thresholds), x, side="left")
    return np.asarray(model.tags)[cell]


# classified tag -> the outcome it declares, as the paper reads each circuit out
DECLARED = {3: {1: "W"}, 4: {1: "W", 3: "W"}, 5: {1: "W", 3: "Dicke"}}

IMPOSSIBLE = 1e-24   # a share of a history's weight no ensemble of feasible size reads out: dropped


def history_tables(spec):
    """Exact (outcome class, rounds used) probabilities of an ensemble, read two ways off one walk: (sampled, linear).

    The walk carries one unnormalized amplitude row per readout history: the
    spin readout of every gate, and the true and classified tag of every
    round.  Every element is a tuple of dense operators, one per readout:
    ``embed``'s plate, ``dense_cnot`` for an ideal gate, ``dense_gate``'s
    plus and minus pair for a realistic one.  A round runs its circuit on
    every row, splits each row by true tag (the basis states with that many
    L photons) and each split by classified tag, scaled by the root of the
    chance to read the one as the other: the true tag alone for ideal
    readout, every entry of the true tag's row of the receiver's confusion
    matrix for gaussian readout.  A branch of at most ``IMPOSSIBLE`` of its
    history's weight (squared norm) is dropped.

    ``sampled`` is the trajectory sampler's rule, which renormalizes at every
    readout: a branch's chance is its share of its siblings' summed weight.
    ``linear`` is the instrument's: a cell holds its histories' weight, and
    a round of realistic gates books the weight they lose as ``lost``.  A
    classified tag that declares ends its history in its cell.  With ideal
    readout, ``linear`` ends a true tag outside ``ideal_tags(n)`` as
    ``failed_leaked``.  Any other history ends as ``failed_max_iter`` in the
    last round, before it as ``failed_no_recovery`` where there is no
    recovery (four photons), and runs the recovery sequence otherwise.  Both
    tables start with the declaring cells by class, then round, and
    ``failed_max_iter``.
    """
    n, rounds = spec.n_photons, spec.max_iterations
    declared = DECLARED[n]
    receiver = _receiver(spec)
    realistic = spec.gate_mode == "realistic"
    factors = spin_photon_map(spec.params)
    plates = {"hwp": HWP, "qwp": QWP}

    def operators(el):
        if el[0] != "cnot":
            return (embed(plates[el[0]], el[1] - 1, n - el[1]),)
        return dense_gate(n, el[1], el[2], factors) if realistic else (dense_cnot(n, el[1], el[2]),)

    circuits = [[operators(el) for el in elements] for elements in (circuit_wiring(n), recovery_sequence(n))]
    sampled = {(cls, m): 0.0 for cls in dict.fromkeys(declared.values()) for m in range(1, rounds + 1)}
    sampled[("failed_max_iter", rounds)] = 0.0
    linear = dict(sampled)

    def weight(rows):
        return np.sum(np.abs(rows) ** 2, axis=1)

    def book(cells, cell, weights):
        if weights.size:
            cells[cell] = cells.get(cell, 0.0) + float(np.sum(weights))

    def branch(probs, live, rows, branches):
        """(sampled chance, still in ``linear``, row) of each history's kept branch, one triple per branch."""
        weights = [weight(b) for b in branches]
        total, parent = sum(weights), weight(rows)
        kept = [w > IMPOSSIBLE * parent for w in weights]
        return [(probs[k] * w[k] / total[k], live[k], b[k]) for b, w, k in zip(branches, weights, kept)]

    def end(tag, m):
        """The class a history read as ``tag`` in round ``m`` ends in; None while it runs on."""
        if tag in declared:
            return declared[tag]
        return "failed_max_iter" if m == rounds else None if recovery_sequence(n) else "failed_no_recovery"

    probs, live, rows = np.ones(1), np.ones(1, bool), conversion_input(n)[None]
    for m in range(1, rounds + 1):
        before = np.sum(weight(rows[live]))
        for ops in circuits[m > 1]:
            probs, live, rows = map(np.concatenate, zip(*branch(probs, live, rows, [rows @ k.T for k in ops])))
        if realistic:
            linear[("lost", m)] = float(before - np.sum(weight(rows[live])))
        carried = [(np.zeros(0), np.zeros(0, bool), np.zeros((0, 1 << n)))]
        splits = branch(probs, live, rows, [np.where(l_count(n) == k, rows, 0.0) for k in range(n + 1)])
        for true, (p, alive, r) in enumerate(splits):
            w = np.where(alive, weight(r), 0.0)
            leaked = receiver is None and true not in ideal_tags(n)
            for tag, chance in [(true, 1.0)] if receiver is None else zip(receiver[1], receiver[0][true]):
                if chance <= IMPOSSIBLE:
                    continue
                stop = end(tag, m)
                if stop:
                    book(sampled, (stop, m), p * chance)
                else:
                    carried.append((p * chance, alive & (not leaked), r * np.sqrt(chance)))
                if stop or leaked:
                    book(linear, ("failed_leaked" if leaked else stop, m), w * chance)
        probs, live, rows = map(np.concatenate, zip(*carried))
        if not probs.size:
            break
    return sampled, linear
