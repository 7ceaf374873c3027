"""Element-by-element oracle of the resonator-bounce CNOT on dense operators.

The register is the photons plus the electron spin: photon 1 at the most
significant bit, the spin at the least.  Every element of the gate is one
full square matrix built with ``np.kron`` and applied by a matrix-vector
product, so the replay shares no arithmetic with ``qstate.apply_rows``.

``classify`` is the physical receiver: it bins a drawn quadrature value by
the thresholds, which the runtime never does.
"""

import numpy as np

from entconv.optics import HWP, QWP, SPIN_HADAMARD

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
