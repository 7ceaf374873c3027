"""Dense complex state vectors for small photonic polarization registers.

A register holds up to eight polarization qubits plus an optional electron
spin qubit.  The basis index convention is fixed package-wide: photon 1
occupies the most significant bit, the spin (when present) the least
significant bit.  R and |+> map to bit value 0, L and |-> to bit value 1.

States are immutable; every operation returns a new state.  Normalization
happens only at measurement collapse and explicit ``normalized()`` calls, so
non-unitary maps visibly shrink the norm and the shrinkage can be read off as
loss.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence, Union

import numpy as np

MAX_PHOTONS = 8
NORM_TOL = 1e-12

SPIN = "spin"

Site = Union[int, str]


class Pol(Enum):
    """Circular polarization basis; R indexed 0, L indexed 1."""

    R = 0
    L = 1


class Spin(Enum):
    """Electron spin ground-state basis; plus indexed 0."""

    PLUS = 0
    MINUS = 1


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Amplitude vector over ``n_photons`` polarization qubits and an optional spin."""

    n_photons: int
    has_spin: bool
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not 1 <= self.n_photons <= MAX_PHOTONS:
            raise ValueError(f"register must hold 1..{MAX_PHOTONS} photons, got {self.n_photons}")
        amps = np.array(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.dim,):
            raise ValueError(f"amplitude vector must have length {self.dim}, got shape {amps.shape}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return (1 << self.n_photons) * (2 if self.has_spin else 1)

    def same_shape(self, other: "QuantumState") -> bool:
        return self.n_photons == other.n_photons and self.has_spin == other.has_spin

    def site_bit(self, site: Site) -> int:
        """Bit position of a site; photons are numbered 1..n starting at the MSB."""
        if site == SPIN:
            if not self.has_spin:
                raise ValueError("register has no spin")
            return 0
        if not isinstance(site, int) or isinstance(site, bool) or not 1 <= site <= self.n_photons:
            raise ValueError(f"site out of range: {site!r}")
        return self.n_photons - site + (1 if self.has_spin else 0)

    def norm2(self) -> float:
        return float(row_norms2(self.amplitudes))

    def normalized(self) -> "QuantumState":
        n2 = self.norm2()
        if n2 <= NORM_TOL**2:
            raise ValueError("null state")
        return QuantumState(self.n_photons, self.has_spin, self.amplitudes / math.sqrt(n2))


@dataclass(frozen=True)
class MeasurementRecord:
    """One projective readout: branch probability is taken before renormalization."""

    observable: str
    outcome: str
    probability: float


def make_basis_state(pols: Sequence[Pol], spin: Spin | None = None) -> QuantumState:
    """Unit amplitude on one computational basis vector."""
    pols = list(pols)
    if not pols:
        raise ValueError("empty register")
    if len(pols) > MAX_PHOTONS:
        raise ValueError(f"register too large (max {MAX_PHOTONS} photons)")
    has_spin = spin is not None
    idx = 0
    for p in pols:
        idx = (idx << 1) | Pol(p).value
    if has_spin:
        idx = (idx << 1) | Spin(spin).value
    amps = np.zeros((1 << len(pols)) * (2 if has_spin else 1), dtype=np.complex128)
    amps[idx] = 1.0
    return QuantumState(len(pols), has_spin, amps)


def ket(pol_string: str, spin: Spin | None = None) -> QuantumState:
    """Basis state from a polarization string such as ``"RLR"``."""
    return make_basis_state([Pol[c] for c in pol_string], spin)


def superpose(terms: Iterable[tuple[QuantumState, complex]]) -> QuantumState:
    """Normalized linear combination of same-shape states."""
    terms = list(terms)
    if not terms:
        raise ValueError("empty superposition")
    first = terms[0][0]
    acc = np.zeros(first.dim, dtype=np.complex128)
    for state, coeff in terms:
        if not first.same_shape(state):
            raise ValueError("mismatched register shapes")
        acc = acc + complex(coeff) * state.amplitudes
    return QuantumState(first.n_photons, first.has_spin, acc).normalized()


def apply_single_qubit(state: QuantumState, site: Site, matrix: np.ndarray) -> QuantumState:
    """Apply a 2x2 map on one tensor factor; norm is preserved iff the map is unitary."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.shape != (2, 2):
        raise ValueError("single-qubit map must be 2x2")
    return QuantumState(state.n_photons, state.has_spin, apply_rows(state.amplitudes, (state.site_bit(site),), m.T))


def apply_controlled(state: QuantumState, control: Site, target: Site, matrix: np.ndarray) -> QuantumState:
    """Apply ``matrix`` to ``target`` on branches where ``control`` is L (photon) or minus (spin)."""
    if control == target:
        raise ValueError("control and target must differ")
    m = np.asarray(matrix, dtype=np.complex128)
    if m.shape != (2, 2):
        raise ValueError("controlled map must be 2x2")
    op = np.kron(np.diag([1, 0]), np.eye(2)) + np.kron(np.diag([0, 1]), m.T)
    amps = apply_rows(state.amplitudes, (state.site_bit(control), state.site_bit(target)), op)
    return QuantumState(state.n_photons, state.has_spin, amps)


# Row forms: ``amps`` holds one amplitude vector per row, shape (..., dim), so
# a batch of trials runs as one array; a single state takes the same arithmetic.


def row_photons(amps: np.ndarray) -> int:
    """Qubits in each row of an amplitude array: the photons of a photons-only row."""
    return amps.shape[-1].bit_length() - 1


@functools.lru_cache(maxsize=None)
def _row_axes(n: int, bits: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Axis order moving ``bits`` of a (1, rows, 2, ..., 2) tensor last (axis n + 1 - b holds bit b); its inverse."""
    order = (0, 1) + tuple(n + 1 - b for b in reversed(range(n)) if b not in bits) + tuple(n + 1 - b for b in bits)
    return order, tuple(np.argsort(order))


def apply_rows(amps: np.ndarray, bits, op: np.ndarray) -> np.ndarray:
    """Apply ``op``, shape (..., 2**k, 2**k), to basis bits ``bits`` of every row: shape op.shape[:-2] + amps.shape.

    The first listed bit is the most significant bit of ``op``'s index.  Each
    row multiplies ``op`` from the left, so a map ``m`` that acts on column
    vectors is passed as ``m.T``.  The leading axes of ``op`` (readouts, grid
    points) come out in front of the rows.
    """
    n = row_photons(amps)
    order, back = _row_axes(n, tuple(bits))
    psi = amps.reshape((1, -1) + (2,) * n).transpose(order)
    out = (psi.reshape(-1, op.shape[-1]) @ op).reshape((-1,) + psi.shape[1:])   # leading axes of op flattened
    return out.transpose(back).reshape(op.shape[:-2] + amps.shape)


def row_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a_i|b_i> of every row pair; the same BLAS dot product that ``np.vdot`` takes."""
    return np.matmul(a.conj()[..., None, :], b[..., :, None])[..., 0, 0]


def row_norms2(amps: np.ndarray) -> np.ndarray:
    """Squared norm of every row."""
    return row_inner(amps, amps).real


def inner(a: QuantumState, b: QuantumState) -> complex:
    """Inner product <a|b>; conjugate-linear in the first argument."""
    if not a.same_shape(b):
        raise ValueError("mismatched register shapes")
    return complex(row_inner(a.amplitudes, b.amplitudes))


def choose_branch(probs, rng: np.random.Generator | None = None, forced=None) -> np.ndarray:
    """Readout branch index of each row from the unnormalized branch weights ``probs[k]``, shape (m, ...).

    ``forced`` picks the branch of every row.  Otherwise each row takes one
    ``rng`` draw, in row order, scales it by the row's total weight and picks
    the first branch whose cumulative weight exceeds it; a draw that rounds
    up to the total takes the last weighted branch.  A branch of weight at
    most ``NORM_TOL**2`` is an impossible outcome.
    """
    probs = np.asarray(probs, dtype=float)
    if isinstance(forced, (Pol, Spin)):
        forced = forced.value
    if forced is not None:
        if forced not in range(len(probs)):
            raise ValueError(f"cannot interpret forced outcome {forced!r}")
        k = np.full(probs.shape[1:], int(forced))
    elif rng is None:
        raise ValueError("rng required when no outcome is forced")
    else:
        acc = list(itertools.accumulate(probs))   # the sequential partial sums np.cumsum takes
        draw = rng.random(probs.shape[1:]) * acc[-1]
        k = sum((a <= draw for a in acc[:-1]), np.zeros(probs.shape[1:], int))
    empty = probs <= NORM_TOL**2
    if empty.any():   # with every branch weighted, no row can sit on an empty one
        if forced is None:
            k = np.minimum(k, len(probs) - 1 - np.argmax(probs[::-1] > 0, axis=0))
        if np.take_along_axis(empty, k[None], 0).any():
            raise ValueError("impossible outcome")
    return k


def measure_site(
    state: QuantumState,
    site: Site,
    basis: np.ndarray,
    labels: tuple[str, str] = ("0", "1"),
    rng: np.random.Generator | None = None,
    forced=None,
) -> tuple[MeasurementRecord, QuantumState]:
    """Projective measurement of one site in an orthonormal two-vector basis.

    ``basis`` holds the two basis kets as rows.  The outcome is sampled from
    ``rng`` unless ``forced`` picks a branch.  The record carries the branch
    probability before renormalization (for a shrunken state the two
    probabilities sum to the state's squared norm); the returned state is the
    collapsed, renormalized branch.
    """
    u = np.asarray(basis, dtype=np.complex128)
    if u.shape != (2, 2):
        raise ValueError("basis must be a pair of 2-vectors")
    if not np.allclose(u.conj() @ u.T, np.eye(2), atol=NORM_TOL):
        raise ValueError("basis not orthonormal")
    # rows of u.conj() are the measurement bras: rotate the site into the basis
    rotated = apply_single_qubit(state, site, u.conj())
    bit = state.site_bit(site)
    site_vals = (np.arange(state.dim) >> bit) & 1
    probs = [float(np.sum(np.abs(rotated.amplitudes[site_vals == k]) ** 2)) for k in (0, 1)]
    k = int(choose_branch(probs, rng, forced))
    amps = rotated.amplitudes.copy()
    amps[site_vals != k] = 0.0
    collapsed = QuantumState(state.n_photons, state.has_spin, amps).normalized()
    collapsed = apply_single_qubit(collapsed, site, u.T)
    observable = "spin" if site == SPIN else f"photon{site}"
    return MeasurementRecord(observable, labels[k], probs[k]), collapsed


def measure_spin(
    state: QuantumState,
    rng: np.random.Generator | None = None,
    forced: Spin | int | None = None,
) -> tuple[MeasurementRecord, QuantumState]:
    """Measure the spin in its computational (+/-) basis."""
    return measure_site(state, SPIN, np.eye(2), labels=("plus", "minus"), rng=rng, forced=forced)


def attach_spin(state: QuantumState, spin_amplitudes: np.ndarray) -> QuantumState:
    """Tensor a spin qubit onto a photons-only register (spin becomes the LSB)."""
    if state.has_spin:
        raise ValueError("register already has a spin")
    vec = np.asarray(spin_amplitudes, dtype=np.complex128).reshape(2)
    return QuantumState(state.n_photons, True, np.kron(state.amplitudes, vec))


def discard_spin(state: QuantumState) -> QuantumState:
    """Drop a spin that is in a definite basis state (e.g. right after collapse)."""
    if not state.has_spin:
        raise ValueError("register has no spin")
    cols = state.amplitudes.reshape(-1, 2)
    weights = np.sum(np.abs(cols) ** 2, axis=0)
    keep = int(np.argmax(weights))
    if weights[1 - keep] > NORM_TOL:
        raise ValueError("spin still entangled with photons")
    return QuantumState(state.n_photons, False, cols[:, keep].copy())
