"""Dense complex amplitude rows for small photonic polarization registers.

A register holds up to eight polarization qubits.  The basis index
convention is fixed package-wide: photon 1 occupies the most significant bit.
R maps to bit value 0, L to bit value 1.  This module alone maps photons to
bits: ``ket`` and ``label`` turn strings into indices and back, ``apply_rows``
takes photon numbers and ``l_photons`` counts the L photons of each index.

A state is a flat amplitude row of length 2**n, and every state the library
hands out is read-only.  Normalization happens only at readout collapse, so
non-unitary maps visibly shrink the norm and the shrinkage can be read off as
loss.
"""

from __future__ import annotations

import functools

import numpy as np

MAX_PHOTONS = 8
NORM_TOL = 1e-12


def frozen(row: np.ndarray) -> np.ndarray:
    """``row``, marked read-only."""
    row.setflags(write=False)
    return row


def ket(pol_string: str) -> np.ndarray:
    """Read-only basis row from a polarization string such as ``"RLR"``."""
    if not 1 <= len(pol_string) <= MAX_PHOTONS:
        raise ValueError(f"register must hold 1..{MAX_PHOTONS} photons, got {len(pol_string)}")
    for c in pol_string:
        if c not in "RL":
            raise ValueError(f"polarization must be R or L, got {c!r}")
    row = np.zeros(1 << len(pol_string), dtype=np.complex128)
    row[int(pol_string.replace("R", "0").replace("L", "1"), 2)] = 1.0
    return frozen(row)


def label(index: int, n: int) -> str:
    """Polarization string of basis index ``index`` of an n-photon row: the inverse of ``ket``."""
    return format(index, f"0{n}b").replace("0", "R").replace("1", "L")


@functools.lru_cache(maxsize=None)
def l_photons(n: int) -> np.ndarray:
    """Read-only number of L photons (bits of value 1) in each basis index of an n-photon row."""
    return frozen(sum((np.arange(1 << n) >> b) & 1 for b in range(n)))


# Row forms: ``amps`` holds one amplitude vector per row, shape (..., dim), so
# a batch of trials runs as one array; a single state takes the same arithmetic.


def row_photons(amps: np.ndarray) -> int:
    """Photons in each row of an amplitude array."""
    return amps.shape[-1].bit_length() - 1


@functools.lru_cache(maxsize=None)
def _row_axes(n: int, photons: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Axis order moving ``photons`` of a (1, rows, 2, ..., 2) tensor last (axis p + 1 holds photon p); its inverse."""
    if len(set(photons)) != len(photons) or not set(photons) <= set(range(1, n + 1)):
        raise ValueError(f"photons {photons} must be distinct and within 1..{n}")
    order = (0, 1) + tuple(p + 1 for p in range(1, n + 1) if p not in photons) + tuple(p + 1 for p in photons)
    return order, tuple(np.argsort(order))


def apply_rows(amps: np.ndarray, photons, op: np.ndarray) -> np.ndarray:
    """Apply ``op``, shape (..., 2**k, 2**k), to photons ``photons`` of every row: shape op.shape[:-2] + amps.shape.

    Photons are numbered from 1, as ``ket`` strings are read.  The first
    listed photon is the most significant bit of ``op``'s index.  Each
    row multiplies ``op`` from the left, so a map ``m`` that acts on column
    vectors is passed as ``m.T``.  The leading axes of ``op`` (readouts, grid
    points) come out in front of the rows.
    """
    n = row_photons(amps)
    order, back = _row_axes(n, tuple(photons))
    psi = amps.reshape((1, -1) + (2,) * n).transpose(order)
    out = (psi.reshape(-1, op.shape[-1]) @ op).reshape((-1,) + psi.shape[1:])   # leading axes of op flattened
    return out.transpose(back).reshape(op.shape[:-2] + amps.shape)


def row_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a_i|b_i> of every row pair; the same BLAS dot product that ``np.vdot`` takes."""
    return np.matmul(a.conj()[..., None, :], b[..., :, None])[..., 0, 0]


def row_norms2(amps: np.ndarray) -> np.ndarray:
    """Squared norm of every row."""
    return row_inner(amps, amps).real


def choose_branch(probs, rng) -> np.ndarray:
    """Readout branch index of each row from the unnormalized branch weights ``probs[k]``, shape (m, rows).

    Each row takes one draw of ``rng.random(rows)`` in row order, scales it
    by the row's total weight and picks the first branch whose cumulative
    weight exceeds it.  A branch of weight at most ``NORM_TOL**2`` is an
    impossible outcome.
    """
    if rng is None:
        raise ValueError("rng required: every readout is drawn with rng.random")
    probs = np.asarray(probs, dtype=float)
    acc = np.cumsum(probs, axis=0)
    # a uniform below 1 scales to below any total of at least the smallest normal
    # float, so some branch exceeds it; a smaller total holds only empty branches
    k = (acc[:-1] <= rng.random(probs.shape[1]) * acc[-1]).sum(axis=0)
    if (probs[k, np.arange(len(k))] <= NORM_TOL**2).any():
        raise ValueError("impossible outcome")
    return k


def held(at, size: int):
    """Mask of the rows, of ``size``, that trials ``at`` hold, and each trial's index into the held rows, in row order."""
    used = np.zeros(size, bool)
    used[at] = True
    return used, np.cumsum(used)[at] - 1


def collapse(branches: np.ndarray, at, rng):
    """Read out a batch of trials from the unnormalized branches of their rows, shape (m, rows, dim).

    Trial i holds row ``at[i]``; ``choose_branch`` picks its branch from that
    row's weights, in trial order, with a draw from ``rng.random``.  Returns
    each trial's branch index, the children (each chosen branch of each row
    once, as ``held`` keeps them, divided by the root of its weight), each
    trial's index into them and every branch weight, shape (m, rows).
    """
    weights = row_norms2(branches)
    k = choose_branch(weights[:, at], rng)
    used, at = held(k * weights.shape[1] + at, weights.size)
    children = branches.reshape(weights.size, -1)[used]
    return k, children / np.sqrt(weights.reshape(-1)[used])[:, None], at, weights
