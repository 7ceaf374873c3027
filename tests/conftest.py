"""Shared oracle helpers: expected vectors built by independent index arithmetic."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from entconv.kerr import _tag_branches
from entconv.qstate import row_norms2


def basis_index(term: str, spin_bit: int | None = None) -> int:
    """Index of a basis ket, photon 1 at the MSB, optional spin at the LSB."""
    idx = 0
    for ch in term:
        idx = (idx << 1) | (1 if ch == "L" else 0)
    if spin_bit is not None:
        idx = (idx << 1) | spin_bit
    return idx


def expected_vector(n_photons: int, terms: dict, spin_slots: bool = False) -> np.ndarray:
    """Dense amplitude vector from {term: amplitude} with independent indexing.

    Keys are either polarization strings (photons only) or ``(term, spin_bit)``
    pairs when ``spin_slots`` is set.
    """
    dim = (1 << n_photons) * (2 if spin_slots else 1)
    vec = np.zeros(dim, dtype=np.complex128)
    for key, amp in terms.items():
        if spin_slots:
            term, sbit = key
            vec[basis_index(term, sbit)] += amp
        else:
            vec[basis_index(key)] += amp
    return vec


def uniform_vector(n_photons: int, terms: list[str]) -> np.ndarray:
    amp = 1.0 / np.sqrt(len(terms))
    return expected_vector(n_photons, {t: amp for t in terms})


def class_frequency(counts: dict, outcome_class: str, trials: int) -> float:
    """Share of ``trials`` that a ``monte_carlo`` count table books under ``outcome_class``, in any round."""
    return sum(c for (cls, _), c in counts.items() if cls == outcome_class) / trials


def tag_split(row):
    """Unnormalized branch and weight of every tag an amplitude row holds, split as ``read_rows`` splits a row before its readout."""
    branches = _tag_branches(row)
    weights = row_norms2(branches)
    held = [k for k in range(len(weights)) if weights[k] > 0]
    return {k: branches[k] for k in held}, {k: float(weights[k]) for k in held}


class Uniforms:
    """An ``rng`` that hands out the given uniforms in order, whatever the shapes asked for, as ``Generator.random`` does.

    A readout takes one uniform per trial: 0.0 reads a trial's first
    weighted branch and ``LAST_BRANCH`` its last.  Asking for more uniforms
    than remain raises ``ValueError``.
    """

    def __init__(self, uniforms):
        self.left = iter(uniforms)

    def random(self, shape):
        return np.fromiter(self.left, float, count=int(np.prod(shape))).reshape(shape)


LAST_BRANCH = 1.0 - 2.0**-53


def edge_draws(branch: int) -> Uniforms:
    """Endless uniforms reading every readout's first weighted branch (0) or its last (1), the plus or minus spin of a gate."""
    return Uniforms(itertools.repeat((0.0, LAST_BRANCH)[branch]))


@pytest.fixture
def rng():
    return np.random.default_rng(np.random.SeedSequence(20260810))
