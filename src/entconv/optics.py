"""Fixed linear elements: wave plates and the spin rotation pulse.

Polarizing beam splitters and optical switches are routing bookkeeping only
(which photon visits the resonator) and never carry an amplitude factor, so
they do not appear here.  The sign flip on a photon's output path is folded
into the resonator map (``cavity.spin_photon_map``).
"""

from __future__ import annotations

import numpy as np

from .qstate import SPIN, QuantumState, apply_single_qubit

_SQRT2 = np.sqrt(2.0)

# (R, L) basis: R -> (R+L)/sqrt2, L -> (R-L)/sqrt2
QWP = np.array([[1, 1], [1, -1]], dtype=np.complex128) / _SQRT2
# (R, L) basis: R <-> L
HWP = np.array([[0, 1], [1, 0]], dtype=np.complex128)
# (+, -) basis: pi/2 microwave pulse
SPIN_HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / _SQRT2


def qwp(state: QuantumState, photon: int) -> QuantumState:
    """Quarter-wave plate on one photon."""
    return apply_single_qubit(state, photon, QWP)


def hwp(state: QuantumState, photon: int) -> QuantumState:
    """Half-wave plate (polarization flip) on one photon."""
    return apply_single_qubit(state, photon, HWP)


def spin_hadamard(state: QuantumState) -> QuantumState:
    """Hadamard rotation of the spin qubit."""
    return apply_single_qubit(state, SPIN, SPIN_HADAMARD)
