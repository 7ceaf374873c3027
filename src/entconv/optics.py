"""Fixed linear elements: wave plates and the spin rotation pulse.

Polarizing beam splitters and optical switches are routing bookkeeping only
(which photon visits the resonator) and never carry an amplitude factor, so
they do not appear here.  The sign flip on a photon's output path is folded
into the resonator map (``cavity.spin_photon_map``).
"""

from __future__ import annotations

import numpy as np

_SQRT2 = np.sqrt(2.0)

# (R, L) basis: R -> (R+L)/sqrt2, L -> (R-L)/sqrt2
QWP = np.array([[1, 1], [1, -1]], dtype=np.complex128) / _SQRT2
# (R, L) basis: R <-> L
HWP = np.array([[0, 1], [1, 0]], dtype=np.complex128)
# (control, target) basis, control the more significant bit: HWP on the target where the control is L
CNOT = np.kron(np.diag([1, 0]), np.eye(2)) + np.kron(np.diag([0, 1]), HWP)
# (+, -) basis: pi/2 microwave pulse
SPIN_HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / _SQRT2

