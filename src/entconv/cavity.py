"""Input-output response of the emitter-resonator unit.

An L-polarized photon meeting the spin in |-> drives the coupled transition
and reflects with the loaded-resonator coefficient; every other photon-spin
combination sees the bare-resonator coefficient, which has unit modulus at
any detuning.  A sign flip on the photon output path is folded into the
conditional map, so the resonant strong-coupling limit is the conditional
pi phase diag(1, 1, 1, -1) over the joint basis (R+, R-, L+, L-).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CavityParams:
    """Physical rates and angular frequencies, all in GHz.

    ``g`` is the emitter-resonator coupling, ``kappa`` the resonator damping
    rate, ``gamma`` the emitter dipolar decay rate.  ``g = 0`` describes an
    uncoupled emitter (used for consistency checks); kappa and gamma must be
    strictly positive.  A field may also be an array: the fields broadcast
    against each other to a grid of parameter sets, and every function of a
    ``CavityParams`` then returns one value per set.
    """

    g: float
    kappa: float
    gamma: float
    omega_c: float = 0.0
    omega_0: float = 0.0
    omega_p: float = 0.0

    def __post_init__(self) -> None:
        fields = (self.g, self.kappa, self.gamma, self.omega_c, self.omega_0, self.omega_p)
        if not all(np.isfinite(x).all() for x in fields):
            raise ValueError("resonator parameters must be finite")
        if np.any(np.less_equal(self.kappa, 0)) or np.any(np.less_equal(self.gamma, 0)):
            raise ValueError("kappa and gamma must be strictly positive")
        if np.any(np.less(self.g, 0)):
            raise ValueError("g must be nonnegative")

    @classmethod
    def from_ratios(cls, g_over_kappa: float, g_over_gamma: float, g: float = 1.0) -> "CavityParams":
        """Resonant parameter set realizing the given coupling ratios (arrays give a grid)."""
        if np.any(np.less_equal(g_over_kappa, 0)) or np.any(np.less_equal(g_over_gamma, 0)):
            raise ValueError("coupling ratios must be positive")
        return cls(g=g, kappa=g / g_over_kappa, gamma=g / g_over_gamma)


@np.errstate(all="ignore")
def reflection_coefficient(p: CavityParams) -> complex:
    """Reflection seen by the coupled polarization-spin component.

    At resonance this reduces to (g^2 - kappa*gamma/4) / (g^2 + kappa*gamma/4),
    approaching +1 once g^2 dominates kappa*gamma and matching the bare
    response -1 when g = 0.
    """
    dc = 1j * (p.omega_c - p.omega_p)
    d0 = 1j * (p.omega_0 - p.omega_p)
    return ((dc - p.kappa / 2) * (d0 + p.gamma / 2) + p.g**2) / (
        (dc + p.kappa / 2) * (d0 + p.gamma / 2) + p.g**2
    )


@np.errstate(all="ignore")
def empty_reflection(p: CavityParams) -> complex:
    """Bare-resonator reflection; a pure phase (unit modulus) for every detuning."""
    dc = 1j * (p.omega_c - p.omega_p)
    return (dc - p.kappa / 2) / (dc + p.kappa / 2)


# diagonal of the ideal conditional map over the joint basis (R+, R-, L+, L-)
IDEAL_BOUNCE = np.array((1.0, 1.0, 1.0, -1.0), dtype=np.complex128)
IDEAL_BOUNCE.setflags(write=False)

_NOT_FINITE = "resonator response is not finite at these parameters"


def spin_photon_map(p: CavityParams, ideal: bool) -> np.ndarray:
    """Diagonal of the conditional reflection map over (R+, R-, L+, L-), output-path sign flip folded in.

    Ideal: R components and L+ pass unchanged, L- flips sign.  Realistic: the
    sign-flipped bare response -r0 multiplies R+, R- and L+, and the
    sign-flipped loaded response -r lands on L-, so the map converges to the
    ideal conditional phase as g^2/(kappa*gamma) grows.  The diagonal is
    non-unitary for finite coupling; the missing norm is photon loss.
    The diagonal has shape (..., 4), leading axes the grid axes of ``p``, and
    is read-only.  Parameters so extreme that a response overflows or
    divides by zero raise ``ValueError``.
    """
    if ideal:
        return IDEAL_BOUNCE
    try:
        r, r0 = reflection_coefficient(p), empty_reflection(p)
    except ArithmeticError as err:   # a single parameter set computes in Python floats, which raise
        raise ValueError(_NOT_FINITE) from err
    if not (np.isfinite(r).all() and np.isfinite(r0).all()):
        raise ValueError(_NOT_FINITE)
    factors = np.stack(np.broadcast_arrays(-r0, -r0, -r0, -r), axis=-1)
    factors.setflags(write=False)
    return factors
