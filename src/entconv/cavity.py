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
    def from_ratios(cls, g_over_kappa: float, g_over_gamma: float) -> "CavityParams":
        """Resonant parameter set at g = 1 realizing the given coupling ratios (arrays give a grid)."""
        if np.any(np.less_equal(g_over_kappa, 0)) or np.any(np.less_equal(g_over_gamma, 0)):
            raise ValueError("coupling ratios must be positive")
        return cls(g=1.0, kappa=1.0 / g_over_kappa, gamma=1.0 / g_over_gamma)


def _quotient(a, b, c, d) -> np.ndarray:
    """(a + ib) / (c + id) by Smith's method, in the branch order of CPython's complex division."""
    by_imag = np.abs(c) < np.abs(d)
    ratio = np.where(by_imag, c / d, d / c)
    denom = np.where(by_imag, c * ratio + d, c + d * ratio)
    out = np.empty(np.shape(denom), dtype=np.complex128)
    out.real = np.where(by_imag, a * ratio + b, a + b * ratio) / denom
    out.imag = np.where(by_imag, b * ratio - a, b - a * ratio) / denom
    return out[()]


def _detuning(omega, p: CavityParams) -> np.ndarray:
    """``omega - omega_p`` as the imaginary part of ``1j * (omega - omega_p)``: 0.0 + x, so -0.0 reads as 0.0."""
    return 0.0 + (np.asarray(omega, dtype=float) - np.asarray(p.omega_p, dtype=float))


@np.errstate(all="ignore")
def reflection_coefficient(p: CavityParams) -> complex:
    """Reflection seen by the coupled polarization-spin component.

    At resonance this reduces to (g^2 - kappa*gamma/4) / (g^2 + kappa*gamma/4),
    approaching +1 once g^2 dominates kappa*gamma and matching the bare
    response -1 when g = 0.  A parameter set and a grid compute alike, by
    CPython's complex arithmetic written out on float arrays, signed zeros included.
    """
    k, c = np.asarray(p.kappa, dtype=float) / 2, np.asarray(p.gamma, dtype=float) / 2
    g = np.asarray(p.g, dtype=float)
    dc, d0 = _detuning(p.omega_c, p), _detuning(p.omega_0, p)
    num = -k * c - dc * d0 + g * g, -k * d0 + dc * c + 0.0   # adding the real g^2 adds 0.0 to the imaginary part
    return _quotient(*num, k * c - dc * d0 + g * g, k * d0 + dc * c + 0.0)


@np.errstate(all="ignore")
def empty_reflection(p: CavityParams) -> complex:
    """Bare-resonator reflection; a pure phase (unit modulus) for every detuning."""
    k, dc = np.asarray(p.kappa, dtype=float) / 2, _detuning(p.omega_c, p)
    return _quotient(-k, dc, k, dc)


def spin_photon_map(p: CavityParams) -> np.ndarray:
    """Diagonal of the conditional reflection map over (R+, R-, L+, L-), output-path sign flip folded in.

    The sign-flipped bare response -r0 multiplies R+, R- and L+, and the
    sign-flipped loaded response -r lands on L-, so the map converges to the
    ideal conditional phase diag(1, 1, 1, -1) as g^2/(kappa*gamma) grows.
    The diagonal is non-unitary for finite coupling; the missing norm is
    photon loss.  It has shape (..., 4), leading axes the grid axes of
    ``p``, and is read-only.  Parameters so extreme that a response
    overflows or divides by zero raise ``ValueError``.
    """
    r, r0 = reflection_coefficient(p), empty_reflection(p)
    if not (np.isfinite(r).all() and np.isfinite(r0).all()):
        raise ValueError("resonator response is not finite at these parameters")
    factors = np.stack(np.broadcast_arrays(-r0, -r0, -r0, -r), axis=-1)
    factors.setflags(write=False)
    return factors
