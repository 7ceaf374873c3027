"""Measurement-assisted two-photon CNOT built from two resonator bounces.

The target photon bounces first, sandwiched between quarter-wave plates that
turn the conditional pi phase into a spin-controlled polarization flip; the
control photon bounces second, sandwiched between spin Hadamards that copy
its polarization onto the spin.  Reading the spin out and applying a
feed-forward X on the target for the minus outcome leaves a deterministic
flip of the target wherever the control photon is L.
"""

from __future__ import annotations

import numpy as np

from .cavity import CavityParams, spin_photon_map
from .optics import CNOT, HWP, QWP, SPIN_HADAMARD
from .qstate import NORM_TOL, apply_rows, row_inner, row_norms2

SPIN_READY = np.array([1.0, 1.0], dtype=np.complex128) / np.sqrt(2.0)

# reference parameter set for the fidelity report, in GHz; the emitter decay
# rate comes in two readings (total vs zero-phonon-line emission)
BENCHMARK_G = 0.3
BENCHMARK_KAPPA = 26.0
BENCHMARK_GAMMA_TOTAL = 0.013
BENCHMARK_GAMMA_ZPL = 0.0004
TARGET_FIDELITY = {"plus": 0.996, "minus": 0.995}
BENCHMARK_TOLERANCE_PP = 0.5   # largest deviation from a target, in percentage points, that matches it


# K[c, (s, a, t)] = f[c, u] f[b, v] @ this over (u, b, v), f the bounce factors
# [photon bit, spin bit]; u and v are the spin bits at the control and target
# bounces, b the target bit between its QWPs.  It holds the spin Hadamards,
# SPIN_READY, the QWPs and the minus readout's feed-forward HWP.
_GATE_ELEMENTS = np.einsum(
    "su,uv,v,sab,bt->ubvsat", SPIN_HADAMARD, SPIN_HADAMARD, SPIN_READY, np.stack([QWP, HWP @ QWP]), QWP
).reshape(8, 8)


def _kraus(f: np.ndarray) -> np.ndarray:
    """``K[..., s, (c', t), (c, a)]``: readout s takes target t to a where the control is c = c'.

    For a fixed readout ``s`` the whole bounce-measure-correct sequence,
    feed-forward included, is one linear map ``K_s`` on the (control,
    target) pair, kept as a block-diagonal 4x4 that a row over (control,
    target) multiplies from the left; leading axes are those of the bounce
    diagonal ``f`` (``spin_photon_map``).  The spin starts in
    (|+> + |->)/sqrt2.  The element order is frozen: it is the unique
    arrangement of this family whose two readout branches match the direct
    controlled-flip gate after feed-forward (pinned by the regression tests).
    """
    lead = f.shape[:-1]
    f = f.reshape(lead + (2, 2))
    pairs = f[..., :, :, None, None] * f[..., None, None, :, :]   # [c, u, b, v]
    k = (pairs.reshape(lead + (2, 8)) @ _GATE_ELEMENTS).reshape(lead + (2, 2, 2, 2))   # [c, s, a, t]
    k = np.moveaxis(k, (-3, -1, -4, -2), (-4, -3, -2, -1))   # [s, t, c, a]
    return (k[..., :, None, :, :, :] * np.eye(2)[:, None, :, None]).reshape(lead + (2, 4, 4))


def _fidelities(params: CavityParams, inputs: np.ndarray) -> np.ndarray:
    """Fidelity of both readout branches for each two-photon input row: shape (..., 2, rows).

    Leading axes are the grid axes of ``params``.  Control is photon 2 and
    target photon 1, the layout the gate benchmark is defined for.  A branch
    with no weight left raises.
    """
    branches = apply_rows(inputs, (2, 1), _kraus(spin_photon_map(params)))
    probs = row_norms2(branches)
    if np.any(probs <= NORM_TOL**2):
        raise ValueError("branch extinguished")
    post = branches / np.sqrt(probs)[..., None]
    return np.abs(row_inner(post, apply_rows(inputs, (2, 1), CNOT))) ** 2


def _input_rows(input_mode: str) -> np.ndarray:
    """Two-photon input rows: the equal-weight superposition of the four basis states, or the four basis states."""
    if input_mode == "uniform":
        return np.full((1, 4), 0.5, dtype=np.complex128)
    if input_mode == "basis_average":
        return np.eye(4, dtype=np.complex128)
    raise ValueError(f"unknown input mode {input_mode!r}")


def fidelity_grid(gk_values, gg_values, input_mode: str = "uniform") -> np.ndarray:
    """Gate fidelity over a resonant coupling-ratio grid, indexed [g/kappa, g/gamma, spin outcome].

    The whole grid is one array pass: one ``CavityParams`` holds every
    (g/kappa, g/gamma) pair, and one gate compile and one matmul give every
    branch of every point.
    """
    gk = np.asarray(gk_values, dtype=float)[:, None]
    params = CavityParams.from_ratios(gk, np.asarray(gg_values, dtype=float))
    return _fidelities(params, _input_rows(input_mode)).mean(axis=-1)


def benchmark_report() -> dict[str, dict]:
    """Gate fidelity at the reference parameter set, all convention combinations.

    The decay rate is evaluated in both readings and the fidelity under both
    input conventions; each entry records the deviation from the target
    fidelities (99.6% plus / 99.5% minus) in percentage points and whether it
    falls within ``BENCHMARK_TOLERANCE_PP``.
    """
    report = {}
    for gamma_label, gamma in (("gamma_total", BENCHMARK_GAMMA_TOTAL), ("gamma_zpl", BENCHMARK_GAMMA_ZPL)):
        params = CavityParams(g=BENCHMARK_G, kappa=BENCHMARK_KAPPA, gamma=gamma)
        for input_mode in ("uniform", "basis_average"):
            fidelities = _fidelities(params, _input_rows(input_mode)).mean(axis=-1)
            for outcome, label in enumerate(("plus", "minus")):
                fidelity = float(fidelities[outcome])
                target = TARGET_FIDELITY[label]
                deviation_pp = abs(fidelity * 100.0 - target * 100.0)   # 1.0 against 0.995 is exactly 0.5 in points
                report[f"{gamma_label}:{input_mode}:{label}"] = {
                    "gamma": gamma,
                    "input_mode": input_mode,
                    "outcome": label,
                    "fidelity": fidelity,
                    "target": target,
                    "deviation_pp": deviation_pp,
                    "matched": deviation_pp <= BENCHMARK_TOLERANCE_PP,
                }
    return report
