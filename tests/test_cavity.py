import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entconv.cavity import (
    CavityParams,
    empty_reflection,
    reflection_coefficient,
    spin_photon_map,
)
from entconv.qstate import Spin, attach_spin, ket


def test_resonant_reflection_at_strong_coupling():
    # g^2 = 25 kappa gamma at resonance reduces to (25 - 1/4)/(25 + 1/4) = 99/101
    p = CavityParams(g=5.0, kappa=1.0, gamma=1.0)
    r = reflection_coefficient(p)
    assert abs(r - 99 / 101) < 1e-12
    assert abs(r.imag) < 1e-15


def test_uncoupled_reduces_to_bare_response():
    p = CavityParams(g=0.0, kappa=2.0, gamma=0.5, omega_c=1.3, omega_0=0.9, omega_p=0.7)
    assert abs(reflection_coefficient(p) - empty_reflection(p)) < 1e-15


def test_strong_coupling_limit_approaches_unity():
    p = CavityParams(g=1e6, kappa=1.0, gamma=1.0)
    assert abs(reflection_coefficient(p) - 1.0) < 1e-9
    assert abs(empty_reflection(p) + 1.0) == 0.0


def test_bare_reflection_resonant_is_minus_one_exactly():
    p = CavityParams(g=1.0, kappa=3.7, gamma=0.2)
    assert empty_reflection(p) == -1.0


def test_bare_reflection_half_kappa_detuning_is_i():
    p = CavityParams(g=1.0, kappa=2.0, gamma=1.0, omega_c=1.0, omega_p=0.0)
    # detuning kappa/2: (i - 1)/(i + 1) = i
    assert abs(empty_reflection(p) - 1j) < 1e-15


def test_bare_reflection_is_pure_phase(rng):
    for _ in range(100):
        p = CavityParams(
            g=1.0,
            kappa=float(rng.uniform(0.1, 50)),
            gamma=1.0,
            omega_c=float(rng.uniform(-100, 100)),
            omega_p=float(rng.uniform(-100, 100)),
        )
        assert abs(abs(empty_reflection(p)) - 1.0) < 1e-12


def test_continuity_in_g_at_zero():
    base = dict(kappa=4.0, gamma=0.3, omega_c=2.0, omega_0=1.0, omega_p=0.5)
    eps = 1e-6 * base["kappa"]
    drift = abs(reflection_coefficient(CavityParams(g=eps, **base)) - empty_reflection(CavityParams(g=0.0, **base)))
    assert drift < 1e-9


@given(
    st.floats(0.0, 1e3),
    st.floats(1e-3, 1e3),
    st.floats(1e-3, 1e3),
    st.floats(-1e3, 1e3),
    st.floats(-1e3, 1e3),
    st.floats(-1e3, 1e3),
)
def test_reflection_never_amplifies(g, kappa, gamma, wc, w0, wp):
    p = CavityParams(g, kappa, gamma, wc, w0, wp)
    assert abs(reflection_coefficient(p)) <= 1 + 1e-9
    assert abs(empty_reflection(p)) <= 1 + 1e-9


def test_ideal_map_flips_coupled_component_sign():
    state = attach_spin(ket("L"), np.array([0.0, 1.0]))  # |L>|->
    out = spin_photon_map(CavityParams(1, 1, 1), ideal=True).apply(state, 1)
    np.testing.assert_allclose(out.amplitudes, -state.amplitudes, atol=1e-15)


def test_ideal_map_is_involution():
    m = spin_photon_map(CavityParams(1, 1, 1), ideal=True)
    for term, spin in (("R", 0), ("R", 1), ("L", 0), ("L", 1)):
        vec = np.zeros(2, complex)
        vec[spin] = 1.0
        state = attach_spin(ket(term), vec)
        out = m.apply(m.apply(state, 1), 1)
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)


def test_realistic_map_at_strong_coupling_scales_coupled_component():
    # resonance, g^2 = 25 kappa gamma: bare factor -r0 = +1, coupled factor -r = -99/101;
    # relative to the ideal conditional sign the L- amplitude shrinks by 99/101
    m = spin_photon_map(CavityParams(g=5.0, kappa=1.0, gamma=1.0), ideal=False)
    np.testing.assert_allclose(m.factors[:3], [1.0, 1.0, 1.0], atol=1e-12)
    assert abs(m.factors[3] - (-99 / 101)) < 1e-12


def test_realistic_map_converges_monotonically_to_ideal():
    ideal = spin_photon_map(CavityParams(1, 1, 1), ideal=True).factors
    gaps = []
    for ratio in (1.0, 5.0, 25.0, 100.0, 1000.0):
        p = CavityParams.from_ratios(np.sqrt(ratio), np.sqrt(ratio))
        gaps.append(np.max(np.abs(spin_photon_map(p, ideal=False).factors - ideal)))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-3


def test_realistic_map_never_amplifies(rng):
    for _ in range(50):
        p = CavityParams(
            g=float(rng.uniform(0, 10)),
            kappa=float(rng.uniform(0.01, 10)),
            gamma=float(rng.uniform(0.01, 10)),
            omega_c=float(rng.uniform(-5, 5)),
            omega_0=float(rng.uniform(-5, 5)),
            omega_p=float(rng.uniform(-5, 5)),
        )
        assert np.all(np.abs(spin_photon_map(p, ideal=False).factors) <= 1 + 1e-9)


def test_invalid_rates_rejected():
    with pytest.raises(ValueError):
        CavityParams(g=1.0, kappa=0.0, gamma=1.0)
    with pytest.raises(ValueError):
        CavityParams(g=-1.0, kappa=1.0, gamma=1.0)


def test_resonant_helper():
    assert CavityParams(1, 1, 1).resonant()
    assert not CavityParams(1, 1, 1, omega_p=0.1).resonant()
