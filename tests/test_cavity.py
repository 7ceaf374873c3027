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

from oracle import IDEAL_BOUNCE


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


def test_realistic_map_at_strong_coupling_scales_coupled_component():
    # resonance, g^2 = 25 kappa gamma: bare factor -r0 = +1, coupled factor -r = -99/101;
    # relative to the ideal conditional sign the L- amplitude shrinks by 99/101
    m = spin_photon_map(CavityParams(g=5.0, kappa=1.0, gamma=1.0))
    np.testing.assert_allclose(m[:3], [1.0, 1.0, 1.0], atol=1e-12)
    assert abs(m[3] - (-99 / 101)) < 1e-12
    assert not m.flags.writeable


def test_realistic_map_converges_monotonically_to_ideal():
    gaps = []
    for ratio in (1.0, 5.0, 25.0, 100.0, 1000.0):
        p = CavityParams.from_ratios(np.sqrt(ratio), np.sqrt(ratio))
        gaps.append(np.max(np.abs(spin_photon_map(p) - IDEAL_BOUNCE)))
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
        assert np.all(np.abs(spin_photon_map(p)) <= 1 + 1e-9)


def test_invalid_rates_rejected():
    with pytest.raises(ValueError):
        CavityParams(g=1.0, kappa=0.0, gamma=1.0)
    with pytest.raises(ValueError):
        CavityParams(g=-1.0, kappa=1.0, gamma=1.0)


def _random_sets(seed, count, detuned):
    """``count`` seeded parameter sets as rows (g, kappa, gamma, omega_c, omega_0, omega_p), rates log-uniform."""
    gen = np.random.default_rng(seed)
    rates = 10.0 ** gen.uniform(-3, 2, size=(count, 3))
    omegas = gen.uniform(-50, 50, size=(count, 3)) if detuned else np.zeros((count, 3))
    return np.hstack([rates, omegas])


@pytest.mark.parametrize("detuned", [False, True], ids=["resonant", "detuned"])
def test_one_set_computes_bit_for_bit_like_its_grid_point(detuned):
    # a CavityParams of scalars and the same point of an array-valued one give the
    # same bytes, signed zeros included, so a run and a sweep price a gate alike
    sets = _random_sets(31 if detuned else 30, 2000, detuned)
    grid = spin_photon_map(CavityParams(*sets.T))
    differ = [i for i, row in enumerate(sets) if spin_photon_map(CavityParams(*map(float, row))).tobytes() != grid[i].tobytes()]
    assert differ == []


def _complex_reflection(p):
    """The reflection coefficients as CPython's complex arithmetic evaluates them, g^2 written g*g."""
    dc = 1j * (p.omega_c - p.omega_p)
    d0 = 1j * (p.omega_0 - p.omega_p)
    loaded = ((dc - p.kappa / 2) * (d0 + p.gamma / 2) + p.g * p.g) / ((dc + p.kappa / 2) * (d0 + p.gamma / 2) + p.g * p.g)
    return loaded, (dc - p.kappa / 2) / (dc + p.kappa / 2)


EDGE_SETS = [
    (1.9495510185041254, 1.0, 1.0, 0.0, 0.0, 0.0),   # C pow gives g**2 one ulp above g*g
    (0.3, 26.0, 4e-4, -0.0, 0.0, 0.0),
    (0.3, 26.0, 4e-4, -0.0, -0.0, 0.0),
    (0.0, 2.0, 1e-300, 0.0, -0.0, -0.0),
    (0.3, 26.0, 2e-100, -1e-300, 0.0, 0.0),   # dc * gamma/2 underflows to -0.0
]


def test_reflection_is_the_complex_expression_bit_for_bit():
    # the float-array arithmetic is the complex expression a single set used to take,
    # products and Smith's division in CPython's order, signed zeros included
    sets = [tuple(map(float, row)) for row in _random_sets(32, 2000, detuned=True)] + EDGE_SETS
    for row in sets:
        p = CavityParams(*row)
        want = [np.complex128(x).tobytes() for x in _complex_reflection(p)]
        assert [np.complex128(reflection_coefficient(p)).tobytes(), np.complex128(empty_reflection(p)).tobytes()] == want, row


@pytest.mark.parametrize(
    "params",
    [
        CavityParams(0.3, 1e200, 4e-4),
        CavityParams(0.3, 26.0, 1e200),
        CavityParams(1e150, 26.0, 4e-4),
        CavityParams(0.3, 1e-200, 4e-4),
        CavityParams(0.3, 26.0, 1e-300),
        CavityParams(0.3, 26.0, 4e-4, omega_c=1e200),
    ],
    ids=["kappa_1e200", "gamma_1e200", "g_1e150", "kappa_1e-200", "gamma_1e-300", "omega_c_1e200"],
)
def test_extreme_parameter_sets_stay_finite(params):
    m = spin_photon_map(params)
    assert np.isfinite(m).all()
    assert np.all(np.abs(m) <= 1 + 1e-9)


def test_vanishing_rates_are_not_finite():
    # g, kappa and gamma at 1e-200: every product underflows and the loaded response is 0/0
    with pytest.raises(ValueError, match="not finite"):
        spin_photon_map(CavityParams(1e-200, 1e-200, 1e-200))
