import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entconv.cavity import CavityParams, spin_photon_map
from entconv.cnot import _fidelities, _kraus, benchmark_report, fidelity_grid
from entconv.optics import CNOT
from entconv.qstate import apply_rows, collapse, ket

from conftest import edge_draws, expected_vector, uniform_vector
from oracle import IDEAL_BOUNCE, dense_cnot, readout_branches, replay_cnot

TERMS = ("RR", "RL", "LR", "LL")
RESONANT = CavityParams(g=1.0, kappa=1.0, gamma=1.0)
STRONG = CavityParams(g=5.0, kappa=1.0, gamma=1.0)  # g^2 = 25 kappa gamma


def random_two_photon(rng):
    c = rng.normal(size=4) + 1j * rng.normal(size=4)
    return c / np.linalg.norm(c)


def cnot_ideal(state, control, target):
    """The runtime's ideal gate, the controlled flip, on one row."""
    return apply_rows(state, (control, target), CNOT)


def test_truth_table_exhaustive():
    for s, want in (("RR", "RR"), ("RL", "LL"), ("LR", "LR"), ("LL", "RL")):
        out = cnot_ideal(ket(s), control=2, target=1)
        np.testing.assert_allclose(out, expected_vector(2, {want: 1.0}), atol=1e-15)


def test_control_off_branch_unchanged():
    out = cnot_ideal(ket("LRL"), control=2, target=3)
    np.testing.assert_array_equal(out, ket("LRL"))


def test_first_stage_on_three_photon_input():
    state = uniform_vector(3, ["RLR", "LRL"])
    out = cnot_ideal(state, control=2, target=3)
    want = expected_vector(3, {"RLL": 1 / math.sqrt(2), "LRL": 1 / math.sqrt(2)})
    np.testing.assert_allclose(out, want, atol=1e-12)
    # independent route: full permutation-matrix product
    np.testing.assert_allclose(out, dense_cnot(3, 2, 3) @ state, atol=1e-12)


def test_matrix_oracle_on_random_states(rng):
    for _ in range(10):
        c = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = c / np.linalg.norm(c)
        out = cnot_ideal(state, control=3, target=1)
        np.testing.assert_allclose(out, dense_cnot(3, 3, 1) @ state, atol=1e-12)


def test_involution(rng):
    state = random_two_photon(rng)
    out = cnot_ideal(cnot_ideal(state, 2, 1), 2, 1)
    np.testing.assert_allclose(out, state, atol=1e-12)


def compiled_cnot(state, control, target, factors, rng):
    """The gate compiled from the bounce diagonal ``factors`` on a batch of one: row, readout, chosen weight, norm."""
    readouts, rows, _, weights = collapse(apply_rows(state[None], (control, target), _kraus(factors)), [0], rng)
    return rows[0], int(readouts[0]), float(weights[readouts[0], 0]), float(weights.sum(axis=0)[0])


def test_feed_forward_determinism(rng):
    # both readout branches give the direct gate after correction, for any input
    for _ in range(20):
        state = random_two_photon(rng)
        want = cnot_ideal(state, control=2, target=1)
        for spin in (0, 1):
            row, readout, chosen, _ = compiled_cnot(state, 2, 1, IDEAL_BOUNCE, edge_draws(spin))
            np.testing.assert_allclose(row, want, atol=1e-12)
            assert abs(chosen - 0.5) < 1e-12
            assert readout == spin


def test_frozen_element_order_readout_branches(rng):
    # regression pin of the gate sequence: replaying it by hand must land on the
    # two branches alpha|RR>+beta|LL>+gamma|LR>+delta|RL> (plus) and
    # alpha|LR>+beta|RL>+gamma|RR>+delta|LL> (minus, before correction)
    state = random_two_photon(rng)
    a, b, g, d = state
    plus, minus = readout_branches(state, 2, 1, IDEAL_BOUNCE)
    want_plus = expected_vector(2, {"RR": a, "LL": b, "LR": g, "RL": d})
    np.testing.assert_allclose(plus / np.linalg.norm(plus), want_plus / np.linalg.norm(want_plus), atol=1e-12)
    want_minus = expected_vector(2, {"LR": a, "RL": b, "RR": g, "LL": d})
    np.testing.assert_allclose(minus / np.linalg.norm(minus), want_minus / np.linalg.norm(want_minus), atol=1e-12)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize(
    "params, ideal",
    [
        (CavityParams(g=0.3, kappa=26.0, gamma=0.0004), True),
        (CavityParams(g=0.3, kappa=26.0, gamma=0.0004), False),
        (CavityParams.from_ratios(0.3, 0.4), False),  # g^2 = 0.12 kappa gamma
    ],
)
def test_compiled_gate_matches_element_replay(n, params, ideal):
    rng = np.random.default_rng(n)
    factors = IDEAL_BOUNCE if ideal else spin_photon_map(params)
    for control, target in itertools.permutations(range(1, n + 1), 2):
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state = amps / np.linalg.norm(amps)
        for spin in (0, 1):
            _, photons, weight, norm = replay_cnot(state, control, target, factors, forced=spin)
            row, readout, chosen, kept = compiled_cnot(state, control, target, factors, edge_draws(spin))
            assert readout == spin
            np.testing.assert_allclose(row, photons, rtol=0, atol=1e-12)
            assert chosen == pytest.approx(weight, abs=1e-12)
            assert kept == pytest.approx(norm, abs=1e-12)
        seed = int(rng.integers(2**32))
        replayed, *_ = replay_cnot(state, control, target, factors, rng=np.random.default_rng(seed))
        _, readout, _, _ = compiled_cnot(state, control, target, factors, rng=np.random.default_rng(seed))
        assert readout == replayed


def test_compiled_gate_on_a_batch_matches_each_row():
    # every row of a batch gets the gate a batch of one gets
    gen = np.random.default_rng(9)
    factors = spin_photon_map(CavityParams.from_ratios(0.3, 0.4))
    rows = gen.normal(size=(30, 32)) + 1j * gen.normal(size=(30, 32))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    for spin in (0, 1):
        readouts, out, at, weights = collapse(apply_rows(rows, (4, 2), _kraus(factors)), np.arange(30), edge_draws(spin))
        chosen, kept = weights[spin], weights.sum(axis=0)
        assert set(readouts) == {spin}
        for i, row in enumerate(rows):
            one, _, one_chosen, one_kept = compiled_cnot(row, 4, 2, factors, edge_draws(spin))
            np.testing.assert_allclose(out[at[i]], one, atol=1e-14)
            assert chosen[i] == pytest.approx(one_chosen, abs=1e-14)
            assert kept[i] == pytest.approx(one_kept, abs=1e-14)


def test_realistic_gate_loses_norm_but_stays_faithful(rng):
    state = random_two_photon(rng)
    row, _, _, kept = compiled_cnot(state, 2, 1, spin_photon_map(STRONG), edge_draws(0))
    assert kept < 1.0
    ideal = cnot_ideal(state, 2, 1)
    assert abs(np.vdot(row, ideal)) ** 2 > 0.99


def _closed_form_fidelities(ratio):
    """Hand-derived resonant gate fidelities per basis input.

    With r = (q - 1/4)/(q + 1/4) at q = g^2/(kappa gamma), a = (1+r)/2 and
    b = (1-r)/2, walking the gate sequence term by term gives:
      plus  branch: F(RR) = F(LR) = 1,  F(RL) = F(LL) = a^4 / (a^4 + b^2 (1+a)^2)
      minus branch: F(RR) = F(LR) = a^2/(a^2+b^2),
                    F(RL) = F(LL) = (a+b^2)^2 / ((a+b^2)^2 + (ab)^2)
    """
    r = (ratio - 0.25) / (ratio + 0.25)
    a, b = (1 + r) / 2, (1 - r) / 2
    plus_rl = a**4 / (a**4 + b**2 * (1 + a) ** 2)
    minus_rr = a**2 / (a**2 + b**2)
    minus_rl = (a + b**2) ** 2 / ((a + b**2) ** 2 + (a * b) ** 2)
    return {
        (0, "RR"): 1.0, (0, "RL"): plus_rl,
        (0, "LR"): 1.0, (0, "LL"): plus_rl,
        (1, "RR"): minus_rr, (1, "RL"): minus_rl,
        (1, "LR"): minus_rr, (1, "LL"): minus_rl,
    }


@pytest.mark.parametrize("ratio", [0.5, 1.0, 4.0, 25.0, 400.0])
def test_fidelity_matches_closed_form(ratio):
    params = CavityParams.from_ratios(math.sqrt(ratio), math.sqrt(ratio))
    oracle = _closed_form_fidelities(ratio)
    for (outcome, term), want in oracle.items():
        got = _fidelities(params, ket(term)[None])[outcome, 0]
        assert got == pytest.approx(want, abs=1e-12), (outcome, term, ratio)


def test_uniform_input_fidelity_is_one_at_resonance():
    for outcome in (0, 1):
        assert _fidelities(RESONANT, uniform_vector(2, TERMS)[None])[outcome, 0] == pytest.approx(1.0, abs=1e-9)


def test_fidelity_tends_to_one():
    params = CavityParams.from_ratios(1e3, 1e3)
    for outcome in (0, 1):
        assert np.mean(_fidelities(params, np.stack([ket(s) for s in TERMS]))[outcome]) > 1 - 1e-5


@given(st.floats(0.05, 50), st.floats(0.05, 50), st.integers(0, 3), st.sampled_from([0, 1]))
@settings(max_examples=40, deadline=None)
def test_fidelity_bounded(gk, gg, which, outcome):
    params = CavityParams.from_ratios(gk, gg)
    f = _fidelities(params, ket(TERMS[which])[None])[outcome, 0]
    assert -1e-12 <= f <= 1 + 1e-12


@pytest.mark.parametrize("input_mode", ["uniform", "basis_average"])
def test_fidelity_grid_matches_gate_outputs(input_mode):
    # the grid reads fidelities off the Kraus pair in one array pass; the
    # gate's own output on each spin readout must give the same numbers, row for row,
    # on a non-square grid with weak coupling included
    inputs = [uniform_vector(2, TERMS)] if input_mode == "uniform" else [ket(s) for s in TERMS]
    gks, ggs = (0.3, 2.0, 0.5), (0.4, 7.0)
    fidelities = fidelity_grid(gks, ggs, input_mode)
    assert fidelities.shape == (len(gks), len(ggs), 2)
    for (i, gk), (j, gg), outcome in itertools.product(enumerate(gks), enumerate(ggs), (0, 1)):
        factors = spin_photon_map(CavityParams.from_ratios(gk, gg))
        route = []
        for state in inputs:
            real, readout, *_ = compiled_cnot(state, 2, 1, factors, edge_draws(outcome))
            assert readout == outcome
            route.append(abs(np.vdot(real, cnot_ideal(state, 2, 1))) ** 2)
        assert abs(fidelities[i, j, outcome] - float(np.mean(route))) <= 1e-12, (gk, gg, outcome)


def test_fidelities_of_one_set_equal_its_grid_point():
    # one CavityParams compiles the gate of its grid point to the bit, so a run and a
    # sweep price a parameter set alike; the first set differed in the last bit before
    gen = np.random.default_rng(33)
    sets = np.vstack([[0.02201, 0.08856, 16.04], 10.0 ** gen.uniform(-3, 2, size=(300, 3))])
    inputs = np.stack([ket(s) for s in TERMS])
    grid = _fidelities(CavityParams(*sets.T), inputs)
    for i, row in enumerate(sets):
        assert _fidelities(CavityParams(*map(float, row)), inputs).tobytes() == grid[i].tobytes(), row


def test_grid_point_with_an_extinguished_branch_raises():
    # at g^2 = kappa gamma / 4 (g/kappa = g/gamma = 0.5) the loaded reflection
    # vanishes and the minus readout annihilates (|RR> - |LR>)/sqrt2
    dark = (ket("RR") - ket("LR")) / math.sqrt(2)
    grid = CavityParams.from_ratios(np.array([[0.3], [2.0], [0.5]]), np.array([[0.4, 0.5]]))
    with pytest.raises(ValueError, match="branch extinguished"):
        _fidelities(grid, dark[None])
    point = CavityParams.from_ratios(0.5, 0.5)
    with pytest.raises(ValueError, match="branch extinguished"):
        _fidelities(point, dark[None])
    plus, readout, *_ = compiled_cnot(dark, 2, 1, spin_photon_map(point), edge_draws(0))
    assert readout == 0
    assert 0 <= abs(np.vdot(plus, cnot_ideal(dark, 2, 1))) ** 2 <= 1 + 1e-12


def test_grid_params_check_every_point():
    with pytest.raises(ValueError, match="coupling ratios must be positive"):
        CavityParams.from_ratios(np.array([[0.3], [-1.0]]), np.array([[0.4, 0.5]]))
    with pytest.raises(ValueError, match="finite"):
        CavityParams.from_ratios(np.array([[0.3], [np.nan]]), np.array([[0.4, 0.5]]))
    with pytest.raises(ValueError, match="strictly positive"):
        CavityParams.from_ratios(np.array([[0.3], [np.inf]]), np.array([[0.4, 0.5]]))


def test_unknown_input_mode_is_named():
    with pytest.raises(ValueError, match="unknown input mode 'diagonal'"):
        fidelity_grid([1.0], [1.0], "diagonal")


def test_benchmark_report_convention_outcomes():
    report = benchmark_report()
    # the zero-phonon-line reading with basis-averaged inputs lands within half
    # a percentage point of both reference fidelities; the total-decay reading
    # prices the coupled branch far below them
    assert report["gamma_zpl:basis_average:plus"]["matched"]
    assert report["gamma_zpl:basis_average:minus"]["matched"]
    assert not report["gamma_total:basis_average:plus"]["matched"]
    assert not report["gamma_total:basis_average:minus"]["matched"]
    # uniform input sees no error at resonance regardless of coupling
    assert report["gamma_total:uniform:plus"]["fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert report["gamma_zpl:uniform:minus"]["fidelity"] == pytest.approx(1.0, abs=1e-9)
    for row in report.values():
        assert 0.0 <= row["fidelity"] <= 1.0 + 1e-12


def test_a_deviation_of_exactly_the_tolerance_matches():
    # 1.0 against the 0.995 target is 0.5 points, not 0.5000000000000004
    row = benchmark_report()["gamma_total:uniform:minus"]
    assert row["deviation_pp"] == 0.5
    assert row["matched"]
