import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entconv.cavity import CavityParams, spin_photon_map
from entconv.cnot import (
    SPIN_READY,
    _fidelities,
    _kraus,
    benchmark_report,
    cnot_fidelity,
    basis_inputs,
    cnot_ideal,
    cnot_rows,
    fidelity_grid,
    uniform_input,
)
from entconv.optics import hwp, qwp, spin_hadamard
from entconv.qstate import (
    QuantumState,
    Spin,
    attach_spin,
    discard_spin,
    inner,
    ket,
    measure_spin,
    superpose,
)

from conftest import expected_vector

RESONANT = CavityParams(g=1.0, kappa=1.0, gamma=1.0)
STRONG = CavityParams(g=5.0, kappa=1.0, gamma=1.0)  # g^2 = 25 kappa gamma


def random_two_photon(rng):
    c = rng.normal(size=4) + 1j * rng.normal(size=4)
    return superpose([(ket(s), c[i]) for i, s in enumerate(("RR", "RL", "LR", "LL"))])


def flip_target_matrix(n, control, target):
    """Independent 2^n oracle: permutation matrix flipping target iff control is L."""
    dim = 1 << n
    m = np.zeros((dim, dim))
    for i in range(dim):
        j = i ^ (1 << (n - target)) if (i >> (n - control)) & 1 else i
        m[j, i] = 1.0
    return m


def test_truth_table_exhaustive():
    for s, want in (("RR", "RR"), ("RL", "LL"), ("LR", "LR"), ("LL", "RL")):
        out = cnot_ideal(ket(s), control=2, target=1)
        np.testing.assert_allclose(out.amplitudes, expected_vector(2, {want: 1.0}), atol=1e-15)


def test_control_off_branch_unchanged():
    out = cnot_ideal(ket("LRL"), control=2, target=3)
    np.testing.assert_array_equal(out.amplitudes, ket("LRL").amplitudes)


def test_first_stage_on_three_photon_input():
    state = superpose([(ket("RLR"), 1.0), (ket("LRL"), 1.0)])
    out = cnot_ideal(state, control=2, target=3)
    want = expected_vector(3, {"RLL": 1 / math.sqrt(2), "LRL": 1 / math.sqrt(2)})
    np.testing.assert_allclose(out.amplitudes, want, atol=1e-12)
    # independent route: full permutation-matrix product
    np.testing.assert_allclose(out.amplitudes, flip_target_matrix(3, 2, 3) @ state.amplitudes, atol=1e-12)


def test_matrix_oracle_on_random_states(rng):
    for _ in range(10):
        c = rng.normal(size=8) + 1j * rng.normal(size=8)
        state = superpose([(ket(f"{a}{b}{d}"), c[i]) for i, (a, b, d) in enumerate(
            (x, y, z) for x in "RL" for y in "RL" for z in "RL")])
        out = cnot_ideal(state, control=3, target=1)
        np.testing.assert_allclose(out.amplitudes, flip_target_matrix(3, 3, 1) @ state.amplitudes, atol=1e-12)


def test_involution(rng):
    state = random_two_photon(rng)
    out = cnot_ideal(cnot_ideal(state, 2, 1), 2, 1)
    np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)


def test_control_equals_target_rejected():
    with pytest.raises(ValueError, match="differ"):
        cnot_ideal(ket("RR"), 1, 1)


def compiled_cnot(state, control, target, params, ideal, rng=None, forced=None):
    """The compiled gate on a batch of one: output row, readout, chosen branch weight, squared norm before readout."""
    rows, readouts, chosen, kept = cnot_rows(state.amplitudes[None], control, target, _kraus(params, ideal), rng, forced)
    return rows[0], int(readouts[0]), float(chosen[0]), float(kept[0])


def test_feed_forward_determinism(rng):
    # both readout branches give the direct gate after correction, for any input
    for _ in range(20):
        state = random_two_photon(rng)
        want = cnot_ideal(state, control=2, target=1)
        for forced in (Spin.PLUS, Spin.MINUS):
            row, readout, chosen, _ = compiled_cnot(state, 2, 1, RESONANT, ideal=True, forced=forced)
            np.testing.assert_allclose(row, want.amplitudes, atol=1e-12)
            assert abs(chosen - 0.5) < 1e-12
            assert readout == forced.value


def test_frozen_element_order_readout_branches(rng):
    # regression pin of the gate sequence: replaying it by hand must land on the
    # two branches alpha|RR>+beta|LL>+gamma|LR>+delta|RL> (plus) and
    # alpha|LR>+beta|RL>+gamma|RR>+delta|LL> (minus, before correction)
    state = random_two_photon(rng)
    a, b, g, d = state.amplitudes
    bounce = spin_photon_map(RESONANT, ideal=True)
    work = attach_spin(state, SPIN_READY)
    work = qwp(work, 1)
    work = bounce.apply(work, 1)
    work = qwp(work, 1)
    work = spin_hadamard(work)
    work = bounce.apply(work, 2)
    work = spin_hadamard(work)
    _, plus_state = measure_spin(work, forced=Spin.PLUS)
    plus = discard_spin(plus_state)
    want_plus = expected_vector(2, {"RR": a, "LL": b, "LR": g, "RL": d})
    np.testing.assert_allclose(plus.amplitudes, want_plus / np.linalg.norm(want_plus), atol=1e-12)
    _, minus_state = measure_spin(work, forced=Spin.MINUS)
    minus = discard_spin(minus_state)
    want_minus = expected_vector(2, {"LR": a, "RL": b, "RR": g, "LL": d})
    np.testing.assert_allclose(minus.amplitudes, want_minus / np.linalg.norm(want_minus), atol=1e-12)


def replay_cnot(state, control, target, params, ideal, rng=None, forced=None):
    """Element-by-element oracle of the gate on a spin register.

    Returns the spin readout record, the corrected photons and the squared
    norm before readout.
    """
    bounce = spin_photon_map(params, ideal)
    work = attach_spin(state, SPIN_READY)
    work = qwp(work, target)
    work = bounce.apply(work, target)
    work = qwp(work, target)
    work = spin_hadamard(work)
    work = bounce.apply(work, control)
    work = spin_hadamard(work)
    record, collapsed = measure_spin(work, rng=rng, forced=forced)
    photons = discard_spin(collapsed)
    if record.outcome == "minus":
        photons = hwp(photons, target)
    return record, photons, work.norm2()


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
    for control, target in itertools.permutations(range(1, n + 1), 2):
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state = QuantumState(n, False, amps / np.linalg.norm(amps))
        for forced in (Spin.PLUS, Spin.MINUS):
            record, photons, norm = replay_cnot(state, control, target, params, ideal, forced=forced)
            row, readout, chosen, kept = compiled_cnot(state, control, target, params, ideal, forced=forced)
            assert readout == forced.value
            np.testing.assert_allclose(row, photons.amplitudes, rtol=0, atol=1e-12)
            assert chosen == pytest.approx(record.probability, abs=1e-12)
            assert kept == pytest.approx(norm, abs=1e-12)
        seed = int(rng.integers(2**32))
        record, _, _ = replay_cnot(state, control, target, params, ideal, rng=np.random.default_rng(seed))
        _, readout, _, _ = compiled_cnot(state, control, target, params, ideal, rng=np.random.default_rng(seed))
        assert Spin(readout).name.lower() == record.outcome


def test_compiled_gate_on_a_batch_matches_each_row():
    # every row of a batch gets the gate a batch of one gets
    gen = np.random.default_rng(9)
    params = CavityParams.from_ratios(0.3, 0.4)
    rows = gen.normal(size=(30, 32)) + 1j * gen.normal(size=(30, 32))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    for spin in (Spin.PLUS, Spin.MINUS):
        out, readouts, chosen, kept = cnot_rows(rows, 4, 2, _kraus(params, False), forced_spin=spin)
        assert set(readouts) == {spin.value}
        for i, row in enumerate(rows):
            one, _, one_chosen, one_kept = compiled_cnot(QuantumState(5, False, row), 4, 2, params, False, forced=spin)
            np.testing.assert_allclose(out[i], one, atol=1e-14)
            assert chosen[i] == pytest.approx(one_chosen, abs=1e-14)
            assert kept[i] == pytest.approx(one_kept, abs=1e-14)


def test_realistic_gate_loses_norm_but_stays_faithful(rng):
    state = random_two_photon(rng)
    row, _, _, kept = compiled_cnot(state, 2, 1, STRONG, ideal=False, forced=Spin.PLUS)
    assert kept < 1.0
    ideal = cnot_ideal(state, 2, 1)
    assert abs(inner(QuantumState(2, False, row), ideal)) ** 2 > 0.99


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
        (Spin.PLUS, "RR"): 1.0, (Spin.PLUS, "RL"): plus_rl,
        (Spin.PLUS, "LR"): 1.0, (Spin.PLUS, "LL"): plus_rl,
        (Spin.MINUS, "RR"): minus_rr, (Spin.MINUS, "RL"): minus_rl,
        (Spin.MINUS, "LR"): minus_rr, (Spin.MINUS, "LL"): minus_rl,
    }


@pytest.mark.parametrize("ratio", [0.5, 1.0, 4.0, 25.0, 400.0])
def test_fidelity_matches_closed_form(ratio):
    params = CavityParams.from_ratios(math.sqrt(ratio), math.sqrt(ratio))
    oracle = _closed_form_fidelities(ratio)
    for (outcome, term), want in oracle.items():
        got = cnot_fidelity(params, ket(term), outcome)
        assert got == pytest.approx(want, abs=1e-12), (outcome, term, ratio)


def test_uniform_input_fidelity_is_one_at_resonance():
    for outcome in (Spin.PLUS, Spin.MINUS):
        assert cnot_fidelity(RESONANT, uniform_input(), outcome) == pytest.approx(1.0, abs=1e-9)


def test_fidelity_tends_to_one():
    params = CavityParams.from_ratios(1e3, 1e3)
    for outcome in (Spin.PLUS, Spin.MINUS):
        assert np.mean([cnot_fidelity(params, s, outcome) for s in basis_inputs()]) > 1 - 1e-5


def test_fidelity_requires_two_photons():
    with pytest.raises(ValueError, match="two-photon"):
        cnot_fidelity(RESONANT, ket("RRR"), Spin.PLUS)


@given(st.floats(0.05, 50), st.floats(0.05, 50), st.integers(0, 3), st.sampled_from([Spin.PLUS, Spin.MINUS]))
@settings(max_examples=40, deadline=None)
def test_fidelity_bounded(gk, gg, which, outcome):
    params = CavityParams.from_ratios(gk, gg)
    state = (ket("RR"), ket("RL"), ket("LR"), ket("LL"))[which]
    f = cnot_fidelity(params, state, outcome)
    assert -1e-12 <= f <= 1 + 1e-12


@pytest.mark.parametrize("input_mode", ["uniform", "basis_average"])
def test_fidelity_grid_matches_gate_outputs(input_mode):
    # the grid reads fidelities off the Kraus pair in one array pass; the
    # gate's own forced-spin output must give the same numbers, row for row,
    # on a non-square grid with weak coupling included
    inputs = (uniform_input(),) if input_mode == "uniform" else basis_inputs()
    gks, ggs = (0.3, 2.0, 0.5), (0.4, 7.0)
    points = fidelity_grid(gks, ggs, input_mode)
    order = [(gk, gg, outcome) for gk in gks for gg in ggs for outcome in (Spin.PLUS, Spin.MINUS)]
    assert [(p.g_over_kappa, p.g_over_gamma, p.outcome) for p in points] == order
    for point in points:
        params = CavityParams.from_ratios(point.g_over_kappa, point.g_over_gamma)
        route = []
        for state in inputs:
            real, *_ = compiled_cnot(state, 2, 1, params, ideal=False, forced=point.outcome)
            route.append(abs(inner(QuantumState(2, False, real), cnot_ideal(state, 2, 1))) ** 2)
        assert abs(point.fidelity - float(np.mean(route))) <= 1e-12, point


def test_grid_point_with_an_extinguished_branch_raises():
    # at g^2 = kappa gamma / 4 (g/kappa = g/gamma = 0.5) the loaded reflection
    # vanishes and the minus readout annihilates (|RR> - |LR>)/sqrt2
    dark = QuantumState(2, False, (ket("RR").amplitudes - ket("LR").amplitudes) / math.sqrt(2))
    grid = CavityParams.from_ratios(np.array([[0.3], [2.0], [0.5]]), np.array([[0.4, 0.5]]))
    with pytest.raises(ValueError, match="branch extinguished"):
        _fidelities(grid, dark.amplitudes[None])
    point = CavityParams.from_ratios(0.5, 0.5)
    with pytest.raises(ValueError, match="branch extinguished"):
        cnot_fidelity(point, dark, Spin.MINUS)
    assert 0 <= cnot_fidelity(point, dark, Spin.PLUS) <= 1 + 1e-12


def test_grid_params_check_every_point():
    with pytest.raises(ValueError, match="coupling ratios must be positive"):
        CavityParams.from_ratios(np.array([[0.3], [-1.0]]), np.array([[0.4, 0.5]]))
    with pytest.raises(ValueError, match="finite"):
        CavityParams.from_ratios(np.array([[0.3], [np.nan]]), np.array([[0.4, 0.5]]))
    with pytest.raises(ValueError, match="strictly positive"):
        CavityParams.from_ratios(np.array([[0.3], [np.inf]]), np.array([[0.4, 0.5]]))


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
