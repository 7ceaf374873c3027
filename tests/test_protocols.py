import itertools
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from entconv.cavity import CavityParams, spin_photon_map
from entconv.cnot import BENCHMARK_G, BENCHMARK_GAMMA_TOTAL, BENCHMARK_GAMMA_ZPL, BENCHMARK_KAPPA, _kraus
from entconv.kerr import HomodyneModel, read_rows
from entconv.protocols import (
    ProtocolSpec,
    circuit_wiring,
    classify_state,
    composite_fidelity_report,
    conversion_input,
    fidelity_vs_ideal,
    ideal_tags,
    monte_carlo,
    recovery_sequence,
    run_protocol,
    success_series,
    MAX_ITERATIONS,
    _MC_CHUNK,
    _ideal_branch,
    _ideal_gate_table,
    _receiver,
    _run_gates,
    _run_rounds,
    _standardize,
)
from entconv.optics import CNOT
from entconv.qstate import ket
from entconv.stream import Stream

from conftest import LAST_BRANCH, Uniforms, class_frequency, edge_draws, expected_vector, tag_split, uniform_vector
from oracle import IDEAL_BOUNCE, branch_table, realistic_table

# hand-expanded pre-tag term lists for the three circuits
PRE_TAG_TERMS = {
    3: "RLR LRR RRL LLL".split(),
    4: "RRRL RRLR RLRR LRRR RLLL LRLL LLRL LLLR".split(),
    5: (
        "LRRRR RLRRR RRLRR RRRLR RRRRL LLLLL LLRRL LLRLR RLRLL LLLRR "
        "RLLRL RLLLR LRRLL LRLRL LRLLR RRLLL"
    ).split(),
}

# a probe whose quadrature peaks barely separate: most gaussian readouts are misclassified
THETA_LOW, ALPHA_LOW = 0.02, 1.0

W5_TERMS = "LRRRR RLRRR RRLRR RRRLR RRRRL".split()
DICKE5_TERMS = "LLRRL LLRLR RLRLL LLLRR RLLRL RLLLR LRRLL LRLRL LRLLR RRLLL".split()


def pre_tag_state(n):
    rows, *_ = _run_gates(conversion_input(n)[None], None, circuit_wiring(n), CNOT)
    return rows[0]


def test_wiring_element_lists_frozen():
    assert circuit_wiring(3) == (
        ("cnot", 2, 3), ("hwp", 3), ("qwp", 3), ("cnot", 3, 1),
    )
    assert circuit_wiring(4) == (
        ("cnot", 2, 3), ("cnot", 2, 4),
        ("hwp", 3), ("hwp", 4), ("qwp", 3), ("qwp", 4),
        ("cnot", 3, 1), ("cnot", 4, 2),
    )
    assert circuit_wiring(5) == (
        ("cnot", 2, 3), ("cnot", 2, 4), ("cnot", 2, 5),
        ("hwp", 3), ("hwp", 4), ("hwp", 5), ("qwp", 3), ("qwp", 4), ("qwp", 5),
        ("cnot", 3, 1), ("cnot", 4, 2), ("cnot", 5, 1),
    )


def test_wiring_unsupported_n():
    with pytest.raises(ValueError, match="unsupported"):
        circuit_wiring(6)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_pre_tag_state_matches_hand_expansion(n):
    state = pre_tag_state(n)
    np.testing.assert_allclose(state, uniform_vector(n, PRE_TAG_TERMS[n]), atol=1e-12)


@pytest.mark.parametrize(
    "n,expected",
    [(3, {1: Fraction(3, 4), 3: Fraction(1, 4)}),
     (4, {1: Fraction(1, 2), 3: Fraction(1, 2)}),
     (5, {1: Fraction(5, 16), 3: Fraction(10, 16), 5: Fraction(1, 16)})],
)
def test_partition_branch_weights(n, expected):
    _, weights = tag_split(pre_tag_state(n))
    assert tuple(weights) == tuple(sorted(expected))
    for tag, weight in expected.items():
        assert abs(weights[tag] - float(weight)) < 1e-12


def test_partition_branches_hold_expected_terms():
    state = pre_tag_state(5)
    # the uniforms fall in the cumulative intervals (0, 5/16), (5/16, 15/16) and (15/16, 1)
    for tag, terms, u in ((1, W5_TERMS, 0.0), (3, DICKE5_TERMS, 0.5), (5, ["LLLLL"], LAST_BRANCH)):
        tags, _, rows, at = read_rows(state[None], [0], None, Uniforms([u]))
        assert tags[0] == tag
        np.testing.assert_allclose(rows[at[0]], uniform_vector(5, terms), atol=1e-12)


def test_recovery_three_elements_on_all_l():
    rows, *_ = _run_gates(ket("LLL")[None], None, recovery_sequence(3)[:3], CNOT)
    state = rows[0]
    np.testing.assert_allclose(state, uniform_vector(3, ["RLL", "LRL"]), atol=1e-12)


def test_recovery_five_photons_on_all_l():
    rows, *_ = _run_gates(ket("LLLLL")[None], None, recovery_sequence(5)[:3], CNOT)
    state = rows[0]
    np.testing.assert_allclose(state, uniform_vector(5, ["RLLLL", "LRLLL"]), atol=1e-12)


@pytest.mark.parametrize("n", [3, 5])
def test_recovery_fixed_point(n):
    state1 = pre_tag_state(n)
    branches1, _ = tag_split(state1)
    tags, _, retry, at = read_rows(state1[None], [0], None, Uniforms([LAST_BRANCH]))
    assert tags[0] == max(branches1)
    rows2, *_ = _run_gates(retry[at], None, recovery_sequence(n), CNOT)
    branches2, _ = tag_split(rows2[0])
    assert tuple(branches1) == tuple(branches2)
    for tag in branches1:
        np.testing.assert_allclose(branches1[tag], branches2[tag], atol=1e-12)


@pytest.mark.parametrize("spin", [0, 1])
@pytest.mark.parametrize(
    "n,elements",
    [(3, circuit_wiring(3)), (4, circuit_wiring(4)), (5, circuit_wiring(5)),
     (3, recovery_sequence(3)), (5, recovery_sequence(5))],
    ids=["wiring3", "wiring4", "wiring5", "recovery3", "recovery5"],
)
def test_ideal_bounce_kraus_pair_runs_as_the_controlled_flip(n, elements, spin):
    # the measured gate with ideal bounces and either readout is the one permutation optics.CNOT
    gen = np.random.default_rng(n)
    rows = gen.normal(size=(6, 1 << n)) + 1j * gen.normal(size=(6, 1 << n))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    want, *_ = _run_gates(rows, None, elements, CNOT)
    # the first weighted branch is plus, the last minus
    got, at, kept, readouts = _run_gates(rows, np.arange(6), elements, _kraus(IDEAL_BOUNCE), edge_draws(spin))
    np.testing.assert_allclose(got[at], want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(kept, 1.0, rtol=0, atol=1e-12)
    assert len(readouts) == sum(el[0] == "cnot" for el in elements)
    assert all((r == spin).all() for r in readouts)


def test_unknown_circuit_element_is_named():
    with pytest.raises(ValueError, match="unknown circuit element.*swap"):
        _run_gates(ket("RLR")[None], None, (("hwp", 1), ("swap", 1, 2)), CNOT)


@pytest.mark.parametrize(
    "spec", [ProtocolSpec(n_photons=3, max_iterations=4), ProtocolSpec(n_photons=3, gate_mode="realistic")],
    ids=["ideal", "realistic"],
)
def test_run_protocol_without_rng_is_named(spec):
    # the first readout has nothing to draw from: a ValueError, never an AttributeError
    with pytest.raises(ValueError, match="rng required"):
        run_protocol(spec)


def test_monte_carlo_needs_a_trial(rng):
    # the schema bounds the CLI's trials first, so only a library call reaches this guard
    with pytest.raises(ValueError, match="trials must be >= 1"):
        monte_carlo(ProtocolSpec(n_photons=3), 0, rng)


def test_no_recovery_path_for_four_photons():
    assert recovery_sequence(4) == ()


def test_run_three_photon_success_round_one():
    run = run_protocol(ProtocolSpec(n_photons=3), Uniforms([0.0]))   # the first weighted tag, 1
    assert run.outcome_class == "W"
    assert run.true_tags == (1,)
    assert run.iterations_used == 1
    np.testing.assert_allclose(
        run.final_state, uniform_vector(3, ["RLR", "LRR", "RRL"]), atol=1e-12
    )


def test_run_four_photon_flipped_branch():
    run = run_protocol(ProtocolSpec(n_photons=4), Uniforms([LAST_BRANCH]))
    assert run.outcome_class == "W"
    assert run.true_tags == (3,)
    np.testing.assert_allclose(
        run.final_state, uniform_vector(4, ["RLLL", "LRLL", "LLRL", "LLLR"]), atol=1e-12
    )
    assert classify_state(run.final_state)["kind"] == "W_flipped"
    run = run_protocol(ProtocolSpec(n_photons=4, standardize_flipped=True), Uniforms([LAST_BRANCH]))
    assert classify_state(run.final_state)["kind"] == "W"


def test_run_five_photon_dicke_branch():
    run = run_protocol(ProtocolSpec(n_photons=5), Uniforms([0.5]))   # in tag 3's interval (5/16, 15/16)
    assert run.outcome_class == "Dicke"
    assert run.true_tags == (3,)
    np.testing.assert_allclose(run.final_state, uniform_vector(5, DICKE5_TERMS), atol=1e-12)


def test_run_five_photon_w_after_two_recoveries():
    run = run_protocol(ProtocolSpec(n_photons=5, max_iterations=4), Uniforms([LAST_BRANCH, LAST_BRANCH, 0.0]))
    assert run.outcome_class == "W"
    assert run.iterations_used == 3
    assert run.homodyne_tags == (5, 5, 1)
    np.testing.assert_allclose(run.final_state, uniform_vector(5, W5_TERMS), atol=1e-12)


def test_run_fails_at_max_iterations():
    run = run_protocol(ProtocolSpec(n_photons=3, max_iterations=2), Uniforms([LAST_BRANCH, LAST_BRANCH]))
    assert run.outcome_class == "failed_max_iter"
    assert run.true_tags == (3, 3)
    assert run.iterations_used == 2
    np.testing.assert_allclose(run.final_state, uniform_vector(3, ["LLL"]), atol=1e-12)


def test_probability_conservation_each_iteration():
    for n in (3, 4, 5):
        assert abs(sum(tag_split(pre_tag_state(n))[1].values()) - 1.0) < 1e-12


def test_classify_w_forms():
    # the whole state_class object, both excitation counts included, as run output prints it
    for n in (3, 4, 5):
        singles = ["R" * p + "L" + "R" * (n - 1 - p) for p in range(n)]
        w = uniform_vector(n, singles)
        assert classify_state(w) == {"kind": "W", "l_excitations": 1, "r_excitations": n - 1}
        flipped = uniform_vector(n, [t.translate(str.maketrans("RL", "LR")) for t in singles])
        assert classify_state(flipped) == {"kind": "W_flipped", "l_excitations": n - 1, "r_excitations": 1}


def test_classify_dicke_reports_both_conventions():
    state = uniform_vector(5, DICKE5_TERMS)
    cls = classify_state(state)
    assert cls["kind"] == "Dicke"
    assert cls["l_excitations"] == 3
    assert cls["r_excitations"] == 2


@pytest.mark.parametrize("c, kind", [(2, "Dicke"), (1, "W")])
@pytest.mark.parametrize("n", [4, 5])
def test_classify_reads_a_symmetric_support_with_one_negated_term_as_other(n, c, kind):
    # W and Dicke are one rule: equal weights AND equal phases over every term with c L photons
    terms = ["".join("L" if p in chosen else "R" for p in range(n)) for chosen in itertools.combinations(range(n), c)]
    state = uniform_vector(n, terms)
    assert classify_state(state)["kind"] == kind
    state[np.flatnonzero(state)[-1]] *= -1
    assert classify_state(state) == {"kind": "other", "l_excitations": None, "r_excitations": None}


def test_classify_ghz_like_and_other():
    assert classify_state(conversion_input(3))["kind"] == "GHZ_like"
    assert classify_state(ket("LLL"))["kind"] == "other"
    assert classify_state(np.zeros(8, complex)) == {"kind": "other", "l_excitations": None, "r_excitations": None}
    skew = expected_vector(3, {"RLR": 1.0, "LRR": -1.0, "RRL": 1.0}) / math.sqrt(3)
    assert classify_state(skew)["kind"] == "other"


def test_success_series_three_photons():
    ((per_round, limit),) = success_series(3, 4).values()
    assert per_round == (0.75, 0.1875, 0.046875, 0.01171875)
    assert sum(per_round) == 255 / 256
    assert limit == 1.0


def test_success_series_four_photons():
    ((per_round, _),) = success_series(4, 3).values()
    assert per_round == (1.0, 0.0, 0.0)
    assert sum(per_round) == 1.0


def test_success_series_five_photons():
    series = success_series(5, 8)
    assert list(series) == ["W", "Dicke"]   # the order success-table prints
    (w, w_limit), (dicke, dicke_limit) = series.values()
    assert w[0] == 5 / 16 and dicke[0] == 10 / 16
    assert sum(w) == pytest.approx((1 - 16.0**-8) / 3, abs=1e-15)
    assert sum(dicke) == pytest.approx(2 * (1 - 16.0**-8) / 3, abs=1e-15)
    assert w_limit == pytest.approx(1 / 3, abs=1e-15)
    assert dicke_limit == pytest.approx(2 / 3, abs=1e-15)
    assert sum(w) + sum(dicke) <= 1 + 1e-12


@pytest.mark.parametrize("n", [3, 4, 5])
def test_success_series_is_the_exact_series_rounded_once(n):
    # oracle: the exact rational series, each term rounded to the nearest float
    # by Fraction; the closed forms must match it bit for bit in every round
    exact = {
        3: {"W": (lambda m: Fraction(3, 4) * Fraction(1, 4) ** (m - 1), Fraction(1))},
        4: {"W": (lambda m: Fraction(int(m == 1)), Fraction(1))},
        5: {"W": (lambda m: Fraction(5, 16) * Fraction(1, 16) ** (m - 1), Fraction(1, 3)),
            "Dicke": (lambda m: Fraction(10, 16) * Fraction(1, 16) ** (m - 1), Fraction(2, 3))},
    }[n]
    series = success_series(n, MAX_ITERATIONS)
    assert list(series) == list(exact)
    for label, (term, limit) in exact.items():
        per_round, got_limit = series[label]
        want = tuple(float(term(m)) for m in range(1, MAX_ITERATIONS + 1))
        assert per_round == want and repr(per_round) == repr(want), label
        assert got_limit == float(limit) and repr(got_limit) == repr(float(limit)), label
    assert success_series(n, 7) == {label: (per[:7], lim) for label, (per, lim) in series.items()}


def test_success_series_bad_input():
    with pytest.raises(ValueError):
        success_series(6, 4)
    with pytest.raises(ValueError):
        success_series(3, 0)


def _three_sigma(p, n):
    return 3 * math.sqrt(p * (1 - p) / n)


@pytest.mark.parametrize("rounds", [1, 4, 8])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_ideal_ensemble_cells_match_closed_form(n, rounds):
    cells = _ideal_gate_table(ProtocolSpec(n_photons=n, max_iterations=rounds))
    expected = {
        (cls, m): p for cls, (per_round, _) in success_series(n, rounds).items() for m, p in enumerate(per_round, start=1)
    }
    expected[("failed_max_iter", rounds)] = 1.0 - sum(expected.values())
    assert list(cells) == list(expected)   # the multinomial draws follow this order
    for cell, p in expected.items():
        assert abs(cells[cell] - p) <= 1e-12, cell


@pytest.mark.parametrize("probe", [{}, {"theta": THETA_LOW, "alpha": ALPHA_LOW}], ids=["paper", "low_alpha"])
@pytest.mark.parametrize("readout", ["ideal", "gaussian"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_ideal_gate_table_is_a_distribution(n, readout, probe):
    cells = _ideal_gate_table(ProtocolSpec(n_photons=n, max_iterations=8, homodyne_mode=readout, **probe))
    assert min(cells.values()) >= 0.0
    assert abs(sum(cells.values()) - 1.0) <= 1e-12


@pytest.mark.parametrize("rounds", [1, 4])
@pytest.mark.parametrize("probe", [{}, {"theta": THETA_LOW, "alpha": ALPHA_LOW}], ids=["paper", "low_alpha"])
@pytest.mark.parametrize("readout", ["ideal", "gaussian"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_ideal_gate_table_matches_branch_enumeration(n, readout, probe, rounds):
    # every cell, in order, against one amplitude row per history of true and classified tags
    spec = ProtocolSpec(n_photons=n, max_iterations=rounds, homodyne_mode=readout, **probe)
    cells, want = _ideal_gate_table(spec), branch_table(spec)
    assert list(cells) == list(want)
    for cell, p in want.items():
        assert abs(cells[cell] - p) <= 1e-12, cell


@pytest.mark.parametrize("gamma", [BENCHMARK_GAMMA_ZPL, BENCHMARK_GAMMA_TOTAL])
@pytest.mark.parametrize("readout", ["ideal", "gaussian"])
@pytest.mark.parametrize("n,rounds", [(3, 4), (4, 1), (5, 2)])
def test_realistic_sampler_matches_the_history_enumeration(n, rounds, readout, gamma):
    # G-test of a seeded realistic ensemble against the exact table of every
    # readout history, with cells expecting fewer than 5 trials pooled; each
    # case is tested at 1e-3
    spec = ProtocolSpec(n, max_iterations=rounds, gate_mode="realistic", homodyne_mode=readout,
                        params=CavityParams(g=BENCHMARK_G, kappa=BENCHMARK_KAPPA, gamma=gamma))
    cells = realistic_table(spec)
    assert min(cells.values()) >= 0.0
    assert abs(sum(cells.values()) - 1.0) <= 1e-12
    trials = 20000
    counts = monte_carlo(spec, trials, Stream(11))
    assert set(counts) <= {cell for cell, p in cells.items() if p > 0}
    expected = trials * np.array(list(cells.values()))
    observed = np.array([counts.get(cell, 0) for cell in cells])
    few = expected < 5
    if few.any():
        expected = np.append(expected[~few], expected[few].sum())
        observed = np.append(observed[~few], observed[few].sum())
    seen = observed > 0
    g = 2.0 * float(np.sum(observed[seen] * np.log(observed[seen] / expected[seen])))
    dof = len(expected) - 1
    p = float(mp.gammainc(dof / 2, g / 2, mp.inf, regularized=True)) if dof else float(g < 1e-9)
    assert p > 1e-3, (g, dof, counts, cells)


@pytest.mark.parametrize("n,tags", [(3, {1, 3}), (4, {1, 3}), (5, {1, 3, 5})])
def test_ideal_tags(n, tags):
    # the pinned set is the one the ideal first round gives weight; recovery reproduces it (test_recovery_fixed_point)
    assert ideal_tags(n) == tags == set(tag_split(pre_tag_state(n))[1])


def test_monte_carlo_three_photons_one_round():
    rng = np.random.default_rng(np.random.SeedSequence(101))
    counts = monte_carlo(ProtocolSpec(n_photons=3, max_iterations=1), 100000, rng)
    assert abs(class_frequency(counts, "W", 100000) - 0.75) <= _three_sigma(0.75, 100000)


def test_monte_carlo_four_photons_always_succeeds():
    rng = np.random.default_rng(np.random.SeedSequence(102))
    counts = monte_carlo(ProtocolSpec(n_photons=4), 50000, rng)
    assert class_frequency(counts, "W", 50000) == 1.0
    assert counts == {("W", 1): 50000}


def test_monte_carlo_five_photons_limits():
    rng = np.random.default_rng(np.random.SeedSequence(103))
    counts = monte_carlo(ProtocolSpec(n_photons=5, max_iterations=8), 200000, rng)
    assert abs(class_frequency(counts, "W", 200000) - 1 / 3) <= _three_sigma(1 / 3, 200000)
    assert abs(class_frequency(counts, "Dicke", 200000) - 2 / 3) <= _three_sigma(2 / 3, 200000)


def test_batched_ideal_trajectories_agree_with_table():
    # the table the ensemble draws from against batched ideal-gate trajectories
    spec = ProtocolSpec(n_photons=3, max_iterations=4)
    trials = 4000
    records = _run_rounds(spec, trials, np.random.default_rng(np.random.SeedSequence(7)))
    sampled = Counter((cls, r.iteration) for r in records for cls in r.ends[r.ends != ""].tolist())
    cells = _ideal_gate_table(spec)
    assert set(sampled) <= set(cells)
    for cell, p in cells.items():
        assert abs(sampled[cell] / trials - p) <= _three_sigma(p, trials) + 1e-12, cell


# per-cell false-alarm probability of the two-sample ensemble comparison
_FALSE_ALARM = 1e-9
_WEAK = CavityParams.from_ratios(0.3, 0.4)


def _two_sample_bound(trials: int, share: float) -> float:
    """Count difference that two independent ensembles of ``trials`` trials with the
    same cell probability ``share`` exceed with probability at most _FALSE_ALARM.

    Bernstein's inequality for the sum of the per-trial differences, each in
    [-1, 1] with variance 2 share (1 - share)."""
    log_term = math.log(2.0 / _FALSE_ALARM)
    variance = 2.0 * trials * share * (1.0 - share)
    return log_term / 3.0 + math.sqrt(log_term**2 / 9.0 + 2.0 * log_term * variance)


@pytest.mark.parametrize(
    "spec",
    [
        # weak coupling: leaked tags send many trials into recovery
        ProtocolSpec(n_photons=3, max_iterations=4, gate_mode="realistic", params=_WEAK),
        # barely separated quadratures: most readouts are misclassified
        ProtocolSpec(n_photons=3, max_iterations=4, homodyne_mode="gaussian", theta=THETA_LOW, alpha=ALPHA_LOW),
        ProtocolSpec(n_photons=5, max_iterations=8, homodyne_mode="gaussian", theta=THETA_LOW, alpha=ALPHA_LOW),
    ],
    ids=["realistic_weak", "gaussian_blurred", "gaussian_blurred_n5"],
)
def test_batched_ensemble_matches_single_runs(spec):
    # ideal-gate ensembles draw from the exact table, realistic ones sample batched trajectories
    trials = 3000
    batched = monte_carlo(spec, trials, np.random.default_rng(np.random.SeedSequence(21)))
    rng = np.random.default_rng(np.random.SeedSequence(22))
    single: dict = {}
    for _ in range(trials):
        run = run_protocol(spec, rng=rng)
        key = (run.outcome_class, run.iterations_used)
        single[key] = single.get(key, 0) + 1
    for key in set(batched) | set(single):
        a, b = batched.get(key, 0), single.get(key, 0)
        assert abs(a - b) <= _two_sample_bound(trials, (a + b) / (2 * trials)), (key, a, b)


_ZPL = CavityParams(g=0.3, kappa=26.0, gamma=0.0004)


@pytest.mark.parametrize(
    "spec,trials,misreads",
    [
        (ProtocolSpec(n_photons=3, max_iterations=4, gate_mode="realistic", params=_WEAK), 200, 0),
        # at 20 trials the spin readouts soon give every trial a readout
        # history, and so a row, of its own; at 300 most rows are shared
        (ProtocolSpec(n_photons=5, max_iterations=4, gate_mode="realistic", homodyne_mode="gaussian", params=_ZPL), 20, 0),
        (ProtocolSpec(n_photons=5, max_iterations=4, gate_mode="realistic", homodyne_mode="gaussian", params=_ZPL), 300, 5),
        (ProtocolSpec(n_photons=4, gate_mode="realistic", homodyne_mode="gaussian", params=_ZPL,
                      standardize_flipped=True), 200, 0),
        (ProtocolSpec(n_photons=3, max_iterations=4, homodyne_mode="gaussian", theta=0.02, alpha=1.0), 300, 364),
    ],
    ids=["n3_weak", "n5_gaussian_20", "n5_gaussian_300", "n4_gaussian_flipped", "n3_ideal_gates_blurred"],
)
def test_batch_rows_replay_as_single_runs(spec, trials, misreads):
    # each readout of a batch takes one uniform per trial still in it, in
    # trial order, so every trial, run alone on the uniforms it drew, ends in
    # the same class and round with the same readouts, and the same bytes of
    # state and kept norm: no output byte depends on which trials share a row
    n = spec.n_photons
    rng = np.random.default_rng(np.random.SeedSequence(23))
    records = list(_run_rounds(spec, trials, rng))
    # Generator.random draws its doubles in sequence whatever the call sizes,
    # so the batch's uniforms can be drawn again from its seed
    again = np.random.default_rng(np.random.SeedSequence(23))
    uniforms, tags_of, true_of, spins_of = ([[] for _ in range(trials)] for _ in range(4))
    ended, final, survival = {}, {}, np.ones(trials)
    misread = 0
    for r in records:
        elements = circuit_wiring(n) if r.iteration == 1 else recovery_sequence(n)
        assert len(r.readouts) == (sum(el[0] == "cnot" for el in elements) if spec.gate_mode == "realistic" else 0)
        for _ in range(len(r.readouts) + 1 + (spec.homodyne_mode == "gaussian")):   # spins, true tag, decision cell
            for trial, u in zip(r.live, again.random(r.live.size)):
                uniforms[trial].append(u)
        for j, trial in enumerate(r.live):
            tags_of[trial].append(int(r.tags[j]))
            true_of[trial].append(int(r.true[j]))
            spins_of[trial].extend(int(spins[j]) for spins in r.readouts)
        misread += int((r.tags != r.true).sum())
        # a trial's kept norm multiplies in round order from 1.0, and its final
        # row is the standardized row it holds in the round it ends in
        survival[r.live] *= r.norms
        rows = _standardize(spec, r.rows[r.at], r.tags)
        for j in np.flatnonzero(r.ends != ""):
            ended[r.live[j]] = (str(r.ends[j]), r.iteration)
            final[r.live[j]] = rows[j]
    assert again.bit_generator.state == rng.bit_generator.state
    assert misread == misreads
    for i in range(trials):
        draws = Uniforms(uniforms[i])
        run = run_protocol(spec, draws)
        assert next(draws.left, None) is None   # the run drew every uniform of its trial, and no more
        assert (run.outcome_class, run.iterations_used) == ended[i]
        assert (run.homodyne_tags, run.true_tags, run.spin_outcomes) == (
            tuple(tags_of[i]), tuple(true_of[i]), tuple(spins_of[i]))
        assert final[i].tobytes() == run.final_state.tobytes()
        assert survival[i] == run.accumulated_norm


@pytest.mark.parametrize(
    "spec,classes",
    [
        (ProtocolSpec(n_photons=3, max_iterations=1), {"W", "failed_max_iter"}),
        (ProtocolSpec(n_photons=4, gate_mode="realistic", params=_WEAK), {"W", "failed_no_recovery"}),
        (ProtocolSpec(n_photons=5), {"W", "Dicke"}),
    ],
    ids=["n3_one_round", "n4_weak", "n5"],
)
def test_round_records_end_each_trial_once(spec, classes):
    # every trial ends in exactly one round; the trials a round leaves running
    # are the next round's batch, and no later round holds an ended trial
    trials = 300
    records = list(_run_rounds(spec, trials, np.random.default_rng(np.random.SeedSequence(25))))
    ends: Counter = Counter()
    for r, following in zip(records, records[1:] + [None]):
        for per_trial in (r.norms, r.tags, r.true, r.at, r.ends, *r.readouts):
            assert per_trial.shape == r.live.shape
        assert not set(r.live.tolist()) & set(ends)
        done = r.ends != ""
        ends.update(r.live[done].tolist())
        assert np.array_equal(r.live[~done], following.live if following else [])
    assert ends == Counter(range(trials))
    assert {cls for r in records for cls in r.ends.tolist()} - {""} == classes


@pytest.mark.parametrize("max_iterations,stuck", [(4, "failed_no_recovery"), (1, "failed_max_iter")])
def test_four_photon_leaked_tag_ends_the_run(max_iterations, stuck):
    # recovery_sequence(4) is empty: a tag that declares nothing ends the
    # run in its round, and in the last round that is the round budget running out
    spec = ProtocolSpec(n_photons=4, max_iterations=max_iterations, gate_mode="realistic", params=_WEAK)
    rng = np.random.default_rng(np.random.SeedSequence(24))
    runs = [run_protocol(spec, rng=rng) for _ in range(200)]
    assert {r.outcome_class for r in runs} == {"W", stuck}
    for r in runs:
        assert r.iterations_used == len(r.true_tags) == 1
        assert (r.outcome_class == "W") == (r.homodyne_tags[0] in (1, 3))


def _classification_probabilities(rows, model):
    """P(classified tag) of each row: its tag weights times the Gaussian mass of each decision cell."""
    l_count = np.array([bin(i).count("1") for i in range(rows.shape[1])])
    tags = range(l_count.max() + 1)
    weights = np.stack([np.sum(np.abs(rows[:, l_count == k]) ** 2, axis=1) for k in tags], axis=1)
    return weights / weights.sum(axis=1, keepdims=True) @ model.confusion(tags)


@pytest.mark.parametrize("n", [3, 5])
def test_gaussian_readout_is_continuous_in_leaked_weight(n):
    # realistic gates leak float-noise weight into tags the ideal circuit never
    # produces; whether such an amplitude is exactly 0 or 1e-30 must change no
    # seeded readout and move no classification probability by more than 1e-9
    spec = ProtocolSpec(n_photons=n, gate_mode="realistic", homodyne_mode="gaussian",
                        params=CavityParams(g=0.3, kappa=26.0, gamma=0.0004))
    rng = np.random.default_rng(np.random.SeedSequence(25))
    rows, at, *_ = _run_gates(conversion_input(n)[None], np.zeros(2000, int), circuit_wiring(n),
                              _kraus(spin_photon_map(spec.params)), rng)
    leaked = ~np.isin([bin(i).count("1") for i in range(1 << n)], sorted(ideal_tags(n)))
    noise = leaked & (np.abs(rows) < 1e-15)
    assert noise.any()
    exact_zero, tiny = np.where(noise, 0.0, rows), np.where(noise, 1e-30, rows)
    receiver = HomodyneModel.for_tags(spec.alpha, spec.theta, ideal_tags(n))
    reads = [read_rows(r, at, _receiver(spec), np.random.default_rng(26)) for r in (rows, exact_zero, tiny)]
    for tags, true, *_ in reads[1:]:
        np.testing.assert_array_equal(tags, reads[0][0])
        np.testing.assert_array_equal(true, reads[0][1])
    probs = [_classification_probabilities(r, receiver) for r in (rows, exact_zero, tiny)]
    assert np.abs(probs[1] - probs[0]).max() < 1e-9
    assert np.abs(probs[2] - probs[0]).max() < 1e-9


def test_monte_carlo_gaussian_mode_runs():
    spec = ProtocolSpec(n_photons=3, max_iterations=4, homodyne_mode="gaussian")
    counts = monte_carlo(spec, 2000, np.random.default_rng(np.random.SeedSequence(8)))
    assert abs(class_frequency(counts, "W", 2000) - 255 / 256) <= _three_sigma(255 / 256, 2000) + 1e-4


# the outcome classes each photon number can declare in any round; failed_max_iter books the last round only
_DECLARED = {3: {"W"}, 5: {"W", "Dicke"}}


@pytest.mark.parametrize("trials", [1, _MC_CHUNK, _MC_CHUNK + 1])
@pytest.mark.parametrize(
    "spec",
    [
        ProtocolSpec(n_photons=5, max_iterations=8),
        ProtocolSpec(n_photons=5, max_iterations=8, homodyne_mode="gaussian", theta=THETA_LOW, alpha=ALPHA_LOW),
        ProtocolSpec(n_photons=3, max_iterations=4, gate_mode="realistic", params=_WEAK),
    ],
    ids=["ideal_table", "gaussian_table", "realistic_sampler"],
)
def test_monte_carlo_counts_every_trial_once(spec, trials):
    counts = monte_carlo(spec, trials, np.random.default_rng(np.random.SeedSequence(28)))
    assert sum(counts.values()) == trials
    for (cls, rounds), count in counts.items():
        assert type(count) is int and count > 0, (cls, rounds, count)
        if cls == "failed_max_iter":
            assert rounds == spec.max_iterations
        else:
            assert cls in _DECLARED[spec.n_photons] and 1 <= rounds <= spec.max_iterations, (cls, rounds)


def test_monte_carlo_reproducible():
    spec = ProtocolSpec(n_photons=5, max_iterations=8)
    a = monte_carlo(spec, 30000, np.random.default_rng(np.random.SeedSequence(99)))
    b = monte_carlo(spec, 30000, np.random.default_rng(np.random.SeedSequence(99)))
    assert a == b


def test_realistic_run_records_loss():
    params = CavityParams.from_ratios(5.0, 5.0)
    spec = ProtocolSpec(n_photons=3, gate_mode="realistic", params=params)
    run = run_protocol(spec, Uniforms([0.0, 0.0, 0.5]))   # two plus spins, then 0.5 in tag 1's interval
    assert 0.0 < run.accumulated_norm < 1.0
    assert run.true_tags == (1,)
    assert run.outcome_class == "W"


def test_realistic_protocol_fidelity_converges_to_ideal():
    # the conditioned protocol fidelity approaches 1 as the coupling grows;
    # conditioning on the tag can lift it above the per-gate product, so only
    # convergence and high-coupling closeness are asserted
    fidelities = []
    for ratio in (1.0, 25.0, 1000.0):
        params = CavityParams.from_ratios(math.sqrt(ratio), math.sqrt(ratio))
        spec = ProtocolSpec(n_photons=3, gate_mode="realistic", params=params)
        run = run_protocol(spec, Uniforms([0.0, 0.0, 0.5]))
        assert run.true_tags == (1,)
        fidelities.append(fidelity_vs_ideal(spec, run))
        assert len(run.spin_outcomes) == 2
    assert fidelities[0] < fidelities[1] < fidelities[2]
    assert fidelities[-1] > 1 - 1e-6


def test_realistic_trace_gate_count_matches_iterations():
    params = CavityParams.from_ratios(10.0, 10.0)
    spec = ProtocolSpec(n_photons=5, gate_mode="realistic", params=params, max_iterations=3)
    # 6 gates in round one, recovery adds 1 + 3 suffix gates; every spin reads
    # plus, the first tag its last (5) and the second 0.15, in tag 1's interval
    run = run_protocol(spec, Uniforms([0.0] * 6 + [LAST_BRANCH] + [0.0] * 4 + [0.15]))
    assert len(run.spin_outcomes) == 10
    assert run.homodyne_tags == (5, 1)
    assert run.outcome_class == "W"
    assert classify_state(_ideal_branch(spec, (5, 1)))["kind"] == "W"
    assert 0 <= fidelity_vs_ideal(spec, run) <= 1 + 1e-12


def test_fidelity_vs_ideal_needs_a_realistic_run_on_ideal_branches():
    # ideal gates have nothing to compare, and a misread tag sends the run down
    # an arm the ideal circuit on the true tags does not take
    spec = ProtocolSpec(n_photons=3, max_iterations=1)
    assert fidelity_vs_ideal(spec, run_protocol(spec, Uniforms([0.0]))) is None
    spec = replace(spec, gate_mode="realistic", homodyne_mode="gaussian", theta=THETA_LOW, alpha=ALPHA_LOW)
    rng = np.random.default_rng(np.random.SeedSequence(27))
    runs = [run_protocol(spec, rng=rng) for _ in range(100)]
    misread = [r for r in runs if r.misclassification_events]
    assert misread and all(fidelity_vs_ideal(spec, r) is None for r in misread)
    read_true = [r for r in runs if not r.misclassification_events and set(r.true_tags) <= {1, 3}]
    assert read_true and all(0 <= fidelity_vs_ideal(spec, r) <= 1 + 1e-12 for r in read_true)


@pytest.mark.parametrize("flip", [False, True])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_ideal_branch_is_the_final_row_of_an_ideal_run_on_its_tags(n, flip):
    # the ideal run and the direct walk divide each kept branch alike, to the bit
    spec = ProtocolSpec(n_photons=n, max_iterations=5, standardize_flipped=flip)
    rng = np.random.default_rng(np.random.SeedSequence(29))
    seen = set()
    for _ in range(200):
        run = run_protocol(spec, rng)
        seen.add(run.true_tags)
        assert _ideal_branch(spec, run.true_tags).tobytes() == run.final_state.tobytes(), run.true_tags
    assert len(seen) >= {3: 4, 4: 2, 5: 4}[n]


@pytest.mark.parametrize(
    "n,true_tags",
    [(3, (0,)), (3, (2,)), (3, (7,)), (3, (-1,)), (5, (5, 4)), (4, (2,))],
    ids=["absent", "between", "beyond", "negative", "absent_in_recovery", "absent_at_four"],
)
def test_ideal_branch_on_a_tag_without_weight_is_impossible(n, true_tags):
    with pytest.raises(ValueError, match="impossible outcome"):
        _ideal_branch(ProtocolSpec(n_photons=n), true_tags)


def test_composite_fidelity_products():
    rows = {r["label"]: r for r in composite_fidelity_report()}
    assert rows["three_photon_round1"]["product_full"] == pytest.approx(0.992, abs=1e-3)
    assert rows["four_photon"]["product_full"] == pytest.approx(0.984, abs=1e-3)
    assert rows["three_photon_rounds4"]["product_full"] == pytest.approx(0.957, abs=1e-3)
    assert rows["five_photon_rounds4"]["product_full"] == pytest.approx(0.897, abs=1e-3)
    # the executed suffix re-entry uses fewer gates, so its product is higher
    for row in rows.values():
        assert row["product_suffix"] >= row["product_full"]


def test_composite_gate_counts_follow_the_wiring():
    rows = composite_fidelity_report()
    assert [r["suffix_gates"] for r in rows] == [2, 4, 8, 18]
    assert [r["full_gates"] for r in rows] == [2, 4, 11, 27]


def test_spec_validation():
    with pytest.raises(ValueError, match="unsupported"):
        ProtocolSpec(n_photons=2)
    with pytest.raises(ValueError, match="max_iterations"):
        ProtocolSpec(n_photons=3, max_iterations=0)
    with pytest.raises(ValueError, match="gate mode"):
        ProtocolSpec(n_photons=3, gate_mode="fancy")
    with pytest.raises(ValueError, match="homodyne mode 'heterodyne'"):
        ProtocolSpec(n_photons=3, homodyne_mode="heterodyne")
    with pytest.raises(ValueError, match="theta must be finite and > 0"):
        ProtocolSpec(n_photons=3, theta=0.0)
    for alpha in (0.0, 0.5):   # a probe of amplitude below 1, or none, is a valid spec
        assert ProtocolSpec(n_photons=3, alpha=alpha).alpha == alpha
    with pytest.raises(ValueError, match="alpha finite and >= 0"):
        ProtocolSpec(n_photons=3, alpha=-0.5)


def test_gaussian_misclassification_is_recorded():
    # nearly-degenerate probe phases force frequent misclassification
    spec = ProtocolSpec(n_photons=3, max_iterations=1, homodyne_mode="gaussian", theta=0.02, alpha=1.0)
    rng = np.random.default_rng(np.random.SeedSequence(5))
    runs = [run_protocol(spec, rng=rng) for _ in range(400)]
    assert any(r.misclassification_events > 0 for r in runs)
    for r in runs:
        if r.misclassification_events == 0 and r.outcome_class in ("W", "Dicke"):
            assert classify_state(r.final_state)["kind"] in ("W", "W_flipped", "Dicke")
