"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
"""

import json
import math
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from entconv.cavity import CavityParams, empty_reflection, reflection_coefficient, spin_photon_map
from entconv.cli import main
from entconv.cnot import _fidelities, _kraus, benchmark_report
from entconv.kerr import HomodyneModel, error_probability, peak_distances, quadrature_mean
from entconv.protocols import (
    ProtocolSpec,
    circuit_wiring,
    composite_fidelity_report,
    conversion_input,
    monte_carlo,
    run_protocol,
    success_series,
    _ideal_branch,
    _run_gates,
)
from entconv.optics import CNOT
from entconv.qstate import apply_rows, collapse, ket

from conftest import Uniforms, class_frequency, edge_draws, tag_split, uniform_vector
from oracle import IDEAL_BOUNCE, classify

ALPHA_REF = math.sqrt(1.3e4)
THETA_REF = 0.1

PRE_TAG_TERMS = {
    3: "RLR LRR RRL LLL".split(),
    4: "RRRL RRLR RLRR LRRR RLLL LRLL LLRL LLLR".split(),
    5: (
        "LRRRR RLRRR RRLRR RRRLR RRRRL LLLLL LLRRL LLRLR RLRLL LLLRR "
        "RLLRL RLLLR LRRLL LRLRL LRLLR RRLLL"
    ).split(),
}
BRANCH_TERMS = {
    (3, 1): "RLR LRR RRL".split(),
    (3, 3): ["LLL"],
    (4, 1): "RRRL RRLR RLRR LRRR".split(),
    (4, 3): "RLLL LRLL LLRL LLLR".split(),
    (5, 1): "LRRRR RLRRR RRLRR RRRLR RRRRL".split(),
    (5, 3): "LLRRL LLRLR RLRLL LLLRR RLLRL RLLLR LRRLL LRLRL LRLLR RRLLL".split(),
    (5, 5): ["LLLLL"],
}
BRANCH_WEIGHTS = {
    3: {1: Fraction(3, 4), 3: Fraction(1, 4)},
    4: {1: Fraction(1, 2), 3: Fraction(1, 2)},
    5: {1: Fraction(5, 16), 3: Fraction(10, 16), 5: Fraction(1, 16)},
}


def _verdict(number: int, text: str) -> None:
    print(f"[ACCEPTANCE] criterion {number}: PASS - {text}")


def test_criterion_1_state_evolution_oracles():
    t0 = time.perf_counter()
    for n in (3, 4, 5):
        rows, *_ = _run_gates(conversion_input(n)[None], None, circuit_wiring(n), CNOT)
        state = rows[0]
        np.testing.assert_allclose(state, uniform_vector(n, PRE_TAG_TERMS[n]), atol=1e-12)
        _, weights = tag_split(state)
        assert tuple(weights) == tuple(sorted(BRANCH_WEIGHTS[n]))
        for tag, weight in BRANCH_WEIGHTS[n].items():
            assert abs(weights[tag] - float(weight)) < 1e-12
            # each branch keeps the pre-tag amplitudes on its own terms
            branch = _ideal_branch(ProtocolSpec(n_photons=n), (tag,))
            np.testing.assert_allclose(branch, uniform_vector(n, BRANCH_TERMS[(n, tag)]), atol=1e-12)
    # five-photon outcome branches after renormalization: 0.0 reads tag 1, and
    # 0.5 falls in tag 3's cumulative interval (5/16, 15/16)
    run_w = run_protocol(ProtocolSpec(n_photons=5), Uniforms([0.0]))
    assert (run_w.true_tags, run_w.outcome_class) == ((1,), "W")
    np.testing.assert_allclose(run_w.final_state, uniform_vector(5, BRANCH_TERMS[(5, 1)]), atol=1e-12)
    run_d = run_protocol(ProtocolSpec(n_photons=5), Uniforms([0.5]))
    assert (run_d.true_tags, run_d.outcome_class) == ((3,), "Dicke")
    np.testing.assert_allclose(run_d.final_state, uniform_vector(5, BRANCH_TERMS[(5, 3)]), atol=1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _verdict(1, f"pre-tag states, partitions and outcome branches exact to 1e-12 ({elapsed:.3f}s)")


def test_criterion_2_success_probabilities():
    t0 = time.perf_counter()
    ((s3, _),) = success_series(3, 1).values()
    assert sum(s3) == 0.75
    ((s3b, _),) = success_series(3, 4).values()
    assert sum(s3b) == 255 / 256
    ((s4, _),) = success_series(4, 1).values()
    assert sum(s4) == 1.0
    (w5, _), (d5, _) = success_series(5, 1).values()
    assert (w5[0], d5[0]) == (5 / 16, 10 / 16)
    (_, w5_limit), (_, d5_limit) = success_series(5, 64).values()
    assert abs(w5_limit - 1 / 3) < 1e-15 and abs(d5_limit - 2 / 3) < 1e-15

    trials = 10**6

    def sigma(p):
        return math.sqrt(p * (1 - p) / trials)

    rng = np.random.default_rng(np.random.SeedSequence(2026_001))
    f = class_frequency(monte_carlo(ProtocolSpec(n_photons=3, max_iterations=1), trials, rng), "W", trials)
    assert abs(f - 0.75) <= 3 * sigma(0.75)
    rng = np.random.default_rng(np.random.SeedSequence(2026_002))
    f = class_frequency(monte_carlo(ProtocolSpec(n_photons=3, max_iterations=4), trials, rng), "W", trials)
    assert abs(f - 255 / 256) <= 3 * sigma(255 / 256)
    rng = np.random.default_rng(np.random.SeedSequence(2026_003))
    assert class_frequency(monte_carlo(ProtocolSpec(n_photons=4), trials, rng), "W", trials) == 1.0
    rng = np.random.default_rng(np.random.SeedSequence(2026_004))
    res5 = monte_carlo(ProtocolSpec(n_photons=5, max_iterations=1), trials, rng)
    assert abs(class_frequency(res5, "W", trials) - 5 / 16) <= 3 * sigma(5 / 16)
    assert abs(class_frequency(res5, "Dicke", trials) - 10 / 16) <= 3 * sigma(10 / 16)
    rng = np.random.default_rng(np.random.SeedSequence(2026_005))
    res5b = monte_carlo(ProtocolSpec(n_photons=5, max_iterations=8), trials, rng)
    assert abs(class_frequency(res5b, "W", trials) - 1 / 3) <= 3 * sigma(1 / 3)
    assert abs(class_frequency(res5b, "Dicke", trials) - 2 / 3) <= 3 * sigma(2 / 3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _verdict(2, f"closed forms exact, five 1e6-trial ensembles within 3 sigma ({elapsed:.1f}s)")


def test_criterion_3_reflection_physics(rng):
    p = CavityParams(g=5.0, kappa=1.0, gamma=1.0)
    assert abs(reflection_coefficient(p) - 0.9801980198019802) < 1e-12
    assert empty_reflection(CavityParams(g=1, kappa=0.7, gamma=0.2)) == -1.0
    for _ in range(100):
        q = CavityParams(
            g=1.0,
            kappa=float(rng.uniform(0.05, 40)),
            gamma=1.0,
            omega_c=float(rng.uniform(-50, 50)),
            omega_p=float(rng.uniform(-50, 50)),
        )
        assert abs(abs(empty_reflection(q)) - 1.0) < 1e-12
    gaps = []
    for ratio in (1, 5, 25, 100, 1000):
        q = CavityParams.from_ratios(math.sqrt(ratio), math.sqrt(ratio))
        gaps.append(float(np.max(np.abs(spin_photon_map(q) - IDEAL_BOUNCE))))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    _verdict(3, "resonant r = 0.980198..., r0 = -1 exactly, |r0| = 1, monotone convergence to the ideal map")


def test_criterion_4_cnot_contract(rng):
    for s, want in (("RR", "RR"), ("RL", "LL"), ("LR", "LR"), ("LL", "RL")):
        out = apply_rows(ket(s), (2, 1), CNOT)
        assert abs(out[int(np.argmax(np.abs(out)))] - 1.0) < 1e-12
        got = int(np.argmax(np.abs(out)))
        assert got == (("RL".index(want[0]) << 1) | "RL".index(want[1]))
    for _ in range(25):
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = c / np.linalg.norm(c)
        a, b, g, d = state
        want_vec = np.array([a, d, g, b])  # alpha|RR> + delta|RL> + gamma|LR> + beta|LL>
        for spin in (0, 1):
            readouts, rows, _, _ = collapse(apply_rows(state[None], (2, 1), _kraus(IDEAL_BOUNCE)), [0], edge_draws(spin))
            np.testing.assert_allclose(rows[0], want_vec, atol=1e-12)
            assert readouts[0] == spin
        again = apply_rows(apply_rows(state, (2, 1), CNOT), (2, 1), CNOT)
        np.testing.assert_allclose(again, state, atol=1e-12)
    _verdict(4, "both readout branches with feed-forward are exact; involution and truth table verified")


def test_criterion_5_fidelity_surface():
    grid = np.linspace(0.5, 10.0, 20)
    for mode in ("uniform", "basis_average"):
        surface = {}
        for outcome in (0, 1):
            for gk in grid:
                for gg in grid:
                    params = CavityParams.from_ratios(float(gk), float(gg))
                    if mode == "basis_average":
                        basis = np.stack([ket(s) for s in ("RR", "RL", "LR", "LL")])
                        f = float(np.mean(_fidelities(params, basis)[outcome]))
                    else:
                        uniform = uniform_vector(2, ["RR", "RL", "LR", "LL"])
                        kraus = _kraus(spin_photon_map(params))
                        readouts, rows, _, _ = collapse(apply_rows(uniform[None], (2, 1), kraus), [0], edge_draws(outcome))
                        assert readouts[0] == outcome
                        f = abs(np.vdot(rows[0], apply_rows(uniform, (2, 1), CNOT))) ** 2
                    surface[(round(float(gk), 9), round(float(gg), 9), outcome)] = f
        for outcome in (0, 1):
            for i, gk in enumerate(grid):
                for j, gg in enumerate(grid):
                    here = surface[(round(float(gk), 9), round(float(gg), 9), outcome)]
                    if i + 1 < len(grid):
                        assert surface[(round(float(grid[i + 1]), 9), round(float(gg), 9), outcome)] >= here - 1e-12
                    if j + 1 < len(grid):
                        assert surface[(round(float(gk), 9), round(float(grid[j + 1]), 9), outcome)] >= here - 1e-12
        assert surface[(5.0, 5.0, 0)] >= 0.99
        assert surface[(5.0, 5.0, 1)] >= 0.99

    report = benchmark_report()
    lines = []
    for key, row in sorted(report.items()):
        status = "matched" if row["matched"] else "deviates"
        lines.append(
            f"    {key}: F = {row['fidelity']:.6f} vs target {row['target']:.3f} "
            f"({row['deviation_pp']:.3f} pp, {status})"
        )
    # the zero-phonon-line reading with basis-averaged input reproduces both
    # targets within 0.5 pp; the total-decay reading deviates and is reported
    assert report["gamma_zpl:basis_average:plus"]["matched"]
    assert report["gamma_zpl:basis_average:minus"]["matched"]
    assert not report["gamma_total:basis_average:plus"]["matched"]
    _verdict(5, "surface monotone on the 20x20 grid, F >= 0.99 at g^2 = 25 kappa gamma; reference point report:")
    for line in lines:
        print(line)


def test_criterion_6_homodyne_error_model():
    t0 = time.perf_counter()
    assert error_probability(0.0) == 0.5
    d1, d2 = peak_distances(ALPHA_REF, THETA_REF, (1, 3, 5))
    p1 = error_probability(d1)
    assert p1 < 1e-5
    mp.mp.dps = 50
    alpha = mp.sqrt(13000)
    oracle = float(mp.erfc(2 * alpha * (mp.cos(mp.mpf("0.1")) - mp.cos(mp.mpf("0.3"))) / (2 * mp.sqrt(2))) / 2)
    assert p1 == pytest.approx(oracle, rel=1e-12)
    # two significant figures of the derived value
    assert f"{p1:.2g}" == f"{oracle:.2g}"
    assert p1 == pytest.approx(3.05e-6, rel=0.05)

    draws = 10**7
    model = HomodyneModel.for_tags(ALPHA_REF, THETA_REF, (1, 3))
    rng = np.random.default_rng(np.random.SeedSequence(20260810))
    miss = int(np.sum(classify(model, rng.normal(quadrature_mean(ALPHA_REF, THETA_REF, 1), 1.0, size=draws)) != 1))
    se = math.sqrt(draws * p1 * (1 - p1))
    assert abs(miss - draws * p1) <= 3 * se
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _verdict(
        6,
        f"P(0) = 1/2 exact; reference point {p1:.3e} < 1e-5 matches the high-precision oracle; "
        f"{draws} draws gave {miss} misses vs expected {draws * p1:.1f} +- {3 * se:.1f} ({elapsed:.1f}s)",
    )


def test_criterion_7_composite_fidelity():
    rows = {r["label"]: r for r in composite_fidelity_report()}
    assert rows["three_photon_round1"]["product_full"] == pytest.approx(0.992, abs=1e-3)
    assert rows["four_photon"]["product_full"] == pytest.approx(0.984, abs=1e-3)
    assert rows["three_photon_rounds4"]["product_full"] == pytest.approx(0.957, abs=1e-3)
    assert rows["five_photon_rounds4"]["product_full"] == pytest.approx(0.897, abs=1e-3)
    _verdict(
        7,
        "0.996^2 = 0.992 and 0.996^4 = 0.984 within 0.1 pp; iterated quotes (0.957, 0.897) "
        "reproduced under the full re-entry gate count (11 and 27 gates) - the executed suffix "
        "re-entry uses fewer gates (8 and 18), so both products are reported",
    )


def test_criterion_8_reproducibility(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "protocol": {"n_photons": 5, "max_iterations": 8, "homodyne_mode": "gaussian"},
                "seed": 314159,
                "trials": 5000,
            }
        )
    )
    pairs = []
    for command in (["run"], ["montecarlo", "--jobs", "1"]):
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        assert main([*command, "--config", str(config), "--out", str(a)]) == 0
        assert main([*command, "--config", str(config), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        pairs.append(command[0])
    _verdict(8, f"same seed gives byte-identical outputs for {', '.join(pairs)}")
