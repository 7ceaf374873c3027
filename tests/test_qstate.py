import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entconv.qstate import (
    SPIN,
    Pol,
    QuantumState,
    Spin,
    apply_controlled,
    apply_rows,
    apply_single_qubit,
    attach_spin,
    discard_spin,
    inner,
    ket,
    make_basis_state,
    measure_site,
    measure_spin,
    superpose,
)
from entconv.optics import CNOT, HWP, SPIN_HADAMARD

from conftest import basis_index, expected_vector


def test_basis_embedding_three_photons():
    s = make_basis_state([Pol.R, Pol.L, Pol.R])
    want = np.zeros(8, complex)
    want[basis_index("RLR")] = 1.0
    assert np.array_equal(s.amplitudes, want)


def test_basis_embedding_photon_plus_spin():
    s = make_basis_state([Pol.R], Spin.PLUS)
    want = np.zeros(4, complex)
    want[basis_index("R", 0)] = 1.0
    assert np.array_equal(s.amplitudes, want)


def test_basis_embedding_five_photons_all_l():
    s = ket("LLLLL")
    assert s.amplitudes[basis_index("LLLLL")] == 1.0
    assert np.count_nonzero(s.amplitudes) == 1
    assert s.dim == 32


def test_empty_register_rejected():
    with pytest.raises(ValueError, match="empty register"):
        make_basis_state([])


def test_oversized_register_rejected():
    with pytest.raises(ValueError, match="too large"):
        make_basis_state([Pol.R] * 9)


def test_superpose_ghz_pair():
    s = superpose([(ket("RLR"), 1.0), (ket("LRL"), 1.0)])
    want = expected_vector(3, {"RLR": 1 / math.sqrt(2), "LRL": 1 / math.sqrt(2)})
    np.testing.assert_allclose(s.amplitudes, want, atol=1e-12)


def test_superpose_cancellation_is_null():
    with pytest.raises(ValueError, match="null state"):
        superpose([(ket("R"), 1.0), (ket("R"), -1.0)])


def test_superpose_four_photon_input():
    s = superpose([(ket("RLRR"), 1.0), (ket("LRLL"), 1.0)])
    want = expected_vector(4, {"RLRR": 1 / math.sqrt(2), "LRLL": 1 / math.sqrt(2)})
    np.testing.assert_allclose(s.amplitudes, want, atol=1e-12)


def test_superpose_shape_mismatch():
    with pytest.raises(ValueError, match="shapes"):
        superpose([(ket("RR"), 1.0), (ket("RRR"), 1.0)])


def test_identity_map_leaves_state():
    s = superpose([(ket("RLR"), 1.0), (ket("LRL"), 1.0j)])
    out = apply_single_qubit(s, 2, np.eye(2))
    np.testing.assert_array_equal(out.amplitudes, s.amplitudes)


def test_x_map_flips_photon2():
    out = apply_single_qubit(ket("RLR"), 2, HWP)
    np.testing.assert_allclose(out.amplitudes, expected_vector(3, {"RRR": 1.0}), atol=1e-15)


def test_hadamard_twice_on_spin_is_identity():
    s = attach_spin(ket("RL"), np.array([0.6, 0.8]))
    out = apply_single_qubit(apply_single_qubit(s, SPIN, SPIN_HADAMARD), SPIN, SPIN_HADAMARD)
    np.testing.assert_allclose(out.amplitudes, s.amplitudes, atol=1e-12)


def test_site_out_of_range():
    with pytest.raises(ValueError, match="site out of range"):
        apply_single_qubit(ket("RR"), 3, np.eye(2))


def test_controlled_off_branch_untouched():
    out = apply_controlled(ket("LRL"), 2, 3, HWP)
    np.testing.assert_array_equal(out.amplitudes, ket("LRL").amplitudes)


def test_controlled_flip_when_control_l():
    out = apply_controlled(ket("RLR"), 2, 3, HWP)
    np.testing.assert_allclose(out.amplitudes, expected_vector(3, {"RLL": 1.0}), atol=1e-15)


def test_controlled_involution():
    s = superpose([(ket("RLR"), 1.0), (ket("LLL"), 0.5), (ket("RRL"), -0.25j)])
    out = apply_controlled(apply_controlled(s, 1, 3, HWP), 1, 3, HWP)
    np.testing.assert_allclose(out.amplitudes, s.amplitudes, atol=1e-12)


def test_control_equals_target_rejected():
    with pytest.raises(ValueError, match="differ"):
        apply_controlled(ket("RR"), 1, 1, HWP)


def dense_row_operator(n, bits, op):
    """The 2**n x 2**n matrix that a row multiplies to apply the 2**k x 2**k ``op`` on ``bits``.

    ``np.kron(op, I)`` acts on an index whose top k bits are ``bits`` in
    order and whose low bits are the other bits from high to low; ``perm``
    takes each basis index to that layout.
    """
    order = list(bits) + [b for b in reversed(range(n)) if b not in bits]
    perm = [sum(((i >> b) & 1) << (n - 1 - pos) for pos, b in enumerate(order)) for i in range(1 << n)]
    return np.kron(op, np.eye(1 << (n - len(bits))))[np.ix_(perm, perm)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_apply_rows_matches_the_dense_operator(n):
    rng = np.random.default_rng(n)
    choices = [bits for k in (1, 2) for bits in itertools.permutations(range(n), k)]
    for bits, lead, trials in itertools.product(choices, [(), (2,), (3, 2)], [1, 7]):
        dim = 1 << len(bits)
        op = rng.normal(size=lead + (dim, dim, 2)) @ [1, 1j]
        rows = rng.normal(size=(trials, 1 << n, 2)) @ [1, 1j]
        dense = np.zeros(lead + (1 << n, 1 << n), complex)
        for idx in np.ndindex(*lead):
            dense[idx] = dense_row_operator(n, bits, op[idx])
        got = apply_rows(rows, bits, op)
        assert got.shape == lead + rows.shape
        assert np.max(np.abs(got - rows @ dense)) <= 1e-13, (bits, lead, trials)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cnot_constant_is_the_controlled_flip_on_every_basis_state(n):
    for (control, target), index in itertools.product(itertools.permutations(range(1, n + 1), 2), range(1 << n)):
        state = QuantumState(n, False, np.eye(1 << n)[index])
        row = apply_rows(state.amplitudes[None], (n - control, n - target), CNOT)[0]
        assert np.array_equal(row, apply_controlled(state, control, target, HWP).amplitudes)
        flipped = index ^ (1 << (n - target)) if (index >> (n - control)) & 1 else index
        assert np.array_equal(row, np.eye(1 << n)[flipped])


def test_inner_self_is_one():
    s = superpose([(ket("RLR"), 1.0), (ket("LRL"), 1.0)])
    assert abs(inner(s, s) - 1.0) < 1e-12


def test_inner_orthogonal():
    assert inner(ket("R"), ket("L")) == 0.0


def test_inner_rebuilt_four_term_state():
    terms = ["RLR", "LRR", "RRL", "LLL"]
    a = superpose([(ket(t), 1.0) for t in terms])
    b = superpose([(ket(t), 1.0) for t in terms])
    assert abs(inner(a, b) - 1.0) < 1e-12


def test_inner_shape_mismatch():
    with pytest.raises(ValueError, match="shapes"):
        inner(ket("R"), ket("RR"))


def test_spin_measurement_probabilities_half(rng):
    # two photons entangled with the spin through equal-weight branches
    c = rng.normal(size=4) + 1j * rng.normal(size=4)
    c = c / np.linalg.norm(c)
    plus = {("RR", 0): c[0], ("LL", 0): c[1], ("LR", 0): c[2], ("RL", 0): c[3]}
    minus = {("LR", 1): c[0], ("RL", 1): c[1], ("RR", 1): c[2], ("LL", 1): c[3]}
    vec = (expected_vector(2, plus, spin_slots=True) + expected_vector(2, minus, spin_slots=True)) / math.sqrt(2)
    state = QuantumState(2, True, vec)
    # oracle: direct amplitude sums over the spin-bit masks
    p_plus_direct = float(np.sum(np.abs(vec[::2]) ** 2))
    rec, _ = measure_spin(state, forced=Spin.PLUS)
    assert abs(rec.probability - p_plus_direct) < 1e-12
    assert abs(rec.probability - 0.5) < 1e-12
    rec, _ = measure_spin(state, forced=Spin.MINUS)
    assert abs(rec.probability - 0.5) < 1e-12


def test_eigenstate_measurement_certain():
    s = attach_spin(ket("RL"), np.array([1.0, 0.0]))
    rec, out = measure_spin(s, forced=Spin.PLUS)
    assert abs(rec.probability - 1.0) < 1e-12
    np.testing.assert_allclose(out.amplitudes, s.amplitudes, atol=1e-12)


def test_forced_minus_collapse_keeps_minus_branch(rng):
    c = rng.normal(size=4) + 1j * rng.normal(size=4)
    c = c / np.linalg.norm(c)
    plus = {("RR", 0): c[0], ("LL", 0): c[1], ("LR", 0): c[2], ("RL", 0): c[3]}
    minus = {("LR", 1): c[0], ("RL", 1): c[1], ("RR", 1): c[2], ("LL", 1): c[3]}
    vec = (expected_vector(2, plus, spin_slots=True) + expected_vector(2, minus, spin_slots=True)) / math.sqrt(2)
    _, collapsed = measure_spin(QuantumState(2, True, vec), forced=Spin.MINUS)
    photons = discard_spin(collapsed)
    want = expected_vector(2, {"LR": c[0], "RL": c[1], "RR": c[2], "LL": c[3]})
    np.testing.assert_allclose(photons.amplitudes, want, atol=1e-12)


def test_forced_impossible_outcome():
    s = attach_spin(ket("R"), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="impossible outcome"):
        measure_spin(s, forced=Spin.MINUS)


def test_measure_requires_rng_or_forced():
    s = attach_spin(ket("R"), np.array([0.6, 0.8]))
    with pytest.raises(ValueError, match="rng"):
        measure_spin(s)


def test_nonorthonormal_basis_rejected():
    s = ket("RR")
    bad = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="orthonormal"):
        measure_site(s, 1, bad)


# --- hypothesis strategies -------------------------------------------------

def unitaries():
    angle = st.floats(0.0, 2 * math.pi, allow_nan=False)

    @st.composite
    def build(draw):
        theta, a, b, d = draw(angle), draw(angle), draw(angle), draw(angle)
        return np.exp(1j * d) * np.array(
            [
                [np.exp(1j * a) * math.cos(theta), np.exp(1j * b) * math.sin(theta)],
                [-np.exp(-1j * b) * math.sin(theta), np.exp(-1j * a) * math.cos(theta)],
            ]
        )

    return build()


def states(max_photons=3):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_photons))
        has_spin = draw(st.booleans())
        dim = (1 << n) * (2 if has_spin else 1)
        re = draw(st.lists(st.floats(-1, 1, allow_nan=False), min_size=dim, max_size=dim))
        im = draw(st.lists(st.floats(-1, 1, allow_nan=False), min_size=dim, max_size=dim))
        vec = np.array(re) + 1j * np.array(im)
        norm = np.linalg.norm(vec)
        if norm < 1e-3:
            vec[0] += 1.0
            norm = np.linalg.norm(vec)
        return QuantumState(n, has_spin, vec / norm)

    return build()


def sites_of(state):
    opts = list(range(1, state.n_photons + 1)) + ([SPIN] if state.has_spin else [])
    return opts


@given(states(), unitaries(), st.data())
def test_unitary_preserves_norm(state, u, data):
    site = data.draw(st.sampled_from(sites_of(state)))
    out = apply_single_qubit(state, site, u)
    assert abs(out.norm2() - 1.0) < 1e-12


@given(states(), st.data())
def test_measurement_completeness(state, data):
    site = data.draw(st.sampled_from(sites_of(state)))
    basis = np.eye(2)
    p0 = measure_site(state, site, basis, forced=0)[0].probability if _branch_possible(state, site, 0) else 0.0
    p1 = measure_site(state, site, basis, forced=1)[0].probability if _branch_possible(state, site, 1) else 0.0
    assert abs(p0 + p1 - 1.0) < 1e-12


def _branch_possible(state, site, k):
    bit = state.site_bit(site)
    vals = (np.arange(state.dim) >> bit) & 1
    return float(np.sum(np.abs(state.amplitudes[vals == k]) ** 2)) > 1e-24


@given(states(), st.data())
def test_collapse_idempotence(state, data):
    site = data.draw(st.sampled_from(sites_of(state)))
    seeded = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    basis = np.eye(2)
    rec1, collapsed = measure_site(state, site, basis, rng=seeded)
    rec2, again = measure_site(collapsed, site, basis, forced=int(rec1.outcome))
    assert abs(rec2.probability - 1.0) < 1e-12
    np.testing.assert_allclose(again.amplitudes, collapsed.amplitudes, atol=1e-12)


@given(states(), unitaries(), unitaries(), st.data())
@settings(max_examples=60)
def test_disjoint_single_qubit_maps_commute(state, u1, u2, data):
    sites = sites_of(state)
    if len(sites) < 2:
        return
    pair = data.draw(st.permutations(sites))
    i, j = pair[0], pair[1]
    a = apply_single_qubit(apply_single_qubit(state, i, u1), j, u2)
    b = apply_single_qubit(apply_single_qubit(state, j, u2), i, u1)
    np.testing.assert_allclose(a.amplitudes, b.amplitudes, atol=1e-12)
