import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entconv.cavity import IDEAL_BOUNCE, CavityParams
from entconv.cnot import _kraus, cnot_rows
from entconv.kerr import read_rows
from entconv.qstate import Pol, QuantumState, Spin, apply_rows, choose_branch, inner, ket, make_basis_state, superpose
from entconv.optics import CNOT, HWP, SPIN_HADAMARD

from conftest import basis_index, expected_vector
from oracle import SPIN_READY, readout_branches

IDEAL = _kraus(CavityParams(1, 1, 1), ideal=True)   # the compiled gate with ideal bounces


def test_basis_embedding_three_photons():
    s = make_basis_state([Pol.R, Pol.L, Pol.R])
    want = np.zeros(8, complex)
    want[basis_index("RLR")] = 1.0
    assert np.array_equal(s.amplitudes, want)


def test_basis_embedding_photon_plus_spin():
    # the spin exists only in the gate oracle, which attaches it as the least significant bit
    s = np.kron(make_basis_state([Pol.R]).amplitudes, SPIN_READY)
    want = expected_vector(1, {("R", 0): 1 / math.sqrt(2), ("R", 1): 1 / math.sqrt(2)}, spin_slots=True)
    np.testing.assert_allclose(s, want, atol=1e-15)


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
    out = apply_rows(s.amplitudes, (1,), np.eye(2))
    np.testing.assert_array_equal(out, s.amplitudes)


def test_x_map_flips_photon2():
    out = apply_rows(ket("RLR").amplitudes, (1,), HWP.T)
    np.testing.assert_allclose(out, expected_vector(3, {"RRR": 1.0}), atol=1e-15)


def test_hadamard_twice_on_spin_is_identity():
    # apply_rows acts on any bit of a row, the spin slot of an oracle register too
    s = np.kron(ket("RL").amplitudes, [0.6, 0.8])
    out = apply_rows(apply_rows(s, (0,), SPIN_HADAMARD.T), (0,), SPIN_HADAMARD.T)
    np.testing.assert_allclose(out, s, atol=1e-12)


def test_controlled_off_branch_untouched():
    out = apply_rows(ket("LRL").amplitudes, (1, 0), CNOT)
    np.testing.assert_array_equal(out, ket("LRL").amplitudes)


def test_controlled_flip_when_control_l():
    out = apply_rows(ket("RLR").amplitudes, (1, 0), CNOT)
    np.testing.assert_allclose(out, expected_vector(3, {"RLL": 1.0}), atol=1e-15)


def test_controlled_involution():
    s = superpose([(ket("RLR"), 1.0), (ket("LLL"), 0.5), (ket("RRL"), -0.25j)])
    out = apply_rows(apply_rows(s.amplitudes, (2, 0), CNOT), (2, 0), CNOT)
    np.testing.assert_allclose(out, s.amplitudes, atol=1e-12)


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
        row = apply_rows(np.eye(1 << n)[index][None], (n - control, n - target), CNOT)[0]
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
    # the ideal gate leaves two photons entangled with the spin through equal-weight branches
    c = rng.normal(size=4) + 1j * rng.normal(size=4)
    c = c / np.linalg.norm(c)
    # oracle: direct amplitude sums of the element-by-element replay at each readout
    direct = [float(np.sum(np.abs(branch) ** 2)) for branch in readout_branches(c, 2, 1, IDEAL_BOUNCE)]
    for spin in (Spin.PLUS, Spin.MINUS):
        _, _, chosen, _ = cnot_rows(c[None], 2, 1, IDEAL, forced_spin=spin)
        assert abs(chosen[0] - direct[spin.value]) < 1e-12
        assert abs(chosen[0] - 0.5) < 1e-12


def test_eigenstate_measurement_certain(rng):
    s = ket("RL")   # every basis state holds one tag: its count of L photons
    tags, _, out = read_rows(s.amplitudes[None], None, rng)
    assert tags[0] == 1
    np.testing.assert_allclose(out[0], s.amplitudes, atol=1e-12)


def test_forced_minus_collapse_keeps_minus_branch(rng):
    c = rng.normal(size=4) + 1j * rng.normal(size=4)
    c = c / np.linalg.norm(c)
    out, _, _, _ = cnot_rows(c[None], 2, 1, IDEAL, forced_spin=Spin.MINUS)
    # the minus branch alpha|LR>+beta|RL>+gamma|RR>+delta|LL>, target flipped back by the feed-forward
    want = expected_vector(2, {"RR": c[0], "LL": c[1], "LR": c[2], "RL": c[3]})
    np.testing.assert_allclose(out[0], want, atol=1e-12)


def test_forced_impossible_outcome():
    with pytest.raises(ValueError, match="impossible outcome"):
        choose_branch([[1.0], [0.0]], forced=Spin.MINUS)


def test_measure_requires_rng_or_forced():
    with pytest.raises(ValueError, match="rng"):
        choose_branch([[0.36], [0.64]])


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
        dim = 1 << n
        re = draw(st.lists(st.floats(-1, 1, allow_nan=False), min_size=dim, max_size=dim))
        im = draw(st.lists(st.floats(-1, 1, allow_nan=False), min_size=dim, max_size=dim))
        vec = np.array(re) + 1j * np.array(im)
        norm = np.linalg.norm(vec)
        if norm < 1e-3:
            vec[0] += 1.0
            norm = np.linalg.norm(vec)
        return QuantumState(n, vec / norm)

    return build()


@given(states(), unitaries(), st.data())
def test_unitary_preserves_norm(state, u, data):
    bit = data.draw(st.integers(0, state.n_photons - 1))
    out = apply_rows(state.amplitudes, (bit,), u.T)
    assert abs(QuantumState(state.n_photons, out).norm2() - 1.0) < 1e-12


@given(states(), st.data())
def test_measurement_completeness(state, data):
    # the two spin readouts of the ideal gate share out the whole state
    if state.n_photons < 2:
        return
    control, target = data.draw(st.permutations(range(1, state.n_photons + 1)))[:2]
    _, _, _, kept = cnot_rows(state.amplitudes[None], control, target, IDEAL, forced_spin=Spin.PLUS)
    assert abs(kept[0] - 1.0) < 1e-12


@given(states(), st.data())
def test_collapse_idempotence(state, data):
    # a probe readout repeated on its own collapsed row is certain and leaves the row
    seeded = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    tags, _, collapsed = read_rows(state.amplitudes[None], None, seeded)
    again_tags, _, again = read_rows(collapsed, None, seeded)
    assert again_tags[0] == tags[0]
    np.testing.assert_allclose(again, collapsed, atol=1e-12)


@given(states(), unitaries(), unitaries(), st.data())
@settings(max_examples=60)
def test_disjoint_single_qubit_maps_commute(state, u1, u2, data):
    if state.n_photons < 2:
        return
    i, j = data.draw(st.permutations(range(state.n_photons)))[:2]
    a = apply_rows(apply_rows(state.amplitudes, (i,), u1.T), (j,), u2.T)
    b = apply_rows(apply_rows(state.amplitudes, (j,), u2.T), (i,), u1.T)
    np.testing.assert_allclose(a, b, atol=1e-12)
