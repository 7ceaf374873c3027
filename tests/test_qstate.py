import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entconv.cnot import _kraus
from entconv.kerr import read_rows
from entconv.protocols import ProtocolSpec, conversion_input, run_protocol
from entconv.qstate import NORM_TOL, apply_rows, choose_branch, collapse, held, ket, l_photons, label, row_inner, row_norms2, row_photons
from entconv.optics import CNOT, HWP, SPIN_HADAMARD

from conftest import LAST_BRANCH, Uniforms, basis_index, expected_vector, uniform_vector
from oracle import IDEAL_BOUNCE, SPIN_READY, readout_branches

IDEAL = _kraus(IDEAL_BOUNCE)   # the compiled gate with ideal bounces


def test_basis_embedding_three_photons():
    s = ket("RLR")
    want = np.zeros(8, complex)
    want[basis_index("RLR")] = 1.0
    assert np.array_equal(s, want)


def test_basis_embedding_photon_plus_spin():
    # the spin exists only in the gate oracle, which attaches it as the least significant bit
    s = np.kron(ket("R"), SPIN_READY)
    want = expected_vector(1, {("R", 0): 1 / math.sqrt(2), ("R", 1): 1 / math.sqrt(2)}, spin_slots=True)
    np.testing.assert_allclose(s, want, atol=1e-15)


def test_basis_embedding_five_photons_all_l():
    s = ket("LLLLL")
    assert s[basis_index("LLLLL")] == 1.0
    assert np.count_nonzero(s) == 1
    assert s.shape == (32,)


def test_empty_register_rejected():
    with pytest.raises(ValueError, match="got 0"):
        ket("")


def test_oversized_register_rejected():
    with pytest.raises(ValueError, match="got 9"):
        ket("R" * 9)


def test_ket_rejects_a_character_other_than_r_or_l():
    with pytest.raises(ValueError, match="'H'"):
        ket("RHL")


def test_states_handed_out_are_read_only():
    with pytest.raises(ValueError, match="read-only"):
        ket("RLR")[0] = 1.0
    for n in (3, 4, 5):
        with pytest.raises(ValueError, match="read-only"):
            conversion_input(n)[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        run_protocol(ProtocolSpec(n_photons=3), Uniforms([0.0])).final_state[0] = 1.0


@pytest.mark.parametrize("n", range(1, 9))
def test_l_photons_counts_the_l_of_each_basis_state(n):
    # counted over the characters of every polarization string, photon 1 first
    terms = ["".join(t) for t in itertools.product("RL", repeat=n)]
    assert l_photons(n).tolist() == [t.count("L") for t in terms]
    assert [basis_index(t) for t in terms] == list(range(1 << n))
    with pytest.raises(ValueError, match="read-only"):
        l_photons(n)[0] = 1


def test_superpose_ghz_pair():
    # the three-photon conversion input superposes a GHZ pair of kets
    want = expected_vector(3, {"RLR": 1 / math.sqrt(2), "LRL": 1 / math.sqrt(2)})
    np.testing.assert_allclose(conversion_input(3), want, atol=1e-12)


def test_superpose_four_photon_input():
    want = expected_vector(4, {"RLRR": 1 / math.sqrt(2), "LRLL": 1 / math.sqrt(2)})
    np.testing.assert_allclose(conversion_input(4), want, atol=1e-12)


def test_identity_map_leaves_state():
    s = expected_vector(3, {"RLR": 1 / math.sqrt(2), "LRL": 1j / math.sqrt(2)})
    out = apply_rows(s, (1,), np.eye(2))
    np.testing.assert_array_equal(out, s)


def test_x_map_flips_photon2():
    out = apply_rows(ket("RLR"), (2,), HWP.T)
    np.testing.assert_allclose(out, expected_vector(3, {"RRR": 1.0}), atol=1e-15)


def test_hadamard_twice_on_spin_is_identity():
    # apply_rows acts on any slot of a row, the spin of an oracle register too: it comes after the photons
    s = np.kron(ket("RL"), [0.6, 0.8])
    out = apply_rows(apply_rows(s, (3,), SPIN_HADAMARD.T), (3,), SPIN_HADAMARD.T)
    np.testing.assert_allclose(out, s, atol=1e-12)


def test_controlled_off_branch_untouched():
    out = apply_rows(ket("LRL"), (2, 3), CNOT)
    np.testing.assert_array_equal(out, ket("LRL"))


def test_controlled_flip_when_control_l():
    out = apply_rows(ket("RLR"), (2, 3), CNOT)
    np.testing.assert_allclose(out, expected_vector(3, {"RLL": 1.0}), atol=1e-15)


def test_controlled_involution():
    s = expected_vector(3, {"RLR": 1.0, "LLL": 0.5, "RRL": -0.25j})
    s /= np.linalg.norm(s)
    out = apply_rows(apply_rows(s, (1, 3), CNOT), (1, 3), CNOT)
    np.testing.assert_allclose(out, s, atol=1e-12)


def dense_row_operator(n, photons, op):
    """The 2**n x 2**n matrix that a row multiplies to apply the 2**k x 2**k ``op`` on ``photons``.

    Photon p is bit n - p of a basis index.  ``np.kron(op, I)`` acts on an
    index whose top k bits are those of ``photons`` in order and whose low
    bits are the other bits from high to low; ``perm`` takes each basis
    index to that layout.
    """
    bits = [n - p for p in photons]
    order = bits + [b for b in reversed(range(n)) if b not in bits]
    perm = [sum(((i >> b) & 1) << (n - 1 - pos) for pos, b in enumerate(order)) for i in range(1 << n)]
    return np.kron(op, np.eye(1 << (n - len(bits))))[np.ix_(perm, perm)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_apply_rows_matches_the_dense_operator(n):
    rng = np.random.default_rng(n)
    choices = [photons for k in (1, 2) for photons in itertools.permutations(range(1, n + 1), k)]
    for photons, lead, trials in itertools.product(choices, [(), (2,), (3, 2)], [1, 7]):
        dim = 1 << len(photons)
        op = rng.normal(size=lead + (dim, dim, 2)) @ [1, 1j]
        rows = rng.normal(size=(trials, 1 << n, 2)) @ [1, 1j]
        dense = np.zeros(lead + (1 << n, 1 << n), complex)
        for idx in np.ndindex(*lead):
            dense[idx] = dense_row_operator(n, photons, op[idx])
        got = apply_rows(rows, photons, op)
        assert got.shape == lead + rows.shape
        assert np.max(np.abs(got - rows @ dense)) <= 1e-13, (photons, lead, trials)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cnot_constant_is_the_controlled_flip_on_every_basis_state(n):
    for (control, target), index in itertools.product(itertools.permutations(range(1, n + 1), 2), range(1 << n)):
        row = apply_rows(np.eye(1 << n)[index][None], (control, target), CNOT)[0]
        flipped = index ^ (1 << (n - target)) if (index >> (n - control)) & 1 else index
        assert np.array_equal(row, np.eye(1 << n)[flipped])


def test_inner_self_is_one():
    s = conversion_input(3)
    assert abs(row_inner(s, s) - 1.0) < 1e-12


def test_inner_orthogonal():
    assert row_inner(ket("R"), ket("L")) == 0.0


def test_inner_rebuilt_four_term_state():
    terms = ["RLR", "LRR", "RRL", "LLL"]
    assert abs(row_inner(uniform_vector(3, terms), uniform_vector(3, terms)) - 1.0) < 1e-12


@pytest.mark.parametrize("bits", [(2, 2), (4,), (0,), (1, 4)])
def test_apply_rows_names_a_bad_bit_list(bits):
    # the positions of a row are photon numbers: 1..n, each at most once
    with pytest.raises(ValueError, match=r"photons .* distinct and within 1\.\.3"):
        apply_rows(ket("RLR"), bits, np.eye(1 << len(bits)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_apply_rows_is_addressed_by_photon(n):
    # photon p is the p-th character of a ket string
    for photons in ((0,), (n + 1,), (2, 2)):
        with pytest.raises(ValueError, match="photons"):
            apply_rows(ket("R" * n), photons, np.eye(1 << len(photons)))
    for s, p in itertools.product(map("".join, itertools.product("RL", repeat=n)), range(1, n + 1)):
        flipped = s[:p - 1] + "RL"[s[p - 1] == "R"] + s[p:]
        np.testing.assert_array_equal(apply_rows(ket(s)[None], (p,), HWP.T), ket(flipped)[None])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_label_inverts_ket(n):
    for index in range(1 << n):
        assert np.flatnonzero(ket(label(index, n))).tolist() == [index]


def test_gate_names_equal_control_and_target():
    with pytest.raises(ValueError, match="distinct"):
        apply_rows(ket("RLR")[None], (1, 1), IDEAL)


def test_spin_measurement_probabilities_half(rng):
    # the ideal gate leaves two photons entangled with the spin through equal-weight branches
    c = rng.normal(size=4) + 1j * rng.normal(size=4)
    c = c / np.linalg.norm(c)
    # oracle: direct amplitude sums of the element-by-element replay at each readout
    direct = [float(np.sum(np.abs(branch) ** 2)) for branch in readout_branches(c, 2, 1, IDEAL_BOUNCE)]
    for spin in (0, 1):
        *_, weights = collapse(apply_rows(c[None], (2, 1), IDEAL), [0], Uniforms([0.0]))
        chosen = weights[spin]
        assert abs(chosen[0] - direct[spin]) < 1e-12
        assert abs(chosen[0] - 0.5) < 1e-12


def test_eigenstate_measurement_certain(rng):
    s = ket("RL")   # every basis state holds one tag: its count of L photons
    tags, _, out, at = read_rows(s[None], [0], None, rng)
    assert tags[0] == 1
    np.testing.assert_allclose(out[at[0]], s, atol=1e-12)


def test_forced_minus_collapse_keeps_minus_branch(rng):
    c = rng.normal(size=4) + 1j * rng.normal(size=4)
    c = c / np.linalg.norm(c)
    readouts, out, _, _ = collapse(apply_rows(c[None], (2, 1), IDEAL), [0], Uniforms([LAST_BRANCH]))
    assert readouts[0] == 1
    # the minus branch alpha|LR>+beta|RL>+gamma|RR>+delta|LL>, target flipped back by the feed-forward
    want = expected_vector(2, {"RR": c[0], "LL": c[1], "LR": c[2], "RL": c[3]})
    np.testing.assert_allclose(out[0], want, atol=1e-12)


def test_held_keeps_each_held_row_once_in_order():
    used, at = held(np.array([4, 0, 4, 2, 0]), 6)
    assert used.tolist() == [True, False, True, False, True, False]
    assert at.tolist() == [2, 0, 2, 1, 0]
    used, at = held(np.array([], int), 3)
    assert (used.tolist(), at.tolist()) == ([False] * 3, [])


@pytest.mark.parametrize("m,rows,trials", [(2, 3, 50), (4, 1, 8), (5, 40, 30)])
def test_collapse_keeps_each_chosen_branch_once(m, rows, trials):
    # with more trials than branches or fewer, the children are the distinct
    # chosen (branch, row) pairs, each once, at unit norm, and each is its
    # branch divided by the root of its weight to the byte; a branch of
    # weight 0 is chosen by no trial and kept by none
    gen = np.random.default_rng(m * rows + trials)
    branches = gen.normal(size=(m, rows, 8)) + 1j * gen.normal(size=(m, rows, 8))
    branches[-1, 0] = 0.0
    at = gen.integers(rows, size=trials)
    k, children, new_at, weights = collapse(branches, at, np.random.default_rng(trials))
    np.testing.assert_allclose(weights, (np.abs(branches) ** 2).sum(axis=-1), rtol=1e-12)
    pairs = set(zip(k.tolist(), at.tolist()))
    assert len(children) == len(pairs) < m * rows
    assert len(set(zip(k.tolist(), at.tolist(), new_at.tolist()))) == len(pairs)
    assert set(new_at.tolist()) == set(range(len(children)))
    flat = dict(zip(new_at.tolist(), (k * rows + at).tolist()))   # child -> its branch-major index
    assert [flat[j] for j in range(len(children))] == sorted(flat.values())
    np.testing.assert_allclose(np.linalg.norm(children, axis=1), 1.0, rtol=0, atol=1e-12)
    for i in range(trials):
        want = branches[k[i], at[i]] / np.sqrt(weights[k[i], at[i]])
        assert children[new_at[i]].tobytes() == want.tobytes()


def test_row_without_weight_is_an_impossible_outcome():
    # no uniform finds a branch in a row whose every branch is empty
    for u in (0.0, 0.5, LAST_BRANCH):
        with pytest.raises(ValueError, match="impossible outcome"):
            choose_branch([[1.0, 0.0], [0.0, 0.0]], Uniforms([0.0, u]))


def scalar_branch(weights, u):
    """One row's readout, branch by branch: the first branch whose running sum exceeds ``u`` times the total."""
    total = 0.0
    for w in weights:
        total += w
    draw, acc = u * total, 0.0
    for k, w in enumerate(weights):
        acc += w
        if acc > draw:
            break
    else:   # the draw rounded up to the total
        k = max(j for j, w in enumerate(weights) if w > 0) if total > 0 else len(weights) - 1
    if weights[k] <= NORM_TOL**2:
        raise ValueError("impossible outcome")
    return k


def test_choose_branch_is_the_scalar_loop_on_every_row():
    # differential: the vectorized draw against the per-row loop, with exact zeros
    # in leading, inner and trailing branches, weights too small to count, rows of
    # subnormal weights (whose scaled draw can round up to the total) and uniforms
    # at both ends; a batch with an impossible row raises as a whole, and without
    # those rows it picks the loop's branch in every row
    gen = np.random.default_rng(20261021)
    raised = picked = 0
    for _ in range(400):
        m, rows = gen.integers(1, 7), gen.integers(1, 51)
        probs = gen.random((m, rows)) * 10.0 ** gen.integers(-3, 4, size=(m, rows))
        probs[gen.random((m, rows)) < gen.choice([0.0, 0.3, 0.6])] = 0.0
        probs[gen.random((m, rows)) < 0.02] = NORM_TOL**2 * gen.choice([1e-6, 1.0])
        probs[:, gen.random(rows) < 0.02] *= 1e-310
        u = gen.random(rows)
        u[gen.random(rows) < 0.2] = 0.0
        u[gen.random(rows) < 0.2] = LAST_BRANCH
        want = []
        for i in range(rows):
            try:
                want.append(scalar_branch(probs[:, i].tolist(), float(u[i])))
            except ValueError:
                want.append(None)
        ok = np.array([k is not None for k in want])
        if not ok.all():
            raised += 1
            with pytest.raises(ValueError, match="impossible outcome"):
                choose_branch(probs, Uniforms(u))
        if ok.any():
            picked += 1
            got = choose_branch(probs[:, ok], Uniforms(u[ok]))
            assert got.tolist() == [k for k in want if k is not None]
    assert raised > 50 and picked > 50


def test_measure_requires_rng():
    with pytest.raises(ValueError, match="rng required"):
        choose_branch([[0.36], [0.64]], None)


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
        return vec / norm

    return build()


@given(states(), unitaries(), st.data())
def test_unitary_preserves_norm(state, u, data):
    photon = data.draw(st.integers(1, row_photons(state)))
    out = apply_rows(state, (photon,), u.T)
    assert abs(row_norms2(out) - 1.0) < 1e-12


@given(states(), st.data())
def test_measurement_completeness(state, data):
    # the two spin readouts of the ideal gate share out the whole state
    if row_photons(state) < 2:
        return
    control, target = data.draw(st.permutations(range(1, row_photons(state) + 1)))[:2]
    *_, weights = collapse(apply_rows(state[None], (control, target), IDEAL), [0], Uniforms([0.0]))
    kept = weights.sum(axis=0)
    assert abs(kept[0] - 1.0) < 1e-12


@given(states(), st.data())
def test_collapse_idempotence(state, data):
    # a probe readout repeated on its own collapsed row is certain and leaves the row
    seeded = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    tags, _, collapsed, at = read_rows(state[None], [0], None, seeded)
    again_tags, _, again, again_at = read_rows(collapsed, at, None, seeded)
    assert again_tags[0] == tags[0]
    np.testing.assert_allclose(again[again_at], collapsed[at], atol=1e-12)


@given(states(), unitaries(), unitaries(), st.data())
@settings(max_examples=60)
def test_disjoint_single_qubit_maps_commute(state, u1, u2, data):
    if row_photons(state) < 2:
        return
    i, j = data.draw(st.permutations(range(1, row_photons(state) + 1)))[:2]
    a = apply_rows(apply_rows(state, (i,), u1.T), (j,), u2.T)
    b = apply_rows(apply_rows(state, (j,), u2.T), (i,), u1.T)
    np.testing.assert_allclose(a, b, atol=1e-12)
