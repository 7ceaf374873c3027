import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entconv.kerr import HomodyneModel, error_probability, homodyne_pdf, quadrature_mean, read_rows
from entconv.protocols import ProtocolSpec, _receiver
from entconv.qstate import ket

from conftest import LAST_BRANCH, Uniforms, basis_index, tag_split, uniform_vector
from oracle import classify

ALPHA_REF = math.sqrt(1.3e4)
THETA_REF = 0.1


def _classify_draws(model, true_tag, n, rng):
    """Classified tags of n quadrature draws from one tag's Gaussian, binned by the physical receiver."""
    return classify(model, rng.normal(quadrature_mean(model.alpha, model.theta, true_tag), 1.0, size=n))


def _peak_distances(alpha, theta, tags):
    """Peak distances x_d of the receiver for ``tags``: the gaps between its adjacent means, from the highest mean down."""
    return list(np.diff(HomodyneModel.for_tags(alpha, theta, tags).means)[::-1])


def _gaussian(model, n):
    """The receiver ``read_rows`` takes for ``model`` reading n photons: its confusion matrix over true tags 0..n and its tags."""
    return model.confusion(range(n + 1)), model.tags


def test_three_photon_partition():
    state = uniform_vector(3, ["RLR", "LRR", "RRL", "LLL"])
    branches, weights = tag_split(state)
    assert tuple(weights) == (1, 3)
    np.testing.assert_allclose(
        branches[1],
        np.array([0.5 if t in ("RLR", "LRR", "RRL") else 0.0 for t in _labels(3)]),
        atol=1e-12,
    )
    assert abs(branches[3][basis_index("LLL")] - 0.5) < 1e-12
    assert abs(weights[1] - 0.75) < 1e-12
    assert abs(weights[3] - 0.25) < 1e-12


def _labels(n):
    return ["".join("RL"[(i >> (n - k)) & 1] for k in range(1, n + 1)) for i in range(1 << n)]


def test_all_r_state_single_branch():
    _, weights = tag_split(ket("RRRR"))
    assert tuple(weights) == (0,)
    assert abs(weights[0] - 1.0) < 1e-15


def test_five_photon_partition_weights():
    terms = (
        "LRRRR RLRRR RRLRR RRRLR RRRRL LLLLL LLRRL LLRLR RLRLL LLLRR "
        "RLLRL RLLLR LRRLL LRLRL LRLLR RRLLL"
    ).split()
    _, weights = tag_split(uniform_vector(5, terms))
    assert tuple(weights) == (1, 3, 5)
    assert abs(weights[1] - 5 / 16) < 1e-12
    assert abs(weights[3] - 10 / 16) < 1e-12
    assert abs(weights[5] - 1 / 16) < 1e-12


def test_tag_equals_l_count_exhaustive():
    for label in _labels(5):
        assert tuple(tag_split(ket(label))[1]) == (label.count("L"),)


@given(st.integers(1, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=50)
def test_weight_conservation(n, seed):
    gen = np.random.default_rng(seed)
    vec = gen.normal(size=1 << n) + 1j * gen.normal(size=1 << n)
    # deliberately unnormalized
    assert abs(sum(tag_split(vec)[1].values()) - np.vdot(vec, vec).real) < 1e-12


def test_pdf_normalized_by_quadrature():
    xs = np.linspace(-40, 40, 20001)
    for k in (1, 3, 5):
        total = np.trapezoid(homodyne_pdf(xs, alpha=2.0, k=k, theta=0.4), xs)
        assert abs(total - 1.0) < 1e-9


def test_pdf_peak_location():
    alpha, theta, k = 3.0, 0.25, 3
    mean = 2 * alpha * math.cos(k * theta)
    xs = np.linspace(mean - 5, mean + 5, 4001)
    ys = homodyne_pdf(xs, alpha, k, theta)
    assert abs(xs[np.argmax(ys)] - mean) < 5e-3


def test_pdf_symmetric_in_tag_sign():
    xs = np.linspace(-10, 10, 101)
    np.testing.assert_array_equal(
        homodyne_pdf(xs, 2.0, 4, 0.3), homodyne_pdf(xs, 2.0, -4, 0.3)
    )


def test_ideal_readout_probabilities_three_photons(rng):
    state = uniform_vector(3, ["RLR", "LRR", "RRL", "LLL"])
    _, weights = tag_split(state)
    assert abs(weights[1] - 0.75) < 1e-12
    assert abs(weights[3] - 0.25) < 1e-12
    tags, true, rows, at = read_rows(state[None], [0], None, Uniforms([0.0]))   # the first weighted tag
    assert tags[0] == true[0] == 1
    assert abs(np.linalg.norm(rows[at[0]]) - 1.0) < 1e-12
    tags, _, rows, at = read_rows(state[None], [0], None, Uniforms([LAST_BRANCH]))
    assert tags[0] == 3
    np.testing.assert_allclose(rows[at[0]], uniform_vector(3, ["LLL"]), atol=1e-12)


def test_ideal_readout_probabilities_five_photons():
    terms = (
        "LRRRR RLRRR RRLRR RRRLR RRRRL LLLLL LLRRL LLRLR RLRLL LLLRR "
        "RLLRL RLLLR LRRLL LRLRL LRLLR RRLLL"
    ).split()
    state = uniform_vector(5, terms)
    branches, weights = tag_split(state)
    # the uniforms fall in the cumulative intervals (0, 5/16), (5/16, 15/16) and (15/16, 1)
    for tag, weight, u in ((1, 5 / 16, 0.0), (3, 10 / 16, 0.5), (5, 1 / 16, LAST_BRANCH)):
        assert abs(weights[tag] - weight) < 1e-12
        # the readout keeps the branch, renormalized by the root of its weight
        tags, _, rows, at = read_rows(state[None], [0], None, Uniforms([u]))
        assert tags[0] == tag
        np.testing.assert_allclose(rows[at[0]] * math.sqrt(weight), branches[tag], atol=1e-12)


def test_single_branch_certain(rng):
    row = ket("RRRR")[None]
    model = HomodyneModel.for_tags(ALPHA_REF, THETA_REF, (0,))
    tags, true, *_ = read_rows(row, [0], None, rng)
    assert tags[0] == true[0] == 0
    _, true, *_ = read_rows(row, [0], _gaussian(model, 4), rng)
    assert true[0] == 0


def test_ideal_sampling_matches_weights(rng):
    state = uniform_vector(3, ["RLR", "LRR", "RRL", "LLL"])
    n = 40000
    tags, *_ = read_rows(state[None], np.zeros(n, int), None, rng)
    hits = int(np.sum(tags == 1))
    sigma = math.sqrt(0.75 * 0.25 / n)
    assert abs(hits / n - 0.75) <= 3 * sigma


def test_gaussian_mode_collapses_to_true_branch(rng):
    # nearly-degenerate peaks make misclassification frequent; the state must
    # nevertheless follow the true tag
    state = uniform_vector(3, ["RLR", "LRR", "RRL", "LLL"])
    branches, weights = tag_split(state)
    model = HomodyneModel.for_tags(1.0, 0.02, tuple(weights))
    tags, true, rows, at = read_rows(state[None], np.zeros(300, int), _gaussian(model, 3), rng)
    for k, row in zip(true, rows[at]):
        np.testing.assert_allclose(row, branches[k] / math.sqrt(weights[k]), atol=1e-12)
    assert np.sum(tags != true) > 0


def _rows_with_tag_gaps(gen, n, count, kept_tag=None):
    """Random normalized rows, each with a random subset of its tags (never ``kept_tag``) emptied."""
    tag_of = np.array([bin(i).count("1") for i in range(1 << n)])
    keep = gen.random((count, n + 1)) < 0.6
    keep[np.arange(count), gen.integers(0, n + 1, count) if kept_tag is None else kept_tag] = True
    rows = gen.normal(size=(count, 1 << n)) + 1j * gen.normal(size=(count, 1 << n))
    rows = np.where(keep[:, tag_of], rows, 0.0)
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def _fixed_receiver(n, theta, alpha):
    """The receiver a protocol run of n photons reads every row with: thresholds between its ideal tags."""
    return _receiver(ProtocolSpec(n, homodyne_mode="gaussian", theta=theta, alpha=alpha))


def _popcount_mask(row, k):
    """The basis states of a row with k L photons."""
    return np.array([bin(i).count("1") == k for i in range(len(row))])


def _popcount_weight(row, k):
    return float(np.sum(np.abs(row[_popcount_mask(row, k)]) ** 2))


def _popcount_collapse(row, k):
    return np.where(_popcount_mask(row, k), row, 0.0) / math.sqrt(_popcount_weight(row, k))


@pytest.mark.parametrize("mode,theta,alpha", [("ideal", THETA_REF, ALPHA_REF), ("gaussian", 0.02, 1.0)])
def test_batched_readout_matches_per_state_oracle(mode, theta, alpha):
    # every row collapses onto the popcount branch of its true tag, true tags
    # follow the popcount weights, and only gaussian readout misreads a tag
    gen = np.random.default_rng(5)
    misses = 0
    for n in (3, 4, 5):
        rows = _rows_with_tag_gaps(gen, n, 2000)
        receiver = _fixed_receiver(n, theta, alpha) if mode == "gaussian" else None
        tags, true, collapsed, at = read_rows(rows, np.arange(len(rows)), receiver, np.random.default_rng(n))
        for row, k, got in zip(rows, true, collapsed[at]):
            np.testing.assert_allclose(got, _popcount_collapse(row, k), rtol=0, atol=1e-14)
        weights = np.array([[_popcount_weight(row, k) for k in range(n + 1)] for row in rows])
        for k in range(n + 1):
            p = weights[:, k]
            assert abs(np.sum(true == k) - p.sum()) <= 5 * math.sqrt(np.sum(p * (1 - p))) + 1, (n, k)
        misses += int(np.sum(tags != true))
    assert (misses > 0) == (mode == "gaussian")


def test_batched_forced_readout_keeps_rows_apart():
    # rows with different tag sets in one batch each collapse onto their own
    # branch: each row's uniform is forced to the middle of tag k's cumulative
    # interval, and each decision to the middle of its likeliest cell
    gen = np.random.default_rng(6)
    for n in (3, 4, 5):
        receiver = _fixed_receiver(n, THETA_REF, ALPHA_REF)
        confusion, cell_tags = receiver
        cell = confusion.argmax(axis=1)
        for k in range(n + 1):
            rows = _rows_with_tag_gaps(gen, n, 50, kept_tag=k)
            weights = np.array([[_popcount_weight(row, j) for j in range(n + 1)] for row in rows])
            below = weights[:, :k].sum(axis=1)
            on_tag = (below + weights[:, k] / 2) / weights.sum(axis=1)
            on_cell = (confusion[k, :cell[k]].sum() + confusion[k, cell[k]] / 2) / confusion[k].sum()
            draws = Uniforms(np.concatenate([on_tag, np.full(len(rows), on_cell)]))
            tags, true, collapsed, at = read_rows(rows, np.arange(len(rows)), receiver, draws)
            assert set(true) == {k} and set(tags) == {cell_tags[cell[k]]}
            for row, got in zip(rows, collapsed[at]):
                np.testing.assert_allclose(got, _popcount_collapse(row, k), rtol=0, atol=1e-14)


def test_error_probability_at_zero_distance():
    assert error_probability(0.0) == 0.5


def test_error_probability_monotone():
    xs = np.linspace(0, 20, 50)
    ps = [error_probability(x) for x in xs]
    assert all(a > b for a, b in zip(ps, ps[1:]))


@pytest.mark.parametrize("theta,alpha", [(THETA_REF, ALPHA_REF), (0.02, 1.0)])
def test_confusion_matrix_generalizes_error_probability(theta, alpha):
    # for two tags the off-diagonal cells are error_probability; for any tag set
    # each row, leaked true tags included, is a distribution over the decision cells
    model = HomodyneModel.for_tags(alpha, theta, (1, 3))
    two = model.confusion(model.tags)   # rows and columns in order of mean
    miss = error_probability(_peak_distances(alpha, theta, (1, 3))[0])
    np.testing.assert_allclose(two, [[1 - miss, miss], [miss, 1 - miss]], rtol=0, atol=1e-15)
    confusion = HomodyneModel.for_tags(alpha, theta, (1, 3, 5)).confusion(range(6))
    assert confusion.shape == (6, 3) and confusion.min() >= 0.0
    np.testing.assert_allclose(confusion.sum(axis=1), 1.0, rtol=0, atol=1e-15)


def test_confusion_matrix_matches_sampled_classification():
    model = HomodyneModel.for_tags(1.0, 0.02, (1, 3, 5))
    confusion = model.confusion((0, 3))
    rng = np.random.default_rng(9)
    for row, true_tag in zip(confusion, (0, 3)):
        got = _classify_draws(model, true_tag, 20000, rng)
        share = np.array([np.mean(got == k) for k in model.tags])
        assert np.all(np.abs(share - row) <= 5 * np.sqrt(row * (1 - row) / 20000) + 1e-9)


@pytest.mark.parametrize("n", [3, 5])
def test_sampled_decision_cells_follow_the_confusion_row(n):
    # Pearson chi-square of the cells read_rows draws for each true tag 0..n,
    # leaked tags included, against that tag's confusion row.  Each of the 10
    # rows over n = 3 and 5 is tested at 1e-4, so the whole test raises a
    # false alarm with probability at most 1e-3.
    draws = 20000
    confusion, tags = receiver = _fixed_receiver(n, 0.5, 1.0)   # every cell of every row above 0.3 %
    rng = np.random.default_rng(21)
    for k in range(n + 1):
        row = ket("L" * k + "R" * (n - k))
        got, true, *_ = read_rows(row[None], np.zeros(draws, int), receiver, rng)
        assert set(true.tolist()) == {k}
        observed = np.array([np.sum(got == t) for t in tags])
        expected = draws * confusion[k]
        assert expected.min() >= 5   # where the chi-square law of the statistic holds
        stat = float(np.sum((observed - expected) ** 2 / expected))
        p = float(mp.gammainc((len(tags) - 1) / 2, stat / 2, mp.inf, regularized=True))
        assert p > 1e-4, (k, observed, expected)


def test_error_probability_reference_point_against_mp_oracle():
    # high-precision oracle for the reference probe (alpha^2 = 1.3e4, theta = 0.1)
    mp.mp.dps = 50
    alpha = mp.sqrt(13000)
    xd1 = 2 * alpha * (mp.cos(mp.mpf("0.1")) - mp.cos(mp.mpf("0.3")))
    oracle = float(mp.erfc(xd1 / (2 * mp.sqrt(2))) / 2)
    got = error_probability(_peak_distances(ALPHA_REF, THETA_REF, (1, 3))[0])
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(3.05e-6, rel=0.05)  # two significant figures
    assert got < 1e-5


def test_peak_distance_closed_form():
    (d,) = _peak_distances(1.0, math.pi / 6, (1, 3))
    assert d == pytest.approx(math.sqrt(3), abs=1e-12)


def test_peak_distances_reference_values():
    d1, d2 = _peak_distances(ALPHA_REF, THETA_REF, (1, 3, 5))
    assert d1 == pytest.approx(9.0456219039560245, abs=1e-9)
    assert d2 == pytest.approx(17.730623407711915, abs=1e-9)


def test_peak_distances_single_tag_empty():
    model = HomodyneModel.for_tags(1.0, 0.1, (1,))
    assert model.means == (quadrature_mean(1.0, 0.1, 1),) and model.thresholds == ()
    assert _peak_distances(1.0, 0.1, (1,)) == []


@pytest.mark.parametrize("theta,alpha,tags", [(THETA_REF, ALPHA_REF, (5, 1, 3)), (0.8, 3.0, (0, 1, 2, 3, 4, 5)), (2.0, 1.0, (3, 1))])
def test_means_ascend_aligned_with_tags(theta, alpha, tags):
    # at theta = 0.8 and 2.0 the means do not fall as the tag rises, so mean order is not tag order
    model = HomodyneModel.for_tags(alpha, theta, tags)
    assert sorted(model.tags) == sorted(tags) and len(model.means) == len(tags)
    assert list(model.means) == [quadrature_mean(alpha, theta, k) for k in model.tags]
    assert all(lo < hi for lo, hi in zip(model.means, model.means[1:]))
    assert model.thresholds == tuple((lo + hi) / 2 for lo, hi in zip(model.means, model.means[1:]))


def test_degenerate_model_rejected():
    with pytest.raises(ValueError, match="degenerate phase configuration"):
        HomodyneModel.for_tags(ALPHA_REF, 1e-12, (1, 3))
    with pytest.raises(ValueError, match="degenerate phase configuration"):
        # cos(k theta) coincides for k=1,3 at theta = pi/2
        HomodyneModel.for_tags(1.0, math.pi / 2, (1, 3))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: HomodyneModel.for_tags(1.0, 0.1, []), "no tags to discriminate"),
        (lambda: homodyne_pdf(0.0, -1.0, 1, 0.1), "alpha must be nonnegative"),
        (lambda: error_probability(-1.0), "peak distance must be nonnegative"),   # else above 0.5
    ],
    ids=["no_tags", "negative_alpha", "negative_distance"],
)
def test_out_of_domain_input_is_named(call, message):
    # the schema bounds the CLI's inputs first, so only a library call reaches these guards
    with pytest.raises(ValueError, match=message):
        call()


def test_classifier_rate_matches_formula(rng):
    # moderate separation so errors are common enough for a cheap check
    model = HomodyneModel.for_tags(alpha=2.0, theta=0.5, tags=(1, 3))
    (xd,) = _peak_distances(2.0, 0.5, (1, 3))
    p = error_probability(xd)
    n = 200000
    miss = int(np.sum(_classify_draws(model, 1, n, rng) != 1))
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(miss - n * p) <= 3 * sigma


def test_misclassification_vanishes_with_growing_probe(rng):
    # fixed theta, growing alpha: peaks separate and the error rate collapses
    theta, n = 0.25, 50000
    rates = []
    for alpha in (0.5, 2.0, 8.0):
        model = HomodyneModel.for_tags(alpha, theta, (1, 3))
        rates.append(float(np.mean(_classify_draws(model, 1, n, rng) != 1)))
    assert rates[0] > rates[1] > rates[2]
    model = HomodyneModel.for_tags(40.0, theta, (1, 3))
    assert int(np.sum(_classify_draws(model, 1, n, rng) != 1)) == 0
