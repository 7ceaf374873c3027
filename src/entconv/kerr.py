"""Probe-phase tagging of photonic branches and X-quadrature readout.

The coherent probe is tracked symbolically: a basis component containing k
L-polarized photons rotates the probe by k phase units, so the state splits
into branches keyed by the integer tag k.  Readout models the X quadrature of
the rotated probe as a unit-variance Gaussian centered at 2*alpha*cos(k*theta)
and classifies with maximum-likelihood midpoint thresholds.  In gaussian mode
a draw landing in the wrong cell reports a wrong tag while the signal state
still collapses to the true branch: the error is informational and surfaces
as a wrong feed-forward decision downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstate import NORM_TOL, QuantumState, choose_branch, row_norms2, row_photons

MIN_MEAN_GAP = 1e-9


def _tag_branches(rows: np.ndarray):
    """Every tag 0..n, and each row split into one branch per tag (axis -2) with the tags it holds."""
    n = row_photons(rows)
    idx = np.arange(1 << n)
    counts = sum((idx >> b) & 1 for b in range(n))   # L photons of each basis state
    tags = np.arange(n + 1)
    branches = np.where(counts == tags[:, None], rows[..., None, :], 0.0)
    return tags, branches, (branches != 0).any(axis=-1)


@dataclass(frozen=True)
class KerrPartition:
    """A state split into unnormalized branches by probe-phase tag."""

    branches: dict[int, QuantumState]
    theta: float
    alpha: float

    def tags(self) -> tuple[int, ...]:
        return tuple(sorted(self.branches))

    def weights(self) -> dict[int, float]:
        return {k: s.norm2() for k, s in self.branches.items()}

    def total_weight(self) -> float:
        return sum(self.weights().values())


def apply_cross_kerr(state: QuantumState, theta: float, alpha: float) -> KerrPartition:
    """Split a photons-only state into branches keyed by L-photon count.

    Amplitudes are untouched; the tag is the only record of the probe phase.
    """
    if state.has_spin:
        raise ValueError("spin must be measured out before the probe interaction")
    if theta <= 0:
        raise ValueError("theta must be positive")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    tags, branches, present = _tag_branches(state.amplitudes)
    held = {int(k): QuantumState(state.n_photons, False, branches[k]) for k in tags[present]}
    return KerrPartition(held, theta, alpha)


@dataclass(frozen=True)
class HomodyneModel:
    """Gaussian likelihoods and decision thresholds for a set of probe tags.

    ``means`` aligns with ``tags``; ``thresholds`` are the midpoints between
    adjacent means sorted ascending, the maximum-likelihood rule for
    equal-variance Gaussians.
    """

    alpha: float
    theta: float
    tags: tuple[int, ...]
    means: tuple[float, ...]
    thresholds: tuple[float, ...]
    tags_by_mean: tuple[int, ...]

    @classmethod
    def for_tags(cls, alpha: float, theta: float, tags) -> "HomodyneModel":
        tags = tuple(sorted(int(k) for k in tags))
        if not tags:
            raise ValueError("no tags to discriminate")
        means = tuple(2.0 * alpha * math.cos(k * theta) for k in tags)
        by_mean = sorted(zip(means, tags))
        for (m_lo, _), (m_hi, _) in zip(by_mean, by_mean[1:]):
            if m_hi - m_lo <= MIN_MEAN_GAP:
                raise ValueError("degenerate phase configuration")
        thresholds = tuple((lo[0] + hi[0]) / 2.0 for lo, hi in zip(by_mean, by_mean[1:]))
        return cls(alpha, theta, tags, means, thresholds, tuple(t for _, t in by_mean))

    def mean_of(self, tag: int) -> float:
        """Quadrature mean of any tag, one the model discriminates or a leaked one."""
        return 2.0 * self.alpha * math.cos(tag * self.theta)

    def classify(self, x):
        """Tag whose decision cell contains x; vectorized over arrays."""
        cell = np.searchsorted(np.asarray(self.thresholds), x, side="left")
        return np.asarray(self.tags_by_mean)[cell]

    def confusion(self, true_tags) -> np.ndarray:
        """Chance that a quadrature of each true tag (rows) lands in the decision cell of each of ``tags`` (columns).

        Gaussian masses between adjacent thresholds, from ``erfc``; for two
        tags the off-diagonal entries are ``error_probability``.
        """
        edges = (-math.inf, *self.thresholds, math.inf)
        below = [[0.5 * math.erfc((self.mean_of(k) - e) / math.sqrt(2.0)) for e in edges] for k in true_tags]
        return np.diff(below, axis=1)[:, np.argsort(self.tags_by_mean)]   # cells come in order of mean


def homodyne_pdf(x, alpha: float, k: int, theta: float):
    """Probability density of the X quadrature for tag k: unit-variance Gaussian."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    mean = 2.0 * alpha * math.cos(k * theta)
    return np.exp(-0.5 * (np.asarray(x, dtype=float) - mean) ** 2) / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class HomodyneOutcome:
    """One probe readout: classified tag, true branch kept, raw branch weight."""

    tag: int
    true_tag: int
    state: QuantumState
    probability: float
    quadrature: float | None

    @property
    def misclassified(self) -> bool:
        return self.tag != self.true_tag


def homodyne_measure(
    part: KerrPartition,
    model: HomodyneModel,
    mode: str = "ideal",
    rng: np.random.Generator | None = None,
    forced_tag: int | None = None,
) -> HomodyneOutcome:
    """Read the probe phase out of a partition.

    Ideal mode samples the tag with probability equal to the branch weight.
    Gaussian mode samples the true tag by weight, then draws a quadrature
    value from its Gaussian and classifies it by the model's thresholds, so a
    tag the model does not discriminate (a leaked one) reads as the tag whose
    decision cell its draw lands in; the returned state is always the
    renormalized true branch.  ``forced_tag`` pins both the true and reported
    tag (used for branch-by-branch analysis).
    """
    weights = part.weights()
    tags = np.array(part.tags())
    row = np.array([[weights[k] for k in tags]])
    classified, true, x = _read_tags(row, tags, model, mode, rng, forced_tag)
    true = int(tags[true[0]])
    x = None if x is None else float(x[0])
    return HomodyneOutcome(int(classified[0]), true, part.branches[true].normalized(), weights[true], x)


def _read_tags(weights, tags, model, mode, rng, forced_tag):
    """The one readout rule: classified tag and true-tag column of each row of branch weights.

    Column ``j`` of ``weights`` holds the weight of tag ``tags[j]``
    (ascending).  ``choose_branch`` draws the true tag of each row by weight,
    then gaussian mode draws one quadrature per row from the true tag's
    Gaussian and classifies it with ``model``; the quadratures are returned
    too (None when none were drawn).  ``forced_tag`` pins both tags.
    """
    if mode not in ("ideal", "gaussian"):
        raise ValueError(f"unknown homodyne mode {mode!r}")
    hit = tags == forced_tag
    if forced_tag is not None and not (hit.any() and np.all(weights[:, hit] > NORM_TOL**2)):
        raise ValueError("forced tag absent")
    true = choose_branch(weights.T, rng, None if forced_tag is None else np.argmax(hit))
    if forced_tag is not None or mode == "ideal":
        return tags[true], true, None
    x = rng.normal(np.array([model.mean_of(k) for k in tags])[true], 1.0)
    return model.classify(x), true, x


def read_rows(rows: np.ndarray, model: HomodyneModel | None, mode: str = "ideal", rng=None, forced_tag=None):
    """Tag and read out every row of a batch of photons-only amplitude rows.

    Row by row this is ``apply_cross_kerr`` then ``homodyne_measure``.  The
    receiver is fixed: every row is classified by the one ``model`` (needed
    in gaussian mode only), whatever tags the row happens to hold, so a tag
    of vanishing weight cannot move a decision threshold.  Returns the
    classified tags, the true tags and the rows collapsed onto their
    renormalized true branch.
    """
    tags, branches, _ = _tag_branches(rows)   # branches: [row, tag, basis]
    weights = row_norms2(branches)
    classified, true, _ = _read_tags(weights, tags, model, mode, rng, forced_tag)
    each = np.arange(len(rows))
    return classified, true, branches[each, true] / np.sqrt(weights[each, true])[:, None]


def error_probability(x_d: float) -> float:
    """Misclassification probability for two unit-variance peaks a distance x_d apart.

    This is the tail mass of one Gaussian beyond the midpoint threshold:
    erfc(x_d / (2*sqrt(2))) / 2.
    """
    if x_d < 0:
        raise ValueError("peak distance must be nonnegative")
    return 0.5 * math.erfc(x_d / (2.0 * math.sqrt(2.0)))


def peak_distances(alpha: float, theta: float, tags) -> list[float]:
    """Distances between the quadrature means of adjacent tags (sorted by tag)."""
    tags = sorted(tags)
    means = [2.0 * alpha * math.cos(k * theta) for k in tags]
    return [means[i] - means[i + 1] for i in range(len(means) - 1)]


def classify_samples(model: HomodyneModel, true_tag: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n quadrature values from one tag's Gaussian and classify each.

    Vectorized; used to estimate empirical misclassification rates.
    """
    x = rng.normal(model.mean_of(true_tag), 1.0, size=int(n))
    return model.classify(x)
