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

from .qstate import NORM_TOL, choose_branch, row_norms2, row_photons

MIN_MEAN_GAP = 1e-9


def _tag_branches(rows: np.ndarray):
    """Every tag 0..n, and each row split into one branch per tag (axis -2)."""
    n = row_photons(rows)
    idx = np.arange(1 << n)
    counts = sum((idx >> b) & 1 for b in range(n))   # L photons of each basis state
    tags = np.arange(n + 1)
    return tags, np.where(counts == tags[:, None], rows[..., None, :], 0.0)


def quadrature_mean(alpha: float, theta: float, k: int) -> float:
    """Mean of the X quadrature read out from tag k: 2*alpha*cos(k*theta)."""
    return 2.0 * alpha * math.cos(k * theta)


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
        means = tuple(quadrature_mean(alpha, theta, k) for k in tags)
        if not math.isfinite(max(means) - min(means)):
            raise ValueError("probe quadrature means overflow")
        by_mean = sorted(zip(means, tags))
        for (m_lo, _), (m_hi, _) in zip(by_mean, by_mean[1:]):
            if not m_hi - m_lo > MIN_MEAN_GAP:
                raise ValueError("degenerate phase configuration")
        # lo/2 + hi/2 is (lo + hi)/2 to the bit, and cannot overflow
        thresholds = tuple(lo[0] / 2.0 + hi[0] / 2.0 for lo, hi in zip(by_mean, by_mean[1:]))
        return cls(alpha, theta, tags, means, thresholds, tuple(t for _, t in by_mean))

    def mean_of(self, tag: int) -> float:
        """Quadrature mean of any tag, one the model discriminates or a leaked one."""
        return quadrature_mean(self.alpha, self.theta, tag)

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


@np.errstate(over="ignore")   # far from a huge mean the density underflows to its limit 0
def homodyne_pdf(x, alpha: float, k: int, theta: float):
    """Probability density of the X quadrature for tag k: unit-variance Gaussian."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    mean = quadrature_mean(alpha, theta, k)
    return np.exp(-0.5 * (np.asarray(x, dtype=float) - mean) ** 2) / math.sqrt(2.0 * math.pi)


def read_rows(rows: np.ndarray, model: HomodyneModel | None, mode: str = "ideal", rng=None, forced_tag=None):
    """Tag and read out every row of a batch of photons-only amplitude rows.

    The true tag of each row is drawn by its branch weights with
    ``choose_branch``.  Gaussian mode then draws one quadrature per row from
    the true tag's Gaussian and classifies it with ``model``.  The receiver
    is fixed: every row is classified by the one ``model`` (needed in
    gaussian mode only), whatever tags the row happens to hold, so a tag of
    vanishing weight cannot move a decision threshold, and a leaked tag
    reads as the tag whose decision cell its draw lands in.  ``forced_tag``
    pins both the true and the classified tag.  Returns the classified
    tags, the true tags and the rows collapsed onto their renormalized true
    branch.
    """
    if mode not in ("ideal", "gaussian"):
        raise ValueError(f"unknown homodyne mode {mode!r}")
    tags, branches = _tag_branches(rows)   # branches: [row, tag, basis]
    weights = row_norms2(branches)
    hit = tags == forced_tag
    if forced_tag is not None and not (hit.any() and np.all(weights[:, hit] > NORM_TOL**2)):
        raise ValueError("forced tag absent")
    true = choose_branch(weights.T, rng, None if forced_tag is None else np.argmax(hit))
    classified = tags[true]
    if forced_tag is None and mode == "gaussian":
        classified = model.classify(rng.normal(np.array([model.mean_of(k) for k in tags])[true], 1.0))
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
    """Distances between adjacent quadrature means, from the highest mean down.

    While the means fall as the tag rises (5*theta <= pi for tags up to 5)
    this is tag order.
    """
    means = sorted((quadrature_mean(alpha, theta, k) for k in tags), reverse=True)
    return [means[i] - means[i + 1] for i in range(len(means) - 1)]
