"""Probe-phase tagging of photonic branches and X-quadrature readout.

The coherent probe is tracked symbolically: a basis component with k L photons
(``qstate.l_photons``) rotates the probe by k phase units, so the state splits
into branches keyed by the integer tag k.  Readout models the X quadrature of
the rotated probe as a unit-variance Gaussian centered at 2*alpha*cos(k*theta);
``HomodyneModel`` orders the means, whose gaps are the peak distances x_d, and
classifies with midpoint thresholds.  Gaussian readout draws the decision cell
from the true tag's row of the confusion matrix, never a quadrature value.  A
wrong cell reports a wrong tag while the state still collapses to the true
branch, so the error surfaces only as a wrong feed-forward decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qstate import choose_branch, collapse, l_photons, row_photons

MIN_MEAN_GAP = 1e-9


def _tag_branches(rows: np.ndarray) -> np.ndarray:
    """Each row split into one branch per tag 0..n, tags in front of the rows; tag k keeps the basis states with k L photons."""
    n = row_photons(rows)
    return np.where(l_photons(n) == np.arange(n + 1).reshape((-1,) + (1,) * rows.ndim), rows, 0.0)


def quadrature_mean(alpha: float, theta: float, k: int) -> float:
    """Mean of the X quadrature read out from tag k: 2*alpha*cos(k*theta)."""
    return 2.0 * alpha * math.cos(k * theta)


@dataclass(frozen=True)
class HomodyneModel:
    """Gaussian decision thresholds for a set of probe tags.

    ``tags`` run in order of mean, ascending, as do their quadrature
    ``means``; ``thresholds`` are the midpoints between adjacent means, the
    maximum-likelihood rule for equal-variance Gaussians.  ``confusion`` gives
    the chance of each decision; binning drawn quadratures is the tests' oracle.
    """

    alpha: float
    theta: float
    tags: tuple[int, ...]
    means: tuple[float, ...]
    thresholds: tuple[float, ...]

    @classmethod
    def for_tags(cls, alpha: float, theta: float, tags) -> "HomodyneModel":
        tags = [int(k) for k in tags]
        if not tags:
            raise ValueError("no tags to discriminate")
        means, tags = zip(*sorted((quadrature_mean(alpha, theta, k), k) for k in tags))
        if not math.isfinite(means[-1] - means[0]):
            raise ValueError("probe quadrature means overflow")
        if not all(hi - lo > MIN_MEAN_GAP for lo, hi in zip(means, means[1:])):
            raise ValueError("degenerate phase configuration")
        # lo/2 + hi/2 is (lo + hi)/2 to the bit, and cannot overflow
        thresholds = tuple(lo / 2.0 + hi / 2.0 for lo, hi in zip(means, means[1:]))
        return cls(alpha, theta, tags, means, thresholds)

    def confusion(self, true_tags) -> np.ndarray:
        """Chance that a quadrature of each true tag (rows) lands in the decision cell of each of ``tags`` (columns).

        Gaussian masses between adjacent thresholds, from ``erfc``; for two
        tags the off-diagonal entries are ``error_probability``.
        """
        edges = (-math.inf, *self.thresholds, math.inf)
        means = [quadrature_mean(self.alpha, self.theta, k) for k in true_tags]
        return np.diff([[0.5 * math.erfc((m - e) / math.sqrt(2.0)) for e in edges] for m in means], axis=1)


@np.errstate(over="ignore")   # far from a huge mean the density underflows to its limit 0
def homodyne_pdf(x, alpha: float, k: int, theta: float):
    """Probability density of the X quadrature for tag k: unit-variance Gaussian."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    mean = quadrature_mean(alpha, theta, k)
    return np.exp(-0.5 * (np.asarray(x, dtype=float) - mean) ** 2) / math.sqrt(2.0 * math.pi)


def read_rows(rows: np.ndarray, at, receiver: tuple[np.ndarray, tuple[int, ...]] | None, rng):
    """Tag and read out a batch of trials whose photons-only amplitude rows are ``rows[at]``.

    The true tag of each trial is drawn by its row's branch weights with
    ``collapse``.  Without a ``receiver`` the readout is ideal and reports
    the true tag.  With one, ``(model.confusion(range(n + 1)), model.tags)``,
    it is gaussian: ``choose_branch`` draws each trial's decision cell from
    its true tag's row of the matrix and reports that cell's tag.  The
    receiver is fixed, so a tag of vanishing weight cannot move a decision
    threshold, and a leaked tag reads as the tag of the cell drawn from its
    own row.  Returns the classified tags, the true tags, and the children
    and each trial's index into them as ``collapse`` returns them: each
    chosen true branch once, renormalized.
    """
    true, collapsed, at, _ = collapse(_tag_branches(rows), at, rng)
    if receiver is None:
        return true, true, collapsed, at
    confusion, tags = receiver
    return np.asarray(tags)[choose_branch(confusion[true].T, rng)], true, collapsed, at


def error_probability(x_d: float) -> float:
    """Misclassification probability for two unit-variance peaks a distance x_d apart.

    This is the tail mass of one Gaussian beyond the midpoint threshold:
    erfc(x_d / (2*sqrt(2))) / 2.
    """
    if x_d < 0:
        raise ValueError("peak distance must be nonnegative")
    return 0.5 * math.erfc(x_d / (2.0 * math.sqrt(2.0)))
