"""Coverage calibration: fit a threshold on held-out scores, then apply it.

Fitting picks tau as the k-th largest score with k = ceil(coverage * n).
On the fitting set, ties at tau are broken by ascending sample index so
that exactly k samples come out; on fresh data the selector is the pure
rule score >= tau and the achieved coverage may drift by O(1/sqrt(n)).

Neither step sorts: the k-th largest value comes from one partition, and
the exact-k mask takes every score above it plus the lowest-index ties,
both in O(n).

-inf scores (degenerate samples) rank last. When fewer fitting scores are
finite than k, tau is therefore -inf, and ``apply_selector`` takes every
sample of the fresh data, degenerate ones included: the achieved coverage
is 1.0 whatever the target. Nothing flags this yet.
"""

import math

import numpy as np

from .errors import CalibrationError, ConfigurationError


def required_count(n: int, target_coverage: float) -> int:
    """ceil(coverage * n), guarded against float fuzz like 0.1 * 30."""
    if not 0 < target_coverage <= 1:
        raise ConfigurationError("target coverage must lie in (0, 1]")
    return max(1, math.ceil(target_coverage * n - 1e-9))


def _check_scores(scores) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise ConfigurationError("scores must be a non-empty 1-d array")
    # one comparison rejects both: NaN < inf and inf < inf are False
    if not (scores < np.inf).all():
        raise ConfigurationError(
            "scores must be finite (-inf allowed for degenerate samples)")
    return scores


def _kth_largest(scores: np.ndarray, k: int) -> float:
    """The k-th largest value; which of several equal values it is does
    not matter, since they compare equal (+0.0 and -0.0 included)."""
    i = scores.size - k
    return np.partition(scores, i)[i]


def _fitting_scores(scores) -> np.ndarray:
    """Checked scores of a fitting set, which must hold one above -inf,
    since no finite threshold can be chosen otherwise."""
    scores = _check_scores(scores)
    if scores.max() == -np.inf:
        raise CalibrationError("all scores are -inf; nothing can be selected")
    return scores


def fit_threshold(scores, target_coverage: float) -> float:
    """Fit tau so that exactly ceil(c*n) fitting samples score >= tau.

    Raises CalibrationError when every score is -inf.
    """
    scores = _fitting_scores(scores)
    k = required_count(scores.size, target_coverage)
    return float(_kth_largest(scores, k))


def apply_selector(tau: float, scores) -> np.ndarray:
    """Accept mask of fresh data under the fitted threshold: the pure rule
    scores >= tau."""
    return _check_scores(scores) >= tau


def exact_k_mask(scores, target_coverage: float) -> np.ndarray:
    """Accept mask of the fitting set itself: its top ceil(c*n) scores,
    ties at the k-th largest broken by ascending index so exactly that many
    samples come out. These are the samples ``fit_threshold`` puts at or
    above tau. Raises CalibrationError when every score is -inf.
    """
    scores = _fitting_scores(scores)
    k = required_count(scores.size, target_coverage)
    kth = _kth_largest(scores, k)
    mask = scores > kth
    # fewer than k lie strictly above the k-th largest, and at least k at
    # or above it, so the ties always fill the rest
    ties = np.flatnonzero(scores == kth)
    mask[ties[:k - np.count_nonzero(mask)]] = True
    return mask
