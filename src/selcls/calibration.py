"""Coverage calibration: fit a threshold on held-out scores, then apply it.

Fitting picks tau as the k-th largest score with k = ceil(coverage * n).
On the fitting set, ties at tau are broken by ascending sample index so
that exactly k samples come out; on fresh data the selector is the pure
rule score >= tau and the achieved coverage may drift by O(1/sqrt(n)).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, ConfigurationError

TIE_POLICY = "ascending_index"


@dataclass
class CalibratedSelector:
    mechanism: str | None
    tau: float
    target_coverage: float
    tie_policy: str = TIE_POLICY


def required_count(n: int, target_coverage: float) -> int:
    """ceil(coverage * n), guarded against float fuzz like 0.1 * 30."""
    if not 0 < target_coverage <= 1:
        raise ConfigurationError("target coverage must lie in (0, 1]")
    return max(1, math.ceil(target_coverage * n - 1e-9))


def _check_scores(scores) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.size == 0:
        raise ConfigurationError("scores must be a non-empty 1-d array")
    if np.any(np.isnan(scores)) or np.any(scores == np.inf):
        raise ConfigurationError(
            "scores must be finite (-inf allowed for degenerate samples)")
    return scores


def _descending_order(scores: np.ndarray) -> np.ndarray:
    # primary: score descending; secondary: sample index ascending
    return np.lexsort((np.arange(scores.size), -scores))


def fit_threshold(scores, target_coverage: float,
                  mechanism: str | None = None) -> CalibratedSelector:
    """Fit tau so that exactly ceil(c*n) fitting samples score >= tau.

    Raises CalibrationError when every score is -inf, since no finite
    threshold can be chosen then.
    """
    scores = _check_scores(scores)
    if not np.any(np.isfinite(scores)):
        raise CalibrationError("all scores are -inf; nothing can be selected")
    k = required_count(scores.size, target_coverage)
    order = _descending_order(scores)
    tau = float(scores[order[k - 1]])
    return CalibratedSelector(mechanism=mechanism, tau=tau,
                              target_coverage=float(target_coverage))


def apply_selector(sel: CalibratedSelector, scores, exact_k: bool = False) -> np.ndarray:
    """Accept mask under the fitted threshold.

    ``exact_k=False`` (fresh data): the pure rule scores >= tau.
    ``exact_k=True`` (the fitting set): ties at tau are additionally
    broken by ascending index so exactly ceil(c*n) samples come out.
    """
    scores = _check_scores(scores)
    if not exact_k:
        return scores >= sel.tau
    k = required_count(scores.size, sel.target_coverage)
    order = _descending_order(scores)
    mask = np.zeros(scores.size, dtype=bool)
    mask[order[:k]] = True
    return mask


def achieved_coverage(mask) -> float:
    mask = np.asarray(mask, dtype=bool)
    if mask.size == 0:
        raise ConfigurationError("coverage of an empty mask is undefined")
    return float(mask.mean())
