"""Selective metrics, risk-coverage curves, and score histograms.

One rule selects the samples of a coverage target c: a point is a prefix
of one order of the evaluation split, its scores in descending order with
equal scores (+0.0 and -0.0 alike) in ascending index order. tau is the
k-th largest fitting score, k = ceil(c * n_fit). After a self-fit the
point takes the first k samples (exact top-k); after a held-out fit it
takes every sample with score >= tau (coverage on fresh data may drift
by O(1/sqrt(n))). The order is one stable argsort per curve, and each
risk is a prefix count of it.

-inf scores (degenerate samples) rank last. When fewer fitting scores are
finite than k, tau is therefore -inf, and a held-out fit takes every
sample of the evaluation split, degenerate ones included: the achieved
coverage is 1.0 whatever the target. Nothing flags this yet.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, ConfigurationError, UndefinedRiskError
from .util import fmt, write_csv


@dataclass
class RiskCoveragePoint:
    target_coverage: float
    achieved_coverage: float
    selective_risk: float
    n_selected: int


@dataclass
class ScoreHistogram:
    """Aligned correct/incorrect counts over equal-width score bins."""

    bin_edges: np.ndarray
    counts_correct: np.ndarray
    counts_incorrect: np.ndarray


def required_count(n: int, target_coverage: float) -> int:
    """ceil(coverage * n), guarded against float fuzz like 0.07 * 100."""
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


def risk_coverage_curve(scores, predicted, truth, grid,
                        calibration_scores=None) -> list:
    """One RiskCoveragePoint per target coverage in ``grid``, each in (0, 1],
    by the module's rule.

    With ``calibration_scores`` given, tau is fitted there (the held-out
    protocol); without them the evaluation scores fit themselves, and each
    point is their exact top k. Risk is 1 - (correct selected / selected)
    from two integer counts, so at full coverage it is bitwise equal to
    1 - accuracy. Raises CalibrationError when every fitting score is -inf.
    """
    grid = [float(c) for c in grid]
    scores = np.asarray(scores, dtype=np.float64)
    predicted, truth = np.asarray(predicted), np.asarray(truth)
    if not (predicted.shape == truth.shape == scores.shape):
        raise ConfigurationError("predictions, labels, and scores must align")
    held_out = calibration_scores is not None
    fit = np.sort(_check_scores(calibration_scores if held_out else scores))
    if fit[-1] == -np.inf:
        raise CalibrationError("all scores are -inf; nothing can be selected")
    # the one order: scores descending, equal ones by ascending index
    negated = -_check_scores(scores)
    order = np.argsort(negated, kind="stable")
    negated = negated[order]
    n_ok = np.cumsum((predicted == truth)[order])
    points = []
    for c in grid:
        k = required_count(fit.size, c)
        n_sel = (int(np.searchsorted(negated, -fit[-k], "right"))
                 if held_out else k)
        if n_sel == 0:
            raise UndefinedRiskError("no samples selected; risk is undefined")
        points.append(RiskCoveragePoint(
            target_coverage=c, achieved_coverage=n_sel / scores.size,
            selective_risk=1.0 - int(n_ok[n_sel - 1]) / n_sel,
            n_selected=n_sel))
    return points


def score_histogram(scores, predicted, truth, n_bins: int) -> ScoreHistogram:
    """Counts of correctly vs incorrectly predicted samples per score bin.

    Bins are equal width over [min, max] of the scores. Constant scores
    collapse to a single unit-width bin centred on their value, and no
    scores give no bins.
    """
    if n_bins < 2:
        raise ConfigurationError("need n_bins >= 2")
    scores = np.asarray(scores, dtype=np.float64)
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if not np.all(np.isfinite(scores)):
        raise ConfigurationError(
            "histogram scores must be finite; filter degenerate samples first")
    correct = predicted == truth
    if scores.size == 0:  # every score was -inf and filtered out, say
        none = np.zeros(0, dtype=np.int64)
        return ScoreHistogram(bin_edges=np.zeros(0), counts_correct=none,
                              counts_incorrect=none)
    lo, hi = float(scores.min()), float(scores.max())
    if lo == hi:
        n_ok = np.count_nonzero(correct)
        return ScoreHistogram(bin_edges=np.array([lo - 0.5, lo + 0.5]),
                              counts_correct=np.array([n_ok]),
                              counts_incorrect=np.array([correct.size - n_ok]))
    edges = np.linspace(lo, hi, n_bins + 1)
    c_counts, _ = np.histogram(scores[correct], bins=edges)
    i_counts, _ = np.histogram(scores[~correct], bins=edges)
    return ScoreHistogram(bin_edges=edges, counts_correct=c_counts,
                          counts_incorrect=i_counts)


def mean_sd(values) -> tuple:
    """Mean and sample standard deviation (ddof=1; 0.0 for a single value)."""
    values = np.asarray(values, dtype=np.float64)
    mean = float(values.mean())
    sd = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return mean, sd


def curve_to_csv(path, points, seed: int, header_comment: str = "") -> None:
    write_csv(path, ["target_coverage", "achieved_coverage", "selective_risk",
                     "n_selected", "seed"],
              ([fmt(p.target_coverage), fmt(p.achieved_coverage),
                fmt(p.selective_risk), p.n_selected, seed] for p in points),
              header_comment)


def histogram_to_csv(path, hist: ScoreHistogram, header_comment: str = "") -> None:
    write_csv(path, ["bin_lo", "bin_hi", "count_correct", "count_incorrect"],
              ([fmt(lo), fmt(hi), int(c), int(i)] for lo, hi, c, i in zip(
                  hist.bin_edges[:-1], hist.bin_edges[1:],
                  hist.counts_correct, hist.counts_incorrect)),
              header_comment)
