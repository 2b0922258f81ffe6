"""Selective metrics, risk-coverage curves, and score histograms."""

from dataclasses import dataclass

import numpy as np

from .calibration import apply_selector, exact_k_mask, fit_threshold
from .errors import ConfigurationError, UndefinedRiskError
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


def risk_coverage_curve(scores, predicted, truth, grid,
                        calibration_scores=None) -> list:
    """One RiskCoveragePoint per target coverage in ``grid``.

    With ``calibration_scores`` given, tau is fitted there and applied to
    the evaluation scores as a pure threshold (the held-out protocol).
    Without it, the evaluation scores calibrate themselves with exact-k
    tie handling, which makes every point identical to top-k selection.
    Risk is 1 - (correct selected / selected), so at full coverage it is
    bitwise equal to 1 - accuracy.
    """
    grid = [float(c) for c in grid]
    if any(not 0 < c <= 1 for c in grid):
        raise ConfigurationError("coverage grid values must lie in (0, 1]")
    scores = np.asarray(scores, dtype=np.float64)
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if not (predicted.shape == truth.shape == scores.shape):
        raise ConfigurationError("predictions, labels, and scores must align")
    correct = predicted == truth
    points = []
    for c in grid:
        if calibration_scores is None:
            mask = exact_k_mask(scores, c)
        else:
            mask = apply_selector(fit_threshold(calibration_scores, c), scores)
        n_sel = np.count_nonzero(mask)
        if n_sel == 0:
            raise UndefinedRiskError("no samples selected; risk is undefined")
        points.append(RiskCoveragePoint(
            target_coverage=c, achieved_coverage=n_sel / scores.size,
            selective_risk=1.0 - np.count_nonzero(correct & mask) / n_sel,
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
