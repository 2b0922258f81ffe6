"""Selective metrics, risk-coverage curves, and score histograms."""

import csv
from dataclasses import dataclass

import numpy as np

from .calibration import apply_selector, exact_k_mask, fit_threshold
from .errors import ConfigurationError, UndefinedRiskError
from .util import atomic_write, fmt


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
    degenerate: bool = False


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
    collapse to a single unit-width bin, flagged degenerate.
    """
    if n_bins < 2:
        raise ConfigurationError("need n_bins >= 2")
    scores = np.asarray(scores, dtype=np.float64)
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if not np.all(np.isfinite(scores)):
        raise ConfigurationError(
            "histogram scores must be finite; filter degenerate samples first")
    lo, hi = float(scores.min()), float(scores.max())
    correct = predicted == truth
    if lo == hi:
        edges = np.array([lo - 0.5, lo + 0.5])
        return ScoreHistogram(
            bin_edges=edges,
            counts_correct=np.array([int(correct.sum())]),
            counts_incorrect=np.array([int((~correct).sum())]),
            degenerate=True)
    edges = np.linspace(lo, hi, n_bins + 1)
    c_counts, _ = np.histogram(scores[correct], bins=edges)
    i_counts, _ = np.histogram(scores[~correct], bins=edges)
    return ScoreHistogram(bin_edges=edges, counts_correct=c_counts,
                          counts_incorrect=i_counts, degenerate=False)


def mean_sd(values) -> tuple:
    """Mean and sample standard deviation (ddof=1; 0.0 for a single value)."""
    values = np.asarray(values, dtype=np.float64)
    mean = float(values.mean())
    sd = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return mean, sd


def curve_to_csv(path, points, seed=None, header_comment: str = "") -> None:
    with atomic_write(path) as f:
        if header_comment:
            f.write(f"# {header_comment}\n")
        w = csv.writer(f)
        w.writerow(["target_coverage", "achieved_coverage", "selective_risk",
                    "n_selected", "seed"])
        for p in points:
            w.writerow([fmt(p.target_coverage), fmt(p.achieved_coverage),
                        fmt(p.selective_risk), p.n_selected,
                        "" if seed is None else seed])


def histogram_to_csv(path, hist: ScoreHistogram, header_comment: str = "") -> None:
    with atomic_write(path) as f:
        if header_comment:
            f.write(f"# {header_comment}\n")
        w = csv.writer(f)
        w.writerow(["bin_lo", "bin_hi", "count_correct", "count_incorrect"])
        for i in range(len(hist.counts_correct)):
            w.writerow([fmt(hist.bin_edges[i]), fmt(hist.bin_edges[i + 1]),
                        int(hist.counts_correct[i]),
                        int(hist.counts_incorrect[i])])
