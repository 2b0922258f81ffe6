import itertools

import numpy as np
import pytest

from selcls.calibration import fit_threshold, required_count
from selcls.errors import ConfigurationError, UndefinedRiskError
from selcls.evaluation import (
    RiskCoveragePoint,
    ScoreHistogram,
    curve_to_csv,
    histogram_to_csv,
    mean_sd,
    risk_coverage_curve,
    score_histogram,
)

from conftest import selective_risk


def accuracy(predicted, truth) -> float:
    """Reference: the share of predictions equal to their labels."""
    return float(np.mean(np.asarray(predicted) == np.asarray(truth)))


def brute_force_point(scores, predicted, truth, c):
    """Oracle: risk of the top-k samples ordered by (score desc, id asc).

    Risk uses the published complement convention 1 - correct/selected so
    the comparison with the implementation can demand bit equality.
    """
    n = len(scores)
    k = required_count(n, c)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    top = order[:k]
    n_correct = sum(1 for i in top if predicted[i] == truth[i])
    return 1.0 - n_correct / k, k


class TestAccuracy:
    """Plain accuracy is the complement of the full-coverage risk."""

    def test_all_equal(self):
        [point] = risk_coverage_curve([0.3, 0.1, 0.2], [1, 2, 3], [1, 2, 3],
                                      [1.0])
        assert point.selective_risk == 0.0

    def test_none_equal(self):
        [point] = risk_coverage_curve([0.3, 0.1, 0.2], [1, 2, 3], [0, 0, 0],
                                      [1.0])
        assert point.selective_risk == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            risk_coverage_curve([], [], [], [1.0])
        with pytest.raises(ConfigurationError):
            risk_coverage_curve([0.3, 0.1], [1, 2, 3], [1, 2, 3], [1.0])


class TestSelectiveRisk:
    """Risk of a curve point is the 0/1 error over the samples it selects,
    as the reference ``selective_risk`` counts it over the same mask."""

    def test_first_two_selected(self):
        pred = np.array([0, 1, 0, 1])
        truth = np.array([0, 0, 0, 0])
        mask = np.array([True, True, False, False])
        [point] = risk_coverage_curve(mask.astype(float), pred, truth, [0.5])
        assert point.selective_risk == selective_risk(pred, truth, mask) == 0.5

    def test_only_correct_selected(self):
        pred = np.array([0, 1, 0, 1])
        truth = np.array([0, 0, 0, 0])
        mask = pred == truth
        [point] = risk_coverage_curve(mask.astype(float), pred, truth, [0.5])
        assert point.selective_risk == selective_risk(pred, truth, mask) == 0.0

    def test_complement_identity_at_full_coverage(self):
        rng = np.random.default_rng(5)
        for n in (1, 3, 7, 100, 333):
            pred = rng.integers(0, 3, size=n)
            truth = rng.integers(0, 3, size=n)
            full = np.ones(n, dtype=bool)
            [point] = risk_coverage_curve(rng.normal(size=n), pred, truth,
                                          [1.0])
            # bitwise identical, not just close
            assert point.selective_risk == 1.0 - accuracy(pred, truth)
            assert selective_risk(pred, truth, full) == point.selective_risk

    def test_empty_selection_is_an_error(self):
        # tau fitted on a score above every evaluation score selects none
        with pytest.raises(UndefinedRiskError):
            risk_coverage_curve([0.0, 1.0], [0, 1], [0, 1], [0.5],
                                calibration_scores=[5.0])
        with pytest.raises(UndefinedRiskError):
            selective_risk([0, 1], [0, 1], [False, False])


class TestOracleDominance:
    def test_correctness_oracle_beats_every_subset(self):
        # exhaustive: over all k-subsets, none beats selecting by correctness
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(4, 10))
            pred = rng.integers(0, 2, size=n)
            truth = rng.integers(0, 2, size=n)
            correct = (pred == truth).astype(float)
            for k in range(1, n + 1):
                order = sorted(range(n), key=lambda i: (-correct[i], i))
                oracle_mask = np.zeros(n, dtype=bool)
                oracle_mask[order[:k]] = True
                oracle_risk = selective_risk(pred, truth, oracle_mask)
                for subset in itertools.combinations(range(n), k):
                    mask = np.zeros(n, dtype=bool)
                    mask[list(subset)] = True
                    assert oracle_risk <= selective_risk(pred, truth, mask) + 1e-15


class TestRiskCoverageCurve:
    def test_single_full_coverage_point_is_plain_error(self):
        rng = np.random.default_rng(8)
        pred = rng.integers(0, 4, size=50)
        truth = rng.integers(0, 4, size=50)
        scores = rng.normal(size=50)
        [point] = risk_coverage_curve(scores, pred, truth, [1.0])
        assert point.selective_risk == 1.0 - accuracy(pred, truth)
        assert point.achieved_coverage == 1.0
        assert point.n_selected == 50

    def test_correctness_oracle_scores_give_zero_risk(self):
        rng = np.random.default_rng(9)
        pred = rng.integers(0, 2, size=100)
        truth = rng.integers(0, 2, size=100)
        scores = (pred == truth).astype(float)
        acc = accuracy(pred, truth)
        for c in (0.1, 0.3, round(acc - 0.05, 2)):
            [point] = risk_coverage_curve(scores, pred, truth, [c])
            assert point.selective_risk == 0.0

    def test_matches_brute_force_top_k(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(5, 500))
            pred = rng.integers(0, 3, size=n)
            truth = rng.integers(0, 3, size=n)
            scores = np.round(rng.normal(size=n), 2)  # ties likely
            grid = [1.0, 0.9, 0.7, 0.5, 0.3, 0.1]
            points = risk_coverage_curve(scores, pred, truth, grid)
            for c, point in zip(grid, points):
                risk, k = brute_force_point(scores, pred, truth, c)
                assert point.selective_risk == risk
                assert point.n_selected == k

    def test_held_out_calibration_uses_pure_threshold(self):
        rng = np.random.default_rng(11)
        cal = rng.normal(size=1000)
        scores = rng.normal(size=1000)
        pred = rng.integers(0, 2, size=1000)
        truth = rng.integers(0, 2, size=1000)
        [point] = risk_coverage_curve(scores, pred, truth, [0.5],
                                      calibration_scores=cal)
        # achieved coverage drifts from the target on fresh data
        assert 0.4 < point.achieved_coverage < 0.6
        assert point.n_selected == int(round(point.achieved_coverage * 1000))

    def test_minus_inf_threshold_selects_every_sample(self):
        # 2 of 6 calibration scores are finite, fewer than k = 3 for the
        # 0.5 target, so tau is -inf and the held-out selector takes all
        # evaluation samples, the degenerate -inf ones included. This pins
        # today's behaviour: a fix that flags or refuses it must change
        # this test on purpose.
        cal = np.array([0.4, -np.inf, 0.9, -np.inf, -np.inf, -np.inf])
        scores = np.array([-np.inf, 0.2, -np.inf, 0.7])
        pred, truth = np.array([0, 1, 1, 0]), np.array([0, 1, 0, 0])
        points = risk_coverage_curve(scores, pred, truth, [0.5, 0.3],
                                     calibration_scores=cal)
        assert fit_threshold(cal, 0.5) == -np.inf
        assert points[0].achieved_coverage == 1.0
        assert points[0].n_selected == 4
        assert points[0].selective_risk == 0.25
        # k = 2 finite scores are enough: tau is finite again
        assert points[1].achieved_coverage == 0.25

    def test_invalid_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            risk_coverage_curve([1.0], [0], [0], [0.0])


class TestScoreHistogram:
    def test_all_correct_means_zero_incorrect_counts(self):
        rng = np.random.default_rng(12)
        scores = rng.random(40)
        pred = np.zeros(40, dtype=int)
        hist = score_histogram(scores, pred, pred, n_bins=5)
        assert hist.counts_incorrect.sum() == 0
        assert hist.counts_correct.sum() == 40

    def test_constructed_two_bin_fixture(self):
        # correct mass in the low bin, incorrect mass in the high bin
        scores = np.concatenate([np.full(10, 0.2), np.full(10, 0.8)])
        pred = np.concatenate([np.zeros(10), np.ones(10)]).astype(int)
        truth = np.concatenate([np.zeros(10), np.zeros(10)]).astype(int)
        hist = score_histogram(scores, pred, truth, n_bins=2)
        assert np.array_equal(hist.counts_correct, [10, 0])
        assert np.array_equal(hist.counts_incorrect, [0, 10])

    def test_conservation(self):
        rng = np.random.default_rng(13)
        n = 137
        scores = rng.normal(size=n)
        pred = rng.integers(0, 3, size=n)
        truth = rng.integers(0, 3, size=n)
        hist = score_histogram(scores, pred, truth, n_bins=7)
        assert hist.counts_correct.sum() + hist.counts_incorrect.sum() == n

    def test_constant_scores_degenerate(self):
        hist = score_histogram(np.full(5, 0.3), [0, 0, 1, 1, 0],
                               [0, 0, 0, 0, 0], n_bins=4)
        assert np.array_equal(hist.bin_edges, [-0.2, 0.8])
        assert len(hist.counts_correct) == 1
        assert hist.counts_correct[0] == 3
        assert hist.counts_incorrect[0] == 2

    def test_no_scores_no_bins(self, tmp_path):
        # all of a split's scores were -inf and filtered out before binning
        hist = score_histogram(np.zeros(0), np.zeros(0, dtype=int),
                               np.zeros(0, dtype=int), n_bins=4)
        assert hist.bin_edges.size == 0
        assert hist.counts_correct.size == hist.counts_incorrect.size == 0
        histogram_to_csv(tmp_path / "hist.csv", hist,
                         header_comment="config=abc dropped=5")
        assert (tmp_path / "hist.csv").read_bytes() == (
            b"# config=abc dropped=5\n"
            b"bin_lo,bin_hi,count_correct,count_incorrect\r\n")

    def test_nonfinite_scores_rejected(self):
        with pytest.raises(ConfigurationError):
            score_histogram([0.1, -np.inf], [0, 0], [0, 0], n_bins=2)


class TestCsvBytes:
    """The exact bytes of the curve and histogram CSVs: a '# ' comment
    line ending in \n, then the header and rows ending in \r\n, floats in
    shortest round-trip form."""

    def test_curve(self, tmp_path):
        points = [RiskCoveragePoint(1.0, 1.0, 0.25, 4),
                  RiskCoveragePoint(0.5, 0.5, 1 / 3, 3)]
        curve_to_csv(tmp_path / "curve.csv", points, seed=7,
                     header_comment="config=abc mechanism=softmax_response")
        assert (tmp_path / "curve.csv").read_bytes() == (
            b"# config=abc mechanism=softmax_response\n"
            b"target_coverage,achieved_coverage,selective_risk,n_selected,"
            b"seed\r\n"
            b"1.0,1.0,0.25,4,7\r\n"
            b"0.5,0.5,0.3333333333333333,3,7\r\n")

    def test_histogram(self, tmp_path):
        hist = ScoreHistogram(bin_edges=np.linspace(0.0, 1.0, 3),
                              counts_correct=np.array([1, 2]),
                              counts_incorrect=np.array([3, 0]))
        histogram_to_csv(tmp_path / "hist.csv", hist,
                         header_comment="config=abc dropped=2")
        assert (tmp_path / "hist.csv").read_bytes() == (
            b"# config=abc dropped=2\n"
            b"bin_lo,bin_hi,count_correct,count_incorrect\r\n"
            b"0.0,0.5,1,3\r\n"
            b"0.5,1.0,2,0\r\n")


def test_mean_sd_conventions():
    m, s = mean_sd([2.0, 4.0])
    assert m == 3.0
    assert abs(s - np.sqrt(2.0)) < 1e-12
    m, s = mean_sd([5.0])
    assert (m, s) == (5.0, 0.0)
