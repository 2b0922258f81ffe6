import numpy as np
import pytest

from selcls.calibration import (
    CalibratedSelector,
    achieved_coverage,
    apply_selector,
    fit_threshold,
    required_count,
)
from selcls.errors import CalibrationError, ConfigurationError


def brute_force_tau(scores, k):
    """Independent oracle: largest candidate threshold t (a score value)
    with #{score >= t} >= k."""
    feasible = [t for t in scores if np.sum(scores >= t) >= k]
    return max(feasible)


def random_multiset(rng, allow_minus_inf=True):
    n = int(rng.integers(1, 120))
    kind = rng.integers(0, 3)
    if kind == 0:
        scores = rng.normal(size=n)
    elif kind == 1:
        # heavy ties from a small value pool
        pool = rng.normal(size=max(1, n // 8))
        scores = rng.choice(pool, size=n)
    else:
        scores = np.round(rng.normal(size=n), 1)
    if allow_minus_inf and n > 2 and rng.random() < 0.5:
        idx = rng.choice(n, size=int(rng.integers(1, max(2, n // 4))),
                         replace=False)
        scores = scores.astype(float)
        scores[idx] = -np.inf
    return scores


class TestRequiredCount:
    def test_examples(self):
        assert required_count(10, 0.5) == 5
        assert required_count(10, 1.0) == 10
        assert required_count(10, 0.41) == 5
        assert required_count(7, 0.01) == 1

    def test_float_fuzz(self):
        # 0.1 * 30 is 3.0000000000000004 in floating point
        assert required_count(30, 0.1) == 3
        assert required_count(10, 0.3) == 3
        assert required_count(10, 0.7) == 7


class TestFitThreshold:
    def test_distinct_scores_example(self):
        scores = np.arange(0.1, 1.05, 0.1)
        sel = fit_threshold(scores, 0.5)
        assert abs(sel.tau - 0.6) < 1e-12
        mask = apply_selector(sel, scores, exact_k=True)
        assert mask.sum() == 5

    def test_full_coverage_selects_all(self):
        scores = np.array([3.0, -1.0, 2.0])
        sel = fit_threshold(scores, 1.0)
        assert sel.tau == -1.0
        assert apply_selector(sel, scores).all()

    def test_all_ties_lowest_ids_win(self):
        scores = np.full(10, 0.5)
        sel = fit_threshold(scores, 0.4)
        assert sel.tau == 0.5
        mask = apply_selector(sel, scores, exact_k=True)
        assert mask.sum() == 4
        assert np.array_equal(np.flatnonzero(mask), [0, 1, 2, 3])

    def test_all_minus_inf_fails(self):
        with pytest.raises(CalibrationError):
            fit_threshold(np.full(5, -np.inf), 0.5)

    def test_nan_rejected(self):
        with pytest.raises(ConfigurationError):
            fit_threshold(np.array([1.0, np.nan]), 0.5)

    def test_coverage_out_of_range(self):
        with pytest.raises(ConfigurationError):
            fit_threshold(np.array([1.0]), 0.0)
        with pytest.raises(ConfigurationError):
            fit_threshold(np.array([1.0]), 1.5)


class TestApplySelector:
    def test_boundary_inclusive(self):
        sel = CalibratedSelector(mechanism=None, tau=0.6, target_coverage=0.5)
        mask = apply_selector(sel, np.array([0.59, 0.60, 0.61]))
        assert np.array_equal(mask, [False, True, True])

    def test_minus_inf_tau_selects_all(self):
        sel = CalibratedSelector(mechanism=None, tau=-np.inf,
                                 target_coverage=1.0)
        mask = apply_selector(sel, np.array([-np.inf, 0.0, 5.0]))
        assert mask.all()

    def test_fresh_data_coverage_near_target(self):
        # continuous scores: threshold transfer error is O(1/sqrt(n))
        rng = np.random.default_rng(99)
        cal = rng.normal(size=10_000)
        test = rng.normal(size=10_000)
        sel = fit_threshold(cal, 0.5)
        cov = achieved_coverage(apply_selector(sel, test))
        assert abs(cov - 0.5) < 0.02


class TestAchievedCoverage:
    def test_all_ones(self):
        assert achieved_coverage(np.ones(7, dtype=bool)) == 1.0

    def test_half(self):
        assert achieved_coverage([1, 0, 1, 0]) == 0.5

    def test_fit_then_coverage_exact(self):
        scores = np.arange(0.1, 1.05, 0.1)
        sel = fit_threshold(scores, 0.5)
        mask = apply_selector(sel, scores, exact_k=True)
        assert achieved_coverage(mask) == 0.5


COVERAGE_GRID = [round(0.1 * i, 1) for i in range(1, 11)]


class TestExactnessProperty:
    def test_exact_k_on_fitting_set(self):
        rng = np.random.default_rng(1234)
        for _ in range(200):
            scores = random_multiset(rng)
            if not np.any(np.isfinite(scores)):
                continue
            for c in COVERAGE_GRID:
                sel = fit_threshold(scores, c)
                mask = apply_selector(sel, scores, exact_k=True)
                assert mask.sum() == required_count(len(scores), c)

    def test_tau_matches_brute_force(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            scores = random_multiset(rng)
            if not np.any(np.isfinite(scores)):
                continue
            for c in (0.2, 0.5, 0.9, 1.0):
                sel = fit_threshold(scores, c)
                k = required_count(len(scores), c)
                assert sel.tau == brute_force_tau(scores, k)

    def test_nested_selection_and_monotone_tau(self):
        rng = np.random.default_rng(4242)
        for _ in range(100):
            scores = random_multiset(rng)
            if not np.any(np.isfinite(scores)):
                continue
            prev_mask = None
            prev_tau = None
            for c in COVERAGE_GRID:  # ascending coverage
                sel = fit_threshold(scores, c)
                mask = apply_selector(sel, scores, exact_k=True)
                if prev_mask is not None:
                    assert np.all(mask[prev_mask])  # previous set contained
                    assert sel.tau <= prev_tau
                prev_mask, prev_tau = mask, sel.tau

