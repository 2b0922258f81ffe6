import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selcls.calibration import (
    apply_selector,
    exact_k_mask,
    fit_threshold,
    required_count,
)
from selcls.errors import CalibrationError, ConfigurationError, UndefinedRiskError
from selcls.evaluation import RiskCoveragePoint, risk_coverage_curve

from conftest import selective_risk


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
        tau = fit_threshold(scores, 0.5)
        assert abs(tau - 0.6) < 1e-12
        mask = exact_k_mask(scores, 0.5)
        assert mask.sum() == 5

    def test_full_coverage_selects_all(self):
        scores = np.array([3.0, -1.0, 2.0])
        tau = fit_threshold(scores, 1.0)
        assert tau == -1.0
        assert apply_selector(tau, scores).all()

    def test_all_ties_lowest_ids_win(self):
        scores = np.full(10, 0.5)
        tau = fit_threshold(scores, 0.4)
        assert tau == 0.5
        mask = exact_k_mask(scores, 0.4)
        assert mask.sum() == 4
        assert np.array_equal(np.flatnonzero(mask), [0, 1, 2, 3])

    def test_all_minus_inf_fails(self):
        with pytest.raises(CalibrationError):
            fit_threshold(np.full(5, -np.inf), 0.5)
        with pytest.raises(CalibrationError):
            exact_k_mask(np.full(5, -np.inf), 0.5)

    def test_nan_rejected(self):
        with pytest.raises(ConfigurationError):
            fit_threshold(np.array([1.0, np.nan]), 0.5)

    def test_plus_inf_rejected(self):
        with pytest.raises(ConfigurationError):
            fit_threshold(np.array([1.0, np.inf]), 0.5)
        with pytest.raises(ConfigurationError):
            apply_selector(0.0, np.array([np.inf, -np.inf]))
        with pytest.raises(ConfigurationError):
            exact_k_mask(np.array([np.inf, -np.inf]), 0.5)

    def test_coverage_out_of_range(self):
        with pytest.raises(ConfigurationError):
            fit_threshold(np.array([1.0]), 0.0)
        with pytest.raises(ConfigurationError):
            fit_threshold(np.array([1.0]), 1.5)


class TestApplySelector:
    def test_boundary_inclusive(self):
        mask = apply_selector(0.6, np.array([0.59, 0.60, 0.61]))
        assert np.array_equal(mask, [False, True, True])

    def test_minus_inf_tau_selects_all(self):
        mask = apply_selector(-np.inf, np.array([-np.inf, 0.0, 5.0]))
        assert mask.all()

    def test_fresh_data_coverage_near_target(self):
        # continuous scores: threshold transfer error is O(1/sqrt(n))
        rng = np.random.default_rng(99)
        cal = rng.normal(size=10_000)
        test = rng.normal(size=10_000)
        tau = fit_threshold(cal, 0.5)
        cov = apply_selector(tau, test).mean()
        assert abs(cov - 0.5) < 0.02


class TestAchievedCoverage:
    def test_all_ones(self):
        scores = np.array([0.3, -np.inf, 0.3, 2.0, 0.0, -0.0, 1.0])
        mask = apply_selector(fit_threshold(scores, 1.0), scores)
        assert mask.mean() == 1.0

    def test_half(self):
        scores = np.array([0.9, 0.1, 0.9, 0.1])
        mask = apply_selector(fit_threshold(scores, 0.5), scores)
        assert mask.sum() == 2
        assert mask.mean() == 0.5

    def test_fit_then_coverage_exact(self):
        scores = np.arange(0.1, 1.05, 0.1)
        mask = exact_k_mask(scores, 0.5)
        assert mask.mean() == 0.5


COVERAGE_GRID = [round(0.1 * i, 1) for i in range(1, 11)]


class TestExactnessProperty:
    def test_exact_k_on_fitting_set(self):
        rng = np.random.default_rng(1234)
        for _ in range(200):
            scores = random_multiset(rng)
            if not np.any(np.isfinite(scores)):
                continue
            for c in COVERAGE_GRID:
                mask = exact_k_mask(scores, c)
                assert mask.sum() == required_count(len(scores), c)

    def test_tau_matches_brute_force(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            scores = random_multiset(rng)
            if not np.any(np.isfinite(scores)):
                continue
            for c in (0.2, 0.5, 0.9, 1.0):
                tau = fit_threshold(scores, c)
                k = required_count(len(scores), c)
                assert tau == brute_force_tau(scores, k)

    def test_nested_selection_and_monotone_tau(self):
        rng = np.random.default_rng(4242)
        for _ in range(100):
            scores = random_multiset(rng)
            if not np.any(np.isfinite(scores)):
                continue
            prev_mask = None
            prev_tau = None
            for c in COVERAGE_GRID:  # ascending coverage
                tau = fit_threshold(scores, c)
                mask = exact_k_mask(scores, c)
                if prev_mask is not None:
                    assert np.all(mask[prev_mask])  # previous set contained
                    assert tau <= prev_tau
                prev_mask, prev_tau = mask, tau


# ---------------------------------------------------------------------------
# The tie rule against a sorting reference: order by (score descending,
# index ascending), take tau at position k - 1 and the first k as the
# exact-k mask. +0.0 and -0.0 compare equal in the sort as in the code.

def reference_order(scores):
    return np.lexsort((np.arange(scores.size), -scores))


def reference_tau(scores, k):
    return scores[reference_order(scores)[k - 1]]


def reference_top_k(scores, k):
    mask = np.zeros(scores.size, dtype=bool)
    mask[reference_order(scores)[:k]] = True
    return mask


def reference_curve(scores, predicted, truth, grid, calibration_scores=None):
    """Per-point composition of the sorting reference: fit on the
    calibration scores (or the scores themselves), select, measure."""
    fit_on = scores if calibration_scores is None else calibration_scores
    points = []
    for c in grid:
        if np.all(fit_on == -np.inf):
            raise CalibrationError("all scores are -inf")
        if calibration_scores is None:
            mask = reference_top_k(scores, required_count(scores.size, c))
        else:
            tau = reference_tau(fit_on, required_count(fit_on.size, c))
            mask = scores >= tau
        points.append(RiskCoveragePoint(
            target_coverage=c, achieved_coverage=float(mask.mean()),
            selective_risk=selective_risk(predicted, truth, mask),
            n_selected=int(mask.sum())))
    return points


def outcome(fn):
    """The value of fn(), or the class of the selection error it raised."""
    try:
        return fn()
    except (CalibrationError, UndefinedRiskError) as exc:
        return type(exc)


TIE_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                        database=None)
# few distinct values, both zeros and -inf, so that ties are the rule
TIE_POOL = (-np.inf, -2.0, -0.0, 0.0, 0.5, 1.0)
tied_scores = st.one_of(
    st.lists(st.sampled_from(TIE_POOL), min_size=1, max_size=40),
    st.lists(st.one_of(st.sampled_from(TIE_POOL), st.floats(-3.0, 3.0)),
             min_size=1, max_size=40),
    st.builds(lambda v, n: [v] * n, st.sampled_from(TIE_POOL),
              st.integers(1, 40)),
).map(lambda xs: np.array(xs, dtype=np.float64))
# folded into 1..n by the tests
any_k = st.integers(1, 40)
tie_examples = [
    dict(scores=np.array([0.5, 0.5, -0.0, 0.0]), k=1),
    dict(scores=np.array([0.0, -0.0, -np.inf, 0.0]), k=4),
    dict(scores=np.full(7, 0.5), k=3),
    dict(scores=np.array([-np.inf, 1.0, -np.inf, 1.0, -np.inf]), k=4),
    dict(scores=np.array([-0.0, 0.0, -0.0, 0.0, 1.0]), k=2),
]


def with_examples(test):
    for ex in tie_examples:
        test = example(**ex)(test)
    return test


class TestTieRuleProperty:
    @TIE_SETTINGS
    @with_examples
    @given(scores=tied_scores, k=any_k)
    def test_tau_matches_sorting_reference(self, scores, k):
        k = 1 + (k - 1) % scores.size
        c = k / scores.size
        if np.all(scores == -np.inf):
            with pytest.raises(CalibrationError):
                fit_threshold(scores, c)
            return
        assert fit_threshold(scores, c) == reference_tau(scores, k)

    @TIE_SETTINGS
    @with_examples
    @given(scores=tied_scores, k=any_k)
    def test_exact_k_mask_matches_sorting_reference(self, scores, k):
        k = 1 + (k - 1) % scores.size
        c = k / scores.size
        if np.all(scores == -np.inf):
            with pytest.raises(CalibrationError):
                exact_k_mask(scores, c)
            return
        assert np.array_equal(exact_k_mask(scores, c),
                              reference_top_k(scores, k))

    @TIE_SETTINGS
    @given(scores=tied_scores, calibration=tied_scores,
           grid=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6),
           seed=st.integers(0, 2 ** 16))
    def test_curve_points_match_per_point_reference(self, scores, calibration,
                                                    grid, seed):
        rng = np.random.default_rng(seed)
        predicted = rng.integers(0, 3, size=scores.size)
        truth = rng.integers(0, 3, size=scores.size)
        for cal in (None, calibration):
            got = outcome(lambda: risk_coverage_curve(
                scores, predicted, truth, grid, calibration_scores=cal))
            want = outcome(lambda: reference_curve(
                scores, predicted, truth, grid, calibration_scores=cal))
            assert got == want
