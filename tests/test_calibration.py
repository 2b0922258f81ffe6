"""The selection rule of ``risk_coverage_curve``: tau fitted on held-out
scores and thresholded purely, or fitted on the evaluation scores
themselves with exact-k tie handling. A point reports counts, not its
accept mask, so the tests read tau and the masks back through counts."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selcls.errors import CalibrationError, ConfigurationError, UndefinedRiskError
from selcls.evaluation import RiskCoveragePoint, required_count, risk_coverage_curve

from conftest import selective_risk


def brute_force_tau(scores, k):
    """Independent oracle: largest candidate threshold t (a score value)
    with #{score >= t} >= k."""
    feasible = [t for t in scores if np.sum(scores >= t) >= k]
    return max(feasible)


def n_selected(scores, grid, calibration_scores=None):
    """n_selected of every grid point. With the scores themselves as the
    calibration scores, this is #{score >= tau}, which tells apart any two
    score values as tau: the lower one also counts itself."""
    zeros = np.zeros(np.shape(scores), dtype=int)
    return [p.n_selected for p in risk_coverage_curve(
        scores, zeros, zeros, grid, calibration_scores=calibration_scores)]


def selected(scores, grid, calibration_scores=None):
    """The accept mask of every grid point, one row each. With sample i
    alone predicted correctly, a point's risk is below 1 exactly when it
    selects i."""
    scores = np.asarray(scores, dtype=np.float64)
    masks = np.zeros((len(grid), scores.size), dtype=bool)
    truth = np.zeros(scores.size, dtype=int)
    for i in range(scores.size):
        predicted = np.ones(scores.size, dtype=int)
        predicted[i] = 0
        points = risk_coverage_curve(scores, predicted, truth, grid,
                                     calibration_scores=calibration_scores)
        masks[:, i] = [p.selective_risk < 1.0 for p in points]
    return masks


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
        # 0.07 * 100 is 7.000000000000001 in floating point
        assert required_count(100, 0.07) == 7
        assert required_count(100, 0.28) == 28
        assert required_count(30, 0.1) == 3
        assert required_count(10, 0.3) == 3
        assert required_count(10, 0.7) == 7


# one tenth to one, exactly the decimals 0.1 ... 1.0
TENTHS = np.arange(1, 11) / 10


class TestFitThreshold:
    """tau is the k-th largest fitting score."""

    def test_distinct_scores_example(self):
        # fitted on TENTHS, tau is 0.6: of fresh scores it takes 0.6 and
        # above
        assert n_selected([0.59, 0.6, 0.61], [0.5],
                          calibration_scores=TENTHS) == [2]
        assert n_selected(TENTHS, [0.5]) == [5]

    def test_full_coverage_selects_all(self):
        scores = np.array([3.0, -1.0, 2.0])
        # tau is the smallest score, -1.0
        assert selected(scores, [1.0], calibration_scores=scores).all()
        assert n_selected([-1.0, -1.5], [1.0],
                          calibration_scores=scores) == [1]

    def test_all_ties_lowest_ids_win(self):
        scores = np.full(10, 0.5)
        # tau is 0.5, so a held-out fit takes every tie ...
        assert n_selected(scores, [0.4], calibration_scores=scores) == [10]
        # ... and a self-fit the four lowest indices
        [mask] = selected(scores, [0.4])
        assert np.array_equal(np.flatnonzero(mask), [0, 1, 2, 3])

    def test_all_minus_inf_fails(self):
        with pytest.raises(CalibrationError):
            n_selected(np.full(5, -np.inf), [0.5])
        with pytest.raises(CalibrationError):
            n_selected(np.ones(5), [0.5], calibration_scores=np.full(5, -np.inf))

    def test_nan_rejected(self):
        bad = np.array([1.0, np.nan])
        for scores, cal in ((bad, None), (bad, np.ones(2)), (np.ones(2), bad)):
            with pytest.raises(ConfigurationError):
                n_selected(scores, [0.5], calibration_scores=cal)

    def test_plus_inf_rejected(self):
        bad = np.array([np.inf, -np.inf])
        for scores, cal in ((bad, None), (bad, np.ones(2)), (np.ones(2), bad)):
            with pytest.raises(ConfigurationError):
                n_selected(scores, [0.5], calibration_scores=cal)

    def test_coverage_out_of_range(self):
        for c in (0.0, 1.5):
            for cal in (None, np.array([1.0])):
                with pytest.raises(ConfigurationError):
                    n_selected(np.array([1.0]), [c], calibration_scores=cal)


class TestApplySelector:
    """A held-out tau thresholds the evaluation scores: score >= tau."""

    def test_boundary_inclusive(self):
        [mask] = selected([0.59, 0.60, 0.61], [1.0], calibration_scores=[0.6])
        assert np.array_equal(mask, [False, True, True])

    def test_minus_inf_tau_selects_all(self):
        # 1 finite calibration score of 3 needed: tau is -inf
        cal = np.array([1.0, -np.inf, -np.inf])
        [mask] = selected([-np.inf, 0.0, 5.0], [1.0], calibration_scores=cal)
        assert mask.all()

    def test_fresh_data_coverage_near_target(self):
        # continuous scores: threshold transfer error is O(1/sqrt(n))
        rng = np.random.default_rng(99)
        cal = rng.normal(size=10_000)
        test = rng.normal(size=10_000)
        [cov] = n_selected(test, [0.5], calibration_scores=cal)
        assert abs(cov / 10_000 - 0.5) < 0.02


class TestAchievedCoverage:
    def test_all_ones(self):
        scores = np.array([0.3, -np.inf, 0.3, 2.0, 0.0, -0.0, 1.0])
        for cal in (None, scores):
            [point] = risk_coverage_curve(scores, np.zeros(7), np.zeros(7),
                                          [1.0], calibration_scores=cal)
            assert point.achieved_coverage == 1.0

    def test_half(self):
        scores = np.array([0.9, 0.1, 0.9, 0.1])
        [point] = risk_coverage_curve(scores, np.zeros(4), np.zeros(4), [0.5],
                                      calibration_scores=scores)
        assert point.n_selected == 2
        assert point.achieved_coverage == 0.5

    def test_fit_then_coverage_exact(self):
        [point] = risk_coverage_curve(TENTHS, np.zeros(10), np.zeros(10),
                                      [0.5])
        assert point.achieved_coverage == 0.5


COVERAGE_GRID = [round(0.1 * i, 1) for i in range(1, 11)]


class TestExactnessProperty:
    def test_exact_k_on_fitting_set(self):
        rng = np.random.default_rng(1234)
        for _ in range(200):
            scores = random_multiset(rng)
            if not np.any(np.isfinite(scores)):
                continue
            assert n_selected(scores, COVERAGE_GRID) == [
                required_count(len(scores), c) for c in COVERAGE_GRID]

    def test_tau_matches_brute_force(self):
        rng = np.random.default_rng(77)
        grid = [0.2, 0.5, 0.9, 1.0]
        for _ in range(100):
            scores = random_multiset(rng)
            if not np.any(np.isfinite(scores)):
                continue
            want = [np.sum(scores >= brute_force_tau(
                scores, required_count(len(scores), c))) for c in grid]
            assert n_selected(scores, grid, calibration_scores=scores) == want

    def test_nested_selection_and_monotone_tau(self):
        rng = np.random.default_rng(4242)
        for _ in range(100):
            scores = random_multiset(rng)
            if not np.any(np.isfinite(scores)):
                continue
            # rows in ascending coverage: each set contains the one before
            for cal in (None, scores):
                masks = selected(scores, COVERAGE_GRID, calibration_scores=cal)
                assert np.all(masks[1:] >= masks[:-1])
            # a lower tau counts more scores at or above it
            counts = n_selected(scores, COVERAGE_GRID, calibration_scores=scores)
            assert counts == sorted(counts)


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
                n_selected(scores, [c], calibration_scores=scores)
            return
        assert n_selected(scores, [c], calibration_scores=scores) == [
            np.sum(scores >= reference_tau(scores, k))]

    @TIE_SETTINGS
    @with_examples
    @given(scores=tied_scores, k=any_k)
    def test_exact_k_mask_matches_sorting_reference(self, scores, k):
        k = 1 + (k - 1) % scores.size
        c = k / scores.size
        if np.all(scores == -np.inf):
            with pytest.raises(CalibrationError):
                selected(scores, [c])
            return
        [mask] = selected(scores, [c])
        assert np.array_equal(mask, reference_top_k(scores, k))

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
            # and every count k of the fitting split, as k / n
            n_fit = (scores if cal is None else cal).size
            for g in (grid, [k / n_fit for k in range(1, n_fit + 1)]):
                got = outcome(lambda: risk_coverage_curve(
                    scores, predicted, truth, g, calibration_scores=cal))
                want = outcome(lambda: reference_curve(
                    scores, predicted, truth, g, calibration_scores=cal))
                assert got == want
