import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from selcls.datasets import Dataset
from selcls.errors import ConfigurationError
from selcls.nn import build_network, network_forward, stable_softmax
from selcls.objectives import (
    OBJECTIVE_KINDS,
    ObjectiveConfig,
    _softmax_objective,
    objective_dispatch,
    predictive_entropy,
    sat_update_targets,
)
from selcls.training import TrainConfig, train

LN2 = 0.69314718055994531


def logits_for(p):
    """Logits whose softmax is p (up to a shift)."""
    return np.log(np.asarray(p, dtype=np.float64))


def dispatch(kind, z, y, n_classes, **cfg):
    """objective_dispatch on a single-head batch; a 1-d z is one sample."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    return objective_dispatch(ObjectiveConfig(kind=kind, **cfg), {"logits": z},
                              np.atleast_1d(y), n_classes=n_classes)


def per_sample(kind, z, y, n_classes, **cfg):
    """Per-sample losses, one dispatch per row."""
    return np.array([dispatch(kind, row, label, n_classes, **cfg).loss
                     for row, label in zip(np.atleast_2d(z), np.atleast_1d(y))])


def sat_dispatch(z, t_y, y, kind="SAT", **cfg):
    """The adaptive-phase target loss with target masses ``t_y`` on the
    labels, one per sample."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    y = np.atleast_1d(y)
    return objective_dispatch(
        ObjectiveConfig(kind=kind, sat_pretrain_epochs=0, **cfg),
        {"logits": z}, y, n_classes=z.shape[1] - 1,
        targets=np.atleast_1d(np.asarray(t_y, dtype=np.float64)),
        sample_ids=np.arange(len(y)), epoch=0)


def ce_reference(z, y):
    """Mean cross entropy and its logit gradient, written out in numpy."""
    z = np.asarray(z, dtype=np.float64)
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    rows = np.arange(len(y))
    onehot = np.zeros_like(p)
    onehot[rows, y] = 1.0
    return float(-np.log(p[rows, y]).mean()), (p - onehot) / len(y)


class TestCrossEntropy:
    def test_symmetric_binary(self):
        res = dispatch("CE", [0.0, 0.0], 0, 2)
        assert abs(res.loss - LN2) < 1e-12
        assert np.allclose(res.dlogits["logits"], [[-0.5, 0.5]])

    def test_confident_correct(self):
        res = dispatch("CE", [200.0, 0.0, 0.0], 0, 3)
        assert res.loss < 1e-12
        assert np.max(np.abs(res.dlogits["logits"])) < 1e-12

    def test_frozen_value(self):
        # -ln softmax([1,2,3])[2], evaluated at 30 digits
        res = dispatch("CE", [1.0, 2.0, 3.0], 2, 3)
        assert abs(res.loss - 0.4076059644443803) < 1e-14

    def test_extreme_logits_never_infinite(self):
        # each row is shifted by its own maximum
        res = dispatch("CE", [[-5000.0, 5000.0], [5000.0, -5000.0]], [0, 1], 2)
        assert np.isfinite(res.loss) and res.loss == pytest.approx(10000.0)
        assert np.all(np.isfinite(res.dlogits["logits"]))

    def test_label_out_of_range(self):
        with pytest.raises(ConfigurationError):
            dispatch("CE", [0.0, 0.0], 2, 2)


class TestPredictiveEntropy:
    def test_uniform_is_ln_k(self):
        for k in (2, 3, 8):
            H = predictive_entropy(np.zeros((1, k)))
            assert abs(H[0] - np.log(k)) < 1e-12

    def test_one_hot_is_zero(self):
        H = predictive_entropy([[300.0, 0.0, 0.0]])
        assert abs(H[0]) < 1e-12

    def test_frozen_value(self):
        H = predictive_entropy([logits_for([0.7, 0.2, 0.1])])
        assert abs(H[0] - 0.80181855254333731) < 1e-14

    def test_bounds_and_max_at_uniform(self, rng):
        for _ in range(50):
            k = int(rng.integers(2, 9))
            H = predictive_entropy(rng.normal(scale=3, size=(4, k)))
            assert np.all(H >= -1e-12) and np.all(H <= np.log(k) + 1e-12)
            # perturbing away from uniform can only lower the entropy
            Hu = predictive_entropy(np.zeros((1, k)))
            assert np.all(H <= Hu[0] + 1e-12)

    def test_gradient_zero_at_uniform(self):
        # at uniform logits the entropy term adds nothing to the gradient
        em = dispatch("CE+EM", np.zeros(5), 1, 5, beta=0.5)
        ce = dispatch("CE", np.zeros(5), 1, 5)
        assert np.max(np.abs(em.dlogits["logits"] - ce.dlogits["logits"])) \
            < 1e-12


class TestEmRegularized:
    def test_beta_zero_identity(self, rng):
        z = rng.normal(size=(3, 4))
        y = np.array([1, 0, 3])
        base = dispatch("CE", z, y, 4)
        em = dispatch("CE+EM", z, y, 4, beta=0.0)
        assert em.loss == base.loss
        assert np.array_equal(em.dlogits["logits"], base.dlogits["logits"])

    def test_frozen_binary_uniform(self):
        # ln 2 + 0.01 * ln 2
        res = dispatch("CE+EM", np.zeros(2), 0, 2, beta=0.01)
        assert abs(res.loss - 0.70007865236554476) < 1e-14

    def test_linearity_in_beta(self, rng):
        # the entropy term is added once, with weight beta
        for _ in range(10):
            z = rng.normal(scale=2, size=(3, 5))
            y = rng.integers(0, 5, size=3)
            b1, b2 = rng.uniform(0.001, 0.5, size=2)
            base = dispatch("CE", z, y, 5)
            runs = [dispatch("CE+EM", z, y, 5, beta=b)
                    for b in (b1 + b2, b1, b2)]
            loss = [r.loss - base.loss for r in runs]
            d = [r.dlogits["logits"] - base.dlogits["logits"] for r in runs]
            assert abs(loss[0] - loss[1] - loss[2]) < 1e-12
            assert np.max(np.abs(d[0] - d[1] - d[2])) < 1e-12


class TestDeepGamblers:
    def test_frozen_value(self):
        # -ln(0.6 + 0.1/2)
        res = dispatch("DG", logits_for([0.6, 0.3, 0.1]), 0, 2, o=2.0)
        assert abs(res.loss - 0.43078291609245426) < 1e-12

    def test_zero_abstain_mass_equals_ce(self, rng):
        z = np.array([1.0, -0.5, -2000.0])
        dg = dispatch("DG", z, 0, 2, o=2.0)
        ce = dispatch("CE", z, 0, 3)
        assert abs(dg.loss - ce.loss) < 1e-12

    def test_large_o_limit_matches_ce(self, rng):
        # gap is log1p(p_abstain / (o * p_true)) <= 1/(o * p_true), so keep
        # the logits at unit scale to bound p_true away from zero
        for _ in range(20):
            z = rng.normal(scale=1, size=(6, 4))
            y = rng.integers(0, 3, size=6)
            # o above C is refused by the objective, so call its kernel
            dg = _softmax_objective("DG", z, y, o=1e9)[0]
            ce = per_sample("CE", z, y, 4)
            assert np.max(np.abs(dg - ce)) < 1e-6

    def test_monotone_in_o(self, rng):
        # smaller o adds more abstain mass inside the log, shrinking the loss
        for _ in range(10):
            z = rng.normal(scale=2, size=5)
            y = int(rng.integers(0, 4))
            grid = [1.1, 1.5, 2.0, 3.0, 4.0]
            losses = [dispatch("DG", z, y, 4, o=o).loss for o in grid]
            assert all(a < b for a, b in zip(losses, losses[1:]))

    def test_o_constraints(self):
        with pytest.raises(ConfigurationError,
                           match=r"^objective\.o: payoff o=1\.0 .*always-abstain"):
            ObjectiveConfig(kind="DG", o=1.0).validate(3)
        with pytest.raises(ConfigurationError,
                           match=r"^objective\.o: payoff o=5.0 violates "
                                 r"1 < o <= C \(C=3\)$"):
            ObjectiveConfig(kind="DG", o=5.0).validate(3)
        ObjectiveConfig(kind="DG", o=3.0).validate(3)


class TestSatLoss:
    def test_one_hot_target_reduces_to_ce(self, rng):
        z = rng.normal(size=5)
        res = sat_dispatch(z, 1.0, 2)
        ce = dispatch("CE", z, 2, 5)
        assert abs(res.loss - ce.loss) < 1e-12
        assert np.max(np.abs(res.dlogits["logits"] - ce.dlogits["logits"])) \
            < 1e-12

    def test_frozen_value(self):
        # -(0.9 ln 0.6 + 0.1 ln 0.1)
        p = [0.6, 0.3, 0.1]
        res = sat_dispatch(logits_for(p), 0.9, 0)
        assert abs(res.loss - 0.69000157068879618) < 1e-12

    def test_zero_target_pure_abstention(self):
        p = [0.6, 0.3, 0.1]
        res = sat_dispatch(logits_for(p), 0.0, 0)
        assert abs(res.loss - (-np.log(0.1))) < 1e-12

    @pytest.mark.parametrize("kind", ["SAT", "SAT+EM"])
    def test_probs_bitwise_equal_stable_softmax(self, rng, kind):
        # the target update reuses these in place of its own softmax
        z = rng.normal(scale=20.0, size=(64, 9))
        y = rng.integers(0, 8, size=64)
        res = sat_dispatch(z, rng.random(64), y, kind=kind)
        assert res.p_label.tobytes() == \
            stable_softmax(z)[np.arange(64), y].tobytes()
        assert dispatch(kind, z, y, 8).p_label is None  # pre-training phase

    def test_two_d_targets_refused(self, rng):
        # a (n, C+1) soft-label table would broadcast against a batch of
        # C+1 rows instead of failing
        z = rng.normal(size=(4, 4))
        y = rng.integers(0, 3, size=4)
        table = np.full((4, 4), 0.25)
        with pytest.raises(ConfigurationError,
                           match=r"one mass per sample, not \(4, 4\)"):
            sat_dispatch(z, table, y)


class TestSatTargetStore:
    """The SAT targets: one mass per training sample, on its label,
    relaxed in place by sat_update_targets."""

    def test_labels_out_of_range(self, rng):
        # the targets are indexed by sample, not label: the dispatch's
        # label check refuses these at the first SAT step
        val_ds = Dataset(rng.normal(size=(10, 2)), np.zeros(10, dtype=int))
        cfg = TrainConfig(epochs=1, batch_size=8, objective=ObjectiveConfig(
            kind="SAT", sat_pretrain_epochs=0))
        for bad in (2, -1):
            labels = rng.integers(0, 2, size=40)
            labels[5] = bad
            net = build_network(2, (4,), 2, "abstain", seed=0)
            with pytest.raises(ConfigurationError,
                               match=r"labels in \[0, 2\)"):
                train(net, Dataset(rng.normal(size=(40, 2)), labels), val_ds,
                      cfg)

    def test_stated_update_rule(self):
        targets = np.ones(3)
        sat_update_targets(targets, np.array([2, 0]), np.array([0.8, 0.5]),
                           momentum=0.9)
        assert np.allclose(targets, [0.95, 1.0, 0.98], rtol=0, atol=1e-15)

    def test_momentum_one_freezes_targets(self):
        targets = np.array([1.0, 0.7])
        sat_update_targets(targets, np.array([0, 1]), np.array([0.2, 0.3]),
                           momentum=1.0)
        assert targets.tolist() == [1.0, 0.7]

    def test_momentum_out_of_range(self):
        # the config's validation is the one momentum check
        for momentum in (0.0, 1.1):
            with pytest.raises(ConfigurationError, match="sat_momentum"):
                ObjectiveConfig(kind="SAT", sat_momentum=momentum).validate(2)

    def test_geometric_convergence(self):
        targets = np.ones(1)
        p_y = np.array([0.3])
        gap0 = abs(targets[0] - p_y[0])
        for step in range(1, 25):
            sat_update_targets(targets, np.array([0]), p_y, momentum=0.9)
            gap = abs(targets[0] - p_y[0])
            assert abs(gap - 0.9 ** step * gap0) < 1e-12

    def test_values_stay_in_unit_interval(self, rng):
        targets = np.ones(20)
        for _ in range(60):
            ids = rng.permutation(20)[:8]
            p_y = rng.random(8)
            p_y[0] = 0.0
            sat_update_targets(targets, ids, p_y, momentum=0.7)
        assert np.all((targets >= 0) & (targets <= 1))
        assert targets.min() < 0.5

    def test_untouched_rows_unchanged(self):
        targets = np.array([1.0, 0.6])
        sat_update_targets(targets, np.array([0]), np.array([0.5]),
                           momentum=0.9)
        assert targets[1] == 0.6


def sn_cfg(**kw):
    defaults = dict(kind="SelectiveNet", lam=32.0, alpha_mix=0.5, c_target=0.8)
    defaults.update(kw)
    return ObjectiveConfig(**defaults)


def sn_dispatch(f, g, h, y, cfg):
    """The three-head objective with selection values g, given through
    their raw unit log(g / (1 - g))."""
    g = np.asarray(g, dtype=np.float64)
    raw = (np.log(g) - np.log1p(-g))[:, None]
    return objective_dispatch(cfg, {"logits": f, "select": raw, "aux": h}, y,
                              n_classes=f.shape[1])


class TestSelectiveNetLoss:
    def test_equal_weights_give_plain_mean_ce(self, rng):
        m, C = 6, 3
        f = rng.normal(size=(m, C))
        h = rng.normal(size=(m, C))
        y = rng.integers(0, C, size=m)
        # alpha_mix 1 and lam 0 leave the selective term alone in the loss
        res = sn_dispatch(f, np.full(m, 0.37), h, y,
                          sn_cfg(alpha_mix=1.0, lam=0.0))
        ce = dispatch("CE", f, y, C)
        assert abs(res.loss - ce.loss) < 1e-9

    def test_coverage_penalty_undershoot(self):
        f = np.zeros((10, 2))
        h = np.zeros((10, 2))
        y = np.zeros(10, dtype=int)
        # with alpha_mix 1, lam 1 adds the coverage term to lam 0's loss
        res, base = (sn_dispatch(f, np.full(10, 0.7), h, y,
                                 sn_cfg(c_target=0.8, alpha_mix=1.0, lam=lam))
                     for lam in (1.0, 0.0))
        assert abs(res.loss - base.loss - 0.01) < 1e-12

    def test_coverage_penalty_overshoot_hinged(self):
        f = np.zeros((10, 2))
        h = np.zeros((10, 2))
        y = np.zeros(10, dtype=int)
        res, base = (sn_dispatch(f, np.full(10, 0.9), h, y,
                                 sn_cfg(c_target=0.8, lam=lam))
                     for lam in (32.0, 0.0))
        assert res.loss == base.loss

    def test_gradient_through_g_matches_fd(self, rng):
        # the denominator coupling is the part that is easy to get wrong
        m, C = 5, 3
        f = rng.normal(size=(m, C))
        h = rng.normal(size=(m, C))
        y = rng.integers(0, C, size=m)
        raw = rng.uniform(-1.5, 2.0, size=(m, 1))
        cfg = sn_cfg(c_target=0.9)  # undershoot, so the hinge is active

        def run(select):
            return objective_dispatch(
                cfg, {"logits": f, "select": select, "aux": h}, y,
                n_classes=C)

        res = run(raw)
        eps = 1e-7
        for i in range(m):
            up, down = raw.copy(), raw.copy()
            up[i] += eps
            down[i] -= eps
            fd = (run(up).loss - run(down).loss) / (2 * eps)
            assert abs(fd - res.dlogits["select"][i, 0]) < 1e-6

    def test_invalid_g_rejected(self, rng):
        f = rng.normal(size=(3, 2))
        with pytest.raises(ConfigurationError):
            objective_dispatch(sn_cfg(), {"logits": f, "select": np.zeros((2, 1)),
                                          "aux": f},
                               np.zeros(3, dtype=int), n_classes=2)


class TestDispatch:
    def test_ce_equals_mean_cross_entropy(self, rng):
        z = rng.normal(size=(7, 3))
        y = rng.integers(0, 3, size=7)
        res = objective_dispatch(ObjectiveConfig(kind="CE"), {"logits": z}, y,
                                 n_classes=3)
        loss, d = ce_reference(z, y)
        assert abs(res.loss - loss) < 1e-12
        assert np.allclose(res.dlogits["logits"], d)

    def test_sat_pretrain_equals_ce(self, rng):
        z = rng.normal(size=(4, 4))  # C=3 plus abstain
        y = rng.integers(0, 3, size=4)
        cfg = ObjectiveConfig(kind="SAT", sat_pretrain_epochs=5)
        res = objective_dispatch(cfg, {"logits": z}, y, n_classes=3,
                                 targets=np.ones(4), sample_ids=np.arange(4),
                                 epoch=2)
        loss, _ = ce_reference(z, y)
        assert abs(res.loss - loss) < 1e-12

    @pytest.mark.parametrize("kind", ["CE", "DG+EM", "SAT", "SelectiveNet"])
    def test_out_makes_the_trace_buffers_the_gradients(self, rng, kind):
        cfg = ObjectiveConfig(kind=kind, beta=0.05, sat_pretrain_epochs=0)
        net = build_network(3, (5,), n_classes=3, head=cfg.required_head(),
                            seed=0)
        trace = network_forward(net, rng.normal(size=(6, 3)))
        y = rng.integers(0, 3, size=6)
        kw = dict(n_classes=3, targets=np.ones(6), sample_ids=np.arange(6))
        new = objective_dispatch(cfg, trace.head_raw, y, **kw)
        res = objective_dispatch(cfg, trace.head_raw, y, out=trace.kernel,
                                 **kw)
        assert res.loss == new.loss
        assert res.argmax is trace.kernel["logits"][2]
        for name, d in res.dlogits.items():
            if name in trace.kernel:  # every head but the one-wide select
                assert d is trace.kernel[name][0]
            assert np.array_equal(d, new.dlogits[name])

    def test_sat_adaptive_phase_needs_store_and_ids(self, rng):
        z = rng.normal(size=(4, 4))
        y = rng.integers(0, 3, size=4)
        cfg = ObjectiveConfig(kind="SAT", sat_pretrain_epochs=2)
        for kw in ({"sample_ids": np.arange(4)}, {"targets": np.ones(4)}):
            with pytest.raises(ConfigurationError, match="SAT targets"):
                objective_dispatch(cfg, {"logits": z}, y, n_classes=3,
                                   epoch=2, **kw)

    def test_dg_em_beta_zero_equals_dg(self, rng):
        z = rng.normal(size=(5, 4))
        y = rng.integers(0, 3, size=5)
        plain = objective_dispatch(ObjectiveConfig(kind="DG", o=2.0),
                                   {"logits": z}, y, n_classes=3)
        em = objective_dispatch(ObjectiveConfig(kind="DG+EM", o=2.0, beta=0.0),
                                {"logits": z}, y, n_classes=3)
        assert em.loss == plain.loss
        assert np.array_equal(em.dlogits["logits"], plain.dlogits["logits"])

    def test_em_kind_with_zero_beta_fails_validation(self):
        with pytest.raises(ConfigurationError):
            ObjectiveConfig(kind="DG+EM", o=2.0, beta=0.0).validate(3)

    def test_head_mismatch_rejected(self, rng):
        z = rng.normal(size=(3, 3))
        y = np.zeros(3, dtype=int)
        with pytest.raises(ConfigurationError):
            objective_dispatch(ObjectiveConfig(kind="DG", o=2.0),
                               {"logits": z}, y, n_classes=3)

    def test_default_o_for_two_classes_is_admissible(self):
        cfg = ObjectiveConfig(kind="DG")
        assert 1.0 < cfg.resolved_o(2) <= 2.0
        assert cfg.resolved_o(8) == 7.0


# ---------------------------------------------------------------------------
# properties of every objective kind, through objective_dispatch
# ---------------------------------------------------------------------------

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True,
                             database=None,
                             suppress_health_check=[HealthCheck.too_slow])


def random_case(kind, seed, m, n_classes, scale):
    """(config, outputs, call keywords) for one random batch of ``kind``."""
    rng = np.random.default_rng(seed)
    cfg = ObjectiveConfig(kind=kind, beta=0.05, sat_pretrain_epochs=0,
                          c_target=0.6, lam=4.0)
    base = cfg.base_kind
    width = n_classes + 1 if base in ("DG", "SAT") else n_classes
    outputs = {"logits": rng.normal(scale=scale, size=(m, width))}
    y = rng.integers(0, n_classes, size=m)
    kw = {"y": y, "n_classes": n_classes}
    if base == "SelectiveNet":
        outputs["select"] = rng.normal(scale=2.0, size=(m, 1))
        outputs["aux"] = rng.normal(scale=scale, size=(m, n_classes))
    if base == "SAT":
        raw = rng.random((m, width))
        kw.update(targets=(raw / raw.sum(axis=1, keepdims=True))[
            np.arange(m), y], sample_ids=np.arange(m), epoch=0)
    return cfg, outputs, kw


case_args = dict(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 6),
                 n_classes=st.integers(2, 5), scale=st.floats(0.1, 10.0))


@pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
@PROPERTY_SETTINGS
@given(shift=st.floats(-50.0, 50.0), **case_args)
def test_row_shift_leaves_loss_and_gradient(kind, shift, seed, m, n_classes,
                                            scale):
    cfg, outputs, kw = random_case(kind, seed, m, n_classes, scale)
    res = objective_dispatch(cfg, outputs, **kw)
    moved = dict(outputs)
    row_shift = shift * np.linspace(-1.0, 1.0, m)[:, None]
    for name in ("logits", "aux"):
        if name in moved:
            moved[name] = outputs[name] + row_shift
    res2 = objective_dispatch(cfg, moved, **kw)
    assert res2.loss == pytest.approx(res.loss, rel=1e-9, abs=1e-9)
    for name, d in res.dlogits.items():
        assert np.max(np.abs(res2.dlogits[name] - d)) < 1e-9


@pytest.mark.parametrize(
    "kind", [k for k in OBJECTIVE_KINDS if not k.startswith("SelectiveNet")])
@PROPERTY_SETTINGS
@given(**case_args)
def test_gradient_rows_sum_to_zero(kind, seed, m, n_classes, scale):
    cfg, outputs, kw = random_case(kind, seed, m, n_classes, scale)
    d = objective_dispatch(cfg, outputs, **kw).dlogits["logits"]
    assert np.max(np.abs(d.sum(axis=1))) < 1e-12


@pytest.mark.parametrize("kind", OBJECTIVE_KINDS)
@settings(PROPERTY_SETTINGS, max_examples=15)
@given(**case_args)
def test_gradient_matches_central_differences(kind, seed, m, n_classes,
                                              scale):
    cfg, outputs, kw = random_case(kind, seed, m, n_classes, min(scale, 4.0))
    if cfg.base_kind == "SelectiveNet":
        # the hinge has a kink where the mean selection value meets c_target
        g = 1.0 / (1.0 + np.exp(-outputs["select"]))
        assume(abs(float(g.mean()) - cfg.c_target) > 1e-4)
    res = objective_dispatch(cfg, outputs, **kw)
    eps = 1e-6
    for name, z in outputs.items():
        fd = np.empty_like(z)
        for idx in np.ndindex(z.shape):
            up, down = dict(outputs), dict(outputs)
            up[name], down[name] = z.copy(), z.copy()
            up[name][idx] += eps
            down[name][idx] -= eps
            fd[idx] = (objective_dispatch(cfg, up, **kw).loss
                       - objective_dispatch(cfg, down, **kw).loss) / (2 * eps)
        assert np.max(np.abs(fd - res.dlogits[name])) < 1e-6


# ---------------------------------------------------------------------------
# end-to-end gradient checks: every objective through the network against
# the central-difference oracle (the full 20-case sweep runs in the
# acceptance suite; three cases per family here keep the unit run fast)
# ---------------------------------------------------------------------------

from selcls.gradcheck import TOLERANCE, check_objective, suite_objectives


@pytest.mark.parametrize("name,cfg", suite_objectives(),
                         ids=[n for n, _ in suite_objectives()])
def test_end_to_end_gradients(name, cfg):
    err = check_objective(cfg, n_cases=3, seed=7)
    assert err < TOLERANCE, f"{name}: rel err {err}"
