import csv
import io
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from selcls import selection
from selcls.errors import ConfigurationError
from selcls.nn import network_forward, network_outputs, sigmoid, stable_softmax
from selcls.selection import (
    MECHANISM_KINDS,
    mechanism_compatible,
    predict_classes,
    score_outputs,
    scores_to_csv,
)

from conftest import random_batch, random_net


def scores_from(net, X, kind):
    """One mechanism's scores of the rows ``X`` under ``net``."""
    return score_outputs(net, network_outputs(net, X), [kind])[kind]


def head_of(head, n_classes):
    """What ``score_outputs`` reads of a network: its head and class count."""
    return SimpleNamespace(head=head, n_classes=n_classes)


@st.composite
def logits_and_row_shifts(draw):
    """(logits, one shift per row, C, has_abstain) for a batch of 1-6 rows
    of a plain or an abstain head."""
    m = draw(st.integers(1, 6))
    n_classes = draw(st.integers(2, 5))
    has_abstain = draw(st.booleans())
    logits = draw(arrays(np.float64, (m, n_classes + has_abstain),
                         elements=st.floats(-30.0, 30.0)))
    shifts = draw(arrays(np.float64, (m, 1), elements=st.floats(-1e3, 1e3)))
    return logits, shifts, n_classes, has_abstain


def scores_of(kind, probs, head="plain"):
    """One mechanism's scores of rows of given probabilities; the logits
    are their logs, so that their softmax gives the probabilities back."""
    probs = np.asarray(probs, dtype=np.float64)
    logits = np.log(np.clip(probs, 1e-300, None))
    n_classes = probs.shape[1] - (head == "abstain")
    return score_outputs(head_of(head, n_classes), {"logits": logits},
                         [kind])[kind]


class TestScoreFunctions:
    def test_softmax_response(self):
        logits = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        sr = score_outputs(head_of("plain", 3), {"logits": logits},
                           ["softmax_response"])["softmax_response"]
        assert abs(sr[0] - 0.66524095577482189) < 1e-15
        assert abs(sr[1] - 1 / 3) < 1e-15

    def test_negative_entropy(self):
        one_hot, uniform, skewed = scores_of(
            "negative_entropy", [[1.0, 0.0, 0.0, 0.0], [0.25] * 4,
                                 [0.7, 0.2, 0.1, 0.0]])
        assert abs(one_hot) < 1e-12
        assert abs(uniform + np.log(4)) < 1e-12
        assert abs(skewed + 0.80181855254333731) < 1e-12

    def test_abstention_logit(self):
        scores = scores_of("abstention_logit", [[0.5, 0.4, 0.1],
                                                [0.0, 0.0, 1.0],
                                                [0.6, 0.3, 0.1]],
                           head="abstain")
        assert abs(scores[0] - 0.9) < 1e-15
        assert scores[1] == 0.0
        assert abs(scores[2] - 0.9) < 1e-15

    def test_selection_head_identity(self):
        # 0.93 is a realistic fitted threshold for a selection head; the
        # select logits are the logits of these selection values
        eps = 1e-9
        g = np.array([0.93, 0.5, 1 - eps])
        select = np.log(g / (1 - g))[:, None]
        scores = score_outputs(
            head_of("selectivenet", 2),
            {"logits": np.zeros((3, 2)), "select": select},
            ["selection_head"])["selection_head"]
        assert np.array_equal(scores, sigmoid(select[:, 0]))
        assert scores[:2].tolist() == [0.93, 0.5]
        assert abs(scores[2] - (1 - eps)) < 1e-15


class TestScoreBatch:
    def test_identical_samples_identical_scores(self, rng):
        net = random_net(rng, head="plain", n_classes=3)
        x = rng.normal(size=(1, net.input_dim))
        scores = scores_from(net, np.repeat(x, 5, axis=0), "softmax_response")
        assert np.all(scores == scores[0])

    def test_binary_sr_and_entropy_rank_identically(self, rng):
        # both are monotone in max p for two classes, ties included
        for _ in range(20):
            net = random_net(rng, head="plain", n_classes=2,
                             seed=int(rng.integers(0, 1 << 30)))
            X, _ = random_batch(rng, net, m=16)
            scores = score_outputs(net, network_outputs(net, X),
                                   ["softmax_response", "negative_entropy"])
            assert np.array_equal(
                np.argsort(scores["softmax_response"], kind="stable"),
                np.argsort(scores["negative_entropy"], kind="stable"))

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(case=logits_and_row_shifts())
    def test_scores_invariant_under_per_row_logit_shift(self, case):
        logits, shifts, n_classes, has_abstain = case
        head = "abstain" if has_abstain else "plain"
        shifted = (logits, logits + shifts)
        # a row whose abstain mass rounds to 1.0 scores -inf, and a shift
        # may move it across that edge
        assume(not has_abstain or not any(
            np.any(stable_softmax(z)[:, -1] >= 1.0) for z in shifted))
        kinds = [k for k in MECHANISM_KINDS if mechanism_compatible(k, head)]
        a, b = (score_outputs(head_of(head, n_classes), {"logits": z}, kinds)
                for z in shifted)
        for kind in kinds:
            assert np.max(np.abs(a[kind] - b[kind])) < 1e-9, kind

    def test_abstain_sr_equals_softmax_of_real_class_logits(self, rng):
        net = random_net(rng, head="abstain", n_classes=3)
        X, _ = random_batch(rng, net, m=12)
        logits = network_outputs(net, X)["logits"]
        sr = scores_from(net, X, "softmax_response")
        q = stable_softmax(logits[:, :3])
        assert np.max(np.abs(sr - q.max(axis=1))) < 1e-12
        # within each sample the top class is the top raw logit
        assert np.array_equal(np.argmax(q, axis=1),
                              np.argmax(logits[:, :3], axis=1))

    def test_abstention_logit_requires_abstain_head(self, rng):
        net = random_net(rng, head="plain", n_classes=3)
        X, _ = random_batch(rng, net, m=4)
        with pytest.raises(ConfigurationError):
            scores_from(net, X, "abstention_logit")

    def test_selection_head_requires_three_heads(self, rng):
        net = random_net(rng, head="abstain", n_classes=3)
        X, _ = random_batch(rng, net, m=4)
        with pytest.raises(ConfigurationError):
            scores_from(net, X, "selection_head")

    def test_selection_head_passthrough(self, rng):
        net = random_net(rng, head="selectivenet", n_classes=3)
        X, _ = random_batch(rng, net, m=4)
        scores = scores_from(net, X, "selection_head")
        select = network_forward(net, X).head_raw["select"]
        assert np.array_equal(scores, sigmoid(select[:, 0]))

    def test_degenerate_abstain_scores_minus_inf(self):
        # the first row's abstain probability rounds to 1.0
        logits = np.array([[-800.0, -800.0, 0.0], [0.5, 0.3, -1.0]])
        scores = score_outputs(head_of("abstain", 2), {"logits": logits},
                               ["softmax_response", "negative_entropy"])
        for kind in ("softmax_response", "negative_entropy"):
            assert scores[kind][0] == -np.inf, kind
            assert np.isfinite(scores[kind][1]), kind


def test_predict_classes_ignores_abstain_entry(rng):
    net = random_net(rng, head="abstain", n_classes=3)
    X, _ = random_batch(rng, net, m=6)
    logits = network_outputs(net, X)["logits"]
    pred = predict_classes(logits, 3)
    assert np.all(pred < 3)
    assert np.array_equal(pred,
                          np.argmax(stable_softmax(logits)[:, :3], axis=1))


def test_predict_classes_reads_the_class_logits():
    # both class probabilities round to 0.0 next to the abstain entry; the
    # class logits still rank class 1 first, as training's argmax does
    z = np.array([[-900.0, -800.0, 0.0]])
    assert stable_softmax(z)[0, :2].tolist() == [0.0, 0.0]
    assert predict_classes(z, 2).tolist() == [1]


@pytest.mark.parametrize("head", ["plain", "abstain", "selectivenet"])
@pytest.mark.parametrize("kind", MECHANISM_KINDS)
def test_score_batch_scores_exactly_the_compatible_pairs(rng, kind, head):
    net = random_net(rng, head=head, n_classes=3)
    X, _ = random_batch(rng, net, m=5)
    if mechanism_compatible(kind, head):
        assert np.isfinite(scores_from(net, X, kind)).all()
    else:
        with pytest.raises(ConfigurationError) as err:
            scores_from(net, X, kind)
        assert str(err.value) == \
            f"mechanism {kind!r} is incompatible with a {head!r} head"


def test_mechanism_compatibility_table():
    assert mechanism_compatible("softmax_response", "plain")
    assert mechanism_compatible("negative_entropy", "selectivenet")
    assert mechanism_compatible("abstention_logit", "abstain")
    assert not mechanism_compatible("abstention_logit", "plain")
    assert mechanism_compatible("selection_head", "selectivenet")
    assert not mechanism_compatible("selection_head", "abstain")


def test_class_probabilities_renormalize_identity(rng):
    net = random_net(rng, head="abstain", n_classes=4)
    X, _ = random_batch(rng, net, m=8)
    raw = network_outputs(net, X)
    scores = score_outputs(net, raw, ["softmax_response", "negative_entropy"])
    probs = stable_softmax(raw["logits"])
    manual = probs[:, :4] / (1.0 - probs[:, 4:5])
    assert np.isfinite(scores["softmax_response"]).all()
    assert np.max(np.abs(scores["softmax_response"]
                         - manual.max(axis=1))) < 1e-12
    assert np.max(np.abs(scores["negative_entropy"]
                         - (manual * np.log(manual)).sum(axis=1))) < 1e-12


def test_class_distribution_computed_once_per_output(rng, monkeypatch):
    # one call takes the full softmax once and, only for the mechanisms
    # that read it, an abstain head's C-way softmax once
    net = random_net(rng, head="abstain", n_classes=4)
    X, _ = random_batch(rng, net, m=8)
    raw = network_outputs(net, X)
    alone = {kind: score_outputs(net, raw, [kind])[kind]
             for kind in ("softmax_response", "negative_entropy",
                          "abstention_logit")}
    calls = []

    def counted_softmax(z):
        calls.append(z.shape)
        return stable_softmax(z)

    monkeypatch.setattr(selection, "stable_softmax", counted_softmax)
    together = score_outputs(net, raw, list(alone))
    assert calls == [(8, 5), (8, 4)]
    assert list(together) == list(alone)
    for kind in alone:
        assert np.array_equal(together[kind], alone[kind])
    calls.clear()
    score_outputs(net, raw, ["abstention_logit"])
    assert calls == [(8, 5)]


def csv_writer_reference(scores, predicted, truth, header_comment):
    reference = io.StringIO(newline="")
    if header_comment:
        reference.write(f"# {header_comment}\n")
    w = csv.writer(reference)
    w.writerow(["sample_id", "score", "predicted_class", "true_class"])
    for i, (s, p, t) in enumerate(zip(scores, predicted, truth)):
        w.writerow([i, repr(float(s)), int(p), int(t)])
    return reference.getvalue().encode()


def test_scores_csv_bytes_match_csv_writer(rng, tmp_path):
    scores = rng.normal(size=4000)
    scores[[3, 17]] = -np.inf
    scores[[5, 6, 7, 8]] = [1e-300, -0.0, np.nan, 5e-324]
    cases = [
        (scores, rng.integers(0, 8, size=4000), rng.integers(0, 8, size=4000)),
        # successive calls with other row counts and other classes, so that
        # an id column or class string kept from an earlier call shows
        (scores[:1], np.array([3]), np.array([7])),
        (scores[:0], np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)),
        (scores, rng.integers(5, 13, size=4000), rng.integers(0, 100, size=4000)),
        (scores[:3], np.array([10, 0, 99]), np.array([2**62, 11, 10])),
        (-scores[:3], np.array([1, 1, 1]), np.array([0, 0, 0])),
    ]
    for i, (s, predicted, truth) in enumerate(cases):
        path = tmp_path / f"scores{i}.csv"
        comment = "config=abc" if i % 2 == 0 else ""
        scores_to_csv(path, s, predicted, truth, header_comment=comment)
        assert path.read_bytes() == csv_writer_reference(
            s, predicted, truth, comment), i


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 40).flatmap(lambda n: st.tuples(
    arrays(np.float64, n),
    arrays(np.int64, n, elements=st.integers(0, 2**63 - 1)),
    arrays(np.int64, n, elements=st.integers(0, 2**63 - 1)))))
def test_scores_csv_matches_csv_writer_for_any_class_ids(tmp_path_factory,
                                                         columns):
    scores, predicted, truth = columns
    path = tmp_path_factory.mktemp("scores") / "scores.csv"
    scores_to_csv(path, scores, predicted, truth)
    assert path.read_bytes() == csv_writer_reference(
        scores, predicted, truth, "")
