import csv
import io

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
    ProbOutput,
    SelectionMechanism,
    mechanism_compatible,
    predict_classes,
    score_batch,
    scores_to_csv,
)

from conftest import random_batch, random_net


def output_from(net, X):
    return ProbOutput.from_heads(net, network_outputs(net, X))


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


def scores_of(kind, probs, head="plain", g_sel=None):
    """score_batch of one mechanism on rows of given probabilities; the
    logits are their logs, so the two agree."""
    probs = np.asarray(probs, dtype=np.float64)
    logits = np.log(np.clip(probs, 1e-300, None))
    n_classes = probs.shape[1] - (head == "abstain")
    out = ProbOutput(logits=logits, probs=probs, n_classes=n_classes,
                     head=head, g_sel=g_sel)
    return score_batch(SelectionMechanism(kind), out)


class TestScoreFunctions:
    def test_softmax_response(self):
        logits = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        out = ProbOutput(logits=logits, probs=stable_softmax(logits),
                         n_classes=3, head="plain")
        sr = score_batch(SelectionMechanism("softmax_response"), out)
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
        # 0.93 is a realistic fitted threshold for a selection head
        eps = 1e-9
        g_sel = np.array([0.93, 0.5, 1 - eps])
        scores = scores_of("selection_head", [[0.5, 0.5]] * 3,
                           head="selectivenet", g_sel=g_sel)
        assert scores.tolist() == [0.93, 0.5, 1 - eps]


class TestScoreBatch:
    def test_identical_samples_identical_scores(self, rng):
        net = random_net(rng, head="plain", n_classes=3)
        x = rng.normal(size=(1, net.input_dim))
        out = output_from(net, np.repeat(x, 5, axis=0))
        scores = score_batch(SelectionMechanism("softmax_response"), out)
        assert np.all(scores == scores[0])

    def test_binary_sr_and_entropy_rank_identically(self, rng):
        # both are monotone in max p for two classes, ties included
        for _ in range(20):
            net = random_net(rng, head="plain", n_classes=2,
                             seed=int(rng.integers(0, 1 << 30)))
            X, _ = random_batch(rng, net, m=16)
            out = output_from(net, X)
            sr = score_batch(SelectionMechanism("softmax_response"), out)
            ne = score_batch(SelectionMechanism("negative_entropy"), out)
            assert np.array_equal(np.argsort(sr, kind="stable"),
                                  np.argsort(ne, kind="stable"))

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(case=logits_and_row_shifts())
    def test_scores_invariant_under_per_row_logit_shift(self, case):
        logits, shifts, n_classes, has_abstain = case
        head = "abstain" if has_abstain else "plain"
        outs = [ProbOutput(logits=z, probs=stable_softmax(z),
                           n_classes=n_classes, head=head)
                for z in (logits, logits + shifts)]
        # a row whose abstain mass rounds to 1.0 scores -inf, and a shift
        # may move it across that edge
        assume(not any(out.head == "abstain"
                       and np.any(out.probs[:, -1] >= 1.0) for out in outs))
        for kind in MECHANISM_KINDS:
            if mechanism_compatible(kind, head):
                a, b = (score_batch(SelectionMechanism(kind), out)
                        for out in outs)
                assert np.max(np.abs(a - b)) < 1e-9, kind

    def test_abstain_sr_equals_softmax_of_real_class_logits(self, rng):
        net = random_net(rng, head="abstain", n_classes=3)
        X, _ = random_batch(rng, net, m=12)
        out = output_from(net, X)
        sr = score_batch(SelectionMechanism("softmax_response"), out)
        q = stable_softmax(out.logits[:, :3])
        assert np.max(np.abs(sr - q.max(axis=1))) < 1e-12
        # within each sample the top class is the top raw logit
        assert np.array_equal(np.argmax(q, axis=1),
                              np.argmax(out.logits[:, :3], axis=1))

    def test_abstention_logit_requires_abstain_head(self, rng):
        net = random_net(rng, head="plain", n_classes=3)
        X, _ = random_batch(rng, net, m=4)
        with pytest.raises(ConfigurationError):
            score_batch(SelectionMechanism("abstention_logit"),
                        output_from(net, X))

    def test_selection_head_requires_three_heads(self, rng):
        net = random_net(rng, head="abstain", n_classes=3)
        X, _ = random_batch(rng, net, m=4)
        with pytest.raises(ConfigurationError):
            score_batch(SelectionMechanism("selection_head"),
                        output_from(net, X))

    def test_selection_head_passthrough(self, rng):
        net = random_net(rng, head="selectivenet", n_classes=3)
        X, _ = random_batch(rng, net, m=4)
        scores = score_batch(SelectionMechanism("selection_head"),
                             output_from(net, X))
        select = network_forward(net, X).head_raw["select"]
        assert np.array_equal(scores, sigmoid(select[:, 0]))

    def test_degenerate_abstain_scores_minus_inf(self):
        probs = np.array([[0.0, 0.0, 1.0], [0.5, 0.4, 0.1]])
        logits = np.array([[-800.0, -800.0, 0.0], [0.5, 0.3, -1.0]])
        out = ProbOutput(logits=logits, probs=probs, n_classes=2,
                         head="abstain")
        sr = score_batch(SelectionMechanism("softmax_response"), out)
        ne = score_batch(SelectionMechanism("negative_entropy"), out)
        assert sr[0] == -np.inf and np.isfinite(sr[1])
        assert ne[0] == -np.inf and np.isfinite(ne[1])

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ConfigurationError):
            SelectionMechanism("magic")


def test_predict_classes_ignores_abstain_entry(rng):
    net = random_net(rng, head="abstain", n_classes=3)
    X, _ = random_batch(rng, net, m=6)
    out = output_from(net, X)
    pred = predict_classes(out)
    assert np.all(pred < 3)
    assert np.array_equal(pred, np.argmax(out.probs[:, :3], axis=1))


def test_predict_classes_reads_the_class_logits():
    # both class probabilities round to 0.0 next to the abstain entry; the
    # class logits still rank class 1 first, as training's argmax does
    z = np.array([[-900.0, -800.0, 0.0]])
    out = ProbOutput(logits=z, probs=stable_softmax(z), n_classes=2,
                     head="abstain")
    assert out.probs[0, :2].tolist() == [0.0, 0.0]
    assert predict_classes(out).tolist() == [1]


@pytest.mark.parametrize("head", ["plain", "abstain", "selectivenet"])
@pytest.mark.parametrize("kind", MECHANISM_KINDS)
def test_score_batch_scores_exactly_the_compatible_pairs(rng, kind, head):
    net = random_net(rng, head=head, n_classes=3)
    X, _ = random_batch(rng, net, m=5)
    out = output_from(net, X)
    mechanism = SelectionMechanism(kind)
    if mechanism_compatible(kind, head):
        assert np.isfinite(score_batch(mechanism, out)).all()
    else:
        with pytest.raises(ConfigurationError) as err:
            score_batch(mechanism, out)
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
    out = output_from(net, X)
    q, degenerate = out.class_probabilities
    assert not degenerate.any()
    manual = out.probs[:, :4] / (1.0 - out.probs[:, 4:5])
    assert np.max(np.abs(q - manual)) < 1e-12


def test_class_distribution_computed_once_per_output(rng, monkeypatch):
    # an abstain head's C-way softmax serves every mechanism that reads it
    net = random_net(rng, head="abstain", n_classes=4)
    X, _ = random_batch(rng, net, m=8)
    out = output_from(net, X)
    calls = []

    def counted_softmax(z):
        calls.append(z.shape)
        return stable_softmax(z)

    monkeypatch.setattr(selection, "stable_softmax", counted_softmax)
    first = {kind: score_batch(SelectionMechanism(kind), out)
             for kind in ("softmax_response", "negative_entropy")}
    again = {kind: score_batch(SelectionMechanism(kind), out)
             for kind in ("softmax_response", "negative_entropy")}
    assert calls == [(8, 4)]
    for kind in first:
        assert np.array_equal(first[kind], again[kind])


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
