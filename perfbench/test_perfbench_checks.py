"""The benchmark's own checks: each accepts a genuine output and rejects a
corrupted one. Run with ``python -m pytest perfbench`` from the repo root."""

import copy
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
from selcls import datasets, evaluation, selection  # noqa: E402

with open(os.path.join(HERE, "configs", "grid_ref.json")) as _f:
    GRID = json.load(_f)["grid"]


def write_eval(tmp_path, scores, predicted, truth, calibration=None,
               grid=(1.0, 0.7, 0.3, 0.1)):
    """Curve, scores and histogram CSVs as ``selcls eval`` writes them."""
    points = evaluation.risk_coverage_curve(
        scores, predicted, truth, grid, calibration_scores=calibration)
    evaluation.curve_to_csv(tmp_path / "curve.csv", points, seed=0,
                            header_comment="config=x")
    selection.scores_to_csv(tmp_path / "scores.csv", scores, predicted, truth,
                            header_comment="config=x")
    finite = np.isfinite(scores)
    hist = evaluation.score_histogram(scores[finite], predicted[finite],
                                      truth[finite], 10)
    evaluation.histogram_to_csv(tmp_path / "hist.csv", hist,
                                header_comment=f"dropped={int((~finite).sum())}")
    return (checks.read_csv(tmp_path / "curve.csv")[1],
            checks.read_csv(tmp_path / "scores.csv")[1],
            *checks.read_csv(tmp_path / "hist.csv"))


@pytest.fixture
def sample():
    rng = np.random.default_rng(5)
    n = 400
    truth = rng.integers(0, 8, n)
    predicted = np.where(rng.random(n) < 0.6, truth, rng.integers(0, 8, n))
    scores = rng.random(n)
    return scores, predicted, truth


def test_posterior_matches_program_to_1e12():
    x = np.random.default_rng(0).normal(scale=3.0, size=(500, 2))
    ours = oracle.blobs8_posterior(x)
    theirs = datasets.bayes_posterior(datasets.blobs8(), x)
    assert np.abs(ours - theirs).max() <= 1e-12


def test_top_k_count_is_exact():
    assert oracle.top_k_count(4000, 0.7) == 2800
    assert oracle.top_k_count(30, 0.1) == 3
    assert oracle.top_k_count(7, 0.5) == 4
    assert oracle.top_k_count(10, 0.01) == 1


def test_top_k_breaks_ties_by_index():
    assert list(oracle.top_k_indices([0.5, 0.9, 0.5, 0.5], 3)) == [1, 0, 2]


def test_exact_curve_accepts_program_output(tmp_path, sample):
    curve, scores, _, _ = write_eval(tmp_path, *sample)
    checks.check_exact_curve(curve, scores, "t")


def test_exact_curve_rejects_risk_off_by_one_sample(tmp_path, sample):
    curve, scores, _, _ = write_eval(tmp_path, *sample)
    k = int(curve[2]["n_selected"])
    curve[2]["selective_risk"] = repr(float(curve[2]["selective_risk"]) + 1 / k)
    with pytest.raises(checks.CheckFailed, match="errors"):
        checks.check_exact_curve(curve, scores, "t")


def test_threshold_curve_accepts_program_output(tmp_path, sample):
    rng = np.random.default_rng(6)
    curve, scores, _, _ = write_eval(tmp_path, *sample,
                                     calibration=rng.random(300))
    checks.check_threshold_curve(curve, scores, 300, "t")


def test_threshold_curve_rejects_a_set_that_is_not_top_scores(tmp_path, sample):
    rng = np.random.default_rng(6)
    curve, scores, _, _ = write_eval(tmp_path, *sample,
                                     calibration=rng.random(300))
    s, p, t = checks.scores_table(scores)
    m = int(curve[1]["n_selected"])
    bottom = np.argsort(s)[:m]
    curve[1]["selective_risk"] = repr(oracle.errors_in(bottom, p, t) / m)
    with pytest.raises(checks.CheckFailed, match="errors"):
        checks.check_threshold_curve(curve, scores, 300, "t")


def test_threshold_curve_rejects_a_tie_across_the_boundary(tmp_path, sample):
    s, p, t = sample
    s = s.copy()
    curve, rows, _, _ = write_eval(tmp_path, s, p, t,
                                   calibration=np.random.default_rng(6).random(300))
    m = int(curve[1]["n_selected"])
    order = np.argsort(-s, kind="stable")
    rows[order[m]]["score"] = rows[order[m - 1]]["score"]
    with pytest.raises(checks.CheckFailed, match="tied"):
        checks.check_threshold_curve(curve, rows, 300, "t")


def test_threshold_curve_rejects_coverage_far_from_target(tmp_path, sample):
    s, p, t = sample
    # calibration scores squeezed into the top half of the test scores'
    # range: every threshold keeps too few test samples
    curve, rows, _, _ = write_eval(tmp_path, s, p, t, calibration=0.5 + s / 2)
    with pytest.raises(checks.CheckFailed):
        checks.check_threshold_curve(curve, rows, 400, "t")


def test_histogram_accepts_program_output(tmp_path, sample):
    s, p, t = sample
    s = s.copy()
    s[:3] = -np.inf
    _, rows, comments, hist = write_eval(tmp_path, s, p, t)
    checks.check_histogram(comments, hist, rows, "t")


def test_histogram_rejects_counts_that_do_not_add_up(tmp_path, sample):
    _, rows, comments, hist = write_eval(tmp_path, *sample)
    hist[4]["count_incorrect"] = str(int(hist[4]["count_incorrect"]) + 1)
    with pytest.raises(checks.CheckFailed, match="histogram counts"):
        checks.check_histogram(comments, hist, rows, "t")


def test_histogram_rejects_a_wrong_dropped_count(tmp_path, sample):
    _, rows, _, hist = write_eval(tmp_path, *sample)
    with pytest.raises(checks.CheckFailed, match="dropped"):
        checks.check_histogram(["dropped=2"], hist, rows, "t")


def test_softmax_scores_against_reference_forward(tmp_path, sample):
    rng = np.random.default_rng(7)
    z = rng.normal(size=(400, 8))
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    _, _, truth = sample
    _, rows, _, _ = write_eval(tmp_path, probs.max(axis=1), probs.argmax(axis=1),
                               truth)
    checks.check_softmax_scores(rows, probs, truth, "t")
    rows[9]["score"] = repr(float(rows[9]["score"]) * (1 + 1e-9))
    with pytest.raises(checks.CheckFailed, match="forward pass"):
        checks.check_softmax_scores(rows, probs, truth, "t")


def grid_outputs():
    manifest = {"cells": [{"name": f"cell{i}", "status": "ok", "error": ""}
                          for i in range(checks.expected_cell_count(GRID))]}
    rows = [{"method": m, "mechanism": k, "coverage": repr(c),
             "mean_risk": "0.4", "sd_risk": "0.01", "n_seeds": "3"}
            for m, k, c in sorted(checks.expected_result_keys(GRID))]
    floor = {float(c): 0.3 for c in GRID["coverages"]}
    return manifest, rows, floor


def test_grid_reference_config_shape():
    assert checks.expected_cell_count(GRID) == 36
    assert len(checks.expected_result_keys(GRID)) == 66


def test_grid_accepts_complete_output():
    checks.check_grid(0, *grid_outputs()[:2], GRID, grid_outputs()[2])


def test_grid_rejects_a_missing_results_row():
    manifest, rows, floor = grid_outputs()
    with pytest.raises(checks.CheckFailed, match="missing"):
        checks.check_grid(0, manifest, rows[1:], GRID, floor)


def test_grid_rejects_a_failed_cell():
    manifest, rows, floor = grid_outputs()
    manifest["cells"][5].update(status="failed",
                                error="ConfigurationError: boom")
    with pytest.raises(checks.CheckFailed, match="failed"):
        checks.check_grid(0, manifest, rows, GRID, floor)


def test_grid_rejects_nonzero_exit_and_wrong_seed_count():
    manifest, rows, floor = grid_outputs()
    with pytest.raises(checks.CheckFailed, match="exited"):
        checks.check_grid(1, manifest, rows, GRID, floor)
    rows = copy.deepcopy(rows)
    rows[0]["n_seeds"] = "2"
    with pytest.raises(checks.CheckFailed, match="n_seeds"):
        checks.check_grid(0, manifest, rows, GRID, floor)


def test_grid_rejects_risk_below_the_oracle():
    manifest, rows, floor = grid_outputs()
    rows[3]["mean_risk"] = "0.2"
    with pytest.raises(checks.CheckFailed, match="outside"):
        checks.check_grid(0, manifest, rows, GRID, floor)


def test_accuracy_bounds():
    checks.check_accuracy("CE", 0.53, 0.55, 4000)
    with pytest.raises(checks.CheckFailed, match="below"):
        checks.check_accuracy("CE", 0.2, 0.55, 4000)
    with pytest.raises(checks.CheckFailed, match="beats"):
        checks.check_accuracy("CE", 0.6, 0.55, 4000)


def test_same_parameters():
    a = np.arange(5.0)
    checks.check_same_parameters("CE", a, a.copy())
    b = a.copy()
    b[2] += 1e-12
    with pytest.raises(checks.CheckFailed):
        checks.check_same_parameters("CE", a, b)


def test_tracer_wraps_call_sites_and_restores_them():
    import selcls
    from selcls import cli, nn, training

    before = (training.network_forward, cli.load_checkpoint, nn.network_forward)
    tr = tracer.Tracer()
    tr.install(selcls)
    try:
        assert training.network_forward is nn.network_forward
        assert training.network_forward is not before[0]
        net = nn.build_network(2, (3,), 4, seed=0)
        training.network_forward(net, np.zeros((5, 2)))
    finally:
        tr.uninstall()
    assert (training.network_forward, cli.load_checkpoint,
            nn.network_forward) == before
    ix = tracer.SpanIndex(tr.spans)
    assert [r[1] for r in ix.select("nn.network_forward")] == ["batch"]
    assert ix.median("nn.build_network") is not None


def test_a_function_that_is_gone_reads_absent():
    ix = tracer.SpanIndex([["nn.network_forward", "batch", 0.0, 1.0, -1, 0.0,
                            None]])
    assert ix.median("nn.renamed_away") is None
    assert ix.median("nn.network_forward", "full") is None
    assert ix.median_after("nn.save_checkpoint") is None
    assert ix.time_outside("cli.cmd_grid", "training.train_method_grid") == []
