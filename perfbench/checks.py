"""Correctness checks on the program's outputs.

Each check raises CheckFailed with a message naming what disagreed; the
reference values come from ``oracle``, never from selcls itself.
"""

import csv
import math

import numpy as np

import oracle

# mechanisms each objective family's head supports, written out from the
# head layouts: every head has class logits, abstain heads add a C+1-th
# logit, three-head models add a selection unit
COMPATIBLE = {
    "CE": ("softmax_response", "negative_entropy"),
    "DG": ("softmax_response", "negative_entropy", "abstention_logit"),
    "SAT": ("softmax_response", "negative_entropy", "abstention_logit"),
    "SelectiveNet": ("softmax_response", "negative_entropy", "selection_head"),
}
SAME = 1e-12
Z = 4.0   # width of every binomial tolerance, in standard deviations


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def base_kind(method: str) -> str:
    return method.removesuffix("+EM")


def read_csv(path):
    """(comment lines without '# ', rows as dicts) of a selcls CSV."""
    comments, lines = [], []
    with open(path, newline="") as f:
        for line in f:
            if line.startswith("#"):
                comments.append(line[1:].strip())
            else:
                lines.append(line)
    return comments, list(csv.DictReader(lines))


def scores_table(rows):
    """Scores, predicted and true classes of a scores_*.csv as arrays."""
    return (np.array([float(r["score"]) for r in rows]),
            np.array([int(r["predicted_class"]) for r in rows]),
            np.array([int(r["true_class"]) for r in rows]))


# -- train-single ------------------------------------------------------------

def check_accuracy(kind: str, acc: float, oracle_acc: float, n: int) -> None:
    """Well above chance, and not above the Bayes oracle beyond noise."""
    chance = 1.0 / oracle.N_CLASSES
    floor = chance + 0.5 * (oracle_acc - chance)
    require(acc >= floor,
            f"{kind}: test accuracy {acc:.4f} is below {floor:.4f}, half-way "
            f"from chance {chance:.3f} to the oracle's {oracle_acc:.4f}")
    noise = Z * math.sqrt(2.0 * oracle_acc * (1.0 - oracle_acc) / n)
    require(acc <= oracle_acc + noise,
            f"{kind}: test accuracy {acc:.4f} beats the Bayes oracle "
            f"{oracle_acc:.4f} by more than {noise:.4f}")


def check_same_parameters(kind: str, first, again) -> None:
    require(first.shape == again.shape and np.array_equal(first, again),
            f"{kind}: retraining with the same seed changed the parameters")


# -- grid-ref -----------------------------------------------------------------

def expected_cell_count(grid: dict) -> int:
    n = 0
    for method in grid["methods"]:
        per_seed = len(grid["coverages"]) if base_kind(method) == "SelectiveNet" else 1
        n += per_seed * len(grid["seeds"])
    return n


def expected_result_keys(grid: dict) -> set:
    return {(method, mech, float(c))
            for method in grid["methods"]
            for mech in grid["mechanisms"] if mech in COMPATIBLE[base_kind(method)]
            for c in grid["coverages"]}


def check_grid(exit_code: int, manifest: dict, rows, grid: dict,
               risk_floor: dict) -> None:
    """``risk_floor`` maps a coverage to the lowest mean risk a model can
    reach there: the oracle's risk minus sampling slack."""
    require(exit_code == 0, f"selcls grid exited {exit_code}")
    cells = manifest.get("cells", [])
    bad = [f"{c.get('name')}: {c.get('error')}" for c in cells
           if c.get("status") != "ok"]
    require(not bad, f"{len(bad)} grid cells failed: {bad[:3]}")
    want = expected_cell_count(grid)
    require(len(cells) == want, f"manifest lists {len(cells)} cells, "
                                f"the config asks for {want}")
    seen = {}
    for r in rows:
        key = (r["method"], r["mechanism"], float(r["coverage"]))
        require(key not in seen, f"results.csv repeats the row {key}")
        seen[key] = r
    expected = expected_result_keys(grid)
    missing, extra = expected - set(seen), set(seen) - expected
    require(not missing and not extra,
            f"results.csv rows disagree with the config: missing "
            f"{sorted(missing)[:3]}, unexpected {sorted(extra)[:3]}")
    for key, r in seen.items():
        require(int(r["n_seeds"]) == len(grid["seeds"]),
                f"{key}: n_seeds {r['n_seeds']}, config has "
                f"{len(grid['seeds'])} seeds")
        risk, floor = float(r["mean_risk"]), risk_floor[key[2]]
        require(floor <= risk <= oracle.CHANCE_RISK,
                f"{key}: mean_risk {risk:.4f} lies outside "
                f"[{floor:.4f}, chance {oracle.CHANCE_RISK:.4f}]")


# -- eval-sweep ----------------------------------------------------------------

def coverage_tolerance(c: float, n_fit: int, n_eval: int) -> float:
    """How far the test coverage of a threshold fitted on n_fit held-out
    scores may stray from c: the binomial spread of both samples, plus
    Z^2 / n_fit for the skewed case near c = 1, where the threshold is
    one of the few lowest held-out scores."""
    spread = math.sqrt(c * (1.0 - c) * (1.0 / n_fit + 1.0 / n_eval))
    return Z * spread + Z * Z / n_fit + 1.0 / n_eval


def check_exact_curve(curve_rows, score_rows, label: str) -> None:
    """Self-calibrated curves: every point is exact top-k selection."""
    scores, predicted, truth = scores_table(score_rows)
    n = scores.size
    for r in curve_rows:
        c = float(r["target_coverage"])
        k = oracle.top_k_count(n, c)
        require(int(r["n_selected"]) == k,
                f"{label} c={c}: {r['n_selected']} selected, top-k needs {k}")
        require(abs(float(r["achieved_coverage"]) - k / n) <= SAME,
                f"{label} c={c}: achieved coverage {r['achieved_coverage']}, "
                f"exact {k / n}")
        errors = oracle.errors_in(oracle.top_k_indices(scores, k),
                                  predicted, truth)
        require(abs(float(r["selective_risk"]) - errors / k) <= SAME,
                f"{label} c={c}: risk {r['selective_risk']}, the top {k} "
                f"scores hold {errors} errors ({errors / k})")


def check_threshold_curve(curve_rows, score_rows, n_fit: int,
                          label: str) -> None:
    """Held-out calibration: each point keeps a top-score set of the test
    scores, its risk is that set's error rate, and its coverage is near
    the target."""
    scores, predicted, truth = scores_table(score_rows)
    n = scores.size
    ranked = np.sort(scores)[::-1]
    for r in curve_rows:
        c = float(r["target_coverage"])
        m = int(r["n_selected"])
        require(1 <= m <= n, f"{label} c={c}: {m} of {n} selected")
        require(m == n or ranked[m - 1] > ranked[m],
                f"{label} c={c}: score {ranked[m - 1]!r} is tied across the "
                f"boundary, so no threshold selects exactly {m}")
        require(abs(float(r["achieved_coverage"]) - m / n) <= SAME,
                f"{label} c={c}: achieved coverage {r['achieved_coverage']} "
                f"but {m} of {n} selected")
        errors = oracle.errors_in(oracle.top_k_indices(scores, m),
                                  predicted, truth)
        require(abs(float(r["selective_risk"]) - errors / m) <= SAME,
                f"{label} c={c}: risk {r['selective_risk']}, the top {m} "
                f"scores hold {errors} errors ({errors / m})")
        tol = coverage_tolerance(c, n_fit, n)
        require(abs(m / n - c) <= tol,
                f"{label} c={c}: achieved coverage {m / n:.4f} is more than "
                f"{tol:.4f} from the target")


def check_histogram(comments, hist_rows, score_rows, label: str) -> None:
    scores, predicted, truth = scores_table(score_rows)
    finite = np.isfinite(scores)
    correct = predicted == truth
    dropped = [int(w.split("=", 1)[1]) for line in comments
               for w in line.split() if w.startswith("dropped=")]
    require(dropped == [int((~finite).sum())],
            f"{label}: histogram reports dropped={dropped}, scores file has "
            f"{int((~finite).sum())} non-finite scores")
    n_correct = sum(int(r["count_correct"]) for r in hist_rows)
    n_wrong = sum(int(r["count_incorrect"]) for r in hist_rows)
    want_correct = int((finite & correct).sum())
    want_wrong = int((finite & ~correct).sum())
    require((n_correct, n_wrong) == (want_correct, want_wrong),
            f"{label}: histogram counts {n_correct} correct / {n_wrong} "
            f"incorrect, scores file has {want_correct} / {want_wrong}")


def check_softmax_scores(score_rows, probs, labels, label: str) -> None:
    """Softmax-response scores against an independent forward pass."""
    scores, predicted, truth = scores_table(score_rows)
    require(np.array_equal(truth, labels),
            f"{label}: true_class column differs from the test labels")
    want = probs.max(axis=1)
    require(np.allclose(scores, want, rtol=SAME, atol=0.0),
            f"{label}: softmax-response scores differ from the reference "
            f"forward pass by up to {np.abs(scores - want).max():.3e}")
    top2 = np.sort(probs, axis=1)[:, -2:]
    clear = top2[:, 1] - top2[:, 0] > 1e-9
    require(np.array_equal(predicted[clear], probs.argmax(axis=1)[clear]),
            f"{label}: predicted classes differ from the reference argmax")
