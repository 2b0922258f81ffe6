"""tools/pairs.py: its statistics, claim rule, run flags and checkouts, on
fixed inputs; no perfbench run is started."""

import importlib.util
import math
import os
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
_spec = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

BASE = [0.30, 0.31, 0.32, 0.33, 0.34, 0.35, 0.36, 0.37, 0.38, 0.39]


def run(wall, correct=True, failed=0, exit_code=0):
    return {"exit_code": exit_code,
            "rusage": {"children_cpu_s": 2 * wall,
                       "largest_single_descendant_rss_mb": 50.0},
            "result": {"correct": correct, "attempted": 6, "failed": failed,
                       "metrics": {"wall_s": {"value": wall, "unit": "s"}}}}


def test_quartiles_are_the_inclusive_method():
    q = pairs.quartiles(BASE)
    assert (q["q1"], q["median"], q["q3"]) == pytest.approx(
        (0.3225, 0.345, 0.3675))
    assert q["iqr"] == pytest.approx(0.045)
    assert (q["min"], q["max"]) == (0.30, 0.39)
    assert pairs.quartiles([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0,
                                      "iqr": 0.0, "min": 2.0, "max": 2.0}


@pytest.mark.parametrize("shift, lower_in, holds", [
    (-0.05, 10, True),    # lower everywhere, gap 0.05 > IQR 0.045
    (-0.04, 10, False),   # lower everywhere, gap 0.04 < IQR 0.045
    (0.0, 0, False),      # ties count for neither side
    (0.01, 0, False),
])
def test_claim_needs_both_the_pair_count_and_the_gap(shift, lower_in, holds):
    s = pairs.summarize([(b, b + shift) for b in BASE])
    assert s["change_better_in"] == lower_in
    assert s["gap"] == pytest.approx(-shift)
    assert s["claim_holds"] is holds


def test_claim_needs_nine_of_ten_pairs():
    big = [(b, b - 0.1) for b in BASE]
    assert pairs.summarize(big[:9] + [(0.30, 0.31)])["claim_holds"] is True
    two_higher = big[:8] + [(0.30, 0.31), (0.31, 0.32)]
    s = pairs.summarize(two_higher)
    assert (s["change_better_in"], s["claim_holds"]) == (8, False)


def test_higher_better_metric_counts_the_other_way():
    s = pairs.summarize([(b, b + 0.1) for b in BASE], better="higher")
    assert (s["change_better_in"], s["claim_holds"]) == (10, True)
    assert s["gap"] == pytest.approx(0.1)


@pytest.mark.parametrize("better, shift, within", [
    ("lower", 1.21, False), ("lower", 1.19, True), ("lower", 0.5, True),
    ("higher", 0.79, False), ("higher", 0.81, True), ("higher", 2.0, True),
])
def test_bound_is_a_share_of_the_base_median(better, shift, within):
    s = pairs.summarize([(b, b * shift) for b in BASE], better=better,
                        bound=0.2)
    assert s["relative"] == pytest.approx(shift - 1.0)
    assert s["within_bound"] is within
    assert pairs.summarize([(1.0, 2.0)])["within_bound"] is None


def test_relative_of_a_zero_median_is_nan():
    assert math.isnan(pairs.summarize([(0.0, 1.0)])["relative"])


@pytest.mark.parametrize("bad, problems", [
    (run(0.1, correct=False), ["not correct"]),
    (run(0.1, failed=2), ["2 failed operations"]),
    (run(0.1, correct=False, failed=1), ["not correct", "1 failed operations"]),
    (run(0.1, exit_code=1), ["exit code 1"]),
    ({"exit_code": 0, "rusage": {}}, ["no JSON last line"]),
])
def test_flagged_runs_leave_the_summary(bad, problems):
    runs = {str(seed): {"base": run(b), "change": run(b - 0.1)}
            for seed, b in enumerate(BASE)}
    runs["3"]["change"] = bad
    metrics = [{"name": "wall_s", "better": "lower", "bound": 0.25}]
    summaries, flagged = pairs.summarize_runs(
        runs, metrics + list(pairs.EXTRA_METRICS))
    assert flagged == [("3", "change", problems)]
    assert pairs.run_problems(runs["2"]["base"]) == []
    assert summaries["wall_s"]["pairs"] == 9
    assert summaries["children_cpu_s"]["change_better_in"] == 9
    assert summaries["largest_single_descendant_rss_mb"]["within_bound"] \
        is None
    # nine of the ten pairs run count, and the change is better in all
    # nine: the flagged pair still fails the claim, in the summary that
    # --out records as in the printed report
    assert summaries["wall_s"]["pairs_run"] == 10
    assert summaries["wall_s"]["change_better_in"] == 9
    assert summaries["wall_s"]["claim_holds"] is False
    report = pairs.report(summaries, flagged, {"wall_s"})
    assert "better in 9/10" in report and "claim fails" in report
    assert report.splitlines()[-1] == \
        f"FLAGGED seed 3 change: {'; '.join(problems)}"


def test_report_states_a_claim_only_for_claimable_metrics():
    runs = {str(seed): {"base": run(b), "change": run(b - 0.1)}
            for seed, b in enumerate(BASE)}
    summaries, flagged = pairs.summarize_runs(
        runs, [{"name": "wall_s", "better": "lower", "bound": 0.25},
               *pairs.EXTRA_METRICS])
    lines = pairs.report(summaries, flagged, {"wall_s"}).splitlines()
    assert [line.split()[0] for line in lines] == [
        "wall_s", "children_cpu_s", "largest_single_descendant_rss_mb"]
    assert lines[0].endswith("within bound  claim holds")
    assert "claim" not in lines[1] and "claim" not in lines[2]


@pytest.mark.parametrize("text, seeds", [
    ("81-90", list(range(81, 91))), ("7-7", [7])])
def test_parse_seeds(text, seeds):
    assert pairs.parse_seeds(text) == seeds


@pytest.mark.parametrize("text", ["90-81", "81", "a-b", "-1-3", "1-"])
def test_parse_seeds_refuses_malformed_ranges(text):
    with pytest.raises(ValueError, match="--seeds needs A-B"):
        pairs.parse_seeds(text)


def test_sides_alternate_which_runs_first(monkeypatch, capsys):
    started = []
    monkeypatch.setattr(pairs, "fill", lambda directory, rev: None)
    monkeypatch.setattr(
        pairs, "run_perfbench",
        lambda directory, workload, seed, seconds: started.append(
            (seed, directory.name.split("-")[1])) or run(0.25))
    args = type("Args", (), {"base": "HEAD", "change": None,
                             "workload": "eval-sweep"})
    runs = pairs.run_pairs(args, [5, 6, 7], 1.0)
    assert started == [(5, "base"), (5, "change"), (6, "change"),
                       (6, "base"), (7, "base"), (7, "change")]
    assert [runs[s]["order"] for s in ("5", "6", "7")] == [
        ["base", "change"], ["change", "base"], ["base", "change"]]
    assert capsys.readouterr().out.splitlines()[1] == (
        "pair 2/3 seed 6 (change first): wall_s base 0.2500, change 0.2500")


def test_a_pair_run_but_not_counted_fails_the_claim():
    nine = [(b, b - 0.1) for b in BASE[:9]]
    assert pairs.summarize(nine)["claim_holds"] is True
    s = pairs.summarize(nine, pairs_run=10)
    assert (s["pairs"], s["pairs_run"], s["claim_holds"]) == (9, 10, False)


def test_main_runs_one_pair_per_seed_for_the_benchmark_length(
        monkeypatch, tmp_path, capsys):
    calls = []
    monkeypatch.setattr(pairs, "describe",
                        lambda rev: {"rev": rev, "commit": rev})
    monkeypatch.setattr(
        pairs, "run_pairs", lambda args, seeds, seconds: calls.append(
            (seeds, seconds)) or {str(s): {"order": ["base", "change"],
                                            "base": run(0.3),
                                            "change": run(0.2)}
                                  for s in seeds})
    out = tmp_path / "bench.json"
    assert pairs.main(["--base", "HEAD", "--workload", "eval-sweep",
                       "--seeds", "81-83", "--out", str(out)]) == 0
    seconds = pairs.benchmark()["run_seconds"]
    assert calls == [([81, 82, 83], seconds)]
    assert '"seconds": %s' % seconds in out.read_text()
    assert "better in 3/3" in capsys.readouterr().out
    for flag in ("--pairs", "--seconds"):
        with pytest.raises(SystemExit):
            pairs.main(["--base", "HEAD", "--workload", "eval-sweep",
                        "--seeds", "81-83", "--out", str(out), flag, "10"])


def test_the_change_side_is_a_snapshot_of_the_working_tree(
        monkeypatch, tmp_path):
    # an identity and no user or system config, so that the commits below
    # and git stash create run the same anywhere
    for name, value in {"GIT_CONFIG_GLOBAL": os.devnull,
                        "GIT_CONFIG_NOSYSTEM": "1",
                        "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
                        "GIT_COMMITTER_NAME": "t",
                        "GIT_COMMITTER_EMAIL": "t@t"}.items():
        monkeypatch.setenv(name, value)
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        return subprocess.run(["git", "-C", str(repo), *args], check=True,
                              capture_output=True, text=True).stdout

    git("init", "-q")
    (repo / "a.txt").write_text("committed\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "one")
    monkeypatch.setattr(pairs, "ROOT", repo)
    head = git("rev-parse", "HEAD").strip()
    assert pairs.describe(None) == {"rev": None, "commit": head}

    (repo / "a.txt").write_text("edited\n")
    status, stashes = git("status", "--porcelain"), git("stash", "list")
    change = pairs.describe(None)
    assert change["rev"] is None and change["commit"] != head
    unpacked = tmp_path / "unpacked"
    unpacked.mkdir()
    pairs.fill(unpacked, change["commit"])
    assert (unpacked / "a.txt").read_text() == "edited\n"
    assert git("status", "--porcelain") == status == " M a.txt\n"
    assert git("stash", "list") == stashes == ""
    assert git("rev-parse", "HEAD").strip() == head


# a base whose IQR (0.55) is 37% of its median (1.5), against a 25% bound
WIDE = [1.0, 1.1, 1.2, 1.3, 1.4, 1.6, 1.7, 1.8, 1.9, 2.0]


@pytest.mark.parametrize("base, change, resolved, shown", [
    (WIDE, WIDE, False, "unresolved"),
    (WIDE, [0.9] * 10, True, "within bound"),
    (BASE, BASE, True, "within bound"),
], ids=["wide", "wide-every-change-run-better", "narrow"])
def test_spread_wider_than_the_bound_is_unresolved(base, change, resolved,
                                                   shown):
    s = pairs.summarize(list(zip(base, change)), bound=0.25)
    assert s["within_bound"] is True
    assert s["resolved"] is resolved
    line = pairs.report({"wall_s": s}, [], set())
    assert line.endswith(f"  {shown}")
    assert ("within bound" in line) is resolved


def test_spread_against_the_bound_counts_for_higher_better_metrics():
    assert pairs.summarize(list(zip(WIDE, WIDE)), better="higher",
                           bound=0.25)["resolved"] is False
    assert pairs.summarize(list(zip(WIDE, [2.1] * 10)), better="higher",
                           bound=0.25)["resolved"] is True
    assert pairs.summarize(list(zip(WIDE, WIDE)))["resolved"] is None
