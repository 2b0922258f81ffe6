"""Run perfbench on two revisions in interleaved pairs and test a claimed gain.

    python tools/pairs.py --base HEAD --workload eval-sweep \\
        --seeds 101-110 --out BENCH_12.json

``--base REV`` is the side a change is measured against; ``--change REV``
is the other side, and without it a snapshot of the working tree's
tracked files (as ``git ls-files`` lists them, with their uncommitted
edits; ``git add`` a new file first): the commit ``git stash create``
makes, or HEAD when nothing is uncommitted. Each seed of ``--seeds``
makes one pair: both sides are unpacked the same way into fresh
directories (``git archive COMMIT | tar -x``), ``python3
perfbench/run.py --workload W --seed N --seconds S`` runs in each, with
S the ``run_seconds`` of ``BENCHMARK.json``, and the directories are
removed. The side that runs first alternates from pair to pair. The
repository's ``.git`` gains only the snapshot's objects; refs, index and
working tree stay as they were. Runs of another length go through
``perfbench/run.py`` directly.

Per end-to-end metric of ``BENCHMARK.json`` it prints each side's median,
Q1 and Q3 (``statistics.quantiles``, inclusive method), the number of
pairs in which the change was better, the relative change of the medians
against the metric's bound, and whether the claim rule holds: the change
better in at least 9 of every 10 pairs run, by a median gap larger than
the base's interquartile range, with no flagged run. A metric within its
bound reads ``unresolved`` where the base's interquartile range is wider
than the bound and not every change run reads better than every base run.
A run is flagged when it exits non-zero, prints no JSON last line, is not
``correct`` or has failed operations.

Each run also gets two figures that perfbench does not report, from the
``wait4`` resource usage of its process, which covers it and every
process it waited for (what ``RUSAGE_CHILDREN`` adds for it): the CPU
time of the whole run, set-up and every round, which counts grid-ref's
forked workers and perfbench's own import-timing interpreters, and the
largest resident set of any single one of those processes (not a sum).
Both are summarized like the end-to-end metrics, with no claim.

``--out`` gets every run's last JSON line with those two figures, and the
summaries, under ``workloads.<W>``; other workloads and keys already in
the file are kept. Standard library only; Linux (``os.wait4``, and
``ru_maxrss`` in KiB).
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("train-single", "grid-ref", "eval-sweep")
# share of pairs in which the change must be better for a claim
CLAIM_SHARE = 0.9
EXTRA_METRICS = (
    {"name": "children_cpu_s", "unit": "s", "better": "lower"},
    {"name": "largest_single_descendant_rss_mb", "unit": "MB",
     "better": "lower"},
)


def parse_seeds(text: str) -> list:
    """"A-B" as the seeds A to B, both included."""
    first, sep, last = text.partition("-")
    if not (sep and first.isdigit() and last.isdigit()) \
            or int(last) < int(first):
        raise ValueError(f"--seeds needs A-B with 0 <= A <= B, got {text!r}")
    return list(range(int(first), int(last) + 1))


def quartiles(values) -> dict:
    """Median, Q1, Q3 and their spread; one value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "min": min(values), "max": max(values)}


def summarize(pairs, better: str = "lower", bound=None,
              pairs_run=None) -> dict:
    """Summary of one metric over (base, change) value pairs.

    ``gap`` is how far the change's median is better than the base's
    (positive when better) and ``relative`` the change of the medians
    against the base's; ``within_bound`` says whether the change is no
    worse than the base by more than ``bound`` (a share of the base's
    median), and is None without a bound. ``resolved`` is False where the
    base's interquartile range is wider than ``bound`` times its median and
    not every change run reads better than every base run: such runs cannot
    tell a change within the bound from one outside it. It is None without
    a bound. ``pairs_run`` is the number of pairs that were run,
    ``len(pairs)`` when None; a pair that was run but is not in ``pairs``
    (a flagged run) fails the claim. The claim holds when every pair run
    counts, the change is better in at least ``CLAIM_SHARE`` of them and
    ``gap`` exceeds the base's interquartile range."""
    if pairs_run is None:
        pairs_run = len(pairs)
    sign = 1.0 if better == "lower" else -1.0
    base = quartiles(b for b, _ in pairs)
    change = quartiles(c for _, c in pairs)
    better_in = sum(1 for b, c in pairs if sign * (b - c) > 0)
    gap = sign * (base["median"] - change["median"])
    relative = (change["median"] / base["median"] - 1.0) if base["median"] \
        else math.nan
    all_better = change["max"] < base["min"] if better == "lower" else \
        change["min"] > base["max"]
    return {
        "pairs": len(pairs), "pairs_run": pairs_run, "better": better,
        "base": base, "change": change,
        "change_better_in": better_in, "gap": gap, "relative": relative,
        "within_bound": None if bound is None else sign * relative <= bound,
        "resolved": None if bound is None else (
            base["iqr"] <= bound * abs(base["median"]) or all_better),
        "claim_holds": len(pairs) == pairs_run
        and better_in >= math.ceil(CLAIM_SHARE * pairs_run)
        and gap > base["iqr"],
    }


def run_problems(run: dict) -> list:
    """Why a run's result cannot be counted; empty when it can."""
    if run.get("exit_code") != 0:
        return [f"exit code {run.get('exit_code')}"]
    if "result" not in run:
        return ["no JSON last line"]
    result, problems = run["result"], []
    if result.get("correct") is not True:
        problems.append("not correct")
    if result.get("failed", 0):
        problems.append(f"{result['failed']} failed operations")
    return problems


def metric_values(run: dict) -> dict:
    """{metric: value} of one counted run, with the two wait4 figures."""
    values = {name: m["value"]
              for name, m in run["result"]["metrics"].items()}
    values.update(run["rusage"])
    return values


def benchmark() -> dict:
    """``BENCHMARK.json``: its end-to-end metrics and run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summarize_runs(runs: dict, metrics: list) -> tuple:
    """(summaries per metric over the pairs whose runs both count,
    [(seed, side, problems)] of the flagged runs)."""
    flagged, pairs = [], {m["name"]: [] for m in metrics}
    for seed, pair in runs.items():
        problems = {side: run_problems(pair[side])
                    for side in ("base", "change")}
        flagged += [(seed, side, p) for side, p in problems.items() if p]
        if any(problems.values()):
            continue
        base, change = (metric_values(pair[side])
                        for side in ("base", "change"))
        for m in metrics:
            if m["name"] in base and m["name"] in change:
                pairs[m["name"]].append((base[m["name"]], change[m["name"]]))
    summaries = {m["name"]: summarize(pairs[m["name"]], m["better"],
                                      m.get("bound"), len(runs))
                 for m in metrics if pairs[m["name"]]}
    return summaries, flagged


def report(summaries: dict, flagged: list, claimable: set) -> str:
    lines = []
    for name, s in summaries.items():
        b, c = s["base"], s["change"]
        bound = "" if s["within_bound"] is None else \
            "  OUTSIDE BOUND" if not s["within_bound"] else \
            "  within bound" if s["resolved"] else "  unresolved"
        claim = ""
        if name in claimable:
            claim = "  claim holds" if s["claim_holds"] else "  claim fails"
        lines.append(
            f"{name:34s} base {b['median']:.4f} [{b['q1']:.4f}, "
            f"{b['q3']:.4f}]  change {c['median']:.4f} [{c['q1']:.4f}, "
            f"{c['q3']:.4f}]  {s['relative']:+.1%}, better in "
            f"{s['change_better_in']}/{s['pairs_run']}, gap {s['gap']:.4f} "
            f"vs base IQR {b['iqr']:.4f}{bound}{claim}")
    for seed, side, problems in flagged:
        lines.append(f"FLAGGED seed {seed} {side}: {'; '.join(problems)}")
    return "\n".join(lines)


def git(*args, **kwargs):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, **kwargs).stdout


def fill(directory: Path, rev: str) -> None:
    """Unpack the revision ``rev`` into the empty ``directory``."""
    archive = git("archive", "--format=tar", rev)
    subprocess.run(["tar", "-x", "-C", str(directory)], input=archive,
                   check=True)


def run_perfbench(directory: Path, workload: str, seed: int,
                  seconds: float) -> dict:
    """One perfbench run in ``directory``: its exit code, last JSON line
    and the wait4 figures of its process tree."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds)],
            cwd=directory, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read().decode(), err.read().decode()
    run = {"exit_code": proc.returncode, "rusage": {
        "children_cpu_s": usage.ru_utime + usage.ru_stime,
        "largest_single_descendant_rss_mb": usage.ru_maxrss / 1024.0}}
    lines = stdout.strip().splitlines()
    try:
        run["result"] = json.loads(lines[-1])
    except (IndexError, ValueError):
        run["stderr_tail"] = stderr[-2000:]
    return run


def run_pairs(args, seeds, seconds: float) -> dict:
    runs = {}
    for i, seed in enumerate(seeds):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        pair = {"order": list(order)}
        for side in order:
            with tempfile.TemporaryDirectory(prefix=f"pairs-{side}-") as d:
                fill(Path(d), args.base if side == "base" else args.change)
                pair[side] = run_perfbench(Path(d), args.workload, seed,
                                           seconds)
        runs[str(seed)] = pair
        shown = {side: "; ".join(run_problems(pair[side])) or
                 f"{pair[side]['result']['metrics']['wall_s']['value']:.4f}"
                 for side in order}
        print(f"pair {i + 1}/{len(seeds)} seed {seed} ({order[0]} first): "
              f"wall_s base {shown['base']}, change {shown['change']}",
              flush=True)
    return runs


def describe(rev) -> dict:
    """``rev`` and the commit it names; None names the snapshot of the
    working tree's tracked files, or HEAD when nothing is uncommitted."""
    if rev is None:
        commit = git("stash", "create", text=True).strip() or \
            git("rev-parse", "HEAD", text=True).strip()
    else:
        commit = git("rev-parse", f"{rev}^{{commit}}", text=True).strip()
    return {"rev": rev, "commit": commit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="revision measured against")
    p.add_argument("--change", default=None,
                   help="revision of the change (default: a snapshot of "
                        "the working tree's tracked files)")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seeds", required=True, help="A-B, one seed per pair")
    p.add_argument("--out", required=True, help="JSON file to write or update")
    args = p.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        p.error(str(exc))
    base, change = describe(args.base), describe(args.change)
    # both sides unpack the commits that --out records
    args.base, args.change = base["commit"], change["commit"]
    bench = benchmark()
    seconds = bench["run_seconds"]

    runs = run_pairs(args, seeds, seconds)
    metrics = bench["end_to_end"]
    summaries, flagged = summarize_runs(runs, metrics + list(EXTRA_METRICS))
    print(report(summaries, flagged, {m["name"] for m in metrics}))

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc.setdefault("command", "python3 perfbench/run.py --workload W "
                              "--seed N --seconds S")
    doc.setdefault("tool", "tools/pairs.py")
    doc["machine"] = {"platform": platform.platform(),
                      "python": platform.python_version(),
                      "usable_cpus": len(os.sched_getaffinity(0))}
    doc.setdefault("workloads", {})[args.workload] = {
        "base": base, "change": change, "seeds": args.seeds,
        "seconds": seconds, "summary": summaries,
        "flagged": [{"seed": s, "side": side, "problems": problems}
                    for s, side, problems in flagged],
        "runs": runs}
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
