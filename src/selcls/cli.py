"""Command-line interface.

Commands:
    train      fit one model from a config, write checkpoint + report
    eval       score a checkpoint, write curve, histogram and scores CSVs
    gradcheck  finite-difference verification of every objective family
    grid       train and evaluate the full method comparison

Exit codes: 0 success, 1 check/grid-cell failure, 2 configuration error,
unreadable or unwritable file or too large a network, 3 numeric fault.
"""

import argparse
import json
import os
import sys
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np

from .config import GridConfig, RunConfig, load_run_config
from .datasets import SPLITS, draw_split, generate_mixture
from .errors import ConfigurationError, NumericFault, SelclsError
from .evaluation import curve_to_csv, histogram_to_csv, mean_sd, risk_coverage_curve, score_histogram
from .gradcheck import TOLERANCE, run_suite
from .nn import build_network, load_checkpoint, network_outputs, save_checkpoint
from .selection import mechanism_compatible, predict_classes, score_outputs, scores_to_csv
from .training import train
from .util import atomic_write, fmt, write_csv

OUTPUT_ROOT_ENV = "SELCLS_OUTPUT_ROOT"


def resolve_outdir(cfg_dir: str, override: str | None) -> Path:
    path = Path(override) if override else Path(cfg_dir)
    if not path.is_absolute():
        path = Path(os.environ.get(OUTPUT_ROOT_ENV, ".")) / path
    path.mkdir(parents=True, exist_ok=True)
    return path


def build_splits(cfg: RunConfig, seed: int | None = None):
    """(train, val, test, n_classes) of the configured mixture.

    ``seed`` overrides training.seed as the root for dataset derivation;
    the grid runner uses it to give every seed row its own draw.
    """
    spec = cfg.dataset.mixture_spec(cfg.training.seed if seed is None
                                    else seed)
    train_ds, val_ds, test_ds = generate_mixture(spec)
    return train_ds, val_ds, test_ds, spec.n_classes


def write_json(path: Path, payload: dict) -> None:
    """Write a JSON artifact atomically, indented, with sorted keys."""
    with atomic_write(path) as f:
        json.dump(payload, f, indent=2, sort_keys=True)


def run_cell(cfg: RunConfig, objective, seed: int, splits, checkpoint,
             report, config_hash: str):
    """Train a new ``objective`` network on ``splits`` from init and shuffle
    seed ``seed``; save it and its report, tagged with ``config_hash``."""
    train_ds, val_ds, _, n_classes = splits
    net = build_network(train_ds.dim, tuple(cfg.model.hidden_dims), n_classes,
                        objective.required_head(), seed=seed)
    result = train(net, train_ds, val_ds,
                   replace(cfg.training, seed=seed, objective=objective))
    save_checkpoint(net, checkpoint, config_hash=config_hash)
    result.to_csv(report, f"config={config_hash}")
    return net


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    outdir = resolve_outdir(cfg.output_dir, args.output)
    h = cfg.hash()
    splits = build_splits(cfg)
    record = {"hash": h, "config": cfg.normalized(), "splits": {
        name: {"n": len(ds), "fingerprint": ds.fingerprint}
        for name, ds in zip(SPLITS, splits)}}
    write_json(outdir / "run_config.json", record)
    ckpt = outdir / "checkpoint.json"
    run_cell(cfg, cfg.objective, cfg.training.seed, splits, ckpt,
             outdir / "train_report.csv", h)
    write_json(outdir / "manifest.json", {
        "config_hash": h, "status": "ok",
        "artifacts": ["run_config.json", "checkpoint.json",
                      "train_report.csv"]})
    print(f"trained {cfg.objective.kind} for {cfg.training.epochs} epochs; "
          f"checkpoint at {ckpt}")
    return 0


def evaluate_mechanisms(net, val_ds, test_ds, mechanisms, coverages,
                        calibration_split: str):
    """Score the test split with each mechanism and trace its risk-coverage
    curve at ``coverages``.

    Returns (test predictions, {mechanism: (test scores, curve points)}).
    With ``calibration_split`` "val" each threshold is fitted on the val
    scores; with "test" the test scores calibrate themselves.
    """
    test_raw = network_outputs(net, test_ds.features)
    predicted = predict_classes(test_raw["logits"], net.n_classes)
    test_scores = score_outputs(net, test_raw, mechanisms)
    val_scores = {} if calibration_split != "val" else score_outputs(
        net, network_outputs(net, val_ds.features), mechanisms)
    results = {kind: (scores, risk_coverage_curve(
        scores, predicted, test_ds.labels, coverages,
        calibration_scores=val_scores.get(kind)))
        for kind, scores in test_scores.items()}
    return predicted, results


def cmd_eval(args) -> int:
    cfg = load_run_config(args.config)
    net, stored_hash = load_checkpoint(args.checkpoint)
    spec = cfg.dataset.mixture_spec(cfg.training.seed)
    if (net.n_classes, net.input_dim) != (spec.n_classes, spec.dim):
        raise ConfigurationError(
            f"checkpoint {args.checkpoint} holds a network for "
            f"{net.n_classes} classes of {net.input_dim}-d inputs, the "
            f"config's mixture has {spec.n_classes} classes of {spec.dim}-d "
            "inputs")
    h = cfg.hash()
    if stored_hash and stored_hash != h and not args.force:
        raise ConfigurationError(
            f"checkpoint was produced by config {stored_hash}, supplied "
            f"config hashes to {h}; pass --force to evaluate anyway")
    outdir = resolve_outdir(cfg.output_dir, args.output) / "eval"
    outdir.mkdir(parents=True, exist_ok=True)
    # eval reads no training rows, and val rows only to calibrate on them
    ev = cfg.evaluation
    val_ds = draw_split(spec, "val") if ev.calibration_split == "val" else None
    test_ds = draw_split(spec, "test")
    predicted, results = evaluate_mechanisms(
        net, val_ds, test_ds, ev.mechanisms, ev.coverage_grid,
        ev.calibration_split)
    for kind, (scores, points) in results.items():
        comment = f"config={h} mechanism={kind}"
        curve_to_csv(outdir / f"curve_{kind}.csv", points,
                     seed=cfg.training.seed, header_comment=comment)
        finite = np.isfinite(scores)
        hist = score_histogram(scores[finite], predicted[finite],
                               test_ds.labels[finite], ev.histogram_bins)
        histogram_to_csv(outdir / f"histogram_{kind}.csv", hist,
                         header_comment=f"{comment} "
                                        f"dropped={int((~finite).sum())}")
        scores_to_csv(outdir / f"scores_{kind}.csv", scores, predicted,
                      test_ds.labels, header_comment=comment)
    print(f"wrote a curve, histogram and scores CSV per mechanism to {outdir}")
    return 0


def cmd_gradcheck(args) -> int:
    if args.cases < 1:
        raise ConfigurationError(f"--cases must be >= 1, got {args.cases}")
    results = run_suite(n_cases=args.cases, seed=args.seed)
    failed = []
    for name, err in results.items():
        ok = err < TOLERANCE
        print(f"{'PASS' if ok else 'FAIL'} {name}: max_rel_err={err:.3e} "
              f"(tolerance {TOLERANCE:g})")
        if not ok:
            failed.append(name)
    if failed:
        print(f"gradient check FAILED for: {', '.join(failed)}")
        return 1
    print(f"gradient check passed for all {len(results)} objective variants")
    return 0


def grid_cell_name(method: str, coverage, seed: int) -> str:
    cov = "all" if coverage is None else f"c{fmt(float(coverage))}"
    return f"{method.replace('+', '_')}_{cov}_s{seed}"


def grid_cell(cfg: RunConfig, objective, coverage, seed: int, splits,
              cells_dir: Path, config_hash: str):
    """Train, save and evaluate one grid cell: ``objective`` on ``seed`` and
    that seed's ``splits``, evaluated at ``coverage``, or at every grid
    coverage when it is None; its checkpoint and report carry
    ``config_hash``. Returns the cell's manifest record and its results
    rows, ((method, mechanism, coverage), selective risk) pairs; a
    SelclsError or OSError gives a failed record and no rows."""
    method = objective.kind
    name = grid_cell_name(method, coverage, seed)
    cell = {"method": method, "coverage": coverage, "seed": seed,
            "name": name, "status": "ok", "checkpoint": "", "error": ""}
    eval_covs = cfg.grid.coverages if coverage is None else [coverage]
    try:
        path = str(cells_dir / f"{name}.checkpoint.json")
        net = run_cell(cfg, objective, seed, splits, path,
                       cells_dir / f"{name}.report.csv", config_hash)
        cell["checkpoint"] = path
        _, val_ds, test_ds, _ = splits
        _, results = evaluate_mechanisms(
            net, val_ds, test_ds,
            [k for k in cfg.grid.mechanisms
             if mechanism_compatible(k, net.head)],
            eval_covs, cfg.evaluation.calibration_split)
    except (SelclsError, OSError) as exc:
        cell["status"] = "failed"
        cell["error"] = f"{type(exc).__name__}: {exc}"
        return cell, []
    return cell, [((method, kind, float(c)), point.selective_risk)
                  for kind, (_, points) in results.items()
                  for c, point in zip(eval_covs, points)]


def keep_freed_memory() -> None:
    """Make this process, and the workers it forks, keep freed heap memory
    (glibc ``mallopt``): blocks below 32 MiB come from the heap and up to
    64 MiB of free heap stays mapped. ``main`` calls it before it runs any
    command. Without it, the buffers of every whole-split forward and
    every ``train()`` workspace are unmapped when freed and faulted in
    again by the next cell or file: the forked workers of one grid-ref
    round took about 74k minor page faults at glibc's defaults and about
    4.3k with this, and one eval-sweep round (six ``selcls eval`` calls in
    one process) about 4,550 and under 10. Does nothing where the C
    library has no ``mallopt``."""
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # not glibc, or no libc
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD of glibc's malloc.h
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


# (task list, index of the first task that a bug stopped) of the pooled
# grid that is running; its forked workers inherit it, so a task crosses
# the pipe as its index alone
_pooled_grid = None


def _run_task(i: int):
    """``grid_cell(*task)`` for task ``i`` of the running pooled grid, run in
    a worker; None, without running it, once a bug in an earlier task has
    stopped the grid."""
    tasks, first_bug = _pooled_grid
    if i > first_bug.value:
        return None
    try:
        return grid_cell(*tasks[i])
    except BaseException:  # a bug: grid_cell records the expected errors
        with first_bug.get_lock():
            first_bug.value = min(first_bug.value, i)
        raise


def map_grid_cells(tasks):
    """Yield ``grid_cell(*task)`` for each task, in task order, computed in
    one forked worker per usable CPU and task, or in this process when
    that makes one worker. Where ``os.sched_getaffinity`` is missing (macOS,
    Windows; Windows has no fork either) that is taken as one CPU. A
    one-worker pool would be slower: on one CPU of a 2-core VM its
    grid-ref rounds took 12-19% longer in the median than in-process ones,
    and longer in 30 of 36 alternating pairs.

    A worker receives only a task's index: it inherits the task list, and
    with it the configs and the splits, through fork, so no dataset is
    pickled. A cell that raises anything but a SelclsError or OSError
    notes its index in a shared value that the workers also inherit, and
    every later cell that has not started yet then returns at once. At the
    first cell in task order that raised, a bug or a dead worker's
    BrokenProcessPool, the running cells are awaited, every later cell
    that ended without an exception is yielded, in task order, and then
    that cell's exception is raised."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") \
        else {0}
    workers = min(len(cpus), len(tasks))
    if workers < 2:
        yield from map(grid_cell, *zip(*tasks))
        return
    # imported here: `import selcls.cli` stays as cheap as it was
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    global _pooled_grid
    # fork: the workers inherit the loaded modules instead of importing
    # numpy and selcls again, and they inherit _pooled_grid
    context = multiprocessing.get_context("fork")
    _pooled_grid = tasks, context.Value("i", len(tasks))
    pool = ProcessPoolExecutor(workers, mp_context=context)
    try:
        futures = [pool.submit(_run_task, i) for i in range(len(tasks))]
        for i, future in enumerate(futures):
            try:
                yield future.result()
            except Exception:  # a bug, or a dead worker's BrokenProcessPool
                pool.shutdown(cancel_futures=True)  # awaits the running cells
                yield from (f.result() for f in futures[i + 1:]
                            if not f.cancelled() and f.exception() is None
                            and f.result() is not None)
                raise
    finally:
        # no worker outlives the grid: after an exception the queued cells
        # are cancelled and the running ones awaited
        pool.shutdown(cancel_futures=True)
        _pooled_grid = None


def cmd_grid(args) -> int:
    """Train, save and evaluate every grid cell, then aggregate over seeds.

    Three-head selective models get one cell per (method, coverage, seed);
    everything else trains once per (method, seed) and is evaluated at all
    coverages. The cells run in one worker process per usable CPU (see
    ``map_grid_cells``), which receives only each cell's index and
    inherits the splits through fork, and their records and rows are
    collected in grid order, so the output does not depend on the number
    of CPUs. The workers inherit the freed-heap setting that ``main``
    makes before any command (``keep_freed_memory``), so a cell reuses
    the pages of the cells before it instead of faulting in fresh ones. A
    cell that fails in training, evaluation or writing its
    checkpoint or report (a SelclsError or an OSError) is recorded in the
    manifest, adds no results rows, and makes the grid exit 1; the other
    cells still run. Any other exception, a dead worker's
    BrokenProcessPool included, stops the grid and propagates; a bug in a
    cell also stops every later cell that has not started yet. results.csv
    and manifest.json are still written from every cell that ended,
    before or beside the failed one. A failed write of the grid's own
    results.csv or manifest.json ends the command with exit 2.
    """
    cfg = load_run_config(args.config)
    if cfg.grid is None:
        raise ConfigurationError("grid command needs a grid section")
    grid: GridConfig = cfg.grid
    outdir = resolve_outdir(cfg.output_dir, args.output)
    cells_dir = outdir / "cells"
    cells_dir.mkdir(exist_ok=True)
    h = cfg.hash()

    splits = {seed: build_splits(cfg, seed=seed) for seed in grid.seeds}
    tasks = []
    for method in grid.methods:
        base = replace(cfg.objective, kind=method)
        covs = grid.coverages if base.base_kind == "SelectiveNet" else [None]
        for coverage, seed in product(covs, grid.seeds):
            objective = base if coverage is None \
                else replace(base, c_target=float(coverage))
            tasks.append((cfg, objective, coverage, seed, splits[seed],
                          cells_dir, h))
    cells, rows = [], {}
    results_path = outdir / "results.csv"
    try:
        for cell, cell_rows in map_grid_cells(tasks):
            cells.append(cell)
            for key, risk in cell_rows:
                rows.setdefault(key, []).append(risk)
    finally:
        # written from the cells that ended, also when an unexpected
        # exception stops the grid
        write_csv(results_path, ["method", "mechanism", "coverage",
                                 "mean_risk", "sd_risk", "n_seeds"],
                  ([method, kind, fmt(c), *map(fmt, mean_sd(risks)),
                    len(risks)]
                   for (method, kind, c), risks in sorted(rows.items())),
                  f"config={h}")
        write_json(outdir / "manifest.json",
                   {"config_hash": h, "cells": cells, "results": "results.csv"})
    n_failed = sum(1 for c in cells if c["status"] != "ok")
    print(f"grid: {len(cells)} cells trained, {n_failed} failed; results "
          f"at {results_path}")
    return 1 if n_failed else 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selcls",
        description="selective classification: train, calibrate, evaluate")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("-c", "--config", required=True,
                       help="path to the run config JSON")
        p.add_argument("-o", "--output", default=None,
                       help="output directory (overrides config; relative "
                            f"paths resolve under ${OUTPUT_ROOT_ENV})")

    p_train = sub.add_parser("train", help="train one model")
    add_common(p_train)
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    add_common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--force", action="store_true",
                        help="evaluate despite a config hash mismatch")
    p_eval.set_defaults(fn=cmd_eval)

    p_grad = sub.add_parser("gradcheck",
                            help="finite-difference gradient verification")
    p_grad.add_argument("--cases", type=int, default=20)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(fn=cmd_gradcheck)

    p_grid = sub.add_parser("grid", help="run the method-comparison grid")
    add_common(p_grid)
    p_grid.set_defaults(fn=cmd_grid)
    return parser


def main(argv=None) -> int:
    """Run one command; its errors become the exit codes of the module
    docstring, each with one line on stderr. Every command keeps freed heap
    memory (``keep_freed_memory``), and runs with numpy's overflow and
    invalid-value warnings off: an overflow becomes inf, and inf times 0
    nan, which the finite checks turn into the one ``numeric fault:``
    line (or a failed grid cell) with no warning before it."""
    args = make_parser().parse_args(argv)
    keep_freed_memory()
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    except NumericFault as exc:
        print(f"numeric fault: {exc}", file=sys.stderr)
        return 3
    except (SelclsError, MemoryError) as exc:  # too large a network, say
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a file that cannot be read or written
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
