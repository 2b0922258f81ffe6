"""selcls benchmark: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a selcls checkout; the program is imported from its
src/ directory. Workloads: train-single, grid-ref, eval-sweep (see
README.md). With --trace 0 the run sets up, then repeats whole rounds of the
workload for S seconds and reports the end-to-end metrics. With --trace 1 it
runs one round of every workload untraced and one traced, and reports the
per-layer metrics. The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread. On two cores OpenBLAS's default threading nearly doubles
# the CPU time of training for under 10% less wall time, and ties the
# timings to whatever else runs on the second core. Must be set before
# numpy loads OpenBLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
CALLS_PER_STEP_ROWS = 640


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("train-single", "grid-ref", "eval-sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("need --seed >= 0 and --seconds > 0")
    return args


class Status:
    """Correctness of a run: every failed check, one message each."""

    def __init__(self):
        self.problems = []

    def check(self, wl, first: bool) -> None:
        import checks
        try:
            wl.check(first)
        except checks.CheckFailed as exc:
            self.problems.append(f"{wl.name}: {exc}")
            print(f"CHECK FAILED {wl.name}: {exc}", file=sys.stderr)


def timed_round(wl):
    wl.clear()
    c0, t0 = time.process_time(), time.perf_counter()
    wl.run_round()
    return time.perf_counter() - t0, time.process_time() - c0


def metric(value, unit):
    return {"value": value, "unit": unit}


def children_cpu():
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def startup_seconds(src):
    """Median CPU time of a fresh interpreter that imports what this run
    imports: start-up and imports cannot be repeated inside one process."""
    code = f"import sys; sys.path[:0] = [{src!r}, {HERE!r}]; import workloads"
    times = []
    for _ in range(IMPORT_REPEATS):
        start = children_cpu()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(children_cpu() - start)
    return statistics.median(times)


def end_to_end(args, workdir, src):
    """Set-up CPU time, and median round times scaled to the reference
    machine speed by the median of probe runs made around them (see
    probe.py). Set-up counts CPU, not wall, time: on this shared VM the
    wall time of a fresh interpreter varied about three times as much as
    its CPU time, the difference being time spent waiting on the host."""
    from probe import REFERENCE_S, probe
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, workdir)
    probes = [probe()]
    units = []
    for _ in range(SETUP_REPEATS):
        start = time.process_time()
        wl.setup()
        units.append(time.process_time() - start)
    setup_raw = startup_seconds(src) + statistics.median(units)
    probes.append(probe())

    status, walls, cpus = Status(), [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        wall, cpu = timed_round(wl)
        walls.append(wall)
        cpus.append(cpu)
        probes.append(probe())
        status.check(wl, first=len(walls) == 1)
    probe_wall = statistics.median(p[0] for p in probes)
    probe_cpu = statistics.median(p[1] for p in probes)
    print(f"{wl.name}: set-up {setup_raw:.4f} s (units "
          f"{[round(u, 4) for u in units]}); {len(walls)} rounds, wall "
          f"{[round(w, 4) for w in walls]}; probe median {probe_wall:.5f} s, "
          f"reference {REFERENCE_S} s")
    for err in wl.errors[:5]:
        print(f"failed: {err}", file=sys.stderr)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return status, wl.attempted, wl.failed, {
        "setup_s": metric(setup_raw, "s"),
        "wall_s": metric(statistics.median(walls) * REFERENCE_S / probe_wall,
                         "s"),
        "cpu_s": metric(statistics.median(cpus) * REFERENCE_S / probe_cpu, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def calls_per_step(ts):
    """Per base objective: calls in one step of a short train() under a
    profile hook. SAT trains one plain epoch, then one adaptive epoch."""
    from selcls import nn, training

    import tracer
    from workloads import BASE_KINDS, objective_run, small_split

    train_ds = small_split(ts.train_ds, CALLS_PER_STEP_ROWS)
    val_ds = small_split(ts.val_ds, CALLS_PER_STEP_ROWS)
    out = {}
    for kind in BASE_KINDS:
        tcfg, head = objective_run(ts.cfg, kind, ts.seed)
        tcfg.epochs = 2
        net = nn.build_network(train_ds.dim, tuple(ts.cfg.model.hidden_dims),
                               ts.n_classes, head, seed=ts.seed)
        counts = tracer.count_calls_per_step(
            lambda: training.train(net, train_ds, val_ds, tcfg),
            nn.network_forward, training.train,
            CALLS_PER_STEP_ROWS // tcfg.batch_size)
        if counts and len(set(counts)) > 1:
            print(f"calls per step vary for {kind}: {counts}", file=sys.stderr)
        out[kind] = statistics.median(counts) if counts else None
    return out


def per_layer(ix, epoch_s, steps, bytes_written, overhead_s):
    from workloads import BASE_KINDS

    m = {}

    def put(name, unit, value):
        m[name] = (value, unit)

    def median(name, unit, label, variant=None):
        scale = {"s": 1.0, "ms": 1e3, "us": 1e6}[unit]
        put(name, unit, ix.median(label, variant, scale))

    median("datasets.generate_mixture_ms", "ms", "datasets.generate_mixture")
    median("config.load_run_config_ms", "ms", "config.load_run_config")
    median("nn.network_forward.batch_us", "us", "nn.network_forward", "batch")
    median("nn.network_forward.full_ms", "ms", "nn.network_forward", "full")
    epochs = ix.train_epochs()
    in_train = len(ix.children("nn.network_forward", "training.train"))
    put("nn.network_forward.calls_per_epoch", "count",
        in_train / epochs if epochs and in_train else None)
    median("nn.network_backward_us", "us", "nn.network_backward")
    median("nn.save_checkpoint_ms", "ms", "nn.save_checkpoint")
    median("nn.load_checkpoint_ms", "ms", "nn.load_checkpoint")
    put("nn.checkpoint_bytes", "bytes", ix.median_after("nn.save_checkpoint"))
    for kind in BASE_KINDS:
        median(f"objectives.objective_dispatch_us.{kind}", "us",
               "objectives.objective_dispatch", kind)
    median("objectives.sat_update_targets_us", "us",
           "objectives.sat_update_targets")
    median("training.sgd_momentum_step_us", "us", "training.sgd_momentum_step")
    self_s = sum(r[3] - r[2] - r[5] for r in ix.select("training.train"))
    put("training.train.self_ms_per_epoch", "ms",
        self_s / epochs * 1e3 if epochs else None)
    for kind in BASE_KINDS:
        put(f"training.calls_per_step.{kind}", "count", steps.get(kind))
    for kind in BASE_KINDS:
        family = [s for k, s in epoch_s.items() if k.removesuffix("+EM") == kind]
        put(f"training.epoch_ms.{kind}", "ms",
            statistics.median(family) * 1e3 if family else None)
    median("training.train_method_grid_s", "s", "training.train_method_grid")
    for mech in ("softmax_response", "negative_entropy", "abstention_logit",
                 "selection_head"):
        median(f"selection.score_batch_us.{mech}", "us", "selection.score_batch",
               mech)
    median("selection.scores_to_csv_ms", "ms", "selection.scores_to_csv")
    median("calibration.fit_threshold_us", "us", "calibration.fit_threshold")
    median("calibration.apply_selector_us", "us", "calibration.apply_selector")
    median("evaluation.risk_coverage_curve_ms", "ms",
           "evaluation.risk_coverage_curve")
    median("evaluation.score_histogram_us", "us", "evaluation.score_histogram")
    median("evaluation.curve_to_csv_ms", "ms", "evaluation.curve_to_csv")
    median("evaluation.histogram_to_csv_ms", "ms", "evaluation.histogram_to_csv")
    median("cli.evaluate_mechanisms_ms", "ms", "cli.evaluate_mechanisms")
    outside = ix.time_outside("cli.cmd_grid", "training.train_method_grid")
    put("cli.grid_eval_s", "s", statistics.median(outside) if outside else None)
    put("cli.bytes_written", "bytes", bytes_written)
    put("trace.overhead_s", "s", overhead_s)
    return m


def traced(args, workdir):
    """One untraced and one traced round of every workload."""
    import selcls

    import tracer
    from workloads import WORKLOADS

    wls = [cls(args.seed, os.path.join(workdir, name))
           for name, cls in WORKLOADS.items()]
    for wl in wls:
        wl.setup()
    status = Status()
    untraced_s = 0.0
    for wl in wls:
        untraced_s += timed_round(wl)[0]
        status.check(wl, first=True)
    ts = wls[0]
    epoch_s = dict(ts.epoch_s)

    tr = tracer.Tracer()
    tr.install(selcls)
    try:
        traced_s = 0.0
        for wl in wls:
            traced_s += timed_round(wl)[0]
    finally:
        tr.uninstall()
    for wl in wls:
        status.check(wl, first=False)
    tr.write_spans(os.path.join(workdir, "spans.tsv"))

    ix = tracer.SpanIndex(tr.spans)
    bytes_written = sum(wl.bytes_written for wl in wls)
    m = per_layer(ix, epoch_s, calls_per_step(ts), bytes_written,
                  traced_s - untraced_s)
    absent = sorted(name for name, (value, _) in m.items() if value is None)
    if absent:
        print(f"absent (reported as 0): {', '.join(absent)}")
    print(f"traced: {len(tr.spans)} spans, untraced {untraced_s:.3f} s, "
          f"traced {traced_s:.3f} s")
    metrics = {name: metric(0 if value is None else value, unit)
               for name, (value, unit) in m.items()}
    return (status, sum(wl.attempted for wl in wls),
            sum(wl.failed for wl in wls), metrics)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "selcls", "__init__.py")):
        print("perfbench: no src/selcls here; run from the root of a selcls "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads  # noqa: F401 - numpy and selcls load here

    workdir = os.path.join(HERE, "runs", f"{args.workload}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    if args.trace:
        status, attempted, failed, metrics = traced(args, workdir)
    else:
        status, attempted, failed, metrics = end_to_end(args, workdir, src)
    print(json.dumps({"correct": not status.problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
