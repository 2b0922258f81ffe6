"""The three workloads, driven through selcls's public API and CLI.

Each workload has
  setup()      one set-up unit (config load, data generation, and for
               eval-sweep the checkpoints); repeatable, the last one counts
  clear()      removes the previous round's outputs, outside the timing
  run_round()  the timed operations; counts attempted and failed ones
  check(first) compares the round's outputs with the references in
               ``oracle``; later rounds must also repeat the first exactly

selcls functions are looked up through their modules at call time
(``training.train``, ``cli.main``), so a traced run sees these calls too.
"""

import contextlib
import copy
import hashlib
import io
import json
import os
import shutil
import time
from dataclasses import replace

import numpy as np

from selcls import cli, config, datasets, nn, training
from selcls.errors import SelclsError

import checks
import oracle

CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")
BASE_CONFIG = os.path.join(CONFIGS, "blobs8.json")
GRID_CONFIG = os.path.join(CONFIGS, "grid_ref.json")
OBJECTIVES = ("CE", "CE+EM", "DG", "DG+EM", "SAT", "SAT+EM",
              "SelectiveNet", "SelectiveNet+EM")
BASE_KINDS = ("CE", "DG", "SAT", "SelectiveNet")
GRID_SEEDS_PER_RUN = 3
# eval-sweep checkpoints: one per head layout, named by the objective
# that trains it
EVAL_HEADS = (("plain", "CE"), ("abstain", "DG"),
              ("selectivenet", "SelectiveNet"))
CALIBRATION_SPLITS = ("val", "test")


def run_cli(argv):
    """selcls.cli.main with its console output captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(argv)
    return code, out.getvalue()


def tree_files(root):
    for dirpath, _, names in os.walk(root):
        for name in sorted(names):
            yield os.path.join(dirpath, name)


def tree_bytes(root) -> int:
    return sum(os.path.getsize(p) for p in tree_files(root))


def tree_digest(root) -> str:
    h = hashlib.sha256()
    for path in sorted(tree_files(root)):
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def objective_run(cfg, kind: str, seed: int):
    """The training config for one objective and the head it needs."""
    objective = replace(cfg.objective, kind=kind)
    tcfg = replace(cfg.training, seed=seed, objective=objective)
    return tcfg, objective.required_head()


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.bytes_written = 0
        self.errors = []

    def clear(self) -> None:
        pass


class TrainSingle(Workload):
    """train() for each of the 8 objectives on one seed, nothing on disk."""

    name = "train-single"

    def setup(self) -> None:
        self.cfg = config.load_run_config(BASE_CONFIG)
        self.train_ds, self.val_ds, self.test_ds, self.n_classes = \
            cli.build_splits(self.cfg, seed=self.seed)
        self.first_params = None

    def run_round(self) -> None:
        self.nets, self.epoch_s = {}, {}
        for kind in OBJECTIVES:
            tcfg, head = objective_run(self.cfg, kind, self.seed)
            net = nn.build_network(self.train_ds.dim,
                                   tuple(self.cfg.model.hidden_dims),
                                   self.n_classes, head, seed=self.seed)
            self.attempted += 1
            start = time.perf_counter()
            try:
                training.train(net, self.train_ds, self.val_ds, tcfg)
            except SelclsError as exc:
                self.failed += 1
                self.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
                continue
            self.epoch_s[kind] = (time.perf_counter() - start) / tcfg.epochs
            self.nets[kind] = net

    def check(self, first: bool) -> None:
        params = {k: oracle.flat_parameters(net) for k, net in self.nets.items()}
        if first:
            self.first_params = params
            post = oracle.blobs8_posterior(self.test_ds.features)
            labels = self.test_ds.labels
            oracle_acc = float(np.mean(post.argmax(axis=1) == labels))
            for kind, net in self.nets.items():
                probs = oracle.class_probabilities(net, self.test_ds.features)
                acc = float(np.mean(probs.argmax(axis=1) == labels))
                checks.check_accuracy(kind, acc, oracle_acc, labels.size)
            return
        for kind, p in params.items():
            if kind in self.first_params:
                checks.check_same_parameters(kind, self.first_params[kind], p)


class GridRef(Workload):
    """`selcls grid` on the checked-in reference grid config."""

    name = "grid-ref"

    def setup(self) -> None:
        with open(GRID_CONFIG) as f:
            doc = json.load(f)
        doc["grid"]["seeds"] = [GRID_SEEDS_PER_RUN * self.seed + i
                                for i in range(GRID_SEEDS_PER_RUN)]
        self.grid = doc["grid"]
        self.config_path = os.path.join(self.workdir, "grid_ref.json")
        with open(self.config_path, "w") as f:
            json.dump(doc, f, indent=2)
        cfg = config.load_run_config(self.config_path)
        self.splits = {s: cli.build_splits(cfg, seed=s) for s in self.grid["seeds"]}
        self.outdir = os.path.join(self.workdir, "grid")
        self.floor = None
        self.first_digest = None

    def clear(self) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)

    def run_round(self) -> None:
        self.exit_code, self.output = run_cli(
            ["grid", "-c", self.config_path, "-o", self.outdir])
        manifest_path = os.path.join(self.outdir, "manifest.json")
        self.manifest = {}
        if os.path.exists(manifest_path):
            with open(manifest_path) as f:
                self.manifest = json.load(f)
        cells = self.manifest.get("cells", [])
        expected = checks.expected_cell_count(self.grid)
        ok = sum(1 for c in cells if c.get("status") == "ok")
        self.attempted += expected
        self.failed += max(0, expected - ok)
        self.errors.extend(f"{c.get('name')}: {c.get('error')}" for c in cells
                           if c.get("status") != "ok")
        self.bytes_written = tree_bytes(self.outdir)

    def risk_floor(self) -> dict:
        """Per coverage: the oracle's mean risk over the grid's seeds, at the
        lowest coverage val calibration may reach, minus sampling slack."""
        floor = {}
        for c in self.grid["coverages"]:
            risks, n_selected = [], 0.0
            for _, val_ds, test_ds, _ in self.splits.values():
                n = len(test_ds.labels)
                low = c - checks.coverage_tolerance(c, len(val_ds.labels), n)
                post = oracle.blobs8_posterior(test_ds.features)
                risks.append(oracle.oracle_risk(post, test_ds.labels, low))
                n_selected += c * n
            r = float(np.mean(risks))
            floor[float(c)] = r - checks.Z * np.sqrt(2 * r * (1 - r) / n_selected)
        return floor

    def check(self, first: bool) -> None:
        if self.floor is None:
            self.floor = self.risk_floor()
        results = os.path.join(self.outdir, "results.csv")
        rows = checks.read_csv(results)[1] if os.path.exists(results) else []
        digest = tree_digest(self.outdir)
        if first:
            self.first_digest = digest
        checks.check_grid(self.exit_code, self.manifest, rows, self.grid,
                          self.floor)
        checks.require(digest == self.first_digest,
                       "grid outputs differ from the first round's")


class EvalSweep(Workload):
    """`selcls eval` on three checkpoints, both calibration splits, every
    mechanism compatible with each head."""

    name = "eval-sweep"

    def setup(self) -> None:
        with open(BASE_CONFIG) as f:
            base = json.load(f)
        cfg = config.load_run_config(BASE_CONFIG)
        train_ds, val_ds, self.test_ds, n_classes = \
            cli.build_splits(cfg, seed=self.seed)
        self.n_val = len(val_ds.labels)
        self.coverage_grid = [float(c) for c in cfg.evaluation.coverage_grid]
        self.calls = []
        for head, kind in EVAL_HEADS:
            tcfg, head_kind = objective_run(cfg, kind, self.seed)
            net = nn.build_network(train_ds.dim, tuple(cfg.model.hidden_dims),
                                   n_classes, head_kind, seed=self.seed)
            training.train(net, train_ds, val_ds, tcfg)
            checkpoint = os.path.join(self.workdir, f"{head}.checkpoint.json")
            nn.save_checkpoint(net, checkpoint)
            mechanisms = list(checks.COMPATIBLE[kind])
            for split in CALIBRATION_SPLITS:
                doc = copy.deepcopy(base)
                doc["objective"]["kind"] = kind
                doc["training"]["seed"] = self.seed
                doc["evaluation"].update(mechanisms=mechanisms,
                                         calibration_split=split)
                path = os.path.join(self.workdir, f"eval_{head}_{split}.json")
                with open(path, "w") as f:
                    json.dump(doc, f, indent=2)
                self.calls.append({
                    "label": f"{head}/{split}", "split": split,
                    "config": path, "checkpoint": checkpoint,
                    "mechanisms": mechanisms,
                    "outdir": os.path.join(self.workdir, f"out_{head}_{split}")})
        self.first_digest = None

    def clear(self) -> None:
        for call in self.calls:
            shutil.rmtree(call["outdir"], ignore_errors=True)

    def run_round(self) -> None:
        for call in self.calls:
            call["exit_code"], call["output"] = run_cli(
                ["eval", "-c", call["config"], "--checkpoint",
                 call["checkpoint"], "-o", call["outdir"]])
            self.attempted += 1
            if call["exit_code"] != 0:
                self.failed += 1
                self.errors.append(f"{call['label']}: {call['output'].strip()}")
        self.bytes_written = sum(tree_bytes(c["outdir"]) for c in self.calls)

    def check_call(self, call) -> None:
        out = os.path.join(call["outdir"], "eval")
        net, _ = nn.load_checkpoint(call["checkpoint"])
        probs = oracle.class_probabilities(net, self.test_ds.features)
        for mech in call["mechanisms"]:
            label = f"{call['label']}/{mech}"
            _, curve = checks.read_csv(os.path.join(out, f"curve_{mech}.csv"))
            _, scores = checks.read_csv(os.path.join(out, f"scores_{mech}.csv"))
            comments, hist = checks.read_csv(
                os.path.join(out, f"histogram_{mech}.csv"))
            targets = [float(r["target_coverage"]) for r in curve]
            checks.require(targets == self.coverage_grid,
                           f"{label}: curve targets {targets}")
            if call["split"] == "test":
                checks.check_exact_curve(curve, scores, label)
            else:
                checks.check_threshold_curve(curve, scores, self.n_val, label)
            checks.check_histogram(comments, hist, scores, label)
            if mech == "softmax_response":
                checks.check_softmax_scores(scores, probs, self.test_ds.labels,
                                            label)

    def check(self, first: bool) -> None:
        done = [c for c in self.calls if c["exit_code"] == 0]
        digest = "".join(tree_digest(c["outdir"]) for c in done)
        if first:
            self.first_digest = digest
            for call in done:
                self.check_call(call)
        checks.require(digest == self.first_digest,
                       "eval outputs differ from the first round's")


WORKLOADS = {w.name: w for w in (TrainSingle, GridRef, EvalSweep)}


def small_split(ds, n: int):
    return datasets.Dataset(features=ds.features[:n], labels=ds.labels[:n])
