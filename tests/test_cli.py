import base64
import copy
import ctypes
import errno
import functools
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import time
import types
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from selcls import cli, datasets, gradcheck, training
from selcls.cli import main
from selcls.config import (
    DatasetConfig,
    EvalConfig,
    GridConfig,
    ModelConfig,
    RunConfig,
    load_run_config,
)
from selcls.datasets import MixtureSpec, blobs8
from selcls.errors import ConfigurationError
from selcls.evaluation import RiskCoveragePoint
from selcls.nn import (
    load_checkpoint,
    network_forward,
    network_outputs,
    save_checkpoint,
    softmax,
)
from selcls.objectives import (
    OBJECTIVE_KINDS,
    ObjectiveConfig,
    objective_dispatch,
)
from selcls.training import TrainConfig
from selcls.util import derive_seed, rng_for

from conftest import fail_writes

CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs, so that a grid of two or more cells runs its cells
    in worker processes also on a one-CPU machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def attempted(attempts_dir) -> list:
    """The names of the files that patched functions touched in
    ``attempts_dir``: worker processes share no memory with the test, but
    they share its files."""
    return sorted(p.name for p in attempts_dir.iterdir())


RUN_TASK = cli._run_task


def run_task_0_after_task_1(task_1_ended, i):
    """``cli._run_task`` in a worker, except that task 0 starts only once
    task 1 has ended and touched the file ``task_1_ended``."""
    if i == 0:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and not os.path.exists(
                task_1_ended):
            time.sleep(0.01)
    try:
        return RUN_TASK(i)
    finally:
        if i == 1:
            Path(task_1_ended).touch()


def base_config(tmp_path, _name="config.json", **overrides):
    doc = {
        "dataset": {"kind": "mixture", "preset": "blobs8",
                    "n_train": 240, "n_val": 120, "n_test": 160},
        "model": {"hidden_dims": [8]},
        "objective": {"kind": "CE"},
        "training": {"epochs": 2, "batch_size": 32, "seed": 0},
        "evaluation": {"mechanisms": ["softmax_response"],
                       "coverage_grid": [1.0, 0.5], "histogram_bins": 4},
        "output_dir": str(tmp_path / "run"),
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in doc:
            doc[key].update(value)
        else:
            doc[key] = value
    path = tmp_path / _name
    path.write_text(json.dumps(doc))
    return path, doc


# one config range error per key: (sections to override, the error)
RANGE_ERRORS = [
    ({"objective": {"kind": "CE+XX"}},
     f"objective.kind must be one of {OBJECTIVE_KINDS}, got 'CE+XX'"),
    ({"objective": {"kind": "SelectiveNet", "lambda": -1}},
     "objective.lambda must be >= 0"),
    ({"objective": {"kind": "SelectiveNet", "alpha_mix": 1.5}},
     "objective.alpha_mix must lie in [0, 1]"),
    ({"objective": {"kind": "SelectiveNet", "c_target": 0}},
     "objective.c_target must lie in (0, 1]"),
    ({"objective": {"kind": "SAT", "sat_momentum": 0}},
     "objective.sat_momentum must lie in (0, 1]"),
    ({"objective": {"kind": "SAT", "sat_pretrain_epochs": -1}},
     "objective.sat_pretrain_epochs must be >= 0"),
    ({"objective": {"kind": "CE+EM", "beta": 0}},
     "objective.beta must be > 0 for +EM objectives"),
    ({"objective": {"beta": -1}}, "objective.beta must be >= 0"),
    ({"training": {"epochs": -1}}, "training.epochs must be >= 0"),
    ({"training": {"batch_size": 0}}, "training.batch_size must be >= 1"),
    ({"training": {"lr0": 0}}, "training.lr0 must be positive"),
    ({"training": {"momentum": 1}},
     "training.momentum must lie in [0, 1)"),
    ({"training": {"decay_every": 0}},
     "training.decay_every must be >= 1"),
    ({"training": {"decay_factor": 0}},
     "training.decay_factor must be > 0"),
    ({"training": {"weight_decay": -1}},
     "training.weight_decay must be >= 0"),
    ({"model": {"hidden_dims": [8, 0]}},
     "model.hidden_dims must hold widths >= 1"),
    ({"evaluation": {"coverage_grid": [1.5]}},
     "evaluation.coverage_grid must lie in (0, 1]"),
    ({"evaluation": {"histogram_bins": 1}},
     "evaluation.histogram_bins must be >= 2"),
    ({"grid": {"coverages": [0]}}, "grid.coverages must lie in (0, 1]"),
]


class TestTrainCommand:
    def test_minimal_config_succeeds(self, tmp_path):
        cfg_path, doc = base_config(tmp_path)
        assert main(["train", "-c", str(cfg_path)]) == 0
        outdir = Path(doc["output_dir"])
        assert (outdir / "checkpoint.json").exists()
        assert (outdir / "train_report.csv").exists()
        assert (outdir / "manifest.json").exists()

    def test_inadmissible_payoff_exits_2_naming_constraint(self, tmp_path, capsys):
        cfg_path, _ = base_config(
            tmp_path, objective={"kind": "DG", "o": 0.5})
        assert main(["train", "-c", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "1 < o <= C" in err

    def test_payoff_above_c_exits_2_at_config_load(self, tmp_path, capsys,
                                                   monkeypatch):
        forwards = []

        def counted_forward(net, batch, ws=None):
            forwards.append(len(batch))
            return network_forward(net, batch, ws)

        monkeypatch.setattr(training, "network_forward", counted_forward)
        cfg_path, doc = base_config(
            tmp_path, dataset={"preset": None,
                               "means": [[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]]},
            objective={"kind": "DG", "o": 5.0})
        assert main(["train", "-c", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg_path}: objective.o: payoff o=5.0 violates "
            "1 < o <= C (C=3)\n")
        assert forwards == []
        assert not Path(doc["output_dir"]).exists()

    def test_unknown_key_exits_2_naming_key(self, tmp_path, capsys):
        cfg_path, _ = base_config(tmp_path, training={"epochs": 1,
                                                      "warmup": 3})
        assert main(["train", "-c", str(cfg_path)]) == 2
        assert "warmup" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("model", "head", "abstain"),
        ("training", "numeric_mode", "f32"),
        ("objective", "dg_limit_test", True),
        ("objective", "sat_update", "epoch"),
        ("objective", "coverage_penalty", "symmetric"),
        ("dataset", "n_classes", 8),
        ("dataset", "dim", 2),
        ("dataset", "path", "data.csv"),
        ("dataset", "fractions", [0.7, 0.15, 0.15]),
        ("dataset", "standardize", True),
    ])
    def test_removed_key_exits_2_naming_key(self, tmp_path, capsys,
                                            section, key, value):
        cfg_path, doc = base_config(tmp_path)
        doc[section][key] = value
        cfg_path.write_text(json.dumps(doc))
        assert main(["train", "-c", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"unknown key {key!r} in {section} section" in err

    @pytest.mark.parametrize("command, section, key, value", [
        ("train", "model", "hidden_dims", 5),
        ("train", "model", "hidden_dims", ["a"]),
        ("train", "training", "epochs", "3"),
        ("train", "objective", "beta", "x"),
        ("train", "evaluation", "coverage_grid", ["a"]),
        ("train", "dataset", "n_train", "5"),
        ("grid", "grid", "seeds", 5),
        ("train", "training", "weight_decay", "0.1"),
        # json reads NaN, Infinity and integers beyond the float range; no
        # config float may be any of them
        ("train", "training", "lr0", float("nan")),
        ("train", "training", "weight_decay", float("inf")),
        ("train", "dataset", "variances", [float("nan")] + [1] * 7),
        ("train", "dataset", "priors", [float("nan")] + [0.125] * 7),
        ("train", "objective", "o", float("nan")),
        ("train", "objective", "lambda", float("-inf")),
        pytest.param("train", "objective", "o", 10 ** 400,
                     id="train-objective-o-1e400"),
    ])
    def test_mistyped_value_exits_2_naming_file_and_key(
            self, tmp_path, capsys, command, section, key, value):
        cfg_path, doc = base_config(tmp_path, grid={})
        doc[section][key] = value
        cfg_path.write_text(json.dumps(doc))
        assert main([command, "-c", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg_path}: {section}.{key} must be ")
        assert err.endswith(f", got {json.dumps(value)}\n")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("dataset", [
        {"kind": "csv"},
        {"kind": "csv", "path": "data.csv", "fractions": [0.7, 0.15, 0.15]},
    ], ids=["kind", "with-csv-keys"])
    def test_csv_dataset_kind_exits_2_naming_key(self, tmp_path, capsys,
                                                 dataset):
        cfg_path, doc = base_config(tmp_path)
        doc["dataset"] = dataset
        cfg_path.write_text(json.dumps(doc))
        assert main(["train", "-c", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg_path}: dataset.kind must be 'mixture', got "
            '"csv"\n')

    def test_unknown_top_level_key(self, tmp_path, capsys):
        cfg_path, _ = base_config(tmp_path, extra_section={"x": 1})
        assert main(["train", "-c", str(cfg_path)]) == 2
        assert "extra_section" in capsys.readouterr().err

    def test_divergence_exits_3(self, tmp_path):
        cfg_path, _ = base_config(tmp_path, training={"epochs": 2,
                                                      "lr0": 1e9, "seed": 0})
        assert main(["train", "-c", str(cfg_path)]) == 3

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["train", "-c", str(tmp_path / "nope.json")]) == 2

    def test_deeply_nested_config_exits_2_naming_file(self, tmp_path,
                                                      capsys):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["train", "-c", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: JSON nested too deeply\n")

    # sizes that no numpy array can hold, which numpy would refuse with a
    # ValueError or an OverflowError, not a MemoryError
    TOO_LARGE_FOR_NUMPY = [
        ("dataset", "n_train", 2 ** 60), ("dataset", "n_train", 2 ** 63),
        ("dataset", "n_val", 2 ** 64), ("dataset", "n_test", 10 ** 19),
        ("model", "hidden_dims", [2 ** 31, 2 ** 31]),
        ("model", "hidden_dims", [2 ** 62]),
        # 2**60 - 2: np.linspace rounds its float count to 2**60
        ("evaluation", "histogram_bins", 2 ** 62),
        ("evaluation", "histogram_bins", 1152921504606846974),
    ]

    @pytest.mark.parametrize("command, section, key, value", [
        ("train", "model", "hidden_dims", [10 ** 8, 10 ** 8]),
        ("grid", "model", "hidden_dims", [10 ** 8, 10 ** 8]),
        *[(command, *case) for case in TOO_LARGE_FOR_NUMPY
          for command in ("train", "grid")],
    ], ids=["train", "grid", *[f"{command}-{key}={value}".replace(" ", "")
                               for _, key, value in TOO_LARGE_FOR_NUMPY
                               for command in ("train", "grid")]])
    def test_network_too_large_to_allocate_exits_2(
            self, tmp_path, capsys, two_cpus, command, section, key, value):
        # [10**8, 10**8] makes 10**16 parameters, 71 PiB: more than the
        # address space holds, so the allocation fails at once. The grid
        # has two cells, so under two_cpus each fails in a worker process.
        # Larger sizes, and histogram bin counts that np.linspace cannot
        # lay out, are refused at config load, naming the key, before the
        # grid starts a cell or makes its output directory.
        cfg_path, doc = base_config(
            tmp_path, grid={"methods": ["CE"],
                            "mechanisms": ["softmax_response"],
                            "coverages": [0.5], "seeds": [0, 1]})
        doc[section][key] = value
        cfg_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main([command, "-c", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        if value == [10 ** 8, 10 ** 8]:
            assert err.startswith("error: ") and "allocate" in err
        else:
            assert err.startswith(f"error: {cfg_path}: {section}.{key} ")
            assert not Path(doc["output_dir"]).exists()

    @pytest.mark.parametrize("command", ["train", "grid"])
    def test_non_utf8_config_exits_2_naming_byte(self, tmp_path, capsys,
                                                 command):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"output_dir": "o\xff"}')
        assert main([command, "-c", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: not UTF-8 text at byte 17\n")

    @pytest.mark.parametrize("means", [[], [[0.0, 0.0], [1.0]]],
                             ids=["empty", "ragged"])
    def test_malformed_means_exits_2_naming_key(self, tmp_path, capsys,
                                                means):
        cfg_path, doc = base_config(tmp_path, dataset={"preset": None,
                                                       "means": means})
        assert main(["train", "-c", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg_path}: dataset.means must be a non-empty list of "
            "equal-length rows\n")
        assert not Path(doc["output_dir"]).exists()

    @pytest.mark.parametrize("key, value", [
        ("variances", [1.0, 1.0]),
        ("priors", [0.25, 0.25, 0.25, 0.25]),
    ])
    def test_wrong_length_exits_2_naming_key(self, tmp_path, capsys, key,
                                             value):
        cfg_path, doc = base_config(tmp_path, dataset={
            "means": [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], key: value})
        assert main(["train", "-c", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg_path}: dataset.{key} must list one value per "
            f"class (3), got {len(value)}\n")
        assert not Path(doc["output_dir"]).exists()

    @pytest.mark.parametrize("dataset, message", [
        ({"preset": None, "means": [[0, 0], [1, 1]], "priors": [0.5, 0.6]},
         "dataset.priors must be non-negative and sum to 1"),
        ({"label_noise": 0.7}, "dataset.label_noise must lie in [0, 0.5)"),
        ({"n_train": 0}, "dataset.n_train must be >= 1"),
    ], ids=["priors", "label_noise", "n_train"])
    def test_bad_mixture_exits_2_naming_key(self, tmp_path, capsys, dataset,
                                            message):
        cfg_path, doc = base_config(tmp_path, dataset=dataset)
        assert main(["train", "-c", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: {cfg_path}: {message}\n"
        assert not Path(doc["output_dir"]).exists()

    @pytest.mark.parametrize(
        "overrides, message", RANGE_ERRORS,
        ids=[message.split(" ")[0] for _, message in RANGE_ERRORS])
    def test_range_error_exits_2_naming_one_key(self, tmp_path, capsys,
                                                overrides, message):
        cfg_path, doc = base_config(tmp_path, **overrides)
        assert main(["train", "-c", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: {cfg_path}: {message}\n"
        assert not Path(doc["output_dir"]).exists()

    @pytest.mark.parametrize("command", ["train", "grid"])
    def test_overflowing_schedule_exits_2_naming_decay_factor(
            self, tmp_path, capsys, command):
        # the rate at epoch 2 is 1e-300 * 1e300 ** 2, and the power
        # overflows
        cfg_path, doc = base_config(
            tmp_path, training={"lr0": 1e-300, "decay_factor": 1e300,
                                "decay_every": 1, "epochs": 3},
            grid={"methods": ["CE", "DG"], "coverages": [0.5],
                  "seeds": [0, 1]})
        assert main([command, "-c", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg_path}: training.decay_factor 1e+300 makes the "
            "learning rate overflow within the training epochs\n")
        assert not Path(doc["output_dir"]).exists()

    # main turns numpy's overflow and invalid-value warnings off, so any
    # RuntimeWarning here is one the contract does not allow
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_numeric_keys_swept_to_extremes_never_trace_back(self, tmp_path,
                                                             capsys):
        # every numeric key that sizes no allocation or loop, under an
        # objective that reads it; each run exits by the contract
        kinds = {"beta": "CE+EM", "o": "DG", "lambda": "SelectiveNet",
                 "alpha_mix": "SelectiveNet", "c_target": "SelectiveNet",
                 "sat_momentum": "SAT", "sat_pretrain_epochs": "SAT"}
        runs = [{"training": {"lr0": 1e-300, "decay_factor": 1e300,
                              "decay_every": 1, "epochs": 3}}]
        for value in (0, -1, 1e308, 5e-324):
            runs += [{"training": {key: value}} for key in (
                "lr0", "momentum", "decay_factor", "decay_every", "seed",
                "weight_decay")]
            runs += [{"objective": {"kind": kind, key: value}}
                     for key, kind in kinds.items()]
            runs += [{"dataset": {"variances": [value] * 8}},
                     {"dataset": {"label_noise": value}}]
        outcomes = []
        for i, overrides in enumerate(runs):
            cfg_path, doc = base_config(
                tmp_path, f"config{i}.json",
                dataset={"n_train": 64, "n_val": 32, "n_test": 32},
                model={"hidden_dims": [4]},
                output_dir=str(tmp_path / f"run{i}"))
            for section, values in overrides.items():
                doc[section].update(values)
            cfg_path.write_text(json.dumps(doc))
            code = main(["train", "-c", str(cfg_path)])
            err = capsys.readouterr().err
            outcomes.append((overrides, code, "Traceback" in err))
        assert [o for o in outcomes if o[1] not in (0, 2, 3) or o[2]] == []
        assert {code for _, code, _ in outcomes} == {0, 2, 3}

    @pytest.mark.parametrize("command, code, stderr", [
        ("train", 3, "numeric fault: non-finite output at head 'logits'\n"),
        ("grid", 1, ""),
    ], ids=["train", "grid"])
    def test_overflow_prints_no_numpy_warning(self, tmp_path, command, code,
                                              stderr):
        # a fresh process, where numpy prints its first warning from each
        # line; grid cells fail in forked workers, which print to the same
        # stderr
        cfg_path, _ = base_config(
            tmp_path, dataset={"n_train": 64}, model={"hidden_dims": [4]},
            training={"lr0": 1e308},
            grid={"methods": ["CE", "DG", "SAT", "SelectiveNet"],
                  "coverages": [0.5], "seeds": [0, 1]})
        env = {**os.environ,
               "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "selcls.cli", command, "-c", str(cfg_path)],
            env=env, capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (code, stderr)

    def test_checked_in_config_fingerprints_are_pinned(self, tmp_path):
        doc = json.loads((CONFIGS / "blobs8.json").read_text())
        doc["training"]["epochs"] = 0
        cfg_path = tmp_path / "blobs8.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["train", "-c", str(cfg_path), "-o", str(tmp_path)]) == 0
        record = json.loads((tmp_path / "run_config.json").read_text())
        assert record["splits"] == {
            "train": {"n": 8000, "fingerprint": "85cb41477b4a9917"},
            "val": {"n": 2000, "fingerprint": "1d1a65ca58ef74cb"},
            "test": {"n": 4000, "fingerprint": "fbe082d3d327345b"},
        }


class TestEvalCommand:
    def train_one(self, tmp_path, **overrides):
        cfg_path, doc = base_config(tmp_path, **overrides)
        assert main(["train", "-c", str(cfg_path)]) == 0
        return cfg_path, Path(doc["output_dir"])

    def test_two_mechanisms_two_curves(self, tmp_path):
        cfg_path, outdir = self.train_one(
            tmp_path,
            objective={"kind": "SAT", "sat_pretrain_epochs": 1},
            evaluation={"mechanisms": ["abstention_logit",
                                       "softmax_response"],
                        "coverage_grid": [1.0, 0.5], "histogram_bins": 4})
        ckpt = outdir / "checkpoint.json"
        assert main(["eval", "-c", str(cfg_path),
                     "--checkpoint", str(ckpt)]) == 0
        assert (outdir / "eval" / "curve_abstention_logit.csv").exists()
        assert (outdir / "eval" / "curve_softmax_response.csv").exists()
        assert (outdir / "eval" / "histogram_softmax_response.csv").exists()

    def test_full_coverage_point_is_error_complement(self, tmp_path):
        cfg_path, outdir = self.train_one(tmp_path)
        ckpt = outdir / "checkpoint.json"
        assert main(["eval", "-c", str(cfg_path),
                     "--checkpoint", str(ckpt)]) == 0
        rows = [line.split(",") for line in
                (outdir / "eval" / "curve_softmax_response.csv")
                .read_text().splitlines() if not line.startswith("#")]
        header, first = rows[0], rows[1]
        assert first[header.index("target_coverage")] == "1.0"
        assert first[header.index("achieved_coverage")] == "1.0"
        # recompute test accuracy from the emitted per-sample scores file
        score_rows = [line.split(",") for line in
                      (outdir / "eval" / "scores_softmax_response.csv")
                      .read_text().splitlines()[2:]]
        correct = sum(1 for r in score_rows if r[2] == r[3])
        risk = float(first[header.index("selective_risk")])
        assert risk == 1.0 - correct / len(score_rows)

    def test_incompatible_mechanism_exits_2(self, tmp_path, capsys):
        cfg_path, outdir = self.train_one(tmp_path)
        bad_cfg, _ = base_config(
            tmp_path,
            evaluation={"mechanisms": ["abstention_logit"],
                        "coverage_grid": [1.0], "histogram_bins": 4})
        capsys.readouterr()
        assert main(["eval", "-c", str(bad_cfg), "--force",
                     "--checkpoint", str(outdir / "checkpoint.json")]) == 2
        assert capsys.readouterr().err == (
            "error: mechanism 'abstention_logit' is incompatible with a "
            "'plain' head\n")

    @pytest.mark.parametrize("damage", ["truncated", "no_head", "missing",
                                        "version_1", "bad_base64",
                                        "huge_architecture",
                                        "boolean_input_dim"])
    def test_malformed_checkpoint_exits_2_naming_path(self, tmp_path, capsys,
                                                      damage):
        cfg_path, outdir = self.train_one(tmp_path)
        ckpt = outdir / "checkpoint.json"
        doc = json.loads(ckpt.read_text())
        if damage == "truncated":
            ckpt.write_text(ckpt.read_text()[:100])
        elif damage == "no_head":
            del doc["head"]
            ckpt.write_text(json.dumps(doc))
        elif damage == "version_1":
            # a format-1 file: the same document with the parameters as a
            # list of JSON numbers
            net, _ = load_checkpoint(ckpt)
            doc.update(format_version=1, params=net.params.tolist())
            ckpt.write_text(json.dumps(doc))
        elif damage == "bad_base64":
            doc["params"] = doc["params"][:-1] + "*"
            ckpt.write_text(json.dumps(doc))
        elif damage == "boolean_input_dim":
            doc["input_dim"] = True
            ckpt.write_text(json.dumps(doc))
        elif damage == "huge_architecture":
            # 466 TiB of parameters stated, 8 bytes given: refused before
            # the stated network is allocated
            doc.update(input_dim=10 ** 12, hidden_dims=[64, 64], n_classes=8,
                       params=base64.b64encode(bytes(8)).decode("ascii"))
            ckpt.write_text(json.dumps(doc))
        else:
            ckpt.unlink()
        capsys.readouterr()
        assert main(["eval", "-c", str(cfg_path),
                     "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err
        if damage == "version_1":
            assert "unsupported format version 1" in err
        if damage == "boolean_input_dim":
            assert err == (f"error: checkpoint {ckpt}: 'input_dim' is missing "
                           "or not a int\n")
        if damage == "huge_architecture":
            n = 64 * (10 ** 12 + 1) + 64 * 65 + 8 * 65
            assert err == (f"error: checkpoint {ckpt} holds 8 parameter "
                           f"bytes, architecture wants {8 * n} ({n} float64 "
                           "values)\n")

    def test_deeply_nested_checkpoint_exits_2_naming_path(self, tmp_path,
                                                          capsys):
        cfg_path, _ = base_config(tmp_path)
        ckpt = tmp_path / "nested.checkpoint.json"
        ckpt.write_text("[" * 100_000 + "]" * 100_000)
        assert main(["eval", "-c", str(cfg_path),
                     "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint {ckpt} is not valid JSON")
        assert err.count("\n") == 1

    def test_hash_mismatch_refused_without_force(self, tmp_path):
        cfg_path, outdir = self.train_one(tmp_path)
        other_cfg, _ = base_config(tmp_path, training={"epochs": 3,
                                                       "seed": 0})
        ckpt = str(outdir / "checkpoint.json")
        assert main(["eval", "-c", str(other_cfg),
                     "--checkpoint", ckpt]) == 2
        assert main(["eval", "-c", str(other_cfg), "--force",
                     "--checkpoint", ckpt]) == 0

    @pytest.mark.parametrize("force", [[], ["--force"]])
    def test_checkpoint_of_another_mixture_exits_2_naming_both(
            self, tmp_path, capsys, force):
        small_cfg, _ = base_config(
            tmp_path, "small.json", output_dir=str(tmp_path / "small"),
            dataset={"preset": None, "means": [[0, 0], [3, 0], [0, 3]],
                     "n_train": 300, "n_val": 200, "n_test": 200},
            training={"epochs": 1},
            grid={"methods": ["CE"], "mechanisms": ["softmax_response"],
                  "coverages": [0.5], "seeds": [0]})
        assert main(["grid", "-c", str(small_cfg)]) == 0
        ckpt = tmp_path / "small" / "cells" / "CE_all_s0.checkpoint.json"
        blobs8_cfg, blobs8 = base_config(tmp_path)
        capsys.readouterr()
        assert main(["eval", "-c", str(blobs8_cfg), "--checkpoint", str(ckpt),
                     *force]) == 2
        assert capsys.readouterr().err == (
            f"error: checkpoint {ckpt} holds a network for 3 classes of 2-d "
            "inputs, the config's mixture has 8 classes of 2-d inputs\n")
        assert not Path(blobs8["output_dir"]).exists()

    def test_every_test_score_degenerate_writes_an_empty_histogram(
            self, tmp_path):
        # the abstain bias is raised until every test row, but not every
        # val row, has p(abstain) = 1.0: softmax_response scores every test
        # row -inf, the val calibration fits tau = -inf and the histogram
        # has nothing left to bin
        cfg_path, outdir = self.train_one(
            tmp_path, dataset={"n_val": 400, "n_test": 40},
            objective={"kind": "DG"}, training={"epochs": 1, "seed": 1})
        net, _ = load_checkpoint(outdir / "checkpoint.json")
        _, val_ds, test_ds, _ = cli.build_splits(load_run_config(cfg_path))

        def p_abstain(ds):
            return softmax(
                network_outputs(net, ds.features)["logits"])[0][:, -1]

        # p(abstain) = 1 / (1 + t) rounds to 1.0 once t < 2**-53, with t
        # the summed class mass relative to the abstain entry; the raise
        # keeps one more factor of 2 as a margin. The head is sharpened
        # first, so that some val rows keep a larger t than any test row
        head = net.heads["logits"]
        head.W *= 30.0
        head.b *= 30.0
        z = network_outputs(net, test_ds.features)["logits"]
        head.b[-1] += np.log(
            np.exp(z[:, :-1] - z[:, -1:]).sum(axis=1)).max() + 54 * np.log(2)
        assert np.all(p_abstain(test_ds) == 1.0)
        assert np.any(p_abstain(val_ds) < 1.0)
        ckpt = tmp_path / "saturated.checkpoint.json"
        save_checkpoint(net, ckpt)
        assert main(["eval", "-c", str(cfg_path), "--checkpoint",
                     str(ckpt)]) == 0
        h = load_run_config(cfg_path).hash()
        assert (outdir / "eval" / "histogram_softmax_response.csv") \
            .read_bytes() == (
                f"# config={h} mechanism=softmax_response dropped=40\n"
                "bin_lo,bin_hi,count_correct,count_incorrect\r\n").encode()
        scores = (outdir / "eval" / "scores_softmax_response.csv") \
            .read_text().splitlines()[2:]
        assert [row.split(",")[1] for row in scores] == ["-inf"] * 40

    def test_saturated_abstain_predicts_the_class_logit_argmax(self,
                                                               tmp_path):
        # with the abstain bias raised by 1e4 every class probability
        # rounds to 0.0, yet the class logits still rank the classes, and
        # training predicts from them
        cfg_path, outdir = self.train_one(
            tmp_path, objective={"kind": "DG"}, training={"seed": 1},
            evaluation={"mechanisms": ["abstention_logit"]})
        net, _ = load_checkpoint(outdir / "checkpoint.json")
        _, _, test_ds, _ = cli.build_splits(load_run_config(cfg_path))
        net.heads["logits"].b[-1] += 1e4
        z = network_outputs(net, test_ds.features)["logits"]
        assert np.all(softmax(z)[0][:, :-1] == 0.0)
        ckpt = tmp_path / "saturated.checkpoint.json"
        save_checkpoint(net, ckpt)
        assert main(["eval", "-c", str(cfg_path), "--checkpoint",
                     str(ckpt)]) == 0
        rows = (outdir / "eval" / "scores_abstention_logit.csv") \
            .read_text().splitlines()[2:]
        predicted = [int(row.split(",")[2]) for row in rows]
        assert predicted == z[:, :-1].argmax(axis=1).tolist()
        assert len(set(predicted)) > 1

    def test_draws_only_the_val_and_test_splits(self, tmp_path, monkeypatch):
        cfg_path, outdir = self.train_one(tmp_path)
        labels = []

        def recorded_rng_for(seed, label):
            labels.append(label)
            return rng_for(seed, label)

        monkeypatch.setattr(datasets, "rng_for", recorded_rng_for)
        assert main(["eval", "-c", str(cfg_path),
                     "--checkpoint", str(outdir / "checkpoint.json")]) == 0
        assert labels == ["mixture:val", "mixture:test"]

    @pytest.mark.parametrize("split, drawn", [("val", ["val", "test"]),
                                              ("test", ["test"])])
    def test_draws_val_only_to_calibrate_on_it(self, tmp_path, monkeypatch,
                                               split, drawn):
        cfg_path, outdir = self.train_one(
            tmp_path, evaluation={"calibration_split": split})
        names = []

        def recorded_draw_split(spec, name):
            names.append(name)
            return datasets.draw_split(spec, name)

        monkeypatch.setattr(cli, "draw_split", recorded_draw_split)
        assert main(["eval", "-c", str(cfg_path),
                     "--checkpoint", str(outdir / "checkpoint.json")]) == 0
        assert names == drawn


class TestGradcheckCommand:
    def test_quick_suite_passes(self, capsys):
        assert main(["gradcheck", "--cases", "1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        for family in ("CE", "DG", "SAT", "SelectiveNet"):
            assert family in out
        assert out.count("PASS") >= 5

    def test_injected_fault_detected_and_named(self, capsys, monkeypatch):
        def broken_dg(cfg, *args, **kwargs):
            result = objective_dispatch(cfg, *args, **kwargs)
            if cfg.kind == "DG":
                result.dlogits["logits"] = result.dlogits["logits"] + 0.05
            return result

        monkeypatch.setattr(gradcheck, "objective_dispatch", broken_dg)
        assert main(["gradcheck", "--cases", "1", "--seed", "3"]) == 1
        out = capsys.readouterr().out
        assert "FAIL DG" in out

    @pytest.mark.parametrize("cases", ["0", "-2"])
    def test_cases_below_one_exits_2_naming_flag(self, capsys, cases):
        assert main(["gradcheck", "--cases", cases]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert captured.err == f"error: --cases must be >= 1, got {cases}\n"

    def test_fault_injection_is_not_a_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--inject-fault", "DG"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --inject-fault DG" in \
            capsys.readouterr().err


class TestMixtureSpec:
    """DatasetConfig.mixture_spec, field by field."""

    @staticmethod
    def assert_same_spec(got, want):
        for f in fields(want):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == np.float64 and np.array_equal(a, b), f.name
            else:
                assert type(a) is type(b) and a == b, f.name
        assert (got.n_classes, got.dim) == (want.n_classes, want.dim)

    def test_preset_with_overrides(self):
        variances = [0.5 + 0.25 * c for c in range(8)]
        priors = [0.0625] * 4 + [0.1875] * 4
        got = DatasetConfig(variances=variances, priors=priors,
                            label_noise=0.2, n_train=300).mixture_spec(7)
        want = blobs8(seed=derive_seed(7, "dataset"))
        want.variances = np.array(variances)
        want.priors = np.array(priors)
        want.label_noise, want.n_train = 0.2, 300
        self.assert_same_spec(got, want)

    def test_explicit_means_default_variances_and_priors(self):
        means = [[0, 0, 1], [3, 0, 0], [0, 3, 0]]
        got = DatasetConfig(preset=None, means=means, seed=5).mixture_spec(7)
        want = MixtureSpec(means=np.array(means, dtype=np.float64),
                           variances=np.ones(3), priors=np.full(3, 1 / 3),
                           seed=5)
        self.assert_same_spec(got, want)
        assert (got.n_classes, got.dim) == (3, 3)

    def test_explicit_mixture_takes_its_shape_from_means(self, tmp_path):
        cfg_path, _ = base_config(tmp_path, dataset={
            "preset": None, "means": [[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]]})
        *splits, n_classes = cli.build_splits(load_run_config(cfg_path))
        assert n_classes == 3
        for ds in splits:
            assert ds.dim == 2
            assert set(ds.labels.tolist()) == {0, 1, 2}

    def test_preset_means_default_variances_and_priors(self):
        # the preset's label noise and sizes stay; its 8 variances and
        # priors give way to unit variances and uniform priors over 3
        means = [[0, 0], [1, 1], [2, 2]]
        got = DatasetConfig(means=means, priors=[0.5, 0.25, 0.25]) \
            .mixture_spec(7)
        want = blobs8(seed=derive_seed(7, "dataset"))
        want.means = np.array(means, dtype=np.float64)
        want.variances = np.ones(3)
        want.priors = np.array([0.5, 0.25, 0.25])
        self.assert_same_spec(got, want)


class TestGridCommand:
    def grid_config(self, tmp_path, **kw):
        grid = {"methods": ["CE"], "mechanisms": ["softmax_response"],
                "coverages": [0.9, 0.5], "seeds": [0]}
        grid.update(kw)
        return base_config(tmp_path, grid=grid)

    @staticmethod
    def read_outputs(doc):
        outdir = Path(doc["output_dir"])
        manifest = json.loads((outdir / "manifest.json").read_text())
        rows = [r for r in (outdir / "results.csv").read_text().splitlines()
                if r and not r.startswith("#")]
        return manifest, rows

    def test_results_csv_bytes(self, tmp_path, monkeypatch, two_cpus):
        # each cell's evaluation returns a fixed risk chosen by its head and
        # seed, so the file's means and SDs over the two seeds are known in
        # advance
        cfg_path, doc = self.grid_config(tmp_path, methods=["CE", "DG"],
                                         coverages=[0.5], seeds=[0, 1])
        cfg = load_run_config(cfg_path)
        seed_of = {cli.build_splits(cfg, seed=s)[2].fingerprint: s
                   for s in (0, 1)}
        risks = {("plain", 0): 0.25, ("plain", 1): 0.5,
                 ("abstain", 0): 0.125, ("abstain", 1): 0.375}

        def fixed_risks(net, val_ds, test_ds, mechanisms, coverages, split):
            risk = risks[net.head, seed_of[test_ds.fingerprint]]
            return None, {k: (None, [RiskCoveragePoint(c, c, risk, 1)
                                     for c in coverages])
                          for k in mechanisms}

        monkeypatch.setattr(cli, "evaluate_mechanisms", fixed_risks)
        assert main(["grid", "-c", str(cfg_path)]) == 0
        h = load_run_config(cfg_path).hash()
        sd = b"0.1767766952966369"  # of either pair of risks
        assert (Path(doc["output_dir"]) / "results.csv").read_bytes() == (
            f"# config={h}\n".encode()
            + b"method,mechanism,coverage,mean_risk,sd_risk,n_seeds\r\n"
            + b"CE,softmax_response,0.5,0.375," + sd + b",2\r\n"
            + b"DG,softmax_response,0.5,0.25," + sd + b",2\r\n")

    def test_cell_checkpoint_carries_the_config_hash(self, tmp_path, capsys):
        cfg_path, doc = self.grid_config(tmp_path)
        assert main(["grid", "-c", str(cfg_path)]) == 0
        cells = Path(doc["output_dir"]) / "cells"
        ckpt = str(cells / "CE_all_s0.checkpoint.json")
        h = load_run_config(cfg_path).hash()
        assert load_checkpoint(ckpt)[1] == h
        assert (cells / "CE_all_s0.report.csv").read_text().startswith(
            f"# config={h}\n")
        assert main(["eval", "-c", str(cfg_path), "--checkpoint", ckpt]) == 0
        # another blobs8 config: the same mixture, trained for longer
        other_cfg, _ = base_config(tmp_path, "other.json",
                                   training={"epochs": 3})
        capsys.readouterr()
        assert main(["eval", "-c", str(other_cfg), "--checkpoint", ckpt]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: checkpoint was produced by config {h}, ")
        assert main(["eval", "-c", str(other_cfg), "--force",
                     "--checkpoint", ckpt]) == 0

    def test_single_cell_single_row_per_coverage(self, tmp_path):
        cfg_path, doc = self.grid_config(tmp_path)
        assert main(["grid", "-c", str(cfg_path)]) == 0
        manifest, rows = self.read_outputs(doc)
        assert rows[0] == "method,mechanism,coverage,mean_risk,sd_risk,n_seeds"
        assert len(rows) == 3  # two coverages for one method/mechanism
        assert all(r.startswith("CE,softmax_response") for r in rows[1:])
        [cell] = manifest["cells"]
        assert cell["status"] == "ok"
        assert cell["checkpoint"].endswith(f"{cell['name']}.checkpoint.json")
        assert Path(cell["checkpoint"]).exists()

    def test_one_cell_grid_trains_the_same_model_as_train(self, tmp_path):
        cfg_path, _ = base_config(
            tmp_path, objective={"kind": "SelectiveNet+EM", "c_target": 0.7},
            training={"seed": 5},
            grid={"methods": ["SelectiveNet+EM"], "coverages": [0.7],
                  "seeds": [5]})
        train_dir, grid_dir = tmp_path / "train", tmp_path / "grid"
        assert main(["train", "-c", str(cfg_path), "-o", str(train_dir)]) == 0
        assert main(["grid", "-c", str(cfg_path), "-o", str(grid_dir)]) == 0
        cell = grid_dir / "cells" / "SelectiveNet_EM_c0.7_s5"
        train_net, train_hash = load_checkpoint(train_dir / "checkpoint.json")
        cell_net, cell_hash = load_checkpoint(f"{cell}.checkpoint.json")
        assert train_net.params.tobytes() == cell_net.params.tobytes()
        assert train_hash == cell_hash == load_run_config(cfg_path).hash()
        report = (train_dir / "train_report.csv").read_bytes()
        assert report.startswith(f"# config={train_hash}\n".encode())
        assert report == Path(f"{cell}.report.csv").read_bytes()

    def test_rerun_byte_identical(self, tmp_path):
        cfg_path, doc = self.grid_config(tmp_path, seeds=[0, 1])
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["grid", "-c", str(cfg_path), "-o", str(out_a)]) == 0
        assert main(["grid", "-c", str(cfg_path), "-o", str(out_b)]) == 0
        assert (out_a / "results.csv").read_bytes() == \
            (out_b / "results.csv").read_bytes()

    def test_sat_trains_once_for_all_coverages(self, tmp_path):
        cfg_path, doc = self.grid_config(
            tmp_path, methods=["SAT"], coverages=[0.9, 0.7, 0.5])
        assert main(["grid", "-c", str(cfg_path)]) == 0
        manifest, rows = self.read_outputs(doc)
        assert [c["coverage"] for c in manifest["cells"]] == [None]
        assert len(rows) == 4  # header + one row per coverage

    def test_selectivenet_cells_per_coverage(self, tmp_path):
        cfg_path, doc = self.grid_config(
            tmp_path, methods=["SelectiveNet"], coverages=[0.9, 0.7, 0.5],
            mechanisms=["selection_head", "softmax_response"])
        assert main(["grid", "-c", str(cfg_path)]) == 0
        manifest, rows = self.read_outputs(doc)
        assert [c["coverage"] for c in manifest["cells"]] == [0.9, 0.7, 0.5]
        assert any(r.startswith("SelectiveNet,selection_head") for r in rows)

    def test_close_coverages_get_cells_of_their_own(self, tmp_path):
        cfg_path, doc = base_config(
            tmp_path, training={"epochs": 1},
            grid={"methods": ["SelectiveNet"], "coverages": [0.5, 0.5000001],
                  "seeds": [0]})
        assert main(["grid", "-c", str(cfg_path)]) == 0
        manifest, _ = self.read_outputs(doc)
        assert [c["name"] for c in manifest["cells"]] == [
            "SelectiveNet_c0.5_s0", "SelectiveNet_c0.5000001_s0"]
        assert all(Path(c["checkpoint"]).exists() for c in manifest["cells"])
        assert cli.grid_cell_name("CE", 1, 0) == "CE_c1.0_s0"

    def test_saturated_selection_unit_trains(self, tmp_path):
        # at c_target 0.9 the raw selection logit passes the point where
        # the sigmoid rounds to exactly 1.0 within the first epoch
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "grid": {"methods": ["SelectiveNet"], "coverages": [0.9],
                     "seeds": [0]},
            "training": {"epochs": 1},
            "output_dir": str(tmp_path / "run")}))
        assert main(["grid", "-c", str(path)]) == 0

    @pytest.mark.parametrize("section, key, value, message", [
        ("grid", "methods", [], "grid.methods must not be empty"),
        ("grid", "mechanisms", [], "grid.mechanisms must not be empty"),
        ("grid", "coverages", [], "grid.coverages must not be empty"),
        ("grid", "seeds", [], "grid.seeds must not be empty"),
        ("evaluation", "mechanisms", [],
         "evaluation.mechanisms must not be empty"),
        ("evaluation", "coverage_grid", [],
         "evaluation.coverage_grid must not be empty"),
        ("grid", "methods", ["CE", "DG", "CE"],
         'grid.methods lists "CE" twice'),
        ("grid", "coverages", [0.5, 0.5], "grid.coverages lists 0.5 twice"),
        ("grid", "seeds", [0, 1, 0], "grid.seeds lists 0 twice"),
        ("grid", "mechanisms", ["softmax_response", "softmax_response"],
         'grid.mechanisms lists "softmax_response" twice'),
        ("evaluation", "mechanisms", ["softmax_response", "softmax_response"],
         'evaluation.mechanisms lists "softmax_response" twice'),
        ("evaluation", "coverage_grid", [0.5, 0.5],
         "evaluation.coverage_grid lists 0.5 twice"),
        ("grid", "methods", ["CE", "XYZ"],
         'grid.methods lists unknown value "XYZ"'),
        ("grid", "mechanisms", ["magic"],
         'grid.mechanisms lists unknown value "magic"'),
        ("evaluation", "mechanisms", ["softmax_response", "magic"],
         'evaluation.mechanisms lists unknown value "magic"'),
    ])
    def test_empty_or_repeated_list_exits_2_naming_key(
            self, tmp_path, capsys, section, key, value, message):
        cfg_path, doc = self.grid_config(tmp_path)
        doc[section][key] = value
        cfg_path.write_text(json.dumps(doc))
        assert main(["grid", "-c", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: {cfg_path}: {message}\n"
        assert not Path(doc["output_dir"]).exists()

    @pytest.mark.parametrize("methods, mechanisms, method, head", [
        (["CE", "DG"], ["selection_head"], "CE", "plain"),
        (["SelectiveNet", "SAT+EM"], ["selection_head"], "SAT+EM", "abstain"),
        (["DG"], ["selection_head"], "DG", "abstain"),
        (["CE+EM"], ["abstention_logit"], "CE+EM", "plain"),
    ])
    def test_method_without_a_grid_mechanism_exits_2(
            self, tmp_path, capsys, methods, mechanisms, method, head):
        # such a method's cells would train and add no results row
        cfg_path, doc = self.grid_config(tmp_path, methods=methods,
                                         mechanisms=mechanisms)
        assert main(["grid", "-c", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg_path}: grid.mechanisms lists no mechanism that "
            f"method {method!r} supports; its head is {head!r}\n")
        assert not Path(doc["output_dir"]).exists()

    def test_failed_cell_nonzero_exit(self, tmp_path):
        cfg_path, doc = self.grid_config(tmp_path, methods=["DG", "CE"])
        # blobs8 has C=8; force an inadmissible payoff through the base
        # objective section
        raw = json.loads(Path(cfg_path).read_text())
        raw["objective"] = {"kind": "CE", "o": 44.0}
        Path(cfg_path).write_text(json.dumps(raw))
        assert main(["grid", "-c", str(cfg_path)]) == 1
        manifest, rows = self.read_outputs(doc)
        assert [c["status"] for c in manifest["cells"]] == ["failed", "ok"]
        assert "o=44" in manifest["cells"][0]["error"]
        assert all(r.startswith("CE,") for r in rows[1:])

    def test_cell_failing_in_evaluation_is_recorded(self, tmp_path):
        # a val-fitted threshold at coverage 0.01 selects none of the 4
        # test samples, so that cell's selective risk is undefined
        cfg_path, doc = base_config(
            tmp_path, dataset={"n_test": 4},
            grid={"methods": ["SelectiveNet"],
                  "mechanisms": ["softmax_response", "selection_head"],
                  "coverages": [0.5, 0.01], "seeds": [0]})
        assert main(["grid", "-c", str(cfg_path)]) == 1
        manifest, rows = self.read_outputs(doc)
        status = {c["name"]: (c["status"], c["error"])
                  for c in manifest["cells"]}
        assert status["SelectiveNet_c0.5_s0"] == ("ok", "")
        assert status["SelectiveNet_c0.01_s0"][0] == "failed"
        assert status["SelectiveNet_c0.01_s0"][1].startswith(
            "UndefinedRiskError: ")
        assert sorted(r.split(",")[:3] for r in rows[1:]) == [
            ["SelectiveNet", "selection_head", "0.5"],
            ["SelectiveNet", "softmax_response", "0.5"]]

    def test_cell_failing_to_write_its_checkpoint_is_recorded(
            self, tmp_path, monkeypatch, two_cpus):
        saves = tmp_path / "saves"
        saves.mkdir()

        def full_on_last_cell(*args, **kwargs):
            name = Path(args[1]).name
            (saves / name).touch()
            if name == "DG_all_s1.checkpoint.json":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return save_checkpoint(*args, **kwargs)

        monkeypatch.setattr(cli, "save_checkpoint", full_on_last_cell)
        cfg_path, doc = self.grid_config(tmp_path, methods=["CE", "DG"],
                                         coverages=[0.5], seeds=[0, 1])
        assert main(["grid", "-c", str(cfg_path)]) == 1
        assert attempted(saves) == [
            f"{name}.checkpoint.json"
            for name in ("CE_all_s0", "CE_all_s1", "DG_all_s0", "DG_all_s1")]
        manifest, rows = self.read_outputs(doc)
        assert [(c["name"], c["status"]) for c in manifest["cells"]] == [
            ("CE_all_s0", "ok"), ("CE_all_s1", "ok"), ("DG_all_s0", "ok"),
            ("DG_all_s1", "failed")]
        assert manifest["cells"][3]["error"] == (
            f"OSError: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}")
        assert manifest["cells"][3]["checkpoint"] == ""
        # (method, n_seeds) per results row
        assert [(r.split(",")[0], r.split(",")[-1]) for r in rows[1:]] == [
            ("CE", "2"), ("DG", "1")]

    @pytest.mark.parametrize("target", ["results.csv", "manifest.json"])
    def test_failed_write_keeps_previous_output(self, tmp_path, monkeypatch,
                                                capsys, target):
        cfg_path, doc = self.grid_config(tmp_path)
        assert main(["grid", "-c", str(cfg_path)]) == 0
        outdir = Path(doc["output_dir"])
        before = (outdir / target).read_bytes()
        # another config hash, so a completed rerun would rewrite the file
        raw = json.loads(cfg_path.read_text())
        raw["training"]["epochs"] = 1
        cfg_path.write_text(json.dumps(raw))
        fail_writes(monkeypatch, target)
        assert main(["grid", "-c", str(cfg_path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {outdir / target}: disk full"]
        assert (outdir / target).read_bytes() == before
        assert not list(outdir.rglob("*.tmp"))

    def test_programming_error_keeps_the_cells_that_ended(
            self, tmp_path, monkeypatch, two_cpus):
        trained = tmp_path / "trained"
        trained.mkdir()

        def train_breaks_on_seed_1(*args, **kwargs):
            seed = args[3].seed
            (trained / str(seed)).touch()
            if seed == 1:
                raise TypeError("bug in training")
            return training.train(*args, **kwargs)

        monkeypatch.setattr(cli, "train", train_breaks_on_seed_1)
        cfg_path, doc = base_config(
            tmp_path, dataset={"n_train": 300}, training={"epochs": 1},
            grid={"methods": ["CE"], "mechanisms": ["softmax_response"],
                  "coverages": [0.9, 0.5], "seeds": [0, 1]})
        with pytest.raises(TypeError, match="bug in training"):
            main(["grid", "-c", str(cfg_path)])
        assert attempted(trained) == ["0", "1"]
        assert multiprocessing.active_children() == []
        manifest, rows = self.read_outputs(doc)
        # the interrupted cell CE_all_s1 is absent
        assert [(c["name"], c["status"]) for c in manifest["cells"]] == [
            ("CE_all_s0", "ok")]
        # (method, mechanism, coverage, n_seeds) per results row
        assert [(*r.split(",")[:3], r.split(",")[-1]) for r in rows[1:]] == [
            ("CE", "softmax_response", "0.5", "1"),
            ("CE", "softmax_response", "0.9", "1")]

    def test_programming_error_is_not_recorded_as_failed_cell(
            self, tmp_path, monkeypatch):
        def broken_train(*args, **kwargs):
            raise TypeError("bug in training")

        monkeypatch.setattr("selcls.cli.train", broken_train)
        cfg_path, _ = self.grid_config(tmp_path)
        with pytest.raises(TypeError, match="bug in training"):
            main(["grid", "-c", str(cfg_path)])

    @staticmethod
    def output_files(outdir) -> dict:
        """Every file under ``outdir`` by relative path, with ``outdir``
        written OUT in its bytes."""
        return {str(path.relative_to(outdir)):
                path.read_bytes().replace(str(outdir).encode(), b"OUT")
                for path in outdir.rglob("*") if path.is_file()}

    def test_same_outputs_with_one_and_two_cpus(self, tmp_path, monkeypatch):
        cfg_path, _ = base_config(
            tmp_path, objective={"kind": "CE", "sat_pretrain_epochs": 1},
            grid={"methods": ["CE", "SAT", "SelectiveNet"],
                  "mechanisms": ["softmax_response", "abstention_logit",
                                 "selection_head"],
                  "coverages": [0.9, 0.5], "seeds": [0, 1]})
        outputs = {}
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            outdir = tmp_path / f"cpus{len(cpus)}"
            assert main(["grid", "-c", str(cfg_path), "-o", str(outdir)]) == 0
            assert multiprocessing.active_children() == []
            outputs[len(cpus)] = self.output_files(outdir)
        checkpoints = sorted((tmp_path / "cpus1").glob("cells/*.checkpoint.*"))
        assert len(checkpoints) == 8
        assert {load_checkpoint(c)[0].head for c in checkpoints} == {
            "plain", "abstain", "selectivenet"}
        assert outputs[1] == outputs[2]

    def test_tasks_carry_no_datasets(self, tmp_path, monkeypatch, two_cpus):
        # the workers inherit the splits at fork: none is pickled
        class Unpicklable(datasets.Dataset):
            def __reduce__(self):
                raise pickle.PicklingError("a dataset was pickled")

        build_splits = cli.build_splits

        def unpicklable_splits(cfg, seed=None):
            *sets, n_classes = build_splits(cfg, seed=seed)
            return (*(Unpicklable(ds.features, ds.labels) for ds in sets),
                    n_classes)

        monkeypatch.setattr(cli, "build_splits", unpicklable_splits)
        cfg_path, _ = self.grid_config(tmp_path, methods=["CE", "DG"],
                                       coverages=[0.5], seeds=[0, 1])
        outputs = []
        for cpus in ({0, 1}, {0}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            outdir = tmp_path / f"cpus{len(cpus)}"
            assert main(["grid", "-c", str(cfg_path), "-o", str(outdir)]) == 0
            outputs.append(self.output_files(outdir))
        assert len(outputs[0]) == 10
        assert outputs[0] == outputs[1]

    def test_dead_worker_keeps_the_cells_before_it(self, tmp_path,
                                                   monkeypatch, two_cpus):
        cfg_path, doc = self.grid_config(tmp_path, methods=["CE", "DG"],
                                         coverages=[0.5], seeds=[0, 1])
        received = tmp_path / "received"
        received.mkdir()
        test_pid = os.getpid()
        map_grid_cells = cli.map_grid_cells

        def map_noting_receipt(tasks):
            # runs in the test process, as cells come back in grid order
            for cell, rows in map_grid_cells(tasks):
                (received / cell["name"]).touch()
                yield cell, rows

        def train_dies_on_dg_s0(*args, **kwargs):
            tcfg = args[3]
            if tcfg.objective.kind == "DG":
                assert os.getpid() != test_pid, "cell ran in the test process"
                # DG_s0 dies only once the test process holds both CE
                # cells; the other worker runs the second of them
                # meanwhile. DG_s1 waits for a cell that never comes back,
                # so it is still running when the pool breaks, which
                # terminates its worker
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline and not (
                        received / ("CE_all_s1" if tcfg.seed == 0
                                    else "DG_all_s0")).exists():
                    time.sleep(0.01)
                if tcfg.seed == 0:
                    os._exit(1)
            return training.train(*args, **kwargs)

        monkeypatch.setattr(cli, "map_grid_cells", map_noting_receipt)
        monkeypatch.setattr(cli, "train", train_dies_on_dg_s0)
        with pytest.raises(BrokenProcessPool):
            main(["grid", "-c", str(cfg_path)])
        assert multiprocessing.active_children() == []
        manifest, rows = self.read_outputs(doc)
        assert [(c["name"], c["status"]) for c in manifest["cells"]] == [
            ("CE_all_s0", "ok"), ("CE_all_s1", "ok")]
        # (method, n_seeds) per results row
        assert [(r.split(",")[0], r.split(",")[-1]) for r in rows[1:]] == [
            ("CE", "2")]

    def test_runs_in_process_where_cpu_affinity_is_unknown(
            self, tmp_path, monkeypatch):
        # macOS and Windows have no os.sched_getaffinity
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        pids = []

        def train_noting_pid(*args, **kwargs):
            pids.append(os.getpid())
            return training.train(*args, **kwargs)

        monkeypatch.setattr(cli, "train", train_noting_pid)
        cfg_path, doc = self.grid_config(tmp_path, methods=["CE", "DG"],
                                         coverages=[0.5], seeds=[0, 1])
        assert main(["grid", "-c", str(cfg_path)]) == 0
        assert pids == [os.getpid()] * 4
        manifest, rows = self.read_outputs(doc)
        assert [(c["name"], c["status"]) for c in manifest["cells"]] == [
            (name, "ok")
            for name in ("CE_all_s0", "CE_all_s1", "DG_all_s0", "DG_all_s1")]
        assert len(rows) == 3

    def test_programming_error_in_the_first_cell_stops_the_rest(
            self, tmp_path, monkeypatch, two_cpus):
        trained = tmp_path / "trained"
        trained.mkdir()

        def train_breaks_on_first_cell(*args, **kwargs):
            tcfg = args[3]
            (trained / f"{tcfg.objective.kind}_{tcfg.seed}").write_text(
                str(os.getpid()))
            if (tcfg.objective.kind, tcfg.seed) == ("CE", 0):
                raise TypeError("bug in training")
            return training.train(*args, **kwargs)

        monkeypatch.setattr(cli, "train", train_breaks_on_first_cell)
        cfg_path, doc = self.grid_config(
            tmp_path, methods=["CE", "CE+EM", "DG", "SAT"], coverages=[0.5],
            seeds=list(range(8)))
        with pytest.raises(TypeError, match="bug in training"):
            main(["grid", "-c", str(cfg_path)])
        assert multiprocessing.active_children() == []
        assert "CE_0" in attempted(trained)
        # the cells that had started beside it, no more
        assert len(attempted(trained)) <= 3
        # the cells ran in workers, not in this process
        assert str(os.getpid()) not in {
            p.read_text() for p in trained.iterdir()}
        # every cell that started beside it ended, and is kept in grid order
        beside = [tuple(name.split("_")) for name in attempted(trained)
                  if name != "CE_0"]
        order = {"CE": 0, "CE+EM": 1, "DG": 2, "SAT": 3}
        beside.sort(key=lambda cell: (order[cell[0]], int(cell[1])))
        manifest, rows = self.read_outputs(doc)
        assert [(c["name"], c["status"]) for c in manifest["cells"]] == [
            (cli.grid_cell_name(method, None, int(seed)), "ok")
            for method, seed in beside]
        # (method, n_seeds) per results row
        assert [(r.split(",")[0], r.split(",")[-1]) for r in rows[1:]] == \
            sorted((method, str(n)) for method, n in
                   Counter(method for method, _ in beside).items())

    def test_a_bug_keeps_the_cells_before_it_that_had_not_started(
            self, tmp_path, monkeypatch, two_cpus):
        # the order a loaded machine can give: the bug in cell 1 stops the
        # grid before the worker that took cell 0 starts it
        def train_breaks_on_seed_1(*args, **kwargs):
            if args[3].seed == 1:
                raise TypeError("bug in training")
            return training.train(*args, **kwargs)

        monkeypatch.setattr(cli, "train", train_breaks_on_seed_1)
        monkeypatch.setattr(cli, "_run_task", functools.partial(
            run_task_0_after_task_1, str(tmp_path / "task 1 ended")))
        cfg_path, doc = self.grid_config(tmp_path, seeds=[0, 1])
        with pytest.raises(TypeError, match="bug in training"):
            main(["grid", "-c", str(cfg_path)])
        assert multiprocessing.active_children() == []
        manifest, rows = self.read_outputs(doc)
        assert [(c["name"], c["status"]) for c in manifest["cells"]] == [
            ("CE_all_s0", "ok")]
        assert len(rows) == 3

    def test_a_bug_keeps_the_cells_that_ended_beside_it(
            self, tmp_path, monkeypatch, two_cpus):
        # the first cell raises only once every other cell has left its
        # checkpoint; the other worker runs all three meanwhile
        cfg_path, doc = self.grid_config(tmp_path, methods=["CE", "DG"],
                                         coverages=[0.5], seeds=[0, 1])
        cells_dir = Path(doc["output_dir"]) / "cells"
        others = ("CE_all_s1", "DG_all_s0", "DG_all_s1")
        grid_cell = cli.grid_cell

        def grid_cell_breaks_on_ce_s0(cfg, objective, coverage, seed, *rest):
            if (objective.kind, seed) == ("CE", 0):
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline and not all(
                        (cells_dir / f"{name}.checkpoint.json").exists()
                        for name in others):
                    time.sleep(0.01)
                raise RuntimeError("bug in a cell")
            return grid_cell(cfg, objective, coverage, seed, *rest)

        monkeypatch.setattr(cli, "grid_cell", grid_cell_breaks_on_ce_s0)
        with pytest.raises(RuntimeError, match="bug in a cell"):
            main(["grid", "-c", str(cfg_path)])
        assert multiprocessing.active_children() == []
        manifest, rows = self.read_outputs(doc)
        assert [(c["name"], c["status"]) for c in manifest["cells"]] == [
            (name, "ok") for name in others]
        # (method, n_seeds) per results row
        assert [(r.split(",")[0], r.split(",")[-1]) for r in rows[1:]] == [
            ("CE", "1"), ("DG", "2")]


class TestKeepFreedMemory:
    def test_sets_glibc_thresholds(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(ctypes, "CDLL",
                            lambda name: types.SimpleNamespace(mallopt=mallopt))
        cli.keep_freed_memory()
        # M_MMAP_THRESHOLD and M_TRIM_THRESHOLD of glibc's malloc.h
        assert calls == [(-3, 32 << 20), (-1, 64 << 20)]

    @pytest.mark.parametrize("lib", ["fails to load", "has no mallopt"])
    def test_does_nothing_without_mallopt(self, monkeypatch, lib):
        def cdll(name):
            if lib == "fails to load":
                raise OSError("no C library")
            return types.SimpleNamespace()  # macOS: no mallopt

        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert cli.keep_freed_memory() is None

    def test_every_command_calls_it_once_first(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "keep_freed_memory",
                            lambda: calls.append("keep_freed_memory"))

        def noting_first_work(fn):
            def noted(*args, **kwargs):
                calls.append((fn.__name__, np.geterr()["over"],
                              np.geterr()["invalid"]))
                return fn(*args, **kwargs)
            return noted

        monkeypatch.setattr(cli, "load_run_config",
                            noting_first_work(load_run_config))
        monkeypatch.setattr(cli, "run_suite",
                            noting_first_work(gradcheck.run_suite))
        cfg_path, doc = base_config(
            tmp_path, grid={"methods": ["CE", "DG"],
                            "mechanisms": ["softmax_response"],
                            "coverages": [0.5], "seeds": [0]})
        ckpt = Path(doc["output_dir"]) / "checkpoint.json"
        for argv, work in [
                (["train", "-c", str(cfg_path)], "load_run_config"),
                (["eval", "-c", str(cfg_path), "--checkpoint", str(ckpt)],
                 "load_run_config"),
                (["grid", "-c", str(cfg_path)], "load_run_config"),
                (["gradcheck", "--cases", "1"], "run_suite")]:
            calls.clear()
            assert main(argv) == 0
            assert calls == ["keep_freed_memory", (work, "ignore", "ignore")]


class TestImports:
    def run_python(self, code, **env):
        base = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        base["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        return json.loads(subprocess.run(
            [sys.executable, "-c", code], env={**base, **env},
            capture_output=True, text=True, check=True).stdout)

    def test_import_sets_one_blas_thread_where_unset(self):
        code = ("import json, os, selcls; "
                f"print(json.dumps([os.environ.get(v) for v in {BLAS_VARS}]))")
        assert self.run_python(code) == ["1", "1", "1"]
        assert self.run_python(code, OMP_NUM_THREADS="3") == ["1", "3", "1"]

    def test_cli_loads_no_process_pool(self):
        code = ("import json, sys, selcls.cli; print(json.dumps(sorted("
                "m for m in ('concurrent.futures', 'multiprocessing') "
                "if m in sys.modules)))")
        assert self.run_python(code) == []


class TestOutputRoot:
    def test_env_var_prefixes_relative_paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SELCLS_OUTPUT_ROOT", str(tmp_path / "root"))
        cfg_path, _ = base_config(tmp_path, output_dir="rel/run")
        assert main(["train", "-c", str(cfg_path)]) == 0
        assert (tmp_path / "root" / "rel" / "run" / "checkpoint.json").exists()


# a config that sets every key of every section, each float as a float
FULL_CONFIG = {
    "dataset": {"kind": "mixture", "preset": None,
                "means": [[0.0, 0.0], [2.0, 2.0]], "variances": [1.0, 1.0],
                "priors": [0.5, 0.5], "label_noise": 0.0, "n_train": 100,
                "n_val": 50, "n_test": 50, "seed": 7},
    "model": {"hidden_dims": [8]},
    "objective": {"kind": "SelectiveNet", "beta": 0.01, "o": 1.5,
                  "lambda": 32.0, "alpha_mix": 0.5, "c_target": 0.8,
                  "sat_momentum": 0.9, "sat_pretrain_epochs": 10},
    "training": {"epochs": 2, "batch_size": 32, "lr0": 0.1, "momentum": 0.9,
                 "decay_factor": 0.5, "decay_every": 25, "seed": 0,
                 "weight_decay": 0.0},
    "evaluation": {"mechanisms": ["softmax_response"],
                   "coverage_grid": [1.0, 0.5], "calibration_split": "val",
                   "histogram_bins": 4},
    "grid": {"methods": ["CE"], "mechanisms": ["softmax_response"],
             "coverages": [0.5], "seeds": [0]},
    "output_dir": "out",
}
# per section and key, a second valid value that differs from FULL_CONFIG's;
# dataset.kind has none, since "mixture" is its only valid value
OTHER_VALUE = {
    "dataset": {"preset": "blobs8", "means": [[0.0, 0.0], [3.0, 3.0]],
                "variances": [2.0, 2.0], "priors": [0.25, 0.75],
                "label_noise": 0.1, "n_train": 101, "n_val": 51,
                "n_test": 51, "seed": 8},
    "model": {"hidden_dims": [16]},
    "objective": {"kind": "DG", "beta": 0.02, "o": 1.75, "lambda": 16.0,
                  "alpha_mix": 0.25, "c_target": 0.7, "sat_momentum": 0.8,
                  "sat_pretrain_epochs": 5},
    "training": {"epochs": 3, "batch_size": 16, "lr0": 0.05, "momentum": 0.5,
                 "decay_factor": 0.25, "decay_every": 10, "seed": 1,
                 "weight_decay": 0.001},
    "evaluation": {"mechanisms": ["negative_entropy"], "coverage_grid": [0.9],
                   "calibration_split": "test", "histogram_bins": 8},
    "grid": {"methods": ["DG"], "mechanisms": ["negative_entropy"],
             "coverages": [0.7], "seeds": [1]},
}
SECTIONS = {"dataset": DatasetConfig, "model": ModelConfig,
            "objective": ObjectiveConfig, "training": TrainConfig,
            "evaluation": EvalConfig, "grid": GridConfig}


def json_keys(cls) -> list:
    """The JSON keys of a section, read off its dataclass fields."""
    return [f.metadata.get("key", f.name) for f in fields(cls)
            if not is_dataclass(f.type)]


def config_hash_of(doc) -> str:
    return RunConfig.from_dict(doc).hash()


def with_value(section, key, value):
    doc = copy.deepcopy(FULL_CONFIG)
    doc[section][key] = value
    return doc


class TestConfigHash:
    @pytest.mark.parametrize("name, digest", [
        ("blobs8.json",
         "d50ae4aa5b2fc199335d9431007012bda60c1ea0dfa382de3ff401cf102676f6"),
        ("grid_ref.json",
         "70dee8bb4062d48998c871e90b469b0b585b2a2a9a5c7cc442621bec76849983"),
    ], ids=["blobs8.json", "grid_ref.json"])
    def test_checked_in_config_hash_is_pinned(self, name, digest):
        assert load_run_config(CONFIGS / name).hash() == digest

    def test_full_config_hash_is_pinned(self):
        assert config_hash_of(FULL_CONFIG) == \
            "fb8166116506f4104025f13540a3639c68be873649dd1763bc1038661a2d1698"

    def test_full_config_sets_every_key(self):
        assert list(FULL_CONFIG) == [f.name for f in fields(RunConfig)]
        for section, cls in SECTIONS.items():
            assert sorted(FULL_CONFIG[section]) == sorted(json_keys(cls))
            assert sorted(OTHER_VALUE[section]) == sorted(
                key for key in json_keys(cls)
                if (section, key) != ("dataset", "kind"))

    @pytest.mark.parametrize("section, key", [
        (section, key) for section, cls in SECTIONS.items()
        for key in json_keys(cls) if key in OTHER_VALUE[section]])
    def test_every_field_is_loaded_and_hashed(self, section, key):
        value = OTHER_VALUE[section][key]
        assert value != FULL_CONFIG[section][key]
        cfg = RunConfig.from_dict(with_value(section, key, value))
        assert cfg.normalized()[section][key] == value
        assert cfg.hash() != config_hash_of(FULL_CONFIG)

    @pytest.mark.parametrize("section, key, value, is_default", [
        ("objective", "lambda", 32, True),
        ("training", "weight_decay", 0, True),
        ("training", "lr0", 1, False),
        ("objective", "o", 3, False),
        ("dataset", "means", [[0, 0], [2, 2]], False),
    ])
    def test_integer_spelling_of_a_float_hashes_as_the_float(
            self, section, key, value, is_default):
        def floats(v):
            return [floats(x) for x in v] if isinstance(v, list) else float(v)

        h = config_hash_of(with_value(section, key, value))
        assert h == config_hash_of(with_value(section, key, floats(value)))
        if is_default:
            doc = copy.deepcopy(FULL_CONFIG)
            del doc[section][key]
            assert h == config_hash_of(doc)

    def test_stable_under_key_order(self, tmp_path):
        p1, doc = base_config(tmp_path, _name="fwd.json")
        cfg1 = load_run_config(p1)
        reordered = {k: doc[k] for k in reversed(list(doc))}
        p2 = tmp_path / "re.json"
        p2.write_text(json.dumps(reordered))
        cfg2 = load_run_config(p2)
        assert cfg1.hash() == cfg2.hash()

    def test_changes_with_content(self, tmp_path):
        p1, _ = base_config(tmp_path, _name="one.json")
        p2, _ = base_config(tmp_path, _name="two.json",
                            training={"epochs": 3, "seed": 0})
        assert load_run_config(p1).hash() != load_run_config(p2).hash()

    def test_artifacts_embed_hash(self, tmp_path):
        cfg_path, doc = base_config(tmp_path)
        assert main(["train", "-c", str(cfg_path)]) == 0
        outdir = Path(doc["output_dir"])
        h = load_run_config(cfg_path).hash()
        assert json.loads((outdir / "checkpoint.json").read_text())[
            "config_hash"] == h
        assert (outdir / "train_report.csv").read_text().startswith(
            f"# config={h}")
