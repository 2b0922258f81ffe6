import json
from pathlib import Path

import numpy as np
import pytest

from selcls import training
from selcls.cli import main
from selcls.config import load_run_config
from selcls.errors import ConfigurationError
from selcls.nn import load_checkpoint, network_forward

from conftest import fail_writes


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

    def test_csv_payoff_above_c_exits_2_before_any_forward(
            self, tmp_path, capsys, monkeypatch):
        # C of a CSV dataset is unknown until the file is read, so config
        # loading cannot check the payoff; train() checks it first
        forwards = []

        def counted_forward(net, batch, ws=None):
            forwards.append(len(batch))
            return network_forward(net, batch, ws)

        monkeypatch.setattr(training, "network_forward", counted_forward)
        rng = np.random.default_rng(3)
        rows = [f"{a},{b},{i % 3}" for i, (a, b) in
                enumerate(rng.normal(size=(60, 2)).tolist())]
        data = tmp_path / "three.csv"
        data.write_text("f0,f1,label\n" + "\n".join(rows) + "\n")
        cfg_path, _ = base_config(
            tmp_path, dataset={"kind": "csv", "path": str(data)},
            objective={"kind": "DG", "o": 5.0})
        assert main(["train", "-c", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: payoff o=5.0 violates 1 < o <= C (C=3)")
        assert "Traceback" not in err
        assert forwards == []

    def test_unknown_key_exits_2_naming_key(self, tmp_path, capsys):
        cfg_path, _ = base_config(tmp_path, training={"epochs": 1,
                                                      "warmup": 3})
        assert main(["train", "-c", str(cfg_path)]) == 2
        assert "warmup" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("model", "head", "abstain"),
        ("training", "numeric_mode", "f32"),
        ("objective", "dg_limit_test", True),
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
        ("make-data", "model", "hidden_dims", 5),
        ("make-data", "model", "hidden_dims", ["a"]),
        ("make-data", "training", "epochs", "3"),
        ("make-data", "objective", "beta", "x"),
        ("make-data", "evaluation", "coverage_grid", ["a"]),
        ("make-data", "dataset", "n_train", "5"),
        ("grid", "grid", "seeds", 5),
        ("train", "training", "weight_decay", "0.1"),
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

    def test_incompatible_mechanism_exits_2(self, tmp_path):
        cfg_path, outdir = self.train_one(tmp_path)
        bad_cfg, _ = base_config(
            tmp_path,
            evaluation={"mechanisms": ["abstention_logit"],
                        "coverage_grid": [1.0], "histogram_bins": 4})
        assert main(["eval", "-c", str(bad_cfg), "--force",
                     "--checkpoint", str(outdir / "checkpoint.json")]) == 2

    @pytest.mark.parametrize("damage", ["truncated", "no_head", "missing",
                                        "version_1", "bad_base64"])
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
        else:
            ckpt.unlink()
        capsys.readouterr()
        assert main(["eval", "-c", str(cfg_path),
                     "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err
        if damage == "version_1":
            assert "unsupported format version 1" in err

    def test_hash_mismatch_refused_without_force(self, tmp_path):
        cfg_path, outdir = self.train_one(tmp_path)
        other_cfg, _ = base_config(tmp_path, training={"epochs": 3,
                                                       "seed": 0})
        ckpt = str(outdir / "checkpoint.json")
        assert main(["eval", "-c", str(other_cfg),
                     "--checkpoint", ckpt]) == 2
        assert main(["eval", "-c", str(other_cfg), "--force",
                     "--checkpoint", ckpt]) == 0


class TestGradcheckCommand:
    def test_quick_suite_passes(self, capsys):
        assert main(["gradcheck", "--cases", "1", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        for family in ("CE", "DG", "SAT", "SelectiveNet"):
            assert family in out
        assert out.count("PASS") >= 5

    def test_injected_fault_detected_and_named(self, capsys):
        assert main(["gradcheck", "--cases", "1", "--seed", "3",
                     "--inject-fault", "DG"]) == 1
        out = capsys.readouterr().out
        assert "FAIL DG" in out


class TestMakeDataCommand:
    def test_writes_three_splits(self, tmp_path):
        cfg_path, doc = base_config(tmp_path)
        assert main(["make-data", "-c", str(cfg_path)]) == 0
        data_dir = Path(doc["output_dir"]) / "data"
        for name, n in (("train", 240), ("val", 120), ("test", 160)):
            lines = (data_dir / f"{name}.csv").read_text().splitlines()
            assert len(lines) == n + 1


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

    def test_programming_error_is_not_recorded_as_failed_cell(
            self, tmp_path, monkeypatch):
        def broken_train(*args, **kwargs):
            raise TypeError("bug in training")

        monkeypatch.setattr("selcls.cli.train", broken_train)
        cfg_path, _ = self.grid_config(tmp_path)
        with pytest.raises(TypeError, match="bug in training"):
            main(["grid", "-c", str(cfg_path)])


class TestOutputRoot:
    def test_env_var_prefixes_relative_paths(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SELCLS_OUTPUT_ROOT", str(tmp_path / "root"))
        cfg_path, _ = base_config(tmp_path, output_dir="rel/run")
        assert main(["train", "-c", str(cfg_path)]) == 0
        assert (tmp_path / "root" / "rel" / "run" / "checkpoint.json").exists()


class TestConfigHash:
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
