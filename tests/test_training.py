import json
import math
from pathlib import Path

import numpy as np
import pytest

from selcls.datasets import MixtureSpec, generate_mixture
from selcls.errors import ConfigurationError, NumericFault
from selcls.nn import (
    build_network,
    load_checkpoint,
    network_forward,
    network_outputs,
    save_checkpoint,
    stable_softmax,
)
from selcls.objectives import ObjectiveConfig
from selcls.cli import grid_cell_name, main
from selcls import training
from selcls.training import TrainConfig, lr_at_epoch, sgd_momentum_step, train


def small_spec(seed=0, separation=6.0, noise=0.0):
    return MixtureSpec(
        n_classes=2, dim=2,
        means=np.array([[-separation / 2, 0.0], [separation / 2, 0.0]]),
        variances=np.array([1.0, 1.0]), priors=np.array([0.5, 0.5]),
        label_noise=noise, n_train=300, n_val=80, n_test=80, seed=seed)


def quick_cfg(kind="CE", epochs=5, seed=0, **obj_kw):
    return TrainConfig(epochs=epochs, batch_size=32, lr0=0.1, momentum=0.9,
                       decay_factor=0.5, decay_every=25, seed=seed,
                       objective=ObjectiveConfig(kind=kind, **obj_kw))


class TestLrSchedule:
    def test_initial(self):
        assert lr_at_epoch(quick_cfg(), 0) == 0.1

    def test_one_decay_step(self):
        assert lr_at_epoch(quick_cfg(), 25) == 0.05

    def test_two_decay_steps(self):
        assert lr_at_epoch(quick_cfg(), 50) == 0.025

    def test_within_period_constant(self):
        cfg = quick_cfg()
        assert lr_at_epoch(cfg, 24) == 0.1
        assert lr_at_epoch(cfg, 26) == 0.05


class TestSgdMomentumStep:
    def test_single_application(self):
        theta = np.array([1.0, -1.0])
        v = np.array([0.0, 0.0])
        g = np.array([1.0, 2.0])
        sgd_momentum_step(theta, g, v, lr=0.1, momentum=0.9)
        assert v.tolist() == [1.0, 2.0]
        assert theta == pytest.approx([0.9, -1.2])

    def test_zero_momentum_is_vanilla_sgd(self):
        theta = np.array([2.0])
        v = np.array([5.0])
        g = np.array([0.5])
        sgd_momentum_step(theta, g, v, lr=0.2, momentum=0.0)
        assert theta[0] == pytest.approx(2.0 - 0.2 * 0.5)

    def test_zero_gradient_velocity_decays_geometrically(self):
        theta = np.array([0.0])
        v = np.array([1.0])
        g = np.array([0.0])
        drift = 0.0
        for step in range(1, 6):
            sgd_momentum_step(theta, g, v, lr=0.1, momentum=0.5)
            assert v[0] == pytest.approx(0.5 ** step)
            drift -= 0.1 * 0.5 ** step
            assert theta[0] == pytest.approx(drift)

    def test_nonfinite_gradient_faults(self):
        theta, v = np.array([1.0, 2.0]), np.array([0.5, 0.5])
        with pytest.raises(NumericFault):
            sgd_momentum_step(theta, np.array([0.1, np.nan]), v, 0.1, 0.9)
        # nothing moves, not even the entries before the bad one
        assert theta.tolist() == [1.0, 2.0]
        assert v.tolist() == [0.5, 0.5]


class TestTrain:
    def test_zero_epochs_noop(self):
        train_ds, val_ds, _ = generate_mixture(small_spec())
        net = build_network(2, (8,), 2, "plain", seed=0)
        before = net.params.copy()
        report, _ = train(net, train_ds, val_ds, quick_cfg(epochs=0))
        assert report.epochs == []
        assert np.array_equal(net.params, before)

    def test_separable_blobs_reach_high_accuracy(self):
        train_ds, val_ds, _ = generate_mixture(small_spec(separation=6.0))
        net = build_network(2, (16,), 2, "plain", seed=1)
        report, _ = train(net, train_ds, val_ds, quick_cfg(epochs=50, seed=1))
        assert report.epochs[-1].train_accuracy >= 0.99

    @pytest.mark.parametrize("kind, head, obj_kw, extra", [
        ("CE", "plain", {}, 0),
        ("SAT", "abstain", {"sat_pretrain_epochs": 1}, 0),
        # the end-of-epoch target update runs the whole training split once
        # per adaptive epoch
        ("SAT", "abstain", {"sat_pretrain_epochs": 1, "sat_update": "epoch"},
         2),
    ], ids=["CE", "SAT-batch-update", "SAT-epoch-update"])
    def test_one_forward_per_batch_plus_validation(self, monkeypatch, kind,
                                                   head, obj_kw, extra):
        # batches go through network_forward, whole splits (validation and
        # the SAT end-of-epoch update) through network_outputs
        batch_rows, split_rows = [], []

        def counted_forward(net, batch):
            batch_rows.append(len(batch))
            return network_forward(net, batch)

        def counted_outputs(net, X):
            split_rows.append(len(X))
            return network_outputs(net, X)

        monkeypatch.setattr(training, "network_forward", counted_forward)
        monkeypatch.setattr(training, "network_outputs", counted_outputs)
        train_ds, val_ds, _ = generate_mixture(small_spec())
        net = build_network(2, (8,), 2, head, seed=0)
        train(net, train_ds, val_ds, quick_cfg(kind=kind, epochs=3, **obj_kw))
        batches = math.ceil(len(train_ds) / 32)
        assert len(batch_rows) == 3 * batches and max(batch_rows) == 32
        assert len(split_rows) == 3 + extra
        assert split_rows.count(len(val_ds)) == 3
        assert split_rows.count(len(train_ds)) == extra

    @pytest.mark.parametrize("kind, head", [("CE", "plain"), ("DG", "abstain")])
    def test_train_accuracy_of_a_network_that_does_not_move(self, kind, head):
        # with a vanishing step every batch sees the untrained network, so
        # the running batch accuracy is its accuracy on the training split
        train_ds, val_ds, _ = generate_mixture(small_spec(noise=0.2))
        net = build_network(2, (8,), 2, head, seed=6)
        before = net.params.copy()
        logits = network_forward(net, train_ds.features).head_raw["logits"]
        untrained = float(np.mean(logits[:, :2].argmax(axis=1)
                                  == train_ds.labels))
        cfg = quick_cfg(kind=kind, epochs=2, seed=6)
        cfg.lr0 = 1e-300
        report, _ = train(net, train_ds, val_ds, cfg)
        assert np.allclose(net.params, before, rtol=0.0, atol=1e-280)
        assert [e.train_accuracy for e in report.epochs] == [untrained] * 2

    def test_lr_sequence_matches_schedule(self):
        train_ds, val_ds, _ = generate_mixture(small_spec())
        cfg = quick_cfg(epochs=4)
        cfg.decay_every = 2
        net = build_network(2, (4,), 2, "plain", seed=0)
        report, _ = train(net, train_ds, val_ds, cfg)
        assert [e.lr for e in report.epochs] == \
            [lr_at_epoch(cfg, e) for e in range(4)]

    def test_bit_identical_reruns(self):
        train_ds, val_ds, _ = generate_mixture(small_spec())

        def run():
            net = build_network(2, (8, 8), 2, "abstain", seed=5)
            cfg = quick_cfg(kind="SAT", epochs=6, seed=5,
                            sat_pretrain_epochs=2)
            report, _ = train(net, train_ds, val_ds, cfg)
            return net, report

        n1, r1 = run()
        n2, r2 = run()
        assert np.array_equal(n1.params, n2.params)
        assert [e.train_loss for e in r1.epochs] == \
            [e.train_loss for e in r2.epochs]

    def test_objective_head_mismatch(self):
        train_ds, val_ds, _ = generate_mixture(small_spec())
        net = build_network(2, (4,), 2, "plain", seed=0)
        with pytest.raises(ConfigurationError):
            train(net, train_ds, val_ds, quick_cfg(kind="SAT"))

    def test_divergence_aborts_with_context(self):
        train_ds, val_ds, _ = generate_mixture(small_spec())
        net = build_network(2, (8,), 2, "plain", seed=0)
        cfg = quick_cfg(epochs=3)
        cfg.lr0 = 1e9  # guaranteed blow-up
        with pytest.raises(NumericFault, match="epoch"):
            train(net, train_ds, val_ds, cfg)

    def test_sat_targets_untouched_during_pretrain(self):
        train_ds, val_ds, _ = generate_mixture(small_spec(noise=0.2))
        net = build_network(2, (8,), 2, "abstain", seed=2)
        cfg = quick_cfg(kind="SAT", epochs=3, seed=2, sat_pretrain_epochs=3)
        _, store = train(net, train_ds, val_ds, cfg)
        onehot = np.zeros((len(train_ds), 3))
        onehot[np.arange(len(train_ds)), train_ds.labels] = 1.0
        assert np.array_equal(store.targets, onehot)

    def test_sat_targets_move_after_pretrain(self):
        train_ds, val_ds, _ = generate_mixture(small_spec(noise=0.2))
        net = build_network(2, (8,), 2, "abstain", seed=2)
        cfg = quick_cfg(kind="SAT", epochs=4, seed=2, sat_pretrain_epochs=2)
        _, store = train(net, train_ds, val_ds, cfg)
        assert np.any(store.targets[:, -1] > 0)
        assert np.max(np.abs(store.targets.sum(axis=1) - 1.0)) < 1e-9

    def test_sat_momentum_one_identical_to_ce_trajectory(self):
        # target freezing makes the moving-target loss literally the
        # (C+1)-way cross entropy, so the trajectories must agree bitwise
        train_ds, val_ds, _ = generate_mixture(small_spec(noise=0.1, seed=3))

        def run(kind, **kw):
            net = build_network(2, (8, 8), 2, "abstain", seed=3)
            cfg = quick_cfg(kind=kind, epochs=20, seed=3, **kw)
            train(net, train_ds, val_ds, cfg)
            return net

        sat_net = run("SAT", sat_momentum=1.0, sat_pretrain_epochs=0)
        # plain (C+1)-way CE: run the SAT objective while it is still in
        # its pre-training phase, which is cross entropy by construction
        ce_net = run("SAT", sat_pretrain_epochs=10_000)
        assert np.max(np.abs(sat_net.params - ce_net.params)) < 1e-10

    def test_sat_epoch_update_uses_end_of_epoch_predictions(self):
        train_ds, val_ds, _ = generate_mixture(small_spec(noise=0.2))

        def run(epochs):
            net = build_network(2, (8,), 2, "abstain", seed=2)
            cfg = quick_cfg(kind="SAT", epochs=epochs, seed=2,
                            sat_pretrain_epochs=1, sat_update="epoch",
                            sat_momentum=0.7)
            _, store = train(net, train_ds, val_ds, cfg)
            return net, store

        # training is a deterministic function of the epoch index, so the
        # two-epoch run is the first two epochs of the three-epoch run
        _, before = run(2)
        net, after = run(3)
        assert np.any(before.targets[:, -1] > 0)
        p = stable_softmax(
            network_forward(net, train_ds.features).head_raw["logits"])
        expected = 0.7 * before.targets + 0.3 * p
        assert np.max(np.abs(after.targets - expected)) < 1e-12

    def test_f32_training_keeps_f32_views_and_checkpoint_bits(self, tmp_path):
        train_ds, val_ds, _ = generate_mixture(small_spec())
        net = build_network(2, (8, 8), 2, "selectivenet", seed=4,
                            numeric_mode="f32")
        cfg = quick_cfg(kind="SelectiveNet", epochs=3, seed=4, c_target=0.8)
        cfg.numeric_mode = "f32"
        report, _ = train(net, train_ds, val_ds, cfg)
        assert report.epochs[-1].val_accuracy > 0.6
        assert net.params.dtype == np.float32
        for layer in net.trunk + list(net.heads.values()):
            assert layer.W.dtype == np.float32
            assert np.shares_memory(layer.W, net.params)
            assert np.shares_memory(layer.b, net.params)
        path = tmp_path / "ckpt.json"
        save_checkpoint(net, path)
        loaded, _ = load_checkpoint(path)
        assert loaded.numeric_mode == "f32"
        assert loaded.params.dtype == np.float32
        assert np.array_equal(loaded.params.view(np.uint32),
                              net.params.view(np.uint32))

    def test_selectivenet_trains(self):
        train_ds, val_ds, _ = generate_mixture(small_spec(noise=0.1))
        net = build_network(2, (8, 8), 2, "selectivenet", seed=4)
        cfg = quick_cfg(kind="SelectiveNet", epochs=8, seed=4, c_target=0.8)
        report, _ = train(net, train_ds, val_ds, cfg)
        assert report.epochs[-1].val_accuracy > 0.6


class TestMethodGrid:
    """Which (method, coverage, seed) cells `selcls grid` trains."""

    def run_grid(self, tmp_path, methods, coverages, objective=None):
        out = tmp_path / "run"
        doc = {
            "dataset": {"kind": "mixture", "preset": "blobs8",
                        "n_train": 240, "n_val": 120, "n_test": 160},
            "model": {"hidden_dims": [8]},
            "objective": objective or {"kind": "CE"},
            "training": {"epochs": 2, "batch_size": 32, "seed": 0},
            "grid": {"methods": methods, "mechanisms": ["softmax_response"],
                     "coverages": coverages, "seeds": [0]},
            "output_dir": str(out),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        code = main(["grid", "-c", str(path)])
        manifest = json.loads((out / "manifest.json").read_text())
        return code, manifest["cells"]

    def test_single_cell(self, tmp_path):
        code, cells = self.run_grid(tmp_path, ["CE"], [0.9])
        assert code == 0
        assert len(cells) == 1
        assert cells[0]["status"] == "ok"
        assert cells[0]["checkpoint"].endswith(
            f"{cells[0]['name']}.checkpoint.json")
        assert Path(cells[0]["checkpoint"]).exists()

    def test_sat_trains_once_for_all_coverages(self, tmp_path):
        code, cells = self.run_grid(tmp_path, ["SAT"], [0.9, 0.7, 0.5])
        assert code == 0
        assert len(cells) == 1
        assert cells[0]["coverage"] is None

    def test_selectivenet_trains_per_coverage(self, tmp_path):
        code, cells = self.run_grid(tmp_path, ["SelectiveNet"],
                                    [0.9, 0.7, 0.5])
        assert code == 0
        assert [c["coverage"] for c in cells] == [0.9, 0.7, 0.5]
        assert all(c["status"] == "ok" for c in cells)

    def test_partial_failure_recorded_grid_continues(self, tmp_path):
        # blobs8 has C=8, so the payoff o=44 is inadmissible for DG;
        # CE ignores it
        code, cells = self.run_grid(tmp_path, ["DG", "CE"], [0.9],
                                    objective={"kind": "CE", "o": 44.0})
        assert code == 1
        assert [c["status"] for c in cells] == ["failed", "ok"]
        assert "o=44" in cells[0]["error"]


def test_grid_cell_names_are_filesystem_safe():
    assert grid_cell_name("SAT+EM", 0.7, 3) == "SAT_EM_c0.7_s3"
    assert grid_cell_name("CE", None, 0) == "CE_all_s0"
