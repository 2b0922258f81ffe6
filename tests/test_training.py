import json
import math
from pathlib import Path

import numpy as np
import pytest

from selcls.config import DatasetConfig
from selcls.datasets import MixtureSpec, generate_mixture
from selcls.errors import ConfigurationError, NumericFault
from selcls import nn
from selcls.nn import (
    build_network,
    network_backward,
    network_forward,
    network_outputs,
)
from selcls.objectives import (
    OBJECTIVE_KINDS,
    ObjectiveConfig,
    objective_dispatch,
    sat_update_targets,
)
from selcls.cli import grid_cell_name, main
from selcls import training
from selcls.training import (
    EpochStats,
    TrainConfig,
    TrainReport,
    lr_at_epoch,
    sgd_momentum_step,
    train,
)
from selcls.util import rng_for


def train_keeping_targets(monkeypatch, net, train_ds, val_ds, cfg):
    """train()'s report, the SAT targets array it updated and a copy of that
    array from before its first update; both None when no update ran.
    Caught through a wrapped training.sat_update_targets."""
    seen = []

    def kept(targets, *args):
        if not seen:
            seen.extend([targets, targets.copy()])
        sat_update_targets(targets, *args)

    with monkeypatch.context() as m:
        m.setattr(training, "sat_update_targets", kept)
        report = train(net, train_ds, val_ds, cfg)
    return report, *(seen or [None, None])


def small_spec(seed=0, separation=6.0, noise=0.0):
    return MixtureSpec(
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
        sgd_momentum_step(theta, g, v, lr=0.1, momentum=0.9,
                          weight_decay=0.0, step=np.empty_like(theta))
        assert v.tolist() == [1.0, 2.0]
        assert theta == pytest.approx([0.9, -1.2])

    def test_zero_momentum_is_vanilla_sgd(self):
        theta = np.array([2.0])
        v = np.array([5.0])
        g = np.array([0.5])
        sgd_momentum_step(theta, g, v, lr=0.2, momentum=0.0,
                          weight_decay=0.0, step=np.empty_like(theta))
        assert theta[0] == pytest.approx(2.0 - 0.2 * 0.5)

    def test_zero_gradient_velocity_decays_geometrically(self):
        theta = np.array([0.0])
        v = np.array([1.0])
        g = np.array([0.0])
        drift = 0.0
        for step in range(1, 6):
            sgd_momentum_step(theta, g, v, lr=0.1, momentum=0.5,
                              weight_decay=0.0, step=np.empty_like(theta))
            assert v[0] == pytest.approx(0.5 ** step)
            drift -= 0.1 * 0.5 ** step
            assert theta[0] == pytest.approx(drift)

    def test_nonfinite_gradient_faults(self):
        theta, v = np.array([1.0, 2.0]), np.array([0.5, 0.5])
        with pytest.raises(NumericFault):
            sgd_momentum_step(theta, np.array([0.1, np.nan]), v, 0.1, 0.9,
                              0.0, np.empty_like(theta))
        # nothing moves, not even the entries before the bad one
        assert theta.tolist() == [1.0, 2.0]
        assert v.tolist() == [0.5, 0.5]


class TestTrain:
    def test_zero_epochs_noop(self):
        train_ds, val_ds, _ = generate_mixture(small_spec())
        net = build_network(2, (8,), 2, "plain", seed=0)
        before = net.params.copy()
        report = train(net, train_ds, val_ds, quick_cfg(epochs=0))
        assert report.epochs == []
        assert np.array_equal(net.params, before)

    def test_separable_blobs_reach_high_accuracy(self):
        train_ds, val_ds, _ = generate_mixture(small_spec(separation=6.0))
        net = build_network(2, (16,), 2, "plain", seed=1)
        report = train(net, train_ds, val_ds, quick_cfg(epochs=50, seed=1))
        assert report.epochs[-1].train_accuracy >= 0.99

    @pytest.mark.parametrize("kind, head, obj_kw", [
        ("CE", "plain", {}),
        ("SAT", "abstain", {"sat_pretrain_epochs": 1}),
    ], ids=["CE", "SAT-batch-update"])
    def test_one_forward_per_batch_plus_validation(self, monkeypatch, kind,
                                                   head, obj_kw):
        # batches go through network_forward, the validation split through
        # network_outputs
        batch_rows, split_rows = [], []

        def counted_forward(net, batch, ws=None):
            batch_rows.append(len(batch))
            return network_forward(net, batch, ws)

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
        assert split_rows == [len(val_ds)] * 3

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
        report = train(net, train_ds, val_ds, cfg)
        assert np.allclose(net.params, before, rtol=0.0, atol=1e-280)
        assert [e.train_accuracy for e in report.epochs] == [untrained] * 2

    def test_lr_sequence_matches_schedule(self):
        train_ds, val_ds, _ = generate_mixture(small_spec())
        cfg = quick_cfg(epochs=4)
        cfg.decay_every = 2
        net = build_network(2, (4,), 2, "plain", seed=0)
        report = train(net, train_ds, val_ds, cfg)
        assert [e.lr for e in report.epochs] == \
            [lr_at_epoch(cfg, e) for e in range(4)]

    def test_bit_identical_reruns(self):
        train_ds, val_ds, _ = generate_mixture(small_spec())

        def run():
            net = build_network(2, (8, 8), 2, "abstain", seed=5)
            cfg = quick_cfg(kind="SAT", epochs=6, seed=5,
                            sat_pretrain_epochs=2)
            report = train(net, train_ds, val_ds, cfg)
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

    def test_sat_targets_untouched_during_pretrain(self, monkeypatch):
        train_ds, val_ds, _ = generate_mixture(small_spec(noise=0.2))
        net = build_network(2, (8,), 2, "abstain", seed=2)
        cfg = quick_cfg(kind="SAT", epochs=4, seed=2, sat_pretrain_epochs=3)
        _, _, first = train_keeping_targets(monkeypatch, net, train_ds,
                                            val_ds, cfg)
        assert np.array_equal(first, np.ones(len(train_ds)))

    def test_sat_targets_one_mass_per_sample(self, monkeypatch):
        train_ds, val_ds, _ = generate_mixture(small_spec(noise=0.2))
        net = build_network(2, (8,), 2, "abstain", seed=2)
        cfg = quick_cfg(kind="SAT", epochs=2, seed=2, sat_pretrain_epochs=1)
        _, targets, _ = train_keeping_targets(monkeypatch, net, train_ds,
                                              val_ds, cfg)
        assert targets.shape == (len(train_ds),)
        assert targets.dtype == np.float64

    def test_sat_targets_move_after_pretrain(self, monkeypatch):
        train_ds, val_ds, _ = generate_mixture(small_spec(noise=0.2))
        net = build_network(2, (8,), 2, "abstain", seed=2)
        cfg = quick_cfg(kind="SAT", epochs=4, seed=2, sat_pretrain_epochs=2)
        _, targets, _ = train_keeping_targets(monkeypatch, net, train_ds,
                                              val_ds, cfg)
        # every sample sat in two adaptive batches, so its mass on its
        # label fell below 1, and a mass never leaves [0, 1]
        assert np.all(targets < 1.0)
        assert np.all(targets >= 0.0)

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

    def test_selectivenet_trains(self):
        train_ds, val_ds, _ = generate_mixture(small_spec(noise=0.1))
        net = build_network(2, (8, 8), 2, "selectivenet", seed=4)
        cfg = quick_cfg(kind="SelectiveNet", epochs=8, seed=4, c_target=0.8)
        report = train(net, train_ds, val_ds, cfg)
        assert report.epochs[-1].val_accuracy > 0.6


@pytest.mark.parametrize("comment, first_line", [
    ("config=abc", b"# config=abc\n"),
    ("", b""),
], ids=["comment", "no-comment"])
def test_report_csv_bytes(tmp_path, comment, first_line):
    # the optional '# ' comment line ends in \n, the header and rows in
    # \r\n; floats are written in shortest round-trip form
    report = TrainReport(epochs=[EpochStats(0, 0.1, 0.5, 0.75, 0.625, 1.25),
                                 EpochStats(1, 0.05, 1 / 3, 1.0, 0.5, 0.0)])
    report.to_csv(tmp_path / "report.csv", header_comment=comment)
    assert (tmp_path / "report.csv").read_bytes() == first_line + (
        b"epoch,lr,train_loss,train_accuracy,val_accuracy,mean_entropy\r\n"
        b"0,0.1,0.5,0.75,0.625,1.25\r\n"
        b"1,0.05,0.3333333333333333,1.0,0.5,0.0\r\n")


def per_batch_reference_train(net, train_ds, val_ds, cfg):
    """The training loop as it ran before the workspace: every batch
    gathered by its shuffled ids and computed in new arrays, its accuracy
    counted per batch. Returns (epoch stats, SAT targets or None)."""
    obj = cfg.objective
    X = train_ds.features
    y = train_ds.labels
    n, C = len(y), net.n_classes
    targets = np.ones(n) if obj.base_kind == "SAT" else None
    velocity = np.zeros_like(net.params)
    epochs = []
    for epoch in range(cfg.epochs):
        lr = lr_at_epoch(cfg, epoch)
        perm = rng_for(cfg.seed, f"shuffle:{epoch}").permutation(n)
        loss_sum, n_correct = 0.0, 0
        adaptive = obj.base_kind == "SAT" and epoch >= obj.sat_pretrain_epochs
        for start in range(0, n, cfg.batch_size):
            ids = perm[start:start + cfg.batch_size]
            trace = network_forward(net, X[ids])
            result = objective_dispatch(obj, trace.head_raw, y[ids], C,
                                        targets=targets, sample_ids=ids,
                                        epoch=epoch)
            grads = network_backward(net, trace, result.dlogits)
            sgd_momentum_step(net.params, grads, velocity, lr, cfg.momentum,
                              cfg.weight_decay, np.empty_like(net.params))
            if adaptive:
                sat_update_targets(targets, ids, result.p_label,
                                   obj.sat_momentum)
            loss_sum += result.loss * ids.size
            pred = trace.head_raw["logits"][:, :C].argmax(axis=1)
            n_correct += np.count_nonzero(pred == y[ids])
        val_acc, entropy = training._evaluate(net, val_ds.features,
                                              val_ds.labels)
        epochs.append(EpochStats(epoch, lr, loss_sum / n, n_correct / n,
                                 val_acc, entropy))
    return epochs, targets


class TestWorkspaceTraining:
    """train() computes every batch in one workspace on slices of a
    once-per-epoch gathered split; nothing it reports or learns may move
    by a bit against the per-batch reference loop."""

    @pytest.fixture(scope="class")
    def splits(self):
        # 2,000 rows in batches of 64: the last batch of an epoch has 16
        spec = DatasetConfig(n_train=2000, n_val=300, n_test=10) \
            .mixture_spec(11)
        return generate_mixture(spec)[:2]

    @pytest.mark.parametrize("kind, weight_decay", [
        *[(kind, 0.0) for kind in OBJECTIVE_KINDS],
        ("CE", 5e-4),
    ], ids=[*OBJECTIVE_KINDS, "CE-weight-decay"])
    def test_bitwise_equal_to_per_batch_reference(self, splits, kind,
                                                  weight_decay, monkeypatch):
        train_ds, val_ds = splits
        objective = ObjectiveConfig(kind=kind, c_target=0.5,
                                    sat_pretrain_epochs=1)
        cfg = TrainConfig(epochs=3, batch_size=64, seed=11,
                          objective=objective, weight_decay=weight_decay)
        nets = [build_network(train_ds.dim, (64, 64), 8,
                              objective.required_head(), seed=11)
                for _ in range(2)]
        report, targets, _ = train_keeping_targets(monkeypatch, nets[0],
                                                   train_ds, val_ds, cfg)
        want, want_targets = per_batch_reference_train(nets[1], train_ds,
                                                       val_ds, cfg)
        assert report.epochs == want
        assert nets[0].params.tobytes() == nets[1].params.tobytes()
        assert (targets is None) == (objective.base_kind != "SAT")
        if targets is not None:
            assert targets.tobytes() == want_targets.tobytes()

    @pytest.mark.parametrize("kind", ["CE", "DG", "SAT", "SelectiveNet"])
    def test_one_workspace_lookup_per_batch(self, monkeypatch, kind):
        # the objective writes into the trace that the forward returned,
        # so a step looks up its batch buffers once, in the forward
        looked_up = []

        class CountedWorkspace(nn.Workspace):
            def batch(self, m):
                looked_up.append(m)
                return super().batch(m)

        monkeypatch.setattr(training, "Workspace", CountedWorkspace)
        train_ds, val_ds, _ = generate_mixture(small_spec())
        cfg = quick_cfg(kind=kind, epochs=2, sat_pretrain_epochs=0)
        net = build_network(2, (8,), 2, cfg.objective.required_head(), seed=0)
        train(net, train_ds, val_ds, cfg)
        # 300 rows in batches of 32: nine full ones and one of 12
        assert looked_up == ([32] * 9 + [12]) * 2

    def test_inadmissible_payoff_fails_before_any_forward(self, monkeypatch):
        # C = 2, so the payoff 3 lies above C; a TrainConfig built in code
        # passes no config load, so train() checks it itself
        forwards = []

        def counted_forward(net, batch, ws=None):
            forwards.append(len(batch))
            return network_forward(net, batch, ws)

        monkeypatch.setattr(training, "network_forward", counted_forward)
        train_ds, val_ds, _ = generate_mixture(small_spec())
        net = build_network(2, (8,), 2, "abstain", seed=0)
        with pytest.raises(ConfigurationError, match="1 < o <= C"):
            train(net, train_ds, val_ds, quick_cfg(kind="DG", o=3.0))
        assert forwards == []


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
