import base64
import json
import re

import numpy as np
import pytest

from selcls.datasets import Dataset
from selcls.errors import ConfigurationError, NumericFault
from selcls import nn
from selcls.nn import (
    FORWARD_BLOCK_ROWS,
    Network,
    Workspace,
    build_network,
    finite_difference_gradient,
    load_checkpoint,
    max_relative_error,
    network_backward,
    network_forward,
    network_outputs,
    save_checkpoint,
    sigmoid,
    softmax,
)
from selcls.objectives import ObjectiveConfig, objective_dispatch
from selcls.training import TrainConfig, train

from conftest import fail_writes, random_batch, random_net


# (head layout, layer) for every layer of a two-layer trunk and every head
FAULT_SITES = [(head, layer)
               for head, heads in (("plain", ["logits"]),
                                   ("abstain", ["logits"]),
                                   ("selectivenet", ["logits", "select", "aux"]))
               for layer in [0, 1, *heads]]


def fault_message(layer) -> str:
    """The NumericFault message for a non-finite trunk layer or head."""
    if isinstance(layer, int):
        return f"non-finite pre-activation at trunk layer {layer}"
    return f"non-finite output at head {layer!r}"


def affine(x, W, b):
    """Row-wise X W^T + b through network_forward on a network without a
    trunk whose logits head is (W, b)."""
    W = np.asarray(W, dtype=np.float64)
    net = build_network(W.shape[1], (), n_classes=W.shape[0], head="plain")
    net.heads["logits"].W[...] = W
    net.heads["logits"].b[...] = b
    return network_forward(net, np.atleast_2d(x)).head_raw["logits"]


class TestAffineForward:
    def test_identity(self):
        out = affine([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        assert np.allclose(out, [[1.0, 0.0]])

    def test_zero_input_returns_bias(self):
        out = affine([0.0, 0.0], [[3.0, -2.0], [1.0, 7.0]], [0.5, -0.5])
        assert np.allclose(out, [[0.5, -0.5]])

    def test_hand_arithmetic(self):
        # 1*2 + 2*3 + 1 = 9 and 0*2 - 1*3 + 0 = -3
        out = affine([2.0, 3.0], [[1.0, 2.0], [0.0, -1.0]], [1.0, 0.0])
        assert np.allclose(out, [[9.0, -3.0]])

    def test_batch_matches_rowwise(self, rng):
        W = rng.normal(size=(3, 5))
        b = rng.normal(size=3)
        X = rng.normal(size=(7, 5))
        batched = affine(X, W, b)
        for i in range(7):
            assert np.allclose(batched[i], affine(X[i], W, b)[0])

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            affine([1.0, 2.0, 3.0], [[1.0, 2.0], [0.0, 1.0]], [0.0, 0.0])


class TestStableSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax(np.array([[0.0, 0.0]]))[0], [[0.5, 0.5]])

    def test_large_inputs_no_overflow(self):
        p = softmax(np.array([[1000.0, 1000.0, 1000.0]]))[0]
        assert np.all(np.isfinite(p))
        assert np.allclose(p, [[1 / 3, 1 / 3, 1 / 3]])

    def test_high_precision_values(self):
        # independent evaluation at 30 decimal digits
        p = softmax(np.array([[1.0, 2.0, 3.0]]))[0]
        expected = [0.090030573170380458, 0.24472847105479765,
                    0.66524095577482189]
        assert np.max(np.abs(p - expected)) < 1e-15

    def test_sums_to_one(self, rng):
        z = rng.normal(scale=5, size=(50, 7))
        assert np.max(np.abs(softmax(z)[0].sum(axis=1) - 1.0)) < 1e-12

    def test_shift_invariance(self, rng):
        for _ in range(20):
            z = rng.normal(scale=3, size=(1, 9))
            c = rng.normal(scale=100)
            assert np.max(np.abs(softmax(z + c)[0] - softmax(z)[0])) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            softmax(np.zeros((3, 0)))

    def test_zero_rows_give_empty_results(self):
        for out in softmax(np.zeros((0, 3))):
            assert out.shape == (0, 3)

    def test_log_softmax_consistent(self, rng):
        z = rng.normal(scale=4, size=(6, 5))
        p, log_p = softmax(z)
        assert np.allclose(np.exp(log_p), p)

    def test_column_slice_equals_its_contiguous_copy(self, rng):
        # selection scores take the C-way softmax of an abstain head's
        # first C columns, a strided view
        logits = rng.normal(scale=20.0, size=(300, 9))
        for got, want in zip(softmax(logits[:, :8]),
                             softmax(logits[:, :8].copy())):
            assert got.tobytes() == want.tobytes()


def test_sigmoid_bit_identical_to_two_branch_form(rng):
    # reference: 1/(1+exp(-z)) on z >= 0 and exp(z)/(1+exp(z)) below
    z = np.concatenate([rng.uniform(-1000, 1000, size=100_000),
                        [0.0, -0.0, np.inf, -np.inf, np.nan, 36.7, -745.2]])
    expected = np.empty_like(z)
    pos = z >= 0
    expected[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    expected[~pos] = ez / (1.0 + ez)
    assert np.array_equal(sigmoid(z), expected, equal_nan=True)
    assert sigmoid(z.astype(np.float32)).dtype == np.float32


def test_sigmoid_stable_at_extremes():
    g = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
    assert np.all(np.isfinite(g))
    assert g[1] == 0.5
    assert 0.0 <= g[0] < 1e-300 or g[0] == 0.0
    assert g[2] == 1.0


class TestNetworkForward:
    def test_zero_net_uniform_softmax(self, rng):
        net = build_network(3, (4,), n_classes=5, head="plain", seed=0)
        net.params[...] = 0.0
        trace = network_forward(net, rng.normal(size=(6, 3)))
        assert np.allclose(trace.head_raw["logits"], 0.0)
        assert np.allclose(softmax(trace.head_raw["logits"])[0], 0.2)

    def test_single_affine_equals_rowwise_affine(self, rng):
        net = build_network(4, (), n_classes=3, head="plain", seed=3)
        X = rng.normal(size=(5, 4))
        trace = network_forward(net, X)
        head = net.heads["logits"]
        for i in range(5):
            assert np.allclose(trace.head_raw["logits"][i],
                               head.W @ X[i] + head.b)

    def test_matches_independent_composition(self, rng):
        # oracle: re-implement the two-layer forward with raw numpy
        net = random_net(rng, head="plain", n_classes=3, input_dim=3,
                         widths=(8, 6))
        X, _ = random_batch(rng, net, m=4)
        a = X
        for layer in net.trunk:
            a = np.maximum(a @ layer.W.T + layer.b, 0.0)
        expected = a @ net.heads["logits"].W.T + net.heads["logits"].b
        trace = network_forward(net, X)
        assert np.allclose(trace.head_raw["logits"], expected, atol=1e-12)

    def test_selectivenet_heads_present(self, rng):
        net = random_net(rng, head="selectivenet", n_classes=4)
        X, _ = random_batch(rng, net, m=3)
        trace = network_forward(net, X)
        assert trace.head_raw["logits"].shape == (3, 4)
        assert trace.head_raw["select"].shape == (3, 1)
        assert trace.head_raw["aux"].shape == (3, 4)
        g = sigmoid(trace.head_raw["select"][:, 0])
        assert np.all((g > 0) & (g < 1))

    def test_abstain_head_arity(self):
        net = build_network(2, (4,), n_classes=3, head="abstain", seed=0)
        trace = network_forward(net, np.zeros((2, 2)))
        assert trace.head_raw["logits"].shape == (2, 4)

    def test_nonfinite_input_faults_with_layer_index(self):
        net = build_network(2, (4,), n_classes=2, head="plain", seed=0)
        with pytest.raises(NumericFault, match="layer 0"):
            network_forward(net, np.array([[np.inf, 0.0]]))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan],
                             ids=["+inf", "-inf", "nan"])
    @pytest.mark.parametrize("head,layer", FAULT_SITES)
    def test_nonfinite_value_faults_naming_its_layer(self, rng, head, layer,
                                                     value):
        # a -inf pre-activation at trunk layer 1 is zeroed by the ReLU, so
        # nothing downstream of it shows the fault
        net = build_network(2, (8, 8), n_classes=3, head=head, seed=0)
        target = net.trunk[layer] if isinstance(layer, int) \
            else net.heads[layer]
        target.b[0] = value
        message = f"^{re.escape(fault_message(layer))}$"
        for rows in (64, 2000):  # a training batch and a whole split
            with pytest.raises(NumericFault, match=message):
                network_forward(net, rng.normal(size=(rows, 2)))
        data = Dataset(rng.normal(size=(64, 2)), rng.integers(0, 3, size=64))
        kind = {"plain": "CE", "abstain": "DG",
                "selectivenet": "SelectiveNet"}[head]
        with pytest.raises(NumericFault, match=message):
            train(net, data, data, TrainConfig(
                epochs=1, objective=ObjectiveConfig(kind=kind)))

    def test_wrong_input_dim(self):
        net = build_network(3, (4,), n_classes=2, head="plain", seed=0)
        with pytest.raises(ConfigurationError):
            network_forward(net, np.zeros((2, 5)))

    def test_deterministic(self, rng):
        X = rng.normal(size=(4, 3))
        t1 = network_forward(build_network(3, (5,), 3, "plain", seed=7), X)
        t2 = network_forward(build_network(3, (5,), 3, "plain", seed=7), X)
        assert np.array_equal(t1.head_raw["logits"], t2.head_raw["logits"])


class TestNetworkOutputs:
    @pytest.mark.parametrize("rows", [1, 511, 512, 513, 1023, 1024, 1025,
                                      2000, 4000, 8000])
    def test_bitwise_equal_to_one_forward(self, rng, monkeypatch, rows):
        block_rows = []

        def counted(net, batch, ws=None):
            block_rows.append(len(batch))
            return network_forward(net, batch, ws)

        monkeypatch.setattr(nn, "network_forward", counted)
        X = rng.normal(size=(rows, 5))
        n_blocks = max(1, rows // FORWARD_BLOCK_ROWS)
        blocks = [FORWARD_BLOCK_ROWS] * (n_blocks - 1) + \
            [rows - FORWARD_BLOCK_ROWS * (n_blocks - 1)]
        for head in ("plain", "abstain", "selectivenet"):
            net = build_network(5, (64, 64), 8, head, seed=1)
            net.params += rng.normal(scale=0.3, size=net.params.size)
            want = network_forward(net, X).head_raw
            block_rows.clear()
            got = network_outputs(net, X)
            # aligned blocks, the last one taking the remainder
            assert block_rows == blocks
            assert list(got) == list(want)
            for name in want:
                assert got[name].dtype == np.float64
                assert np.array_equal(got[name], want[name]), name

    @pytest.mark.parametrize("layer", [0, 1])
    def test_nonfinite_value_in_a_later_block_faults_like_one_forward(
            self, rng, layer):
        net = build_network(5, (64, 64), 8, "selectivenet", seed=1)
        X = rng.normal(size=(2000, 5))
        if layer == 0:
            X[1500, 2] = np.nan
        else:
            # finite at layer 0, past the float range at layer 1, only for
            # the one row in the last block
            X[1500] = 1e300
            net.trunk[1].W[...] *= 1e10
        message = f"^{re.escape(fault_message(layer))}$"
        with np.errstate(over="ignore"):
            with pytest.raises(NumericFault, match=message):
                network_forward(net, X)
            with pytest.raises(NumericFault, match=message):
                network_outputs(net, X)
        network_outputs(net, X[:1024])  # the earlier blocks are finite

    def test_wrong_input_shape(self):
        net = build_network(3, (4,), n_classes=2, head="plain", seed=0)
        for X in (np.zeros((2000, 5)), np.zeros(2000)):
            with pytest.raises(ConfigurationError):
                network_outputs(net, X)


class TestWorkspace:
    HEADS = ("plain", "abstain", "selectivenet")

    @pytest.mark.parametrize("widths", [(64, 64), ()],
                             ids=["64-64", "no-trunk"])
    @pytest.mark.parametrize("head", HEADS)
    def test_bitwise_equal_to_fresh_buffers(self, rng, head, widths):
        net = build_network(5, widths, 8, head, seed=1)
        net.params += rng.normal(scale=0.3, size=net.params.size)
        ws = Workspace(net)
        # a short last batch, a full one, then one larger than any before
        for rows in (64, 16, 64, 200):
            X = rng.normal(size=(rows, 5))
            want = network_forward(net, X)
            got = network_forward(net, X, ws)
            for name in want.head_raw:
                assert np.array_equal(got.head_raw[name], want.head_raw[name])
            for a, b in zip(got.pre + got.act, want.pre + want.act):
                assert np.array_equal(a, b)
            d = {name: rng.normal(size=raw.shape)
                 for name, raw in want.head_raw.items()}
            assert np.array_equal(network_backward(net, got, d),
                                  network_backward(net, want, d))

    def test_trace_is_overwritten_by_the_next_forward(self, rng):
        net = random_net(rng, head="selectivenet")
        ws = Workspace(net)
        X1, X2 = rng.normal(size=(8, 4)), rng.normal(size=(8, 4))
        first = network_forward(net, X1, ws)
        logits1 = first.head_raw["logits"].copy()
        second = network_forward(net, X2, ws)
        # the first trace is the second: it now holds the second batch
        assert second is first
        assert np.array_equal(first.x, X2)
        assert np.array_equal(first.head_raw["logits"],
                              network_forward(net, X2).head_raw["logits"])
        assert not np.array_equal(first.head_raw["logits"], logits1)

    def test_network_outputs_never_alias_a_workspace(self, rng):
        net = random_net(rng, head="selectivenet")
        ws = Workspace(net)
        trace = network_forward(net, rng.normal(size=(8, 4)), ws)
        outputs = [network_outputs(net, rng.normal(size=(rows, 4)))
                   for rows in (8, 2000)]
        kept = [{name: raw.copy() for name, raw in out.items()}
                for out in outputs]
        network_forward(net, rng.normal(size=(8, 4)), ws)
        buffers = trace.pre + trace.act + list(trace.head_raw.values())
        for out, before in zip(outputs, kept):
            for name, raw in out.items():
                assert np.array_equal(raw, before[name])
                assert not any(np.shares_memory(raw, b) for b in buffers)


class TestNetworkBackward:
    def test_zero_dlogits_zero_grads(self, rng):
        net = random_net(rng)
        X, _ = random_batch(rng, net)
        trace = network_forward(net, X)
        grads = network_backward(
            net, trace, {"logits": np.zeros_like(trace.head_raw["logits"])})
        assert grads is trace.grad
        assert grads.shape == net.params.shape
        assert np.all(grads == 0.0)

    def test_sum_of_logits_closed_form(self):
        # single linear layer, loss = sum of logits, one sample
        net = build_network(3, (), n_classes=2, head="plain", seed=1)
        x = np.array([[0.5, -1.0, 2.0]])
        trace = network_forward(net, x)
        ones = np.ones_like(trace.head_raw["logits"])
        grads = network_backward(net, trace, {"logits": ones})
        # the only layer's W (2 x 3) comes first, then its b
        assert np.allclose(grads[:6].reshape(2, 3), np.outer(np.ones(2), x[0]))
        assert np.allclose(grads[6:], np.ones(2))

    def test_relu_subgradient_at_exactly_zero_is_zero(self, rng):
        net = build_network(2, (3,), 2, "plain")
        net.trunk[0].W[0] = 0.0
        net.trunk[0].b[0] = 0.0
        trace = network_forward(net, rng.normal(size=(4, 2)))
        assert np.all(trace.pre[0][:, 0] == 0.0)
        grads = network_backward(
            net, trace, {"logits": rng.normal(size=(4, 2))})
        dW, db = nn._layer_views(grads, net.layer_shapes)[0]
        assert np.all(dW[0] == 0.0) and db[0] == 0.0
        # the other units are live, so their rows are not trivially 0
        assert np.any(dW[1:] != 0.0)

    def test_missing_or_extra_head_raises(self, rng):
        net = random_net(rng, head="selectivenet", n_classes=3)
        X, _ = random_batch(rng, net)
        trace = network_forward(net, X)
        ones = {name: np.ones_like(raw)
                for name, raw in trace.head_raw.items()}
        missing = {"logits": ones["logits"]}
        extra = {**ones, "other": ones["logits"]}
        for dhead_raw in (missing, extra):
            # the message names both key sets
            names = re.escape(f"{sorted(ones)}, got {sorted(dhead_raw)}")
            with pytest.raises(ConfigurationError, match=names):
                network_backward(net, trace, dhead_raw)

    def test_builds_no_buffers_of_its_own(self, rng, monkeypatch):
        # the backward writes into the trace, so a forward and backward
        # without a workspace build one set of batch buffers
        built = []
        init = nn._BatchBuffers.__init__

        def counted(self, net, m):
            built.append(m)
            init(self, net, m)

        monkeypatch.setattr(nn._BatchBuffers, "__init__", counted)
        net = random_net(rng, head="selectivenet")
        X, _ = random_batch(rng, net)
        trace = network_forward(net, X)
        network_backward(net, trace, {name: np.ones_like(raw)
                                      for name, raw in trace.head_raw.items()})
        assert built == [len(X)]

    def test_shape_mismatch_rejected(self, rng):
        net = random_net(rng)
        X, _ = random_batch(rng, net)
        trace = network_forward(net, X)
        with pytest.raises(ConfigurationError):
            network_backward(net, trace, {"logits": np.zeros((1, 1))})


class TestFiniteDifference:
    def test_known_quadratic(self):
        # L = theta^2 at theta = 3 has derivative 6
        net = build_network(1, (), n_classes=2, head="plain", seed=0)
        w = net.heads["logits"].W
        w[...] = 0.0
        w[0, 0] = 3.0

        def lossfn(n):
            return float(n.heads["logits"].W[0, 0] ** 2)

        g = finite_difference_gradient(lossfn, net)
        assert abs(g[0] - 6.0) < 1e-6
        assert np.all(g[1:] == 0.0)

    def test_constant_loss_zero_gradient(self, rng):
        net = random_net(rng)
        g = finite_difference_gradient(lambda n: 1.25, net)
        assert g.shape == net.params.shape
        assert np.all(g == 0.0)

    def test_nonfinite_loss_faults(self, rng):
        net = random_net(rng)
        with pytest.raises(NumericFault):
            finite_difference_gradient(lambda n: float("nan"), net)

    def test_cross_entropy_backprop_agreement(self, rng):
        net = random_net(rng, head="plain", n_classes=3, widths=(8, 6))
        X, y = random_batch(rng, net, m=5)
        cfg = ObjectiveConfig(kind="CE")

        def lossfn(n):
            return objective_dispatch(cfg, network_forward(n, X).head_raw, y,
                                      n_classes=3).loss

        trace = network_forward(net, X)
        d = objective_dispatch(cfg, trace.head_raw, y, n_classes=3).dlogits
        analytic = network_backward(net, trace, d)
        fd = finite_difference_gradient(lossfn, net)
        assert max_relative_error(net, analytic, fd) < 1e-5


class TestCheckpoint:
    def test_roundtrip_lossless(self, rng, tmp_path):
        net = random_net(rng, head="selectivenet", n_classes=4)
        path = tmp_path / "ckpt.json"
        save_checkpoint(net, path, config_hash="abc123")
        loaded, h = load_checkpoint(path)
        assert h == "abc123"
        assert loaded.head == net.head
        assert np.array_equal(net.params, loaded.params)

    def test_load_draws_no_initialization(self, rng, tmp_path, monkeypatch):
        net = random_net(rng, head="selectivenet", n_classes=4)
        path = tmp_path / "ckpt.json"
        save_checkpoint(net, path)

        def no_draw(*args):
            raise AssertionError("load_checkpoint drew an initialization")

        monkeypatch.setattr(nn, "rng_for", no_draw)
        loaded, _ = load_checkpoint(path)
        assert np.array_equal(loaded.params, net.params)

    def test_flat_layout_is_checkpoint_order(self, tmp_path):
        net = build_network(3, (5, 4), n_classes=3, head="selectivenet",
                            seed=2)
        net.params += np.arange(net.params.size)  # nonzero biases
        layers = net.trunk + [net.heads[name]
                              for name in ("logits", "select", "aux")]
        for layer in layers:
            assert np.shares_memory(layer.W, net.params)
            assert np.shares_memory(layer.b, net.params)
        expected = np.concatenate([np.concatenate([layer.W.ravel(), layer.b])
                                   for layer in layers])
        path = tmp_path / "ckpt.json"
        save_checkpoint(net, path)
        payload = base64.b64decode(json.loads(path.read_text())["params"],
                                   validate=True)
        assert np.array_equal(np.frombuffer(payload, dtype="<f8"), expected)

    def test_failed_write_keeps_previous_checkpoint(self, rng, tmp_path,
                                                    monkeypatch):
        net = random_net(rng)
        path = tmp_path / "ckpt.json"
        save_checkpoint(net, path)
        before = path.read_bytes()

        fail_writes(monkeypatch)
        net.params += 1.0
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(net, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text('{"format_version": 99}')
        with pytest.raises(ConfigurationError):
            load_checkpoint(path)

    @staticmethod
    def rewrite(path, **fields):
        doc = json.loads(path.read_text())
        doc.update(fields)
        path.write_text(json.dumps(doc))

    def test_numeric_mode_key_of_older_files_ignored(self, rng, tmp_path):
        # files written while networks could be float32 carry the key;
        # their parameters are float64 bytes whatever it says
        net = random_net(rng, head="abstain")
        path = tmp_path / "ckpt.json"
        save_checkpoint(net, path, config_hash="abc123")
        self.rewrite(path, numeric_mode="f32")
        loaded, h = load_checkpoint(path)
        assert h == "abc123"
        assert loaded.params.dtype == np.float64
        assert loaded.params.tobytes() == net.params.tobytes()

    def test_version_1_document_rejected_naming_path(self, rng, tmp_path):
        net = random_net(rng)
        path = tmp_path / "ckpt.json"
        save_checkpoint(net, path)
        self.rewrite(path, format_version=1, params=net.params.tolist())
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"checkpoint {path}: unsupported "
                                           "format version 1")):
            load_checkpoint(path)

    @pytest.mark.parametrize("damage", [
        lambda p: p[:40] + "!" + p[40:],
        lambda p: p[:40] + " " + p[40:],
        lambda p: "\n".join(p[i:i + 76] for i in range(0, len(p), 76)),
        lambda p: p.rstrip("="),
        lambda p: p + "AAAA",
        lambda p: "Ä" + p[1:],
    ], ids=["symbol", "space", "line-breaks", "unpadded", "after-padding",
            "non-ascii"])
    def test_invalid_base64_rejected_naming_path(self, rng, tmp_path, damage):
        # the random net's 83 parameters need padding ("=="); a lenient
        # decoder would skip the symbol, space and line breaks
        net = random_net(rng)
        path = tmp_path / "ckpt.json"
        save_checkpoint(net, path)
        payload = json.loads(path.read_text())["params"]
        assert net.params.size == 83 and payload.endswith("==")
        self.rewrite(path, params=damage(payload))
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"checkpoint {path}: 'params' is "
                                           "not valid base64")):
            load_checkpoint(path)

    @pytest.mark.parametrize("change", [-8, -1, 1, 8])
    def test_wrong_byte_count_rejected_naming_path(self, rng, tmp_path,
                                                   change):
        net = random_net(rng)
        raw = net.params.astype("<f8").tobytes()
        raw = raw[:change] if change < 0 else raw + bytes(change)
        path = tmp_path / "ckpt.json"
        save_checkpoint(net, path)
        self.rewrite(path, params=base64.b64encode(raw).decode())
        with pytest.raises(ConfigurationError,
                           match=re.escape(f"checkpoint {path} holds "
                                           f"{len(raw)} parameter bytes, "
                                           "architecture wants "
                                           f"{8 * net.params.size}")):
            load_checkpoint(path)

    def test_params_of_the_wrong_json_type_rejected(self, rng, tmp_path):
        path = tmp_path / "ckpt.json"
        net = random_net(rng)
        save_checkpoint(net, path)
        self.rewrite(path, params=net.params.tolist())
        with pytest.raises(ConfigurationError, match="'params' is missing"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                             ids=["nan", "+inf", "-inf"])
    def test_nonfinite_payload_faults_naming_path(self, rng, tmp_path, value):
        net = random_net(rng)
        net.params[7] = value
        path = tmp_path / "ckpt.json"
        save_checkpoint(net, path)
        with pytest.raises(NumericFault,
                           match=re.escape(f"checkpoint {path} contains "
                                           "non-finite parameters")):
            load_checkpoint(path)

    def test_parameter_count(self):
        net = build_network(2, (4, 3), n_classes=2, head="plain", seed=0)
        # (4*2+4) + (3*4+3) + (2*3+2) = 12 + 15 + 8
        assert net.params.shape == (35,)
