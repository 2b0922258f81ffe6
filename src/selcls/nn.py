"""Minimal dense networks with exact analytic forward/backward passes.

Everything here is plain numpy. A network is a ReLU MLP trunk plus one of
three head layouts:

    plain        one affine head producing C class logits
    abstain      one affine head producing C+1 logits (last = abstain)
    selectivenet three affine heads off the shared trunk: prediction
                 logits (C), a single selection unit passed through a
                 sigmoid, and auxiliary logits (C)

Forward passes record a trace sufficient for the exact backward pass;
neither pass mutates the network. Parameter updates happen only in the
training loop, through the flat array views exposed by ``param_arrays``.

Gradient convention: losses hand back d(loss)/d(raw head outputs), one
array per head, and ``network_backward`` chains them to every parameter.
The ReLU subgradient at exactly 0 is taken to be 0.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericFault, ParseError
from .util import rng_for

HEAD_PLAIN = "plain"
HEAD_ABSTAIN = "abstain"
HEAD_SELECTIVENET = "selectivenet"
HEAD_KINDS = (HEAD_PLAIN, HEAD_ABSTAIN, HEAD_SELECTIVENET)

DTYPES = {"f64": np.float64, "f32": np.float32}

# fixed traversal order of head names; keeps parameter flattening stable
_HEAD_ORDER = ("logits", "select", "aux")


@dataclass
class Affine:
    """One dense layer: y = W x + b with W of shape (out, in)."""

    W: np.ndarray
    b: np.ndarray

    @property
    def in_dim(self) -> int:
        return self.W.shape[1]

    @property
    def out_dim(self) -> int:
        return self.W.shape[0]


@dataclass
class Network:
    input_dim: int
    hidden_dims: tuple
    n_classes: int
    head: str
    trunk: list
    heads: dict
    numeric_mode: str = "f64"

    @property
    def dtype(self):
        return DTYPES[self.numeric_mode]

    @property
    def has_abstain(self) -> bool:
        return self.head == HEAD_ABSTAIN

    @property
    def head_names(self) -> tuple:
        return tuple(n for n in _HEAD_ORDER if n in self.heads)

    def param_arrays(self):
        """All parameter arrays in a fixed order (trunk first, then heads)."""
        out = []
        for layer in self.trunk:
            out.extend([layer.W, layer.b])
        for name in self.head_names:
            out.extend([self.heads[name].W, self.heads[name].b])
        return out

    @property
    def parameter_count(self) -> int:
        return sum(a.size for a in self.param_arrays())


@dataclass
class ForwardTrace:
    """Per-layer intermediates of one batch, enough for an exact backward."""

    x: np.ndarray
    pre: list
    act: list
    head_raw: dict
    g_sel: np.ndarray | None = None

    @property
    def batch_size(self) -> int:
        return self.x.shape[0]


@dataclass
class Gradients:
    trunk: list
    heads: dict

    def arrays(self):
        out = []
        for dW, db in self.trunk:
            out.extend([dW, db])
        for name in _HEAD_ORDER:
            if name in self.heads:
                dW, db = self.heads[name]
                out.extend([dW, db])
        return out


def head_output_dims(head: str, n_classes: int) -> dict:
    if head == HEAD_PLAIN:
        return {"logits": n_classes}
    if head == HEAD_ABSTAIN:
        return {"logits": n_classes + 1}
    if head == HEAD_SELECTIVENET:
        return {"logits": n_classes, "select": 1, "aux": n_classes}
    raise ConfigurationError(f"unknown head kind {head!r}")


def build_network(input_dim, hidden_dims=(64, 64), n_classes=2, head=HEAD_PLAIN,
                  seed=0, numeric_mode="f64") -> Network:
    """Construct a seeded network.

    Weights are uniform in +-sqrt(6/(fan_in+fan_out)) per layer, biases 0.
    """
    if head not in HEAD_KINDS:
        raise ConfigurationError(f"unknown head kind {head!r}")
    if numeric_mode not in DTYPES:
        raise ConfigurationError(f"numeric_mode must be one of {tuple(DTYPES)}")
    if input_dim < 1 or n_classes < 2:
        raise ConfigurationError("need input_dim >= 1 and n_classes >= 2")
    dtype = DTYPES[numeric_mode]
    rng = rng_for(seed, "init")

    def init(out_dim, in_dim):
        bound = np.sqrt(6.0 / (in_dim + out_dim))
        W = rng.uniform(-bound, bound, size=(out_dim, in_dim)).astype(dtype)
        return Affine(W=W, b=np.zeros(out_dim, dtype=dtype))

    trunk, prev = [], input_dim
    for width in hidden_dims:
        trunk.append(init(width, prev))
        prev = width
    heads = {name: init(dim, prev)
             for name, dim in head_output_dims(head, n_classes).items()}
    return Network(input_dim=input_dim, hidden_dims=tuple(hidden_dims),
                   n_classes=n_classes, head=head, trunk=trunk, heads=heads,
                   numeric_mode=numeric_mode)


def affine_forward(x: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    """W x + b for a single vector, or row-wise X W^T + b for a batch."""
    x, W, b = np.asarray(x), np.asarray(W), np.asarray(b)
    if W.ndim != 2 or b.ndim != 1 or W.shape[0] != b.shape[0]:
        raise ConfigurationError(
            f"affine shapes disagree: W {W.shape}, b {b.shape}")
    if x.shape[-1] != W.shape[1]:
        raise ConfigurationError(
            f"input dim {x.shape[-1]} does not match weight in-dim {W.shape[1]}")
    return x @ W.T + b


def relu(z):
    return np.maximum(z, 0.0)


def stable_softmax(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis via max subtraction.

    Shift invariant and overflow safe; rows sum to 1 within 1e-12.
    """
    z = np.asarray(z)
    if z.size == 0 or z.shape[-1] == 0:
        raise ConfigurationError("softmax of an empty vector")
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z)
    if z.size == 0 or z.shape[-1] == 0:
        raise ConfigurationError("log-softmax of an empty vector")
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def sigmoid(z):
    z = np.asarray(z)
    out = np.empty_like(z, dtype=z.dtype)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def network_forward(net: Network, batch: np.ndarray) -> ForwardTrace:
    """Run the trunk and all configured heads on a batch of shape (m, d)."""
    x = np.asarray(batch, dtype=net.dtype)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ConfigurationError(
            f"batch shape {x.shape} does not match input dim {net.input_dim}")
    pre, act = [], []
    a = x
    for i, layer in enumerate(net.trunk):
        z = affine_forward(a, layer.W, layer.b)
        if not np.all(np.isfinite(z)):
            raise NumericFault(f"non-finite pre-activation at trunk layer {i}")
        a = relu(z)
        pre.append(z)
        act.append(a)
    head_raw = {}
    for name in net.head_names:
        h = net.heads[name]
        raw = affine_forward(a, h.W, h.b)
        if not np.all(np.isfinite(raw)):
            raise NumericFault(f"non-finite output at head {name!r}")
        head_raw[name] = raw
    g_sel = None
    if "select" in head_raw:
        g_sel = sigmoid(head_raw["select"][:, 0])
    return ForwardTrace(x=x, pre=pre, act=act, head_raw=head_raw, g_sel=g_sel)


def network_backward(net: Network, trace: ForwardTrace, dhead_raw: dict) -> Gradients:
    """Chain d(loss)/d(raw head outputs) back to every parameter.

    ``dhead_raw`` maps head name to an (m, out_dim) array; omitted heads
    contribute nothing. Returned gradient shapes mirror parameter shapes.
    """
    last_act = trace.act[-1] if trace.act else trace.x
    da = np.zeros_like(last_act)
    head_grads = {}
    for name, d in dhead_raw.items():
        if name not in net.heads:
            raise ConfigurationError(f"gradient for unknown head {name!r}")
        h = net.heads[name]
        d = np.asarray(d, dtype=net.dtype)
        if d.shape != trace.head_raw[name].shape:
            raise ConfigurationError(
                f"dlogits shape {d.shape} does not match head {name!r} "
                f"output {trace.head_raw[name].shape}")
        head_grads[name] = (d.T @ last_act, d.sum(axis=0))
        da = da + d @ h.W
    for name in net.head_names:
        if name not in head_grads:
            h = net.heads[name]
            head_grads[name] = (np.zeros_like(h.W), np.zeros_like(h.b))

    trunk_grads = [None] * len(net.trunk)
    for i in range(len(net.trunk) - 1, -1, -1):
        dz = da * (trace.pre[i] > 0)
        below = trace.act[i - 1] if i > 0 else trace.x
        trunk_grads[i] = (dz.T @ below, dz.sum(axis=0))
        da = dz @ net.trunk[i].W
    return Gradients(trunk=trunk_grads, heads=head_grads)


def finite_difference_gradient(lossfn, net: Network, eps: float = 1e-6) -> Gradients:
    """Central-difference gradient of ``lossfn(net)`` per parameter.

    Perturbs entries in place and restores them; the loss function must be
    deterministic. This is the verification oracle for every analytic
    gradient in the package and stays independent of the backward pass.
    """
    if eps <= 0:
        raise ConfigurationError("eps must be positive")
    grads = []
    for arr in net.param_arrays():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            up = lossfn(net)
            flat[j] = orig - eps
            down = lossfn(net)
            flat[j] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NumericFault("loss function returned a non-finite value")
            gflat[j] = (up - down) / (2.0 * eps)
        grads.append(g)
    return _grads_from_arrays(net, grads)


def _grads_from_arrays(net: Network, arrays) -> Gradients:
    it = iter(arrays)
    trunk = [(next(it), next(it)) for _ in net.trunk]
    heads = {name: (next(it), next(it)) for name in net.head_names}
    return Gradients(trunk=trunk, heads=heads)


def max_relative_error(g1: Gradients, g2: Gradients, guard: float = 1e-8) -> float:
    """Infinity-norm relative disagreement, maximized over parameter arrays.

    Per array: max|a - b| / max(guard, max|a|, max|b|). The difference is
    scaled by the array's own gradient magnitude because entry-wise scaling
    would put central-difference round-off (~1e-9 absolute in 64-bit) above
    any useful tolerance whenever an individual entry happens to be tiny.
    """
    worst = 0.0
    for a, b in zip(g1.arrays(), g2.arrays()):
        if not a.size:
            continue
        denom = max(guard, float(np.abs(a).max()), float(np.abs(b).max()))
        worst = max(worst, float(np.abs(a - b).max()) / denom)
    return worst


# ---------------------------------------------------------------------------
# checkpoint I/O
#
# Format version 1: a JSON document with the architecture, the flattened
# 64-bit parameters (repr round-trips each float exactly), and the hash of
# the training config that produced it.
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 1


def save_checkpoint(net: Network, path, config_hash: str = "") -> None:
    import json

    flat = np.concatenate([a.reshape(-1).astype(np.float64)
                           for a in net.param_arrays()])
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "input_dim": net.input_dim,
        "hidden_dims": list(net.hidden_dims),
        "n_classes": net.n_classes,
        "head": net.head,
        "numeric_mode": net.numeric_mode,
        "config_hash": config_hash,
        "params": [float(v) for v in flat],
    }
    with open(path, "w") as f:
        json.dump(doc, f)


# checkpoint key -> the JSON type it must hold
_CHECKPOINT_FIELDS = {"input_dim": int, "hidden_dims": list, "n_classes": int,
                      "head": str, "numeric_mode": str, "params": list}


def load_checkpoint(path):
    """(network, config hash) from a checkpoint file.

    An unreadable file or a malformed document raises ConfigurationError
    (ParseError for invalid JSON) naming the path; non-finite parameters
    raise NumericFault.
    """
    import json

    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read checkpoint {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ParseError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError(f"checkpoint {path} is not a JSON object")
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise ConfigurationError(
            f"checkpoint {path}: unsupported format version "
            f"{doc.get('format_version')!r}")
    for key, kind in _CHECKPOINT_FIELDS.items():
        if not isinstance(doc.get(key), kind):
            raise ConfigurationError(
                f"checkpoint {path}: {key!r} is missing or not a "
                f"{kind.__name__}")
    if not all(isinstance(w, int) and w >= 1 for w in doc["hidden_dims"]):
        raise ConfigurationError(
            f"checkpoint {path}: 'hidden_dims' must hold positive integers")
    try:
        net = build_network(
            input_dim=doc["input_dim"], hidden_dims=tuple(doc["hidden_dims"]),
            n_classes=doc["n_classes"], head=doc["head"], seed=0,
            numeric_mode=doc["numeric_mode"])
    except ConfigurationError as exc:
        raise ConfigurationError(f"checkpoint {path}: {exc}") from exc
    try:
        flat = np.asarray(doc["params"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"checkpoint {path}: 'params' must be a list of numbers") from exc
    if flat.shape != (net.parameter_count,):
        raise ConfigurationError(
            f"checkpoint {path} holds parameters of shape {flat.shape}, "
            f"architecture wants {net.parameter_count}")
    offset = 0
    for arr in net.param_arrays():
        chunk = flat[offset:offset + arr.size].reshape(arr.shape)
        arr[...] = chunk.astype(net.dtype)
        offset += arr.size
    if not np.all(np.isfinite(flat)):
        raise NumericFault(f"checkpoint {path} contains non-finite parameters")
    return net, doc.get("config_hash", "")
