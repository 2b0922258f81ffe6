"""Minimal dense networks with exact analytic forward/backward passes.

Everything here is plain numpy. A network is a ReLU MLP trunk plus one of
three head layouts:

    plain        one affine head producing C class logits
    abstain      one affine head producing C+1 logits (last = abstain)
    selectivenet three affine heads off the shared trunk: prediction
                 logits (C), a single selection unit passed through a
                 sigmoid, and auxiliary logits (C)

Every parameter lives in one contiguous float64 vector,
``Network.params``. Each layer's ``W`` and ``b`` are views into it, laid
out as trunk ``W, b`` per layer, then the heads ``logits``, ``select``,
``aux``; checkpoints store the vector in that order. The backward pass, the optimizer velocity and
the finite-difference oracle use vectors of the same layout, and
``_layer_views`` cuts any of them into per-layer ``(W, b)`` views.

A forward pass returns the trace that the exact backward pass needs;
neither pass mutates the network. Parameter updates happen only in the
training loop, on ``Network.params``.

A forward pass writes into a ``Workspace``, the buffers of one network
per batch row count, and returns its row count's buffers, which are also
the trace: its input, trunk pre-activations and activations and head
outputs. The backward pass writes the flat gradient there too; the
objective's gradients and the backward's intermediates are new arrays.
A forward given no workspace makes a fresh one, so every pass runs the
same buffer code. ``train()`` holds one workspace for all of its batch
steps; each whole-split forward (``network_outputs``) makes its own. A
trace is overwritten by the next forward on its workspace of as many
rows.

Gradient convention: losses hand back d(loss)/d(raw head outputs), one
array per head, and ``network_backward`` chains them to every parameter.
The ReLU subgradient at exactly 0 is taken to be 0.
"""

import base64
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, NumericFault, ParseError
from .util import atomic_write, rng_for

HEAD_PLAIN = "plain"
HEAD_ABSTAIN = "abstain"
HEAD_SELECTIVENET = "selectivenet"


@dataclass
class Affine:
    """One dense layer: y = W x + b with W of shape (out, in)."""

    W: np.ndarray
    b: np.ndarray


@dataclass
class Network:
    """A trunk and its heads; every layer's W and b are views into the one
    parameter vector ``params``, trunk first, then heads in dict order."""

    input_dim: int
    hidden_dims: tuple
    n_classes: int
    head: str
    params: np.ndarray
    trunk: list
    heads: dict

    @property
    def layer_shapes(self) -> list:
        """(out, in) of every layer in the order of the flat layout."""
        return [layer.W.shape
                for layer in self.trunk + list(self.heads.values())]


def _layer_views(flat: np.ndarray, shapes) -> list:
    """Cut a flat vector into one (W, b) pair of views per (out, in) shape."""
    views, end = [], 0
    for rows, cols in shapes:
        start, end = end, end + rows * cols
        W = flat[start:end].reshape(rows, cols)
        start, end = end, end + rows
        views.append((W, flat[start:end]))
    return views


def head_output_dims(head: str, n_classes: int) -> dict:
    """Output width per head, in the order of the flat parameter layout."""
    if head == HEAD_PLAIN:
        return {"logits": n_classes}
    if head == HEAD_ABSTAIN:
        return {"logits": n_classes + 1}
    if head == HEAD_SELECTIVENET:
        return {"logits": n_classes, "select": 1, "aux": n_classes}
    raise ConfigurationError(f"unknown head kind {head!r}")


def build_network(input_dim, hidden_dims=(64, 64), n_classes=2, head=HEAD_PLAIN,
                  seed=0) -> Network:
    """Construct a seeded network.

    Weights are uniform in +-sqrt(6/(fan_in+fan_out)) per layer, biases 0.
    """
    net = _zero_network(input_dim, tuple(hidden_dims), n_classes, head)
    rng = rng_for(seed, "init")
    for layer in net.trunk + list(net.heads.values()):
        bound = np.sqrt(6.0 / sum(layer.W.shape))
        layer.W[...] = rng.uniform(-bound, bound, size=layer.W.shape)
    return net


def _layer_shapes(input_dim, hidden_dims, n_classes, head):
    """(out, in) of every layer of an architecture, in the order of the
    flat layout, and its parameter count; nothing is allocated."""
    if input_dim < 1 or n_classes < 2:
        raise ConfigurationError("need input_dim >= 1 and n_classes >= 2")
    dims = (input_dim, *hidden_dims)
    shapes = list(zip(dims[1:], dims[:-1])) + \
        [(out, dims[-1]) for out in head_output_dims(head, n_classes).values()]
    return shapes, sum(rows * cols + rows for rows, cols in shapes)


def parameter_count(input_dim, hidden_dims, n_classes, head) -> int:
    """The parameters of an architecture; nothing is allocated."""
    return _layer_shapes(input_dim, hidden_dims, n_classes, head)[1]


def _zero_network(input_dim, hidden_dims, n_classes, head) -> Network:
    """A network of the given architecture with every parameter 0."""
    shapes, n_params = _layer_shapes(input_dim, hidden_dims, n_classes, head)
    params = np.zeros(n_params)
    layers = [Affine(W=W, b=b) for W, b in _layer_views(params, shapes)]
    return Network(input_dim=input_dim, hidden_dims=hidden_dims,
                   n_classes=n_classes, head=head, params=params,
                   trunk=layers[:len(hidden_dims)],
                   heads=dict(zip(head_output_dims(head, n_classes),
                                  layers[len(hidden_dims):])))


def softmax(z: np.ndarray):
    """(p, log p) of each row of a 2-d ``z``, the one softmax of the package.

    Each row is shifted by its entry at the row argmax (an argmax and a 1-d
    gather cost less than a row max), so exp never overflows, and the only
    log taken is of a row sum >= 1. Both results are C-contiguous whatever
    z's layout, so callers can scatter into them through ``ravel()``. A
    zero-width row is refused; zero rows give empty results.
    """
    m, k = z.shape
    if not k:
        raise ConfigurationError("softmax of an empty vector")
    at_max = np.arange(0, m * k, k) + z.argmax(axis=1)
    shifted = np.subtract(z, z.ravel()[at_max][:, None], order="C")
    p = np.exp(shifted)
    total = p.sum(axis=1, keepdims=True)
    p /= total
    shifted -= np.log(total)
    return p, shifted


def sigmoid(z):
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, both
    from the one exp(-|z|), which never overflows."""
    z = np.asarray(z)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _blocks(buf: np.ndarray, rows: int, widths) -> list:
    """Cut a flat buffer into C-contiguous (rows, w) blocks, one per width."""
    blocks, end = [], 0
    for w in widths:
        start, end = end, end + rows * w
        blocks.append(buf[start:end].reshape(rows, w))
    return blocks


class _BatchBuffers:
    """A workspace's buffers for batches of one row count m, which are also
    the trace of its latest forward: the input ``x``, the trunk's ``pre``
    and ``act`` and the heads' ``head_raw``. The forward's are made with
    it; the flat gradient, which a forward-only caller never touches, on
    first use."""

    def __init__(self, net: Network, m: int):
        self._net = net
        self.x = None
        widths = [h.b.size for h in net.heads.values()]
        # pre-activations of every trunk layer in one buffer, the outputs
        # of every head in another, one (m, width) block per layer or head
        self.trunk = np.empty(m * sum(net.hidden_dims))
        self.pre = _blocks(self.trunk, m, net.hidden_dims)
        self.head = np.empty(m * sum(widths))
        self.head_raw = dict(zip(net.heads, _blocks(self.head, m, widths)))
        self.act = [np.empty((m, w)) for w in net.hidden_dims]

    @cached_property
    def grad(self) -> np.ndarray:
        """The flat gradient, laid out like ``net.params``."""
        return np.zeros_like(self._net.params)

    @cached_property
    def grad_views(self) -> list:
        return _layer_views(self.grad, self._net.layer_shapes)


class Workspace:
    """The buffers of ``network_forward`` and ``network_backward`` on one
    network, one ``_BatchBuffers`` per batch row count, each made on first
    use."""

    def __init__(self, net: Network):
        self._net = net
        self._batches = {}

    def batch(self, m: int) -> _BatchBuffers:
        """The buffers of an m-row batch."""
        buffers = self._batches.get(m)
        if buffers is None:
            buffers = self._batches[m] = _BatchBuffers(self._net, m)
        return buffers


def network_forward(net: Network, batch: np.ndarray,
                    ws: Workspace | None = None) -> _BatchBuffers:
    """Run the trunk and all configured heads on a batch of shape (m, d).

    Trunk pre-activations fill one buffer and head outputs a second, so each
    takes one finite check; only a failed check scans the layers, in order,
    to name the first non-finite one. Returns the batch buffers of the
    workspace ``ws`` (a fresh one when omitted) for this row count, with
    ``x`` set to the batch: the trace that ``network_backward`` reads,
    overwritten by the next forward on ``ws`` of as many rows.
    """
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != net.input_dim:
        raise ConfigurationError(
            f"batch shape {x.shape} does not match input dim {net.input_dim}")
    # layer shapes are fixed by build_network, so only the batch is checked
    b = (ws or Workspace(net)).batch(x.shape[0])
    b.x = x
    a = x
    for layer, z, act in zip(net.trunk, b.pre, b.act):
        np.matmul(a, layer.W.T, out=z)
        z += layer.b
        a = np.maximum(z, 0.0, out=act)
    if not np.isfinite(b.trunk).all():
        i = next(i for i, z in enumerate(b.pre) if not np.isfinite(z).all())
        raise NumericFault(f"non-finite pre-activation at trunk layer {i}")
    for h, raw in zip(net.heads.values(), b.head_raw.values()):
        np.matmul(a, h.W.T, out=raw)
        raw += h.b
    if not np.isfinite(b.head).all():
        name = next(name for name, raw in b.head_raw.items()
                    if not np.isfinite(raw).all())
        raise NumericFault(f"non-finite output at head {name!r}")
    return b


# Row block of a whole-split forward. Blocks start at multiples of it and
# the last one takes the remainder, so it holds FORWARD_BLOCK_ROWS to
# 2 * FORWARD_BLOCK_ROWS - 1 rows. Blocks keep the forward's temporaries
# small enough to be reused between calls instead of being mapped afresh.
# They are aligned, and never smaller than 512 rows, because that keeps
# every head output bit-identical to one call over the whole split: evenly
# split blocks moved the one-wide select head by round-off, and blocks of
# 64-128 rows move every head, since BLAS then uses its small-matrix kernel.
FORWARD_BLOCK_ROWS = 512


def network_outputs(net: Network, X) -> dict:
    """Raw head outputs of ``network_forward`` over a whole split, run in
    aligned row blocks of ``FORWARD_BLOCK_ROWS``; a split shorter than two
    blocks runs as one call.

    Returns {head name: (n, out_dim) array}, bit-identical to the
    ``head_raw`` of a single call. A non-finite value raises the same
    NumericFault, naming the same layer, as that call would.
    """
    x = np.asarray(X, dtype=np.float64)
    n_blocks = len(x) // FORWARD_BLOCK_ROWS if x.ndim == 2 else 0
    if n_blocks < 2:
        return network_forward(net, x).head_raw
    out = {name: np.empty((len(x), h.b.size))
           for name, h in net.heads.items()}
    for i in range(n_blocks):
        start = i * FORWARD_BLOCK_ROWS
        rows = slice(start, None if i == n_blocks - 1
                     else start + FORWARD_BLOCK_ROWS)
        for name, raw in network_forward(net, x[rows]).head_raw.items():
            out[name][rows] = raw
    return out


def network_backward(net: Network, trace: _BatchBuffers,
                     dhead_raw: dict) -> np.ndarray:
    """Chain d(loss)/d(raw head outputs) back to every parameter.

    ``trace`` is what ``network_forward`` returned. ``dhead_raw`` maps
    each of the network's heads, and no other name, to an (m, out_dim)
    array. Returns the flat gradient, laid out like ``net.params``: the
    trace's ``grad``, overwritten.
    """
    if dhead_raw.keys() != net.heads.keys():
        raise ConfigurationError(
            f"need one gradient per head {sorted(net.heads)}, got "
            f"{sorted(dhead_raw)}")
    grad, views = trace.grad, trace.grad_views
    n_trunk = len(net.trunk)
    head_views = dict(zip(net.heads, views[n_trunk:]))
    last_act = trace.act[-1] if trace.act else trace.x
    da = None
    for name, d in dhead_raw.items():
        d = np.asarray(d, dtype=np.float64)
        if d.shape != trace.head_raw[name].shape:
            raise ConfigurationError(
                f"dlogits shape {d.shape} does not match head {name!r} "
                f"output {trace.head_raw[name].shape}")
        dW, db = head_views[name]
        np.matmul(d.T, last_act, out=dW)
        d.sum(axis=0, out=db)
        if not n_trunk:
            continue
        if da is None:
            da = np.matmul(d, net.heads[name].W)
        else:
            da += np.matmul(d, net.heads[name].W)

    for i in range(n_trunk - 1, -1, -1):
        # da is a new array here, so it turns into dz in place
        dz = np.multiply(da, trace.pre[i] > 0, out=da)
        below = trace.act[i - 1] if i > 0 else trace.x
        dW, db = views[i]
        np.matmul(dz.T, below, out=dW)
        dz.sum(axis=0, out=db)
        if i:  # the input gradient below layer 0 is never used
            da = np.matmul(dz, net.trunk[i].W)
    return grad


FD_EPS = 1e-6


def finite_difference_gradient(lossfn, net: Network) -> np.ndarray:
    """Central-difference gradient of ``lossfn(net)``, laid out like
    ``net.params``, stepping each entry by +/-``FD_EPS``.

    Perturbs entries in place and restores them; the loss function must be
    deterministic. This is the verification oracle for every analytic
    gradient in the package and stays independent of the backward pass.
    """
    theta = net.params
    grad = np.zeros_like(theta)
    for j in range(theta.size):
        orig = theta[j]
        theta[j] = orig + FD_EPS
        up = lossfn(net)
        theta[j] = orig - FD_EPS
        down = lossfn(net)
        theta[j] = orig
        if not (np.isfinite(up) and np.isfinite(down)):
            raise NumericFault("loss function returned a non-finite value")
        grad[j] = (up - down) / (2.0 * FD_EPS)
    return grad


RELATIVE_ERROR_GUARD = 1e-8


def max_relative_error(net: Network, g1: np.ndarray, g2: np.ndarray) -> float:
    """Infinity-norm relative disagreement of two flat gradients of ``net``,
    maximized over its parameter arrays.

    Per array: max|a - b| / max(RELATIVE_ERROR_GUARD, max|a|, max|b|). The
    difference is scaled by the array's own gradient magnitude because
    entry-wise scaling would put central-difference round-off (~1e-9
    absolute in 64-bit) above any useful tolerance whenever an individual
    entry happens to be tiny.
    """
    worst = 0.0
    shapes = net.layer_shapes
    for pair1, pair2 in zip(_layer_views(g1, shapes), _layer_views(g2, shapes)):
        for a, b in zip(pair1, pair2):
            if not a.size:
                continue
            denom = max(RELATIVE_ERROR_GUARD, np.abs(a).max(), np.abs(b).max())
            worst = max(worst, float(np.abs(a - b).max()) / denom)
    return worst


# ---------------------------------------------------------------------------
# checkpoint I/O
#
# Format version 2: a JSON document with the architecture, the hash of the
# training config that produced it, and in ``params`` the base64 of the
# parameter vector as little-endian float64 bytes, in the flat layout
# above. Raw bytes round-trip every value exactly and cost far less to
# write and parse than one decimal per float, which version 1 stored.
# Version-1 files are refused and must be written again. Loading ignores
# keys it does not read, so version-2 files with extra keys still load.
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 2
_PARAM_DTYPE = np.dtype("<f8")


def save_checkpoint(net: Network, path, config_hash: str = "") -> None:
    """Write ``net`` to ``path`` atomically: a sibling temp file is renamed
    over the target, so a failed write leaves any previous file intact."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "input_dim": net.input_dim,
        "hidden_dims": list(net.hidden_dims),
        "n_classes": net.n_classes,
        "head": net.head,
        "config_hash": config_hash,
        "params": base64.b64encode(
            net.params.astype(_PARAM_DTYPE).tobytes()).decode("ascii"),
    }
    with atomic_write(path) as f:
        f.write(json.dumps(doc))


# checkpoint key -> the JSON type it must hold
_CHECKPOINT_FIELDS = {"input_dim": int, "hidden_dims": list, "n_classes": int,
                      "head": str, "params": str}


def load_checkpoint(path):
    """(network, config hash) from a checkpoint file.

    An unreadable file or a malformed document raises ConfigurationError
    (ParseError for invalid JSON) naming the path: another format version,
    a missing or mistyped field, ``params`` that is not strict base64 or
    does not hold 8 bytes per parameter of the architecture. Non-finite
    parameters raise NumericFault.
    """
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read checkpoint {path}: {exc.strerror}") from exc
    except (ValueError, RecursionError) as exc:  # too deeply nested
        raise ParseError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError(f"checkpoint {path} is not a JSON object")
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise ConfigurationError(
            f"checkpoint {path}: unsupported format version "
            f"{doc.get('format_version')!r}, this build reads version "
            f"{CHECKPOINT_VERSION}; write it again with `selcls train` or "
            "`selcls grid`")
    # exact types, since JSON true and false would pass as integers
    for key, kind in _CHECKPOINT_FIELDS.items():
        if type(doc.get(key)) is not kind:
            raise ConfigurationError(
                f"checkpoint {path}: {key!r} is missing or not a "
                f"{kind.__name__}")
    if not all(type(w) is int and w >= 1 for w in doc["hidden_dims"]):
        raise ConfigurationError(
            f"checkpoint {path}: 'hidden_dims' must hold positive integers")
    arch = (doc["input_dim"], tuple(doc["hidden_dims"]), doc["n_classes"],
            doc["head"])
    try:
        n_params = parameter_count(*arch)
    except ConfigurationError as exc:
        raise ConfigurationError(f"checkpoint {path}: {exc}") from exc
    try:
        raw = base64.b64decode(doc["params"], validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ConfigurationError(
            f"checkpoint {path}: 'params' is not valid base64") from exc
    # checked before _zero_network, so no stated architecture is allocated
    want = n_params * _PARAM_DTYPE.itemsize
    if len(raw) != want:
        raise ConfigurationError(
            f"checkpoint {path} holds {len(raw)} parameter bytes, "
            f"architecture wants {want} ({n_params} float64 values)")
    net = _zero_network(*arch)
    flat = np.frombuffer(raw, dtype=_PARAM_DTYPE)
    net.params[...] = flat
    if not np.all(np.isfinite(flat)):
        raise NumericFault(f"checkpoint {path} contains non-finite parameters")
    return net, doc.get("config_hash", "")
