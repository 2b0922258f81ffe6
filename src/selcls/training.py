"""SGD-with-momentum training loop.

Protocol notes baked in here:

  * learning rate: lr0 * decay_factor ** floor(epoch / decay_every)
  * momentum update is the classical form v <- mu v + g, theta <- theta - lr v
  * moving-target objective: one target mass per training sample, on its
    label, starting at 1. The loop owns the schedule: the first
    sat_pretrain_epochs pass the objective no targets, so it is plain
    (C+1)-way cross entropy; later batches pass theirs, which right after
    each update relax toward the returned label probabilities with the
    config's sat_momentum
  * the train accuracy counts selection.predict_classes of each batch,
    taken before that batch's update
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, NumericFault
from .nn import (
    Network,
    Workspace,
    network_backward,
    network_forward,
    network_outputs,
)
from .objectives import (
    ObjectiveConfig,
    objective_dispatch,
    predictive_entropy,
    sat_update_targets,
)
from .selection import predict_classes
from .util import fmt, rng_for, write_csv

DIVERGENCE_LIMIT = 1e6


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 64
    lr0: float = 0.1
    momentum: float = 0.9
    decay_factor: float = 0.5
    decay_every: int = 25
    seed: int = 0
    objective: ObjectiveConfig = field(default_factory=ObjectiveConfig)
    weight_decay: float = 0.0

    def validate(self) -> None:
        if self.epochs < 0:
            raise ConfigurationError("training.epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigurationError("training.batch_size must be >= 1")
        if self.lr0 <= 0:
            raise ConfigurationError("training.lr0 must be positive")
        if not 0 <= self.momentum < 1:
            raise ConfigurationError("training.momentum must lie in [0, 1)")
        if self.decay_every < 1:
            raise ConfigurationError("training.decay_every must be >= 1")
        if self.decay_factor <= 0:
            raise ConfigurationError("training.decay_factor must be > 0")
        try:  # the rate is monotone: lr0 or the last epoch's is the largest
            last = lr_at_epoch(self, max(self.epochs - 1, 0))
        except OverflowError:
            last = np.inf
        if not np.isfinite(last):
            raise ConfigurationError(
                f"training.decay_factor {self.decay_factor!r} makes the "
                "learning rate overflow within the training epochs")
        if self.weight_decay < 0:
            raise ConfigurationError("training.weight_decay must be >= 0")


@dataclass
class EpochStats:
    """One epoch's report row. ``train_loss`` and ``train_accuracy`` are
    running means over the epoch's batches, each batch taken before its
    update; ``val_accuracy`` and ``mean_entropy`` (full-softmax entropy)
    are measured on the validation split after the epoch."""

    epoch: int
    lr: float
    train_loss: float
    train_accuracy: float
    val_accuracy: float
    mean_entropy: float


@dataclass
class TrainReport:
    epochs: list = field(default_factory=list)

    def to_csv(self, path, header_comment: str = "") -> None:
        write_csv(path, ["epoch", "lr", "train_loss", "train_accuracy",
                         "val_accuracy", "mean_entropy"],
                  ([e.epoch, fmt(e.lr), fmt(e.train_loss),
                    fmt(e.train_accuracy), fmt(e.val_accuracy),
                    fmt(e.mean_entropy)] for e in self.epochs),
                  header_comment)


def lr_at_epoch(cfg: TrainConfig, epoch: int) -> float:
    return cfg.lr0 * cfg.decay_factor ** (epoch // cfg.decay_every)


def sgd_momentum_step(params, grads, velocity, lr, momentum,
                      weight_decay) -> None:
    """v <- momentum*v + g (+ wd*theta); theta <- theta - lr*v, in place on
    flat vectors. A non-finite gradient raises before anything changes."""
    if not np.isfinite(grads).all():
        raise NumericFault("non-finite gradient in optimizer step")
    if weight_decay:
        grads = grads + weight_decay * params
    velocity *= momentum
    velocity += grads
    params -= lr * velocity


def _evaluate(net: Network, X, y):
    """Accuracy over the C real classes and mean full-softmax entropy."""
    logits = network_outputs(net, X)["logits"]
    acc = float(np.mean(predict_classes(logits, net.n_classes) == y))
    return acc, float(predictive_entropy(logits).mean())


def train(net: Network, train_data, val_data, cfg: TrainConfig) -> TrainReport:
    """Run the optimization loop; returns the TrainReport.

    Deterministic given (net, data, cfg): every shuffle draws from a
    sub-seed derived from cfg.seed and the epoch index. The network is
    mutated in place; nothing else is. Each epoch gathers the shuffled
    split once, and every batch step's forward and backward pass share one
    ``Workspace``: the forward returns the batch's buffers, and the
    backward pass writes the flat gradient into them.
    """
    cfg.validate()
    obj = cfg.objective
    # a TrainConfig built in code has passed no config load, which checks C
    obj.validate(net.n_classes)
    if obj.required_head() != net.head:
        raise ConfigurationError(
            f"objective {obj.kind!r} needs a {obj.required_head()!r} head, "
            f"network has {net.head!r}")
    report = TrainReport()
    X = np.asarray(train_data.features, dtype=np.float64)
    y = np.asarray(train_data.labels, dtype=np.int64)
    n = X.shape[0]
    C = net.n_classes

    targets = np.ones(n) if obj.base_kind == "SAT" else None

    velocity = np.zeros_like(net.params)
    ws = Workspace(net)
    # the shuffled split, and each batch's predicted classes from the
    # network as it was before that batch's update
    Xp, yp, pred = np.empty_like(X), np.empty_like(y), np.empty_like(y)

    for epoch in range(cfg.epochs):
        lr = lr_at_epoch(cfg, epoch)
        perm = rng_for(cfg.seed, f"shuffle:{epoch}").permutation(n)
        np.take(X, perm, axis=0, out=Xp)
        np.take(y, perm, out=yp)
        loss_sum = 0.0
        adaptive = targets is not None and epoch >= obj.sat_pretrain_epochs
        for start in range(0, n, cfg.batch_size):
            rows = slice(start, start + cfg.batch_size)
            ids = perm[rows]
            trace = network_forward(net, Xp[rows], ws)
            result = objective_dispatch(
                obj, trace.head_raw, yp[rows], n_classes=C,
                t_y=targets[ids] if adaptive else None)
            if not np.isfinite(result.loss) or result.loss > DIVERGENCE_LIMIT:
                raise NumericFault(
                    f"training diverged (loss={result.loss}) at epoch "
                    f"{epoch}, batch starting at {start}")
            grads = network_backward(net, trace, result.dlogits)
            sgd_momentum_step(net.params, grads, velocity, lr, cfg.momentum,
                              cfg.weight_decay)
            if adaptive:
                sat_update_targets(targets, ids, result.p_label,
                                   obj.sat_momentum)
            loss_sum += result.loss * ids.size
            pred[rows] = predict_classes(trace.head_raw["logits"], C)
        n_correct = np.count_nonzero(pred == yp)
        val_acc, entropy = _evaluate(net, val_data.features, val_data.labels)
        report.epochs.append(EpochStats(
            epoch=epoch, lr=lr, train_loss=loss_sum / n,
            train_accuracy=n_correct / n, val_accuracy=val_acc,
            mean_entropy=entropy))
    return report

