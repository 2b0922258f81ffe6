"""The training objectives, each with value and exact logit gradient.

Every objective is a softmax-family loss: with p = softmax(z) its logit
gradient is p - w for target weights w whose rows sum to 1, plus
beta * dH/dz for the entropy term of the +EM variants. One kernel,
``_softmax_objective``, takes p and log p once per head from
``nn.softmax``, builds w for the kind and returns per-sample losses and
the gradient; ``objective_dispatch`` routes every kind and head through
it and takes the batch mean.

Gradient cheat sheet, with p = softmax(z) and lp = log p:

    cross entropy      L = -lp[y]                  dL/dz = p - onehot(y)
    entropy            H = -sum p*lp               dH/dz_j = -p_j (lp_j + H)
    gambler            L = -log(p[y] + p[A]/o)     dL/dz_j = p_j - w_j
                         with A the abstain index and w the (y, A) mass
                         fractions inside the log
    self-adaptive      L = -(t_y lp[y] + (1-t_y) lp[A])
                         dL/dz = p - t_y onehot(y) - (1-t_y) onehot(A)

The selective three-head loss, which runs the kernel on its prediction and
auxiliary heads, is documented on ``_selectivenet``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .nn import sigmoid, softmax

OBJECTIVE_KINDS = (
    "CE", "CE+EM", "DG", "DG+EM", "SAT", "SAT+EM",
    "SelectiveNet", "SelectiveNet+EM",
)

# mean-g values below this are treated as a collapsed selection head
COVERAGE_EPS = 1e-8
# the closed float64 interval nearest to (0, 1): selection values are clamped
# into it before the selective loss
_G_FLOOR = np.finfo(np.float64).tiny
_G_CEIL = 1.0 - np.finfo(np.float64).epsneg


@dataclass
class ObjectiveConfig:
    """Objective choice plus every knob the loss family reads.

    ``kind`` is one of OBJECTIVE_KINDS and fixes the network head
    (``required_head``). ``beta`` is the entropy regularization weight
    (used by the +EM variants). ``o`` is the gambler payoff, admissible in
    (1, C], and any other value is refused; None picks the default C-1 (or
    the interval midpoint when C = 2). ``lam`` (JSON key ``lambda``),
    ``alpha_mix`` and ``c_target`` parameterize the three-head selective
    loss. The sat_* fields set SAT's moving-target schedule, which the
    training loop runs.
    """

    kind: str = "CE"
    beta: float = 0.01
    o: float | None = None
    lam: float = field(default=32.0, metadata={"key": "lambda"})
    alpha_mix: float = 0.5
    c_target: float = 0.8
    sat_momentum: float = 0.9
    sat_pretrain_epochs: int = 10

    @property
    def base_kind(self) -> str:
        return self.kind.removesuffix("+EM")

    @property
    def uses_em(self) -> bool:
        return self.kind.endswith("+EM")

    def required_head(self) -> str:
        return {"CE": "plain", "DG": "abstain", "SAT": "abstain",
                "SelectiveNet": "selectivenet"}[self.base_kind]

    def resolved_o(self, n_classes: int) -> float:
        if self.o is not None:
            return float(self.o)
        # default o = C-1, which for C = 2 falls outside (1, C]; use the
        # interval midpoint there
        return float(n_classes - 1) if n_classes > 2 else (1 + n_classes) / 2.0

    def validate(self, n_classes: int) -> None:
        if self.kind not in OBJECTIVE_KINDS:
            raise ConfigurationError(
                f"objective.kind must be one of {OBJECTIVE_KINDS}, got "
                f"{self.kind!r}")
        if self.uses_em and not self.beta > 0:
            raise ConfigurationError(
                "objective.beta must be > 0 for +EM objectives")
        if self.beta < 0:
            raise ConfigurationError("objective.beta must be >= 0")
        if self.base_kind == "DG":
            o = self.resolved_o(n_classes)
            if o <= 1:
                raise ConfigurationError(
                    f"objective.o: payoff o={o} violates 1 < o <= C: o <= 1 "
                    "is the always-abstain regime")
            if o > n_classes:
                raise ConfigurationError(
                    f"objective.o: payoff o={o} violates 1 < o <= C "
                    f"(C={n_classes})")
        if self.base_kind == "SelectiveNet":
            if not 0 < self.c_target <= 1:
                raise ConfigurationError(
                    "objective.c_target must lie in (0, 1]")
            if self.lam < 0:
                raise ConfigurationError("objective.lambda must be >= 0")
            if not 0 <= self.alpha_mix <= 1:
                raise ConfigurationError(
                    "objective.alpha_mix must lie in [0, 1]")
        if self.base_kind == "SAT":
            # the admissible range is (0, 1); the boundary 1.0 is accepted
            # as the explicit target-freezing limit, where the objective
            # reduces to (C+1)-way cross entropy
            if not 0 < self.sat_momentum <= 1:
                raise ConfigurationError(
                    "objective.sat_momentum must lie in (0, 1]")
            if self.sat_pretrain_epochs < 0:
                raise ConfigurationError(
                    "objective.sat_pretrain_epochs must be >= 0")


def predictive_entropy(logits) -> np.ndarray:
    """Shannon entropy of softmax(logits), one value per row of a batch."""
    lp = softmax(np.asarray(logits, dtype=np.float64))[1]
    return -(np.exp(lp) * lp).sum(axis=1)


def _softmax_objective(kind: str, z, y, scale=1.0, beta: float = 0.0,
                       o: float = 0.0, t_y=None):
    """Per-sample loss, per-sample entropy, logit gradient and label
    probability of one softmax head, from one ``nn.softmax``.

    ``kind`` picks the loss and its target weights w (rows sum to 1):
    "CE" is cross entropy (w = onehot(y)), "DG" the gambler loss with
    payoff ``o`` (w is the (y, abstain) mass split), "SAT" the target loss
    with true-class target mass ``t_y`` (w = t_y onehot(y) + (1 - t_y)
    onehot(A)). The gradient is ``scale * (p - w) + beta * dH/dz``, with
    ``scale`` a number or one weight per row; the entropy H is returned
    only when ``beta`` is nonzero, and p at each row's label, for the
    target update, only with ``t_y``, otherwise None. The gradient is
    written over softmax's p, a new array.
    """
    p, lp = softmax(z)
    m, k = z.shape
    # flat indices of each row's label entry: 1-d gathers and scatters
    # cost less than (rows, cols) pairs
    at_y = np.arange(0, m * k, k) + y
    lp_y = lp.ravel()[at_y]
    if kind == "CE":
        loss, w_y, w_a = -lp_y, 1.0, None
    elif kind == "DG":
        lp_a = lp[:, -1] - math.log(o)
        log_mass = np.logaddexp(lp_y, lp_a)
        loss = -log_mass
        w_y, w_a = np.exp(lp_y - log_mass), np.exp(lp_a - log_mass)
    else:
        w_y, w_a = t_y, 1.0 - t_y
        loss = -(w_y * lp_y + w_a * lp[:, -1])
    p_label = None if t_y is None else p.ravel()[at_y]
    # from here on p turns into the gradient, in place
    col = scale[:, None] if isinstance(scale, np.ndarray) else scale
    H = None
    if beta:
        # dH/dz = -p (lp + H), with -H = sum p lp
        neg_H = (p * lp).sum(axis=1, keepdims=True)
        lp -= neg_H
        lp *= -beta
        lp += col
        p *= lp
        H = -neg_H[:, 0]
    else:
        p *= col
    p.ravel()[at_y] -= scale * w_y
    if w_a is not None:
        p[:, -1] -= scale * w_a
    return loss, H, p, p_label


def sat_update_targets(targets, sample_ids, p_label, momentum: float) -> None:
    """Relax the touched samples' target masses toward their label
    probabilities, in place: t <- momentum * t + (1 - momentum) * p_y."""
    targets[sample_ids] = (momentum * targets[sample_ids]
                           + (1.0 - momentum) * p_label)


@dataclass
class DispatchResult:
    """Mean loss and d(mean loss)/d(raw outputs) per head; with SAT target
    masses also each row's probability of its label (``p_label``), which
    the per-batch target update reuses."""

    loss: float
    dlogits: dict
    p_label: np.ndarray | None = None


def objective_dispatch(cfg: ObjectiveConfig, outputs: dict, y, n_classes: int,
                       t_y=None) -> DispatchResult:
    """Route a batch of head outputs through the configured objective.

    ``outputs`` maps head names to raw arrays as produced by the network
    forward pass: always "logits"; additionally "select" (raw unit) and
    "aux" for the three-head objective. Returns the mean loss and
    d(mean loss)/d(raw outputs) per head. Every head goes through the one
    softmax kernel, ``_softmax_objective``; the +EM variants add
    ``beta * mean entropy`` of the prediction head. For SAT, ``t_y``
    holds each row's target mass on its label; without it the objective
    is SAT's pre-training loss, plain (C+1)-way cross entropy. The
    returned gradients are new arrays, shared with no input or other call.
    """
    kind = cfg.base_kind
    y = np.asarray(y, dtype=np.int64)
    logits = np.asarray(outputs["logits"], dtype=np.float64)
    m, k = logits.shape
    # one reduction checks both ends: a negative label reads as >= 2**63
    if m < 1 or y.shape != (m,) or y.view(np.uint64).max() >= n_classes:
        raise ConfigurationError(
            f"need a non-empty batch with labels in [0, {n_classes}) of "
            f"shape ({m},)")
    beta = cfg.beta if cfg.uses_em else 0.0
    if kind == "SelectiveNet":
        return _selectivenet(cfg, logits, outputs, y, n_classes, beta)

    o = 0.0
    if kind == "CE":
        if k != n_classes:
            raise ConfigurationError(
                f"CE objective wants {n_classes} logits, head has {k}")
    elif k != n_classes + 1:
        raise ConfigurationError(
            f"{'gambler' if kind == 'DG' else 'moving-target'} objective "
            f"needs an abstain head ({n_classes + 1} logits, head has {k})")
    elif kind == "DG":
        o = cfg.resolved_o(n_classes)
    elif t_y is None:
        # pre-training phase: plain (C+1)-way cross entropy on one-hot
        # labels; identical to the target loss with untouched targets
        kind = "CE"
    elif t_y.shape != (m,):  # an (m, C+1) table would broadcast
        raise ConfigurationError(
            f"SAT targets need one mass per sample, not {t_y.shape}")
    loss_i, H, d, p_label = _softmax_objective(
        kind, logits, y, scale=1.0 / m, beta=beta / m, o=o, t_y=t_y)
    loss = float(loss_i.sum()) / m
    if H is not None:
        loss += beta * (float(H.sum()) / m)
    return DispatchResult(loss=loss, dlogits={"logits": d}, p_label=p_label)


def _selectivenet(cfg: ObjectiveConfig, f, outputs: dict, y, n_classes: int,
                  beta: float) -> DispatchResult:
    """Three-head selective loss with exact gradients.

    With per-sample cross-entropies l_i on the prediction head f, the
    selection values g = sigmoid(raw select unit) and D = mean(g):

        selective = mean(l * g) / D
        coverage  = max(0, c_target - D)^2
        aux       = mean cross-entropy of the auxiliary head h
        total     = alpha_mix * (selective + lam * coverage)
                    + (1 - alpha_mix) * aux  (+ beta * mean entropy of f)

    Gradients flow into g through both the numerator and the denominator
    of the selective term:

        d selective / d g_i = (l_i - selective) / (m * D)

    D is floored at 1e-8; a floored batch is treated as coverage collapse
    (the selection head has shut every sample off), and only the coverage
    term's gradient reaches g.
    """
    m, k = f.shape
    if k != n_classes or "select" not in outputs or "aux" not in outputs:
        raise ConfigurationError(
            "selective objective needs the three-head layout")
    h = np.asarray(outputs["aux"], dtype=np.float64)
    g_raw = np.asarray(outputs["select"], dtype=np.float64)
    if h.shape != f.shape or g_raw.shape != (m, 1):
        raise ConfigurationError("selective loss inputs disagree in shape")
    # the sigmoid's true value lies strictly inside (0, 1), but it rounds
    # to 0 or 1 once the raw unit saturates (|g_raw| > ~37)
    g = sigmoid(g_raw[:, 0]).clip(_G_FLOOR, _G_CEIL)
    mean_g = float(g.sum()) / m
    denom = max(mean_g, COVERAGE_EPS)
    a = cfg.alpha_mix
    l_f, H, d_f, _ = _softmax_objective(
        "CE", f, y, scale=(a / (m * denom)) * g, beta=beta / m)
    l_h, _, d_h, _ = _softmax_objective("CE", h, y, scale=(1 - a) / m)
    selective = float((l_f * g).sum()) / m / denom

    shortfall = cfg.c_target - mean_g
    coverage = float(max(0.0, shortfall) ** 2)
    dcov_dg = (-2.0 * shortfall / m) if shortfall > 0 else 0.0
    aux = float(l_h.sum()) / m
    loss = a * (selective + cfg.lam * coverage) + (1 - a) * aux
    if H is not None:
        loss += beta * (float(H.sum()) / m)

    if mean_g < COVERAGE_EPS:
        d_g = np.full(m, a * (cfg.lam * dcov_dg))
    else:
        d_g = a * ((l_f - selective) / (m * denom) + cfg.lam * dcov_dg)
    d_g_raw = (d_g * g * (1.0 - g))[:, None]
    return DispatchResult(
        loss=float(loss),
        dlogits={"logits": d_f, "select": d_g_raw, "aux": d_h})
