"""The five training objectives, each with value and exact logit gradient.

All losses take raw logits and work through log-softmax internally, so
probabilities are never materialized below the exp of a shifted logit and
no log ever sees a hard zero. Each function returns per-sample losses and
per-sample d(loss)/d(logits); batch reduction (mean) happens in
``objective_dispatch``.

Gradient cheat sheet, with p = softmax(z) and lp = log p:

    cross entropy      L = -lp[y]                  dL/dz = p - onehot(y)
    entropy            H = -sum p*lp               dH/dz_j = -p_j (lp_j + H)
    gambler            L = -log(p[y] + p[A]/o)     dL/dz_j = p_j - w_j
                         with A the abstain index and w the (y, A) mass
                         fractions inside the log
    self-adaptive      L = -(t_y lp[y] + (1-t_y) lp[A])
                         dL/dz = p - t_y onehot(y) - (1-t_y) onehot(A)

The selective three-head loss is documented on its function.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ProtocolError
from .nn import log_softmax, sigmoid

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

    ``kind`` is one of OBJECTIVE_KINDS. ``beta`` is the entropy
    regularization weight (used by the +EM variants). ``o`` is the gambler
    payoff, admissible in (1, C]; None picks the default C-1 (or the
    interval midpoint when C = 2). ``lam``/``alpha_mix``/``c_target``
    parameterize the three-head selective loss, ``coverage_penalty``
    chooses between the undershoot-only squared hinge and the symmetric
    square. The sat_* fields drive the moving-target objective.
    """

    kind: str = "CE"
    beta: float = 0.01
    o: float | None = None
    lam: float = 32.0
    alpha_mix: float = 0.5
    c_target: float = 0.8
    coverage_penalty: str = "hinge"
    sat_momentum: float = 0.9
    sat_pretrain_epochs: int = 10
    sat_update: str = "batch"
    dg_limit_test: bool = False

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

    def validate(self, n_classes: int | None = None) -> None:
        if self.kind not in OBJECTIVE_KINDS:
            raise ConfigurationError(
                f"unknown objective kind {self.kind!r}; expected one of "
                f"{OBJECTIVE_KINDS}")
        if self.uses_em and not self.beta > 0:
            raise ConfigurationError("+EM objectives require beta > 0")
        if self.beta < 0:
            raise ConfigurationError("beta must be >= 0")
        if self.base_kind == "DG" and n_classes is not None:
            check_gambler_payoff(self.resolved_o(n_classes), n_classes,
                                 limit_test=self.dg_limit_test)
        if self.base_kind == "SelectiveNet":
            if not 0 < self.c_target <= 1:
                raise ConfigurationError("c_target must lie in (0, 1]")
            if self.lam < 0 or not 0 <= self.alpha_mix <= 1:
                raise ConfigurationError(
                    "need lam >= 0 and alpha_mix in [0, 1]")
            if self.coverage_penalty not in ("hinge", "symmetric"):
                raise ConfigurationError(
                    "coverage_penalty must be 'hinge' or 'symmetric'")
        if self.base_kind == "SAT":
            # the admissible range is (0, 1); the boundary 1.0 is accepted
            # as the explicit target-freezing limit, where the objective
            # reduces to (C+1)-way cross entropy
            if not 0 < self.sat_momentum <= 1:
                raise ConfigurationError("sat_momentum must lie in (0, 1]")
            if self.sat_pretrain_epochs < 0:
                raise ConfigurationError("sat_pretrain_epochs must be >= 0")
            if self.sat_update not in ("batch", "epoch"):
                raise ConfigurationError("sat_update must be 'batch' or 'epoch'")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind, "beta": self.beta, "o": self.o,
            "lambda": self.lam, "alpha_mix": self.alpha_mix,
            "c_target": self.c_target,
            "coverage_penalty": self.coverage_penalty,
            "sat_momentum": self.sat_momentum,
            "sat_pretrain_epochs": self.sat_pretrain_epochs,
            "sat_update": self.sat_update,
            "dg_limit_test": self.dg_limit_test,
        }


def check_gambler_payoff(o: float, n_classes: int, limit_test: bool = False) -> None:
    if o <= 1:
        raise ConfigurationError(
            f"payoff o={o} violates 1 < o <= C: o <= 1 is the always-abstain "
            "regime")
    if o > n_classes and not limit_test:
        raise ConfigurationError(
            f"payoff o={o} violates 1 < o <= C (C={n_classes}); values above "
            "C are allowed only in limit-test mode")


def _as_batch(logits):
    logits = np.asarray(logits, dtype=np.float64)
    squeeze = logits.ndim == 1
    return (logits[None, :] if squeeze else logits), squeeze


def cross_entropy(logits, y):
    """Negative log-likelihood of the true class, with d/dlogits.

    Accepts a single logit vector or an (m, k) batch; y is an int or an
    (m,) array of class indices below k.
    """
    z, squeeze = _as_batch(logits)
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    m, k = z.shape
    if y.shape != (m,) or y.min() < 0 or y.max() >= k:
        raise ConfigurationError(
            f"labels must be integers in [0, {k}) with shape ({m},)")
    lp = log_softmax(z)
    loss = -lp[np.arange(m), y]
    dlogit = np.exp(lp)
    dlogit[np.arange(m), y] -= 1.0
    if squeeze:
        return float(loss[0]), dlogit[0]
    return loss, dlogit


def predictive_entropy(logits):
    """Shannon entropy of softmax(logits) and its exact logit gradient."""
    z, squeeze = _as_batch(logits)
    lp = log_softmax(z)
    p = np.exp(lp)
    H = -(p * lp).sum(axis=1)
    dlogit = -p * (lp + H[:, None])
    if squeeze:
        return float(H[0]), dlogit[0]
    return H, dlogit


def em_regularized(base_loss, base_dlogit, logits, beta):
    """Add beta * entropy(softmax(logits)) to an existing (loss, dlogit)."""
    if beta < 0:
        raise ConfigurationError("beta must be >= 0")
    H, dH = predictive_entropy(logits)
    return base_loss + beta * H, base_dlogit + beta * dH


def deep_gamblers(logits, y, o, limit_test=False):
    """Gambler loss -log(p[y] + p[abstain]/o) over C+1 logits.

    The last logit is the abstain entry; y indexes the C real classes.
    Computed as -logaddexp(lp[y], lp[abstain] - log o) so the loss stays
    finite even when both masses underflow.
    """
    z, squeeze = _as_batch(logits)
    m, k = z.shape
    if k < 3:
        raise ConfigurationError("gambler loss needs C+1 >= 3 logits")
    n_classes = k - 1
    check_gambler_payoff(o, n_classes, limit_test=limit_test)
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    if y.shape != (m,) or y.min() < 0 or y.max() >= n_classes:
        raise ConfigurationError(
            f"labels must index the {n_classes} real classes")
    lp = log_softmax(z)
    rows = np.arange(m)
    log_mass = np.logaddexp(lp[rows, y], lp[:, -1] - np.log(o))
    loss = -log_mass
    # weight of each logit inside the log: w_y = p_y / S, w_A = (p_A/o) / S
    w_y = np.exp(lp[rows, y] - log_mass)
    w_a = np.exp(lp[:, -1] - np.log(o) - log_mass)
    dlogit = np.exp(lp)
    dlogit[rows, y] -= w_y
    dlogit[:, -1] -= w_a
    if squeeze:
        return float(loss[0]), dlogit[0]
    return loss, dlogit


def sat_loss(logits, targets, y):
    """Moving-target abstention loss over C+1 logits.

    Per sample: -(t[y] log p[y] + (1 - t[y]) log p[abstain]) where t is the
    sample's soft target vector. Only the t[y] coordinate enters.
    """
    z, squeeze = _as_batch(logits)
    t = np.asarray(targets, dtype=np.float64)
    if t.ndim == 1:
        t = t[None, :]
    m, k = z.shape
    if t.shape != (m, k):
        raise ConfigurationError(
            f"target shape {t.shape} does not match logits {(m, k)}")
    n_classes = k - 1
    y = np.atleast_1d(np.asarray(y, dtype=np.int64))
    if y.shape != (m,) or y.min() < 0 or y.max() >= n_classes:
        raise ConfigurationError(
            f"labels must index the {n_classes} real classes")
    lp = log_softmax(z)
    rows = np.arange(m)
    ty = t[rows, y]
    loss = -(ty * lp[rows, y] + (1.0 - ty) * lp[:, -1])
    dlogit = np.exp(lp)
    dlogit[rows, y] -= ty
    dlogit[:, -1] -= 1.0 - ty
    if squeeze:
        return float(loss[0]), dlogit[0]
    return loss, dlogit


@dataclass
class SatTargetStore:
    """Per-training-sample soft targets for the moving-target objective.

    Targets start as one-hot rows over C+1 entries (abstain mass 0) and,
    once the pre-training phase is over, relax toward the model's own
    predictions: t <- momentum * t + (1 - momentum) * p.
    """

    targets: np.ndarray
    momentum: float
    pretrain_epochs: int

    @classmethod
    def initialize(cls, labels, n_classes, momentum=0.9, pretrain_epochs=10):
        labels = np.asarray(labels, dtype=np.int64)
        if labels.min() < 0 or labels.max() >= n_classes:
            raise ConfigurationError("labels out of range for target store")
        if not 0 < momentum <= 1:
            raise ConfigurationError("momentum must lie in (0, 1]")
        t = np.zeros((labels.size, n_classes + 1), dtype=np.float64)
        t[np.arange(labels.size), labels] = 1.0
        return cls(targets=t, momentum=momentum,
                   pretrain_epochs=int(pretrain_epochs))


def sat_update_targets(store: SatTargetStore, sample_ids, p_batch, epoch: int) -> None:
    """Convex-combination update of the touched target rows, in place."""
    if epoch < store.pretrain_epochs:
        raise ProtocolError(
            f"target update requested at epoch {epoch} during the "
            f"pre-training phase (< {store.pretrain_epochs})")
    ids = np.asarray(sample_ids, dtype=np.int64)
    p = np.asarray(p_batch, dtype=np.float64)
    if p.shape != (ids.size, store.targets.shape[1]):
        raise ConfigurationError(
            f"prediction batch shape {p.shape} does not match "
            f"({ids.size}, {store.targets.shape[1]})")
    a = store.momentum
    store.targets[ids] = a * store.targets[ids] + (1.0 - a) * p


@dataclass
class SelectiveNetResult:
    loss: float
    d_f: np.ndarray
    d_g: np.ndarray   # gradient w.r.t. the post-sigmoid selection values
    d_h: np.ndarray
    selective_term: float
    coverage_term: float
    aux_term: float
    mean_g: float
    coverage_collapse: bool


def selectivenet_loss(f_logits, g_sel, h_logits, y, cfg: ObjectiveConfig) -> SelectiveNetResult:
    """Three-head selective loss with exact gradients.

    With per-sample cross-entropies l_i on the prediction head and
    D = mean(g):

        selective = mean(l * g) / D
        coverage  = max(0, c_target - D)^2   (or (c_target - D)^2 when
                                              the symmetric form is chosen)
        aux       = mean cross-entropy of the auxiliary head
        total     = alpha_mix * (selective + lam * coverage)
                    + (1 - alpha_mix) * aux

    Gradients flow into g through both the numerator and the denominator
    of the selective term:

        d selective / d g_i = (l_i - selective) / (m * D)

    D is floored at 1e-8; a floored batch is reported as coverage
    collapse (the selection head has shut every sample off).
    """
    f = np.asarray(f_logits, dtype=np.float64)
    h = np.asarray(h_logits, dtype=np.float64)
    g = np.asarray(g_sel, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    m = f.shape[0]
    if m < 1 or g.shape != (m,) or h.shape != f.shape or y.shape != (m,):
        raise ConfigurationError("selective loss inputs disagree in shape")
    if np.any(g <= 0) or np.any(g >= 1):
        raise ConfigurationError("selection values must lie strictly in (0, 1)")

    l_f, dl_f = cross_entropy(f, y)
    l_h, dl_h = cross_entropy(h, y)

    mean_g = float(g.mean())
    collapse = mean_g < COVERAGE_EPS
    denom = max(mean_g, COVERAGE_EPS)
    selective = float((l_f * g).mean() / denom)

    shortfall = cfg.c_target - mean_g
    if cfg.coverage_penalty == "hinge":
        active = shortfall > 0
        coverage = float(max(0.0, shortfall) ** 2)
        dcov_dg = (-2.0 * shortfall / m) if active else 0.0
    else:
        coverage = float(shortfall ** 2)
        dcov_dg = -2.0 * shortfall / m
    aux = float(l_h.mean())

    a = cfg.alpha_mix
    loss = a * (selective + cfg.lam * coverage) + (1 - a) * aux

    d_f = a * (g / (m * denom))[:, None] * dl_f
    if collapse:
        d_sel_dg = np.zeros_like(g)
    else:
        d_sel_dg = (l_f - selective) / (m * denom)
    d_g = a * (d_sel_dg + cfg.lam * dcov_dg)
    d_h = (1 - a) / m * dl_h

    return SelectiveNetResult(
        loss=float(loss), d_f=d_f, d_g=d_g, d_h=d_h,
        selective_term=selective, coverage_term=coverage, aux_term=aux,
        mean_g=mean_g, coverage_collapse=collapse)


@dataclass
class DispatchResult:
    loss: float
    dlogits: dict
    diagnostics: dict


def objective_dispatch(cfg: ObjectiveConfig, outputs: dict, y, n_classes: int,
                       store: SatTargetStore | None = None,
                       sample_ids=None, epoch: int = 0) -> DispatchResult:
    """Route a batch of head outputs through the configured objective.

    ``outputs`` maps head names to raw arrays as produced by the network
    forward pass: always "logits"; additionally "select" (raw unit) and
    "aux" for the three-head objective. Returns the mean loss and
    d(mean loss)/d(raw outputs) per head.
    """
    kind = cfg.base_kind
    y = np.asarray(y, dtype=np.int64)
    logits = np.asarray(outputs["logits"], dtype=np.float64)
    m, k = logits.shape
    diagnostics: dict = {}

    if kind == "CE":
        if k != n_classes:
            raise ConfigurationError(
                f"CE objective wants {n_classes} logits, head has {k}")
        loss_i, d = cross_entropy(logits, y)
    elif kind == "DG":
        if k != n_classes + 1:
            raise ConfigurationError(
                "gambler objective needs an abstain head "
                f"({n_classes + 1} logits, head has {k})")
        loss_i, d = deep_gamblers(logits, y, cfg.resolved_o(n_classes),
                                  limit_test=cfg.dg_limit_test)
    elif kind == "SAT":
        if k != n_classes + 1:
            raise ConfigurationError(
                "moving-target objective needs an abstain head "
                f"({n_classes + 1} logits, head has {k})")
        if epoch < cfg.sat_pretrain_epochs or store is None:
            # pre-training phase: plain (C+1)-way cross entropy on one-hot
            # labels; identical to the target loss with untouched targets
            loss_i, d = cross_entropy(logits, y)
        else:
            if sample_ids is None:
                raise ConfigurationError(
                    "moving-target objective needs sample ids into the store")
            t = store.targets[np.asarray(sample_ids, dtype=np.int64)]
            loss_i, d = sat_loss(logits, t, y)
    elif kind == "SelectiveNet":
        if k != n_classes or "select" not in outputs or "aux" not in outputs:
            raise ConfigurationError(
                "selective objective needs the three-head layout")
        g_raw = np.asarray(outputs["select"], dtype=np.float64)[:, 0]
        # the sigmoid's true value lies strictly inside (0, 1), but it rounds
        # to 0 or 1 once the raw unit saturates (|g_raw| > ~37)
        g = sigmoid(g_raw).clip(_G_FLOOR, _G_CEIL)
        res = selectivenet_loss(logits, g, outputs["aux"], y, cfg)
        d_f = res.d_f
        if cfg.uses_em:
            H, dH = predictive_entropy(logits)
            res.loss += cfg.beta * float(H.mean())
            d_f = d_f + cfg.beta * dH / m
        d_g_raw = (res.d_g * g * (1.0 - g))[:, None]
        diagnostics.update(mean_g=res.mean_g,
                           coverage_collapse=res.coverage_collapse,
                           selective_term=res.selective_term,
                           coverage_term=res.coverage_term,
                           aux_term=res.aux_term)
        return DispatchResult(loss=res.loss,
                              dlogits={"logits": d_f, "select": d_g_raw,
                                       "aux": res.d_h},
                              diagnostics=diagnostics)
    else:  # pragma: no cover - kinds are validated upstream
        raise ConfigurationError(f"unknown objective kind {cfg.kind!r}")

    if cfg.uses_em:
        loss_i, d = em_regularized(loss_i, d, logits, cfg.beta)
    return DispatchResult(loss=float(loss_i.mean()), dlogits={"logits": d / m},
                          diagnostics=diagnostics)
