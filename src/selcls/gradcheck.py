"""Finite-difference verification suite covering every objective family.

Each case draws a small random network (widths <= 16, C <= 5, batch <= 8,
64-bit) and compares the analytic backward pass against central
differences. Cases whose rectifier pre-activations sit within the
finite-difference window of zero are redrawn: the central-difference
oracle is only valid away from the kink, and the margin keeps it there.
"""

import numpy as np

from .nn import (
    build_network,
    finite_difference_gradient,
    max_relative_error,
    network_backward,
    network_forward,
    sigmoid,
)
from .objectives import ObjectiveConfig, objective_dispatch
from .util import rng_for

TOLERANCE = 1e-5
# pre-activations must sit at least this far from the rectifier kink for
# the central-difference oracle to be trustworthy
KINK_MARGIN = 1e-4


def suite_objectives() -> list:
    """(report name, config) pairs, one per objective."""
    return [
        ("CE", ObjectiveConfig(kind="CE")),
        ("CE+EM", ObjectiveConfig(kind="CE+EM", beta=0.01)),
        ("DG", ObjectiveConfig(kind="DG")),
        ("DG+EM", ObjectiveConfig(kind="DG+EM", beta=0.05)),
        ("SAT", ObjectiveConfig(kind="SAT")),
        ("SAT+EM", ObjectiveConfig(kind="SAT+EM", beta=0.05)),
        ("SelectiveNet",
         ObjectiveConfig(kind="SelectiveNet", c_target=0.9, lam=4.0,
                         alpha_mix=0.6)),
        ("SelectiveNet+EM",
         ObjectiveConfig(kind="SelectiveNet+EM", beta=0.05, c_target=0.9,
                         lam=4.0, alpha_mix=0.6)),
    ]


def _draw_case(cfg: ObjectiveConfig, seed: int, case_index: int):
    """(network, batch, labels, SAT target masses or None) of one case."""
    for attempt in range(64):
        # the literal ":hinge:" keeps each case's random draws unchanged
        rng = rng_for(seed, f"gradcheck:{cfg.kind}:hinge:"
                            f"{case_index}:{attempt}")
        n_classes = int(rng.integers(2, 6))
        widths = tuple(int(w) for w in rng.integers(3, 17, size=2))
        m = int(rng.integers(1, 9))
        input_dim = int(rng.integers(2, 7))
        net = build_network(input_dim, widths, n_classes=n_classes,
                            head=cfg.required_head(),
                            seed=int(rng.integers(0, 2 ** 31)))
        net.params += rng.normal(scale=0.3, size=net.params.size)
        X = rng.normal(size=(m, input_dim))
        y = rng.integers(0, n_classes, size=m)
        trace = network_forward(net, X)
        if min(float(np.abs(z).min()) for z in trace.pre) < KINK_MARGIN:
            continue
        if cfg.base_kind == "SelectiveNet" and \
                abs(float(sigmoid(trace.head_raw["select"][:, 0]).mean())
                    - cfg.c_target) < KINK_MARGIN:
            continue  # the hinge has its own kink at the target coverage
        targets = None
        if cfg.base_kind == "SAT":
            # label entries of whole soft rows, so the draws stay the same
            raw = rng.random((m, n_classes + 1))
            targets = (raw / raw.sum(axis=1, keepdims=True))[np.arange(m), y]
        return net, X, y, targets
    raise RuntimeError("could not draw a kink-free gradcheck case")


def check_case(cfg: ObjectiveConfig, net, X, y, targets) -> float:
    """Max relative error between analytic and central-difference gradients
    of ``cfg``'s objective on ``net`` and the batch ``X``, ``y``; ``targets``
    holds one SAT target mass per sample, or is None."""

    def dispatch(trace):
        return objective_dispatch(cfg, trace.head_raw, y,
                                  n_classes=net.n_classes, t_y=targets)

    trace = network_forward(net, X)
    analytic = network_backward(net, trace, dispatch(trace).dlogits)
    fd = finite_difference_gradient(
        lambda n: dispatch(network_forward(n, X)).loss, net)
    return max_relative_error(net, analytic, fd)


def check_objective(cfg: ObjectiveConfig, n_cases: int, seed: int) -> float:
    worst = 0.0
    for i in range(n_cases):
        worst = max(worst, check_case(cfg, *_draw_case(cfg, seed, i)))
    return worst


def run_suite(n_cases: int, seed: int) -> dict:
    """Per-objective max relative error."""
    return {name: check_objective(cfg, n_cases=n_cases, seed=seed)
            for name, cfg in suite_objectives()}
