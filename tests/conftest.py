import os

import numpy as np
import pytest

from selcls import util
from selcls.errors import UndefinedRiskError
from selcls.nn import build_network, network_forward


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_net(rng, head="plain", n_classes=3, input_dim=4, widths=(6, 5),
               seed=None):
    """Small random network with freshly perturbed parameters.

    build_network zeroes biases; gradient tests want them non-trivial, so
    every parameter gets an extra N(0, 0.3) nudge.
    """
    if seed is None:
        seed = int(rng.integers(0, 2 ** 31))
    net = build_network(input_dim, widths, n_classes=n_classes, head=head,
                        seed=seed)
    net.params += rng.normal(scale=0.3, size=net.params.size)
    return net


def random_batch(rng, net, m=4):
    X = rng.normal(size=(m, net.input_dim))
    y = rng.integers(0, net.n_classes, size=m)
    return X, y


def selective_risk(predicted, truth, mask) -> float:
    """Reference: 0/1 error over the samples ``mask`` selects, computed as
    1 - (correct selected / selected) like ``risk_coverage_curve``."""
    mask = np.asarray(mask, dtype=bool)
    n_selected = np.count_nonzero(mask)
    if n_selected == 0:
        raise UndefinedRiskError("no samples selected; risk is undefined")
    correct = np.asarray(predicted) == np.asarray(truth)
    return 1.0 - np.count_nonzero(correct & mask) / n_selected


def fail_writes(monkeypatch, name_prefix=""):
    """Make ``util.atomic_write`` fail partway: a write to a file whose name
    starts with ``name_prefix`` writes half its text, then raises
    ``OSError("disk full")``."""
    def open_failing(path, *args, **kwargs):
        f = open(path, *args, **kwargs)
        if os.path.basename(path).startswith(name_prefix):
            write = f.write

            def write_half(text):
                write(text[:len(text) // 2])
                raise OSError("disk full")

            f.write = write_half
        return f

    monkeypatch.setattr(util, "open", open_failing, raising=False)
