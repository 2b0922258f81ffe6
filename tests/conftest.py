import numpy as np
import pytest

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
