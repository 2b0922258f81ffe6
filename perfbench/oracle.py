"""Reference computations the correctness checks compare the program against.

Nothing here calls selcls: the blobs8 posterior is written from the
geometry, top-k selection and its risk from the tie policy, and the
forward pass from the ReLU-MLP definition. Only the weights come from the
program (the Network object that ``load_checkpoint`` or training leaves).
"""

import math
from fractions import Fraction

import numpy as np

# blobs8: 8 classes on a circle of radius 2.2, unit variance, equal priors,
# and 10% of labels resampled uniformly over the 7 other classes
N_CLASSES = 8
RADIUS = 2.2
SIGMA = 1.0
LABEL_NOISE = 0.1
CHANCE_RISK = 1.0 - 1.0 / N_CLASSES


def blobs8_means() -> np.ndarray:
    angles = [2.0 * math.pi * k / N_CLASSES for k in range(N_CLASSES)]
    return np.array([[RADIUS * math.cos(a), RADIUS * math.sin(a)]
                     for a in angles])


def blobs8_posterior(x) -> np.ndarray:
    """p(y = c | x) of the noisy labels, shape (n, 8)."""
    x = np.asarray(x, dtype=np.float64)
    means = blobs8_means()
    sq = np.zeros((x.shape[0], N_CLASSES))
    for c in range(N_CLASSES):
        sq[:, c] = (x[:, 0] - means[c, 0]) ** 2 + (x[:, 1] - means[c, 1]) ** 2
    # equal priors and variances: the Gaussian normalisers cancel
    logq = -sq / (2.0 * SIGMA ** 2)
    logq -= logq.max(axis=1, keepdims=True)
    q = np.exp(logq)
    q /= q.sum(axis=1, keepdims=True)
    return (1.0 - LABEL_NOISE) * q + LABEL_NOISE * (1.0 - q) / (N_CLASSES - 1)


def top_k_count(n: int, coverage: float) -> int:
    """ceil(coverage * n) for the decimal coverage as written, at least 1."""
    return max(1, math.ceil(Fraction(repr(float(coverage))) * n))


def top_k_indices(scores, k: int) -> np.ndarray:
    """The k highest scores; among equal scores the lower index wins."""
    order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
    return order[:k]


def errors_in(indices, predicted, truth) -> int:
    return int(np.count_nonzero(np.asarray(predicted)[indices]
                                != np.asarray(truth)[indices]))


def top_k_risk(scores, predicted, truth, k: int) -> float:
    return errors_in(top_k_indices(scores, k), predicted, truth) / k


def oracle_risk(posterior, truth, coverage: float) -> float:
    """Selective risk of the Bayes rule ranked by its own confidence."""
    k = top_k_count(len(truth), coverage)
    return top_k_risk(posterior.max(axis=1), posterior.argmax(axis=1), truth, k)


def mlp_outputs(net, x) -> dict:
    """Raw head outputs of a ReLU MLP, read from the network's W and b."""
    a = np.asarray(x, dtype=np.float64)
    for layer in net.trunk:
        a = np.maximum(a @ np.asarray(layer.W, dtype=np.float64).T + layer.b, 0.0)
    return {name: a @ np.asarray(h.W, dtype=np.float64).T + h.b
            for name, h in net.heads.items()}


def class_probabilities(net, x) -> np.ndarray:
    """Softmax over the C real-class logits (the abstain logit dropped)."""
    z = mlp_outputs(net, x)["logits"][:, :net.n_classes]
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def flat_parameters(net) -> np.ndarray:
    layers = list(net.trunk) + [net.heads[k] for k in sorted(net.heads)]
    return np.concatenate([np.ravel(p) for layer in layers
                           for p in (layer.W, layer.b)])
