"""Synthetic Gaussian-mixture tasks with an exact posterior.

The mixture generator is the stand-in for real image benchmarks: class-
conditional isotropic Gaussians with optional uniform label noise, so the
Bayes-optimal classifier is known in closed form and every selective
method can be judged against it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .nn import softmax
from .util import MAX_ARRAY_BYTES, rng_for, sha256_hex


@dataclass
class MixtureSpec:
    """Generative model: x | y=c ~ N(mean_c, var_c I), then with
    probability ``label_noise`` the label is resampled uniformly over the
    other classes. The class count C and the dimension d are the shape of
    ``means``."""

    means: np.ndarray          # (C, d)
    variances: np.ndarray      # (C,)
    priors: np.ndarray         # (C,)
    label_noise: float = 0.0
    n_train: int = 1000
    n_val: int = 200
    n_test: int = 500
    seed: int = 0

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=np.float64)
        self.variances = np.asarray(self.variances, dtype=np.float64)
        self.priors = np.asarray(self.priors, dtype=np.float64)

    @property
    def n_classes(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def validate(self) -> None:
        """Each error names the config key ``dataset.<field>`` at fault."""
        if self.means.ndim != 2 or len(self.means) < 2 or \
                not self.means.size or not np.all(np.isfinite(self.means)):
            raise ConfigurationError(
                "dataset.means must be a finite (C, d) array, C >= 2, d >= 1")
        C = self.n_classes
        for name in ("variances", "priors"):
            if getattr(self, name).shape != (C,):
                raise ConfigurationError(
                    f"dataset.{name} must list one value per class ({C}), "
                    f"got {getattr(self, name).size}")
        if np.any(self.variances <= 0):
            raise ConfigurationError("dataset.variances must be positive")
        if np.any(self.priors < 0) or abs(self.priors.sum() - 1.0) > 1e-9:
            raise ConfigurationError(
                "dataset.priors must be non-negative and sum to 1")
        if not 0 <= self.label_noise < 0.5:
            raise ConfigurationError(
                "dataset.label_noise must lie in [0, 0.5)")
        most = MAX_ARRAY_BYTES // (8 * self.dim)
        for name in ("n_train", "n_val", "n_test"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"dataset.{name} must be >= 1")
            if getattr(self, name) > most:
                raise ConfigurationError(
                    f"dataset.{name} must be at most {most}, the most rows "
                    f"of {self.dim} float64 features one numpy array holds")


def blobs8(seed: int = 0) -> MixtureSpec:
    """The shipped benchmark: 8 overlapping equal-prior classes with means
    spaced evenly on a 2-d circle of radius 2.2, unit variance and 10%
    label noise, 8000/2000/4000 samples."""
    angles = 2 * np.pi * np.arange(8) / 8
    return MixtureSpec(
        means=2.2 * np.stack([np.cos(angles), np.sin(angles)], axis=1),
        variances=np.ones(8), priors=np.full(8, 1.0 / 8), label_noise=0.1,
        n_train=8000, n_val=2000, n_test=4000, seed=seed)


@dataclass
class Dataset:
    features: np.ndarray       # (n, d) float64
    labels: np.ndarray         # (n,) int64

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.labels.ndim != 1 or \
                self.features.shape[0] != self.labels.shape[0]:
            raise ConfigurationError("features (n, d) and labels (n,) must align")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def fingerprint(self) -> str:
        """16 hex digits of the SHA-256 of the shape, features and labels."""
        return sha256_hex(
            np.asarray(self.features.shape, dtype=np.int64).tobytes()
            + np.ascontiguousarray(self.features, dtype=np.float64).tobytes()
            + np.ascontiguousarray(self.labels, dtype=np.int64).tobytes())[:16]


SPLITS = ("train", "val", "test")


def draw_split(spec: MixtureSpec, name: str) -> Dataset:
    """Draw one split, "train", "val" or "test", of ``spec.n_<name>`` rows.
    Each split has a random stream of its own, derived from spec.seed, so
    it comes out the same whether or not the others are drawn."""
    spec.validate()
    n = getattr(spec, f"n_{name}")
    rng = rng_for(spec.seed, f"mixture:{name}")
    labels = rng.choice(spec.n_classes, size=n, p=spec.priors)
    x = spec.means[labels] + rng.standard_normal((n, spec.dim)) * \
        np.sqrt(spec.variances[labels])[:, None]
    if spec.label_noise > 0:
        flip = rng.random(n) < spec.label_noise
        # uniform over the other C-1 classes
        other = rng.integers(0, spec.n_classes - 1, size=int(flip.sum()))
        other = other + (other >= labels[flip])
        labels = labels.copy()
        labels[flip] = other
    return Dataset(features=x, labels=labels)


def generate_mixture(spec: MixtureSpec):
    """Draw the (train, val, test) splits, fully determined by spec.seed."""
    return tuple(draw_split(spec, name) for name in SPLITS)


def bayes_posterior(spec: MixtureSpec, x) -> np.ndarray:
    """Exact class posterior under the generative model, noise included.

    The clean Gaussian posterior q is mixed analytically with the label
    noise: p(y=c | x) = (1 - eta) q_c + eta (1 - q_c) / (C - 1).
    """
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.shape[1] != spec.dim:
        raise ConfigurationError(f"points must have dim {spec.dim}")
    d = spec.dim
    diff = x[:, None, :] - spec.means[None, :, :]          # (m, C, d)
    sq = (diff ** 2).sum(axis=2)                           # (m, C)
    log_lik = -0.5 * sq / spec.variances[None, :] \
        - 0.5 * d * np.log(2 * np.pi * spec.variances)[None, :]
    q = softmax(np.log(spec.priors)[None, :] + log_lik)[0]
    eta = spec.label_noise
    if eta > 0:
        q = (1 - eta) * q + eta * (1 - q) / (spec.n_classes - 1)
    return q[0] if squeeze else q

