import numpy as np
import pytest

from selcls.datasets import (
    MixtureSpec,
    bayes_posterior,
    blobs8,
    generate_mixture,
)
from selcls.errors import ConfigurationError


def two_blob_spec(separation=6.0, noise=0.0, seed=0, n=(400, 100, 200)):
    return MixtureSpec(
        means=np.array([[-separation / 2, 0.0], [separation / 2, 0.0]]),
        variances=np.array([1.0, 1.0]), priors=np.array([0.5, 0.5]),
        label_noise=noise, n_train=n[0], n_val=n[1], n_test=n[2], seed=seed)


class TestGenerateMixture:
    def test_deterministic_fingerprints(self):
        a = generate_mixture(blobs8(seed=3))
        b = generate_mixture(blobs8(seed=3))
        for da, db in zip(a, b):
            assert da.fingerprint == db.fingerprint
        c = generate_mixture(blobs8(seed=4))
        assert c[0].fingerprint != a[0].fingerprint

    def test_split_sizes(self):
        train, val, test = generate_mixture(two_blob_spec())
        assert (len(train), len(val), len(test)) == (400, 100, 200)
        assert train.dim == 2

    def test_separable_spec_has_near_zero_bayes_error(self):
        spec = two_blob_spec(separation=10.0, noise=0.0, seed=1)
        train, _, test = generate_mixture(spec)
        post = bayes_posterior(spec, test.features)
        pred = post.argmax(axis=1)
        assert np.mean(pred == test.labels) >= 0.999

    def test_label_noise_rate_within_3_sigma(self):
        eta = 0.2
        spec = two_blob_spec(separation=50.0, noise=eta, seed=7,
                             n=(20_000, 100, 100))
        train, _, _ = generate_mixture(spec)
        # with huge separation the clean label is the nearest mean, so
        # the observed flip rate is measurable directly
        clean = (train.features[:, 0] > 0).astype(int)
        flips = np.mean(train.labels != clean)
        n = len(train)
        sigma = np.sqrt(eta * (1 - eta) / n)
        assert abs(flips - eta) < 3 * sigma

    def test_invalid_spec_rejected(self):
        spec = two_blob_spec()
        spec.priors = np.array([0.7, 0.7])
        with pytest.raises(ConfigurationError):
            generate_mixture(spec)


class TestBayesPosterior:
    def test_midpoint_symmetric(self):
        spec = two_blob_spec(separation=4.0)
        post = bayes_posterior(spec, np.zeros(2))
        assert np.allclose(post, [0.5, 0.5])

    def test_at_mean_with_large_separation_near_one_hot(self):
        spec = two_blob_spec(separation=20.0)
        post = bayes_posterior(spec, spec.means[0])
        assert post[0] > 1 - 1e-12

    def test_noise_mixing_formula(self):
        clean = two_blob_spec(separation=4.0, noise=0.0)
        noisy = two_blob_spec(separation=4.0, noise=0.2)
        x = np.array([0.7, -0.3])
        q = bayes_posterior(clean, x)
        p = bayes_posterior(noisy, x)
        assert np.allclose(p, 0.8 * q + 0.2 * (1 - q) / 1)

    def test_sums_to_one(self):
        spec = blobs8()
        rng = np.random.default_rng(0)
        post = bayes_posterior(spec, rng.normal(size=(50, 2), scale=3))
        assert np.max(np.abs(post.sum(axis=1) - 1.0)) < 1e-12

    def test_bytes_equal_max_shift_exp_normalise_formula(self):
        # the closed form written out: max shift, exp, normalise, mix
        rng = np.random.default_rng(11)
        for _ in range(50):
            C, d = rng.integers(2, 9), rng.integers(1, 9)
            priors = rng.random(C)
            spec = MixtureSpec(
                means=2 * rng.normal(size=(C, d)),
                variances=rng.uniform(0.3, 3.0, size=C),
                priors=priors / priors.sum(),
                label_noise=rng.uniform(0.0, 0.4))
            x = 3 * rng.normal(size=(100, d))
            sq = ((x[:, None, :] - spec.means[None, :, :]) ** 2).sum(axis=2)
            log_lik = -0.5 * sq / spec.variances[None, :] \
                - 0.5 * d * np.log(2 * np.pi * spec.variances)[None, :]
            log_post = np.log(spec.priors)[None, :] + log_lik
            log_post -= log_post.max(axis=1, keepdims=True)
            q = np.exp(log_post)
            q /= q.sum(axis=1, keepdims=True)
            eta = spec.label_noise
            q = (1 - eta) * q + eta * (1 - q) / (C - 1)
            assert bayes_posterior(spec, x).tobytes() == q.tobytes()
            assert bayes_posterior(spec, x[0]).tobytes() == q[0].tobytes()

    def test_matches_monte_carlo_label_frequencies(self):
        # sampling oracle: empirical P(y | x in a small ball) vs posterior
        # three equal-prior unit-variance classes on a circle of radius 1.5
        angles = 2 * np.pi * np.arange(3) / 3
        spec = MixtureSpec(
            means=1.5 * np.stack([np.cos(angles), np.sin(angles)], axis=1),
            variances=np.full(3, 1.0), priors=np.full(3, 1.0 / 3),
            label_noise=0.1, n_train=100_000, n_val=1, n_test=1, seed=5)
        train, _, _ = generate_mixture(spec)
        x0 = np.array([0.9, 0.4])
        ball = np.linalg.norm(train.features - x0, axis=1) < 0.25
        n = int(ball.sum())
        assert n > 500
        post = bayes_posterior(spec, x0)
        for c in range(3):
            freq = np.mean(train.labels[ball] == c)
            sigma = np.sqrt(post[c] * (1 - post[c]) / n)
            # 3 sigma plus slack for the finite ball radius
            assert abs(freq - post[c]) < 3 * sigma + 0.03


def test_blobs8_shape():
    spec = blobs8()
    assert spec.n_classes == 8 and spec.dim == 2
    assert np.allclose(np.linalg.norm(spec.means, axis=1), 2.2)
    assert spec.label_noise == 0.1
    assert (spec.n_train, spec.n_val, spec.n_test) == (8000, 2000, 4000)
