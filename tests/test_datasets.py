import numpy as np
import pytest

from selcls.datasets import (
    Dataset,
    MixtureSpec,
    bayes_posterior,
    blobs8,
    circle_mixture,
    generate_mixture,
    load_csv_dataset,
    save_csv_dataset,
    split_dataset,
)
from selcls.errors import ConfigurationError, ParseError


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

    def test_matches_monte_carlo_label_frequencies(self):
        # sampling oracle: empirical P(y | x in a small ball) vs posterior
        spec = circle_mixture(n_classes=3, radius=1.5, sigma=1.0,
                              label_noise=0.1, n_train=100_000, n_val=1,
                              n_test=1, seed=5)
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


class TestCsvRoundTrip:
    def test_two_row_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("f0,f1,label\n0.5,-1.25,0\n1.5,2.0,1\n")
        ds = load_csv_dataset(path)
        assert len(ds) == 2
        assert np.allclose(ds.features, [[0.5, -1.25], [1.5, 2.0]])
        assert np.array_equal(ds.labels, [0, 1])

    def test_label_out_of_range_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n0.1,0\n0.2,-1\n")
        with pytest.raises(ParseError, match="bad.csv:3"):
            load_csv_dataset(path)

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("f0,f1,label\n0.1,0.2,0\n0.3,1\n")
        with pytest.raises(ParseError, match="ragged.csv:3"):
            load_csv_dataset(path)

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("f0,label\nabc,0\n")
        with pytest.raises(ParseError, match="nan.csv:2"):
            load_csv_dataset(path)

    def test_roundtrip_preserves_fingerprint(self, tmp_path):
        train, _, _ = generate_mixture(two_blob_spec(seed=11))
        path = tmp_path / "round.csv"
        save_csv_dataset(path, train)
        loaded = load_csv_dataset(path)
        assert loaded.fingerprint == train.fingerprint

    def test_standardize_gives_zero_mean_unit_sd_columns(self, tmp_path):
        rng = np.random.default_rng(4)
        feats = rng.normal(loc=[3.0, -2.0], scale=[5.0, 0.5], size=(50, 2))
        # a constant column has no spread to divide by; it is only centred
        feats = np.column_stack([feats, np.full(50, 7.0)])
        labels = rng.integers(0, 3, size=50)
        path = tmp_path / "raw.csv"
        save_csv_dataset(path, Dataset(features=feats, labels=labels))
        ds = load_csv_dataset(path, standardize=True)
        assert np.allclose(ds.features.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(ds.features.std(axis=0), [1.0, 1.0, 0.0])
        assert np.array_equal(ds.features[:, 2], np.zeros(50))
        assert np.array_equal(ds.labels, labels)
        assert np.array_equal(load_csv_dataset(path).features, feats)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,b,label\n0.1,0.2,0\n")
        with pytest.raises(ParseError, match="hdr.csv:1"):
            load_csv_dataset(path)


class TestSplitDataset:
    def make(self, n_per_class=50, C=2):
        labels = np.repeat(np.arange(C), n_per_class)
        rng = np.random.default_rng(0)
        return Dataset(features=rng.normal(size=(C * n_per_class, 3)),
                       labels=labels)

    def test_80_20_stratified(self):
        data = self.make(n_per_class=50, C=2)
        train, val = split_dataset(data, (0.8, 0.2), seed=0)
        assert len(train) == 80 and len(val) == 20
        for c in range(2):
            assert np.sum(train.labels == c) == 40
            assert np.sum(val.labels == c) == 10

    def test_full_fraction_is_a_copy(self):
        data = self.make()
        [copy] = split_dataset(data, (1.0,), seed=0)
        assert copy.fingerprint == data.fingerprint

    def test_two_seeds_differ_same_counts(self):
        data = self.make(n_per_class=30, C=3)
        a = split_dataset(data, (0.5, 0.5), seed=1)
        b = split_dataset(data, (0.5, 0.5), seed=2)
        assert a[0].fingerprint != b[0].fingerprint
        for c in range(3):
            assert np.sum(a[0].labels == c) == np.sum(b[0].labels == c) == 15

    def test_stratification_exactness(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 4, size=203)
        data = Dataset(features=rng.normal(size=(203, 2)), labels=labels)
        splits = split_dataset(data, (0.6, 0.25, 0.15), seed=9)
        for c in range(4):
            n_c = np.sum(labels == c)
            for frac, split in zip((0.6, 0.25, 0.15), splits):
                got = np.sum(split.labels == c)
                assert abs(got - n_c * frac) <= 1.0 + 1e-9

    def test_disjoint_and_complete(self):
        data = self.make(n_per_class=25, C=2)
        a, b = split_dataset(data, (0.5, 0.5), seed=4)
        combined = np.concatenate([a.features, b.features])
        assert combined.shape[0] == len(data)
        assert len(np.unique(combined, axis=0)) == len(data)

    def test_tiny_class_rejected(self):
        data = Dataset(features=np.zeros((3, 1)),
                       labels=np.array([0, 0, 1]))
        with pytest.raises(ConfigurationError):
            split_dataset(data, (0.4, 0.3, 0.3), seed=0)

    def test_bad_fractions(self):
        data = self.make()
        with pytest.raises(ConfigurationError):
            split_dataset(data, (0.8, 0.4), seed=0)
        with pytest.raises(ConfigurationError):
            split_dataset(data, (), seed=0)


def test_blobs8_shape():
    spec = blobs8()
    assert spec.n_classes == 8 and spec.dim == 2
    assert np.allclose(np.linalg.norm(spec.means, axis=1), 2.2)
    assert spec.label_noise == 0.1
    assert (spec.n_train, spec.n_val, spec.n_test) == (8000, 2000, 4000)
