import numpy as np
import pytest

from mnarkit.errors import DomainError, ShapeError
from mnarkit.synth import (MissingSpec, apply_missing, default_feature_subset,
                           equicorrelated_cov, gaussian_synth, make_rng,
                           mcar_mask, mixed_mask, self_mask, star_mask)


class TestGaussianSynth:
    def test_sample_mean_near_zero(self):
        n = 20000
        x = gaussian_synth(n, 3, np.zeros(3), np.eye(3), make_rng(0))
        assert np.all(np.abs(x.mean(axis=0)) < 4 / np.sqrt(n))

    def test_default_four_features(self):
        x = gaussian_synth(100, 4, np.zeros(4), equicorrelated_cov(4), make_rng(0))
        assert x.shape == (100, 4)

    def test_seed_determinism(self):
        a = gaussian_synth(50, 2, np.zeros(2), np.eye(2), make_rng(42))
        b = gaussian_synth(50, 2, np.zeros(2), np.eye(2), make_rng(42))
        assert np.array_equal(a, b)

    def test_non_pd_covariance(self):
        with pytest.raises(DomainError):
            gaussian_synth(10, 2, np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]),
                           make_rng(0))

    def test_covariance_recovered(self):
        cov = equicorrelated_cov(3, 0.5)
        x = gaussian_synth(100000, 3, np.zeros(3), cov, make_rng(1))
        assert np.all(np.abs(np.cov(x.T) - cov) < 0.03)


class TestMcarMask:
    def test_extremes(self):
        assert np.all(mcar_mask(5, 3, 0.0, make_rng(0)) == 1)
        assert np.all(mcar_mask(5, 3, 1.0, make_rng(0)) == 0)

    def test_empirical_fraction(self):
        m = mcar_mask(1000, 100, 0.2, make_rng(3))
        assert abs((1 - m.mean()) - 0.2) < 0.01


class TestSelfMask:
    def test_overall_fraction_about_quarter_k(self):
        # k on half the features: above-mean entries are ~half of that half
        x = gaussian_synth(50000, 4, np.zeros(4), np.eye(4), make_rng(5))
        m = self_mask(x, [0, 1], 0.8, make_rng(6))
        assert abs((1 - m.mean()) - 0.8 / 4) < 0.01

    def test_subset_fraction_half_k(self):
        x = gaussian_synth(50000, 4, np.zeros(4), np.eye(4), make_rng(7))
        m = self_mask(x, [0, 1], 0.6, make_rng(8))
        assert abs((1 - m[:, :2].mean()) - 0.6 / 2) < 0.01

    def test_k_one_removes_every_above_mean_entry(self):
        x = gaussian_synth(500, 3, np.zeros(3), np.eye(3), make_rng(9))
        m = self_mask(x, [0], 1.0, make_rng(10))
        above = x[:, 0] > x[:, 0].mean()
        assert np.all(m[above, 0] == 0)
        assert np.all(m[~above, 0] == 1)

    def test_strict_inequality_at_mean(self):
        x = np.array([[1.0], [1.0], [4.0], [0.0]])  # mean 1.5
        m = self_mask(x, [0], 1.0, make_rng(0))
        assert m[0, 0] == 1 and m[1, 0] == 1  # equal-to-mean impossible here, below stays
        x2 = np.array([[2.0], [2.0], [2.0], [2.0]])  # every value equals the mean
        m2 = self_mask(x2, [0], 1.0, make_rng(0))
        assert np.all(m2 == 1)

    def test_unlisted_features_fully_observed(self):
        x = gaussian_synth(1000, 4, np.zeros(4), np.eye(4), make_rng(11))
        m = self_mask(x, [0, 1], 1.0, make_rng(12))
        assert np.all(m[:, 2:] == 1)


class TestStarMask:
    def test_rule(self):
        x = gaussian_synth(1000, 4, np.zeros(4), np.eye(4), make_rng(13))
        m = star_mask(x, make_rng(14))
        means = x.mean(axis=0)
        assert np.all(m[x[:, 0] > means[0], 0] == 0)
        assert np.all(m[x[:, 0] <= means[0], 0] == 1)
        assert np.all(m[x[:, 1] < means[1], 1] == 0)
        assert np.all(m[x[:, 1] >= means[1], 1] == 1)
        assert np.all(m[:, 2:] == 1)

    def test_deterministic_regardless_of_rng(self):
        x = gaussian_synth(100, 2, np.zeros(2), np.eye(2), make_rng(15))
        assert np.array_equal(star_mask(x, make_rng(1)), star_mask(x, make_rng(2)))

    def test_needs_two_features(self):
        with pytest.raises(ShapeError):
            star_mask(np.zeros((5, 1)), make_rng(0))


class TestMixedMask:
    def test_degenerate_all_observed(self):
        x = gaussian_synth(100, 4, np.zeros(4), np.eye(4), make_rng(16))
        assert np.all(mixed_mask(x, [0, 1], 0.0, 0.0, make_rng(17)) == 1)

    def test_reduces_to_mcar(self):
        x = gaussian_synth(30000, 4, np.zeros(4), np.eye(4), make_rng(18))
        m = mixed_mask(x, [0, 1], 0.0, 0.3, make_rng(19))
        assert abs((1 - m.mean()) - 0.3) < 0.01

    def test_union_matches_direct_simulation(self):
        # Monte Carlo oracle: per-entry missing prob is 1-(1-p_self)(1-p_mcar),
        # with p_self = k for above-mean entries of listed features, else 0
        n, d = 25000, 4
        x = gaussian_synth(n, d, np.zeros(d), np.eye(d), make_rng(20))
        k_mnar, p_mcar = 0.8, 0.2
        m = mixed_mask(x, [0, 1], k_mnar, p_mcar, make_rng(21))
        means = x.mean(axis=0)
        oracle_rng = make_rng(22)
        p_self = np.zeros((n, d))
        for j in (0, 1):
            p_self[x[:, j] > means[j], j] = k_mnar
        p_miss = 1 - (1 - p_self) * (1 - p_mcar)
        sim = (oracle_rng.random((n, d)) >= p_miss).astype(float)
        assert abs((1 - m.mean()) - (1 - sim.mean())) < 0.01


class TestSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            MissingSpec(kind="weird")
        with pytest.raises(DomainError):
            MissingSpec(k=1.5)

    def test_default_subset_is_first_half(self):
        assert default_feature_subset(4) == (0, 1)
        assert default_feature_subset(5) == (0, 1, 2)

    @pytest.mark.parametrize("spec, match", [
        (MissingSpec(feature_subset=(0, 4)),
         r"^missing\.feature_subset: feature index 4 .* d = 4$"),
        (MissingSpec(kind="mixed", feature_subset=(-1,)),
         r"^missing\.feature_subset: feature index -1 .* d = 4$"),
        (MissingSpec(kind="star"), r"^missing\.kind: star needs at least 2 features, got d = 1$")])
    def test_apply_missing_names_the_key_and_d(self, spec, match):
        d = 1 if spec.kind == "star" else 4
        with pytest.raises(DomainError, match=match):
            apply_missing(np.zeros((5, d)), spec, make_rng(0))

    def test_apply_missing_dispatch(self):
        x = gaussian_synth(200, 4, np.zeros(4), np.eye(4), make_rng(23))
        for kind in ("mcar", "self_mask", "star", "mixed"):
            m = apply_missing(x, MissingSpec(kind=kind, k=0.5, mcar_probability=0.2),
                              make_rng(24))
            assert m.shape == x.shape
