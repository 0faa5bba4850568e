import numpy as np
import pytest

from mnarkit.errors import ConsistencyError, DegenerateFeatureError, DomainError, ShapeError
from mnarkit.masking import (FeatureStats, IncompleteMatrix, compose_missing,
                             compose_observed, feature_stats, recombine,
                             standardize_complete, zero_impute)

rng = np.random.default_rng(7)


class TestCompose:
    def test_observed_basic(self):
        out = compose_observed(np.array([[1.0, 2.0]]), np.array([[1.0, 0.0]]))
        assert out.values[0, 0] == 1.0
        assert np.array_equal(out.mask, [[1.0, 0.0]])

    def test_all_observed(self):
        x = rng.standard_normal((3, 2))
        out = compose_observed(x, np.ones((3, 2)))
        assert np.array_equal(out.values, x)

    def test_all_missing(self):
        out = compose_observed(rng.standard_normal((3, 2)), np.zeros((3, 2)))
        assert out.observed_fraction() == 0.0

    def test_missing_complement(self):
        out = compose_missing(np.array([[1.0, 2.0]]), np.array([[1.0, 0.0]]))
        assert out.values[0, 1] == 2.0
        assert np.array_equal(out.mask, [[0.0, 1.0]])

    def test_missing_degenerate_masks(self):
        x = rng.standard_normal((2, 2))
        assert compose_missing(x, np.ones((2, 2))).observed_fraction() == 0.0
        assert np.array_equal(compose_missing(x, np.zeros((2, 2))).values, x)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            compose_observed(np.zeros((2, 2)), np.zeros((2, 3)))



class TestObservedValuesFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_observed_value_names_its_cell(self, bad):
        values = np.zeros((3, 4))
        values[2, 1] = values[2, 3] = bad
        with pytest.raises(DomainError, match="row 2, column 1"):
            IncompleteMatrix(values, np.ones((3, 4)))

    def test_missing_cells_may_hold_non_finite_values(self):
        values = np.array([[1.0, np.nan], [np.inf, 2.0]])
        data = IncompleteMatrix(values, np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert data.observed_fraction() == 0.5


class TestRecombine:
    def test_round_trip_random(self):
        for _ in range(50):
            x = rng.standard_normal((5, 4))
            m = (rng.random((5, 4)) < 0.5).astype(float)
            back = recombine(compose_observed(x, m), compose_missing(x, m))
            assert np.array_equal(back, x)

    def test_all_ones_uses_observed_only(self):
        x = rng.standard_normal((3, 2))
        m = np.ones((3, 2))
        assert np.array_equal(recombine(compose_observed(x, m), compose_missing(x, m)), x)

    def test_overlapping_masks_rejected(self):
        x = np.zeros((2, 2))
        a = compose_observed(x, np.ones((2, 2)))
        b = compose_observed(x, np.ones((2, 2)))
        with pytest.raises(ConsistencyError):
            recombine(a, b)


class TestStandardize:
    def test_two_point_column(self):
        x = np.array([[1.0], [3.0]])
        stats = feature_stats(x)
        # population convention: mean 2, std 1
        assert np.allclose(standardize_complete(x, stats)[:, 0], [-1.0, 1.0])
        assert stats.mean[0] == 2.0 and stats.std[0] == 1.0

    def test_identity_stats_leave_data_unchanged(self):
        x = rng.standard_normal((4, 2))
        stats = FeatureStats(np.zeros(2), np.ones(2))
        assert np.array_equal(standardize_complete(x, stats), x)

    def test_constant_feature_errors(self):
        with pytest.raises(DegenerateFeatureError, match="feature 0"):
            feature_stats(np.ones((5, 1)))

    def test_stats_std_must_be_positive(self):
        with pytest.raises(DegenerateFeatureError):
            FeatureStats(np.zeros(2), np.array([1.0, 0.0]))


class TestZeroImpute:
    def test_basic(self):
        data = IncompleteMatrix(np.array([[1.0, 99.0]]), np.array([[1.0, 0.0]]))
        assert np.array_equal(zero_impute(data), [[1.0, 0.0]])

    def test_fully_observed_identity(self):
        x = rng.standard_normal((3, 2))
        assert np.array_equal(zero_impute(IncompleteMatrix(x, np.ones((3, 2)))), x)

    def test_fully_missing_row(self):
        data = IncompleteMatrix(np.full((1, 3), np.nan), np.zeros((1, 3)))
        assert np.array_equal(zero_impute(data), np.zeros((1, 3)))
