import numpy as np
import pytest

from mnarkit import baselines
from mnarkit import model as core
from mnarkit.errors import DegenerateFeatureError, DomainError
from mnarkit.masking import IncompleteMatrix, compose_observed, feature_stats, standardize_complete
from mnarkit.synth import equicorrelated_cov, gaussian_synth, make_rng, mcar_mask, self_mask


def small_config(**kw):
    base = dict(latent_dim=1, hidden_sizes=(8, 8), k_train=4, l_impute=16,
                iterations=30, batch_size=32, seed=0)
    base.update(kw)
    return core.ModelConfig(**base)


class TestMeanImpute:
    def test_arithmetic_mean(self):
        data = IncompleteMatrix(np.array([[2.0], [4.0], [0.0]]),
                                np.array([[1.0], [1.0], [0.0]]))
        out = baselines.mean_impute(data)
        assert out[2, 0] == 3.0

    def test_fully_observed_identity(self):
        x = make_rng(0).standard_normal((5, 3))
        out = baselines.mean_impute(IncompleteMatrix(x, np.ones((5, 3))))
        assert np.array_equal(out, x)

    def test_fully_missing_feature_errors(self):
        data = IncompleteMatrix(np.zeros((3, 2)),
                                np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(DegenerateFeatureError):
            baselines.mean_impute(data)

    def test_standardized_mcar_imputes_near_zero(self):
        rng = make_rng(1)
        x = gaussian_synth(4000, 3, np.zeros(3), np.eye(3), rng)
        x = standardize_complete(x, feature_stats(x))
        mask = mcar_mask(4000, 3, 0.4, rng)
        data = compose_observed(x, mask)
        out = baselines.mean_impute(data)
        assert np.all(np.abs(out[mask == 0]) < 0.1)


def toy_mnar(n=60, d=4, seed=0):
    rng = make_rng(seed)
    x = gaussian_synth(n, d, np.zeros(d), equicorrelated_cov(d), rng)
    x = standardize_complete(x, feature_stats(x))
    mask = self_mask(x, [0, 1], 0.8, rng)
    return compose_observed(x, mask)


class TestRunBaseline:
    def test_mean_kind_matches_mean_impute(self):
        data = toy_mnar()
        res = baselines.run_method("mean", data, small_config())
        assert np.array_equal(res.completed, baselines.mean_impute(data))
        assert np.all(res.prob_mask == 0.5)

    def test_alpha0_kind_is_bitwise_identical_to_alpha0_model(self):
        data = toy_mnar(n=40)
        cfg = small_config(iterations=15)
        res = baselines.run_method("mar_alpha0", data, cfg)
        from dataclasses import replace
        cfg0 = replace(cfg, alpha=0.0)
        params, _ = core.train(data, cfg0)
        direct = core.impute(data, params, cfg0)
        assert np.array_equal(res.completed, direct.completed)
        assert np.all(res.prob_mask == 0.5)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            baselines.run_method("oracle", toy_mnar(n=10), small_config())

    def test_serial_selection_preserves_observed(self):
        data = toy_mnar(n=40)
        cfg = small_config(iterations=15)
        res = baselines.run_method("serial_selection", data, cfg)
        obs = data.mask == 1
        assert np.array_equal(res.completed[obs], data.values[obs])


class TestSharedArchitecture:
    def test_serial_and_parallel_share_encoder_and_data_decoder_shapes(self):
        cfg = small_config()
        from dataclasses import replace
        par = core.init_params(cfg, 4, make_rng(0))
        ser = core.init_params(replace(cfg, structure="serial"), 4, make_rng(0))
        shared = [n for n in par.names if n.startswith(("enc.", "dec_x."))]
        assert shared == [n for n in ser.names if n.startswith(("enc.", "dec_x."))]
        for name in shared:
            assert par[name].shape == ser[name].shape
            assert np.array_equal(par[name], ser[name])
