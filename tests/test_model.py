import contextlib
import itertools
import json
import math
import resource
import sys
import threading
import weakref
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mnarkit import autodiff as ad
from mnarkit import model as core
from mnarkit.autodiff import Tensor, backward
from mnarkit.errors import ConsistencyError, DomainError, NumericError, ShapeError
from mnarkit.masking import IncompleteMatrix, compose_observed, feature_stats, standardize_complete
from mnarkit.synth import equicorrelated_cov, gaussian_synth, make_rng, self_mask


def small_config(**kw):
    base = dict(latent_dim=2, hidden_sizes=(8, 8), k_train=4, l_impute=16,
                iterations=30, batch_size=32, seed=0, trace_interval=10)
    base.update(kw)
    return core.ModelConfig(**base)


def toy_dataset(n=48, d=4, seed=0, k=0.8):
    rng = make_rng(seed)
    x = gaussian_synth(n, d, np.zeros(d), equicorrelated_cov(d), rng)
    x = standardize_complete(x, feature_stats(x))
    mask = self_mask(x, [0, 1], k, rng)
    return compose_observed(x, mask), x, mask


class TestConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("hidden_sizes", ()), ("hidden_sizes", (8, 0)), ("trace_interval", 0),
        ("batch_size", 0), ("latent_dim", 0), ("learning_rate", 0.0),
        ("learning_rate", -1e-3), ("iterations", -1),
        ("latent_dim", "x"), ("latent_dim", True), ("k_train", 2.5), ("hidden_sizes", (8.5,)),
        ("hidden_sizes", 8), ("alpha", None), ("alpha", math.nan), ("alpha", math.inf),
        ("learning_rate", math.inf), ("seed", -1), ("seed", 2**64), ("set_code_size", 0)])
    def test_bad_value_names_the_field(self, field, value):
        with pytest.raises(DomainError, match=field):
            core.ModelConfig(**{field: value})

    @given(field=st.sampled_from([f.name for f in fields(core.ModelConfig)]),
           value=st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
                              lambda inner: st.lists(inner, max_size=4), max_leaves=8))
    def test_any_json_value_is_accepted_or_refused_by_name(self, field, value):
        try:
            core.ModelConfig(**{field: value})
        except DomainError as e:
            assert field in str(e)


class TestEncode:
    def test_zero_impute_fully_observed_matches_complete(self):
        cfg = small_config()
        data, x, _ = toy_dataset()
        full = IncompleteMatrix(x, np.ones_like(x))
        params = core.init_params(cfg, 4)
        nodes = core._nodes(params)
        m1, s1 = core.encode(full, nodes, cfg)
        filled = IncompleteMatrix(x, np.ones_like(x))
        m2, s2 = core.encode(filled, nodes, cfg)
        assert np.array_equal(m1.value, m2.value)
        assert np.all(s1.value > 0)

    def test_set_encoder_permutation_invariance(self):
        cfg = small_config(encoder="set_function", set_embedding_size=5, set_code_size=7)
        data, _, _ = toy_dataset()
        params = core.init_params(cfg, 4)
        nodes = core._nodes(params)
        m1, s1 = core.encode(data, nodes, cfg)
        # permute the feature axis of data and embeddings together
        perm = [2, 0, 3, 1]
        pdata = IncompleteMatrix(data.values[:, perm], data.mask[:, perm])
        pp = params.copy()
        pp["enc.Eval"] = params["enc.Eval"][perm]
        pp["enc.Eid"] = params["enc.Eid"][perm]
        m2, s2 = core.encode(pdata, core._nodes(pp), cfg)
        assert np.allclose(m1.value, m2.value, atol=1e-12)
        assert np.allclose(s1.value, s2.value, atol=1e-12)

    def test_set_encoder_empty_row_is_empty_sum(self):
        cfg = small_config(encoder="set_function", set_embedding_size=5, set_code_size=7)
        d = 4
        params = core.init_params(cfg, d)
        nodes = core._nodes(params)
        empty = IncompleteMatrix(np.full((1, d), np.nan), np.zeros((1, d)))
        m, s = core.encode(empty, nodes, cfg)
        # zero code through the head network
        h = np.tanh(params["enc.bcode"])
        want_mean = h @ params["enc.Wmean"] + params["enc.bmean"]
        assert np.allclose(m.value, want_mean, atol=1e-12)
        assert np.all(np.isfinite(s.value))


class TestDecoders:
    def test_shape_contract_and_std_floor(self):
        cfg = small_config()
        params = core.init_params(cfg, 4)
        nodes = core._nodes(params)
        z = Tensor(make_rng(1).standard_normal((6 * cfg.k_train, cfg.latent_dim)))
        mean, std = core.decode_data(z, nodes, cfg)
        assert mean.value.shape == (6 * cfg.k_train, 4)
        assert np.all(std.value >= ad.STD_FLOOR)

    def test_decode_determinism(self):
        cfg = small_config()
        params = core.init_params(cfg, 4)
        nodes = core._nodes(params)
        z = Tensor(make_rng(2).standard_normal((8, cfg.latent_dim)))
        a = core.decode_data(z, nodes, cfg)[0].value
        b = core.decode_data(Tensor(z.value.copy()), nodes, cfg)[0].value
        assert np.array_equal(a, b)

    def test_mask_probabilities_clamped(self):
        cfg = small_config()
        params = core.init_params(cfg, 4)
        p = core.decode_mask(Tensor(np.ones((5, cfg.latent_dim)) * 100),
                             core._nodes(params), cfg)
        assert np.all(p.value >= ad.PROB_FLOOR)
        assert np.all(p.value <= 1 - ad.PROB_FLOOR)

    def test_mask_decoder_ignores_data_decoder_params(self):
        cfg = small_config()
        params = core.init_params(cfg, 4)
        z = Tensor(make_rng(3).standard_normal((8, cfg.latent_dim)))
        before = core.decode_mask(z, core._nodes(params), cfg).value
        perturbed = params.copy()
        for name in perturbed.names:
            if name.startswith("dec_x."):
                perturbed[name] = perturbed[name] + 1.0
        after = core.decode_mask(z, core._nodes(perturbed), cfg).value
        assert np.array_equal(before, after)

    def test_serial_head_input_is_feature_space(self):
        cfg = small_config(structure="serial")
        params = core.init_params(cfg, 4)
        assert params["dec_m.W"].shape == (4, 4)

    def test_serial_head_zero_weights_give_uniform_bias_prob(self):
        cfg = small_config(structure="serial")
        params = core.init_params(cfg, 4)
        params["dec_m.W"] = np.zeros((4, 4))
        params["dec_m.b"] = np.full((1, 4), 0.3)
        mean_x = Tensor(make_rng(4).standard_normal((6, 4)))
        p = core.decode_mask_serial(mean_x, core._nodes(params)).value
        assert np.allclose(p, 1 / (1 + np.exp(-0.3)))


def straight_line_log_weights(data, params, cfg, noise):
    """Independent flat reimplementation of the tempered importance weight:
    data log-lik over observed entries + alpha * mask log-lik + prior - posterior."""
    x = np.where(data.mask == 1, data.values, 0.0)
    n, d = x.shape
    k = noise.shape[0] // n
    h = x
    for i in range(len(cfg.hidden_sizes)):
        h = np.tanh(h @ params[f"enc.W{i}"] + params[f"enc.b{i}"])
    mean_z = h @ params["enc.Wmean"] + params["enc.bmean"]
    std_z = np.clip(np.logaddexp(0, h @ params["enc.Wstd"] + params["enc.bstd"]) + 1e-3,
                    1e-3, 1e3)
    mean_rep = np.repeat(mean_z, k, axis=0)
    std_rep = np.repeat(std_z, k, axis=0)
    z = mean_rep + std_rep * noise
    g = z
    for i in range(len(cfg.hidden_sizes)):
        g = np.tanh(g @ params[f"dec_x.W{i}"] + params[f"dec_x.b{i}"])
    mean_x = g @ params["dec_x.Wmean"] + params["dec_x.bmean"]
    std_x = np.clip(np.logaddexp(0, g @ params["dec_x.Wstd"] + params["dec_x.bstd"]) + 1e-3,
                    1e-3, 1e3)
    q = z
    for i in range(len(cfg.hidden_sizes)):
        q = np.tanh(q @ params[f"dec_m.W{i}"] + params[f"dec_m.b{i}"])
    logits = q @ params["dec_m.Wout"] + params["dec_m.bout"]
    p_m = np.clip(1 / (1 + np.exp(-logits)), 1e-6, 1 - 1e-6)

    x_rep = np.repeat(x, k, axis=0)
    m_rep = np.repeat(data.mask, k, axis=0)

    def logpdf(v, mu, sd):
        return -np.log(sd) - 0.5 * np.log(2 * np.pi) - 0.5 * ((v - mu) / sd) ** 2

    data_term = (m_rep * logpdf(x_rep, mean_x, std_x)).sum(axis=1)
    mask_term = (m_rep * np.log(p_m) + (1 - m_rep) * np.log(1 - p_m)).sum(axis=1)
    prior = logpdf(z, 0.0, 1.0).sum(axis=1)
    posterior = logpdf(z, mean_rep, std_rep).sum(axis=1)
    total = data_term + cfg.alpha * mask_term + prior - posterior
    return total.reshape(n, k)


class TestImportanceWeights:
    def setup_method(self):
        self.cfg = small_config(hidden_sizes=(3, 3), latent_dim=1)
        self.data, _, _ = toy_dataset(n=6, d=2)
        rng = make_rng(9)
        self.params = core.init_params(self.cfg, 2, rng)
        self.noise = rng.standard_normal((6 * 3, 1))

    def _weights(self, cfg):
        nodes = core._nodes(self.params)
        mean_z, std_z = core.encode(self.data, nodes, cfg)
        latent = core.sample_latent(mean_z, std_z, 3, noise=self.noise)
        return core.importance_log_weights(self.data, latent, nodes, cfg)

    def test_matches_straight_line_reimplementation(self):
        w = self._weights(self.cfg)
        want = straight_line_log_weights(self.data, self.params, self.cfg, self.noise)
        assert np.all(np.abs(w.log_w - want) < 1e-10)

    def test_log_w_is_sum_of_components(self):
        w = self._weights(self.cfg)
        total = sum(w.components.values())
        assert np.all(np.abs(w.log_w - total) < 1e-10)

    def test_alpha_one_equals_untempered(self):
        w1 = self._weights(self.cfg)
        w_raw = straight_line_log_weights(
            self.data, self.params, core.ModelConfig(
                **{**{f.name: getattr(self.cfg, f.name)
                      for f in core.ModelConfig.__dataclass_fields__.values()}, "alpha": 1.0}),
            self.noise)
        assert np.all(np.abs(w1.log_w - w_raw) < 1e-10)

    def test_alpha_zero_mask_component_exactly_zero(self):
        cfg0 = small_config(hidden_sizes=(3, 3), latent_dim=1, alpha=0.0)
        w = self._weights(cfg0)
        assert np.array_equal(w.components["mask"], np.zeros_like(w.log_w))

    def test_alpha_zero_mask_decoder_gradients_vanish(self):
        cfg0 = small_config(hidden_sizes=(3, 3), latent_dim=1, alpha=0.0)
        nodes = core._nodes(self.params)
        mean_z, std_z = core.encode(self.data, nodes, cfg0)
        latent = core.sample_latent(mean_z, std_z, 3, noise=self.noise)
        w = core.importance_log_weights(self.data, latent, nodes, cfg0)
        backward(ad.mean_all(w.node))
        for name in self.params.names:
            if name.startswith("dec_m."):
                assert nodes[name].grad is None

    def test_normalized_weights_rows_sum_to_one(self):
        w = self._weights(self.cfg)
        assert np.all(np.abs(w.normalized.sum(axis=1) - 1.0) < 1e-8)
        assert np.all(w.normalized >= 0)


class TestStructuralIsolation:
    def test_data_term_gradient_never_touches_mask_decoder_and_vice_versa(self):
        cfg = small_config()
        data, _, _ = toy_dataset(n=10)
        params = core.init_params(cfg, 4)
        rng = make_rng(11)
        noise = rng.standard_normal((10 * cfg.k_train, cfg.latent_dim))

        nodes = core._nodes(params)
        mean_z, std_z = core.encode(data, nodes, cfg)
        latent = core.sample_latent(mean_z, std_z, cfg.k_train, noise=noise)
        mean_x, std_x = core.decode_data(latent.z, nodes, cfg)
        ld = ad.gaussian_log_density(np.repeat(core.zero_impute(data), cfg.k_train, 0),
                                     mean_x, std_x)
        backward(ad.mean_all(ad.mul_const(ld, np.repeat(data.mask, cfg.k_train, 0))))
        for name in params.names:
            if name.startswith("dec_m."):
                assert nodes[name].grad is None

        nodes2 = core._nodes(params)
        mean_z, std_z = core.encode(data, nodes2, cfg)
        latent = core.sample_latent(mean_z, std_z, cfg.k_train, noise=noise)
        p_m = core.decode_mask(latent.z, nodes2, cfg)
        lb = ad.bernoulli_log_density(np.repeat(data.mask, cfg.k_train, 0), p_m)
        backward(ad.mean_all(lb))
        for name in params.names:
            if name.startswith("dec_x."):
                assert nodes2[name].grad is None


class TestBound:
    def test_k_equals_one_is_single_weight(self):
        cfg = small_config(k_train=1)
        data, _, _ = toy_dataset(n=5)
        params = core.init_params(cfg, 4)
        noise = make_rng(13).standard_normal((5, cfg.latent_dim))
        b = core.bound(data, params, cfg, noise=noise)
        nodes = core._nodes(params)
        mean_z, std_z = core.encode(data, nodes, cfg)
        latent = core.sample_latent(mean_z, std_z, 1, noise=noise)
        w = core.importance_log_weights(data, latent, nodes, cfg)
        assert abs(b - w.log_w.mean()) < 1e-12

    def test_replicated_draw_equals_k1(self):
        cfg = small_config()
        data, _, _ = toy_dataset(n=5)
        params = core.init_params(cfg, 4)
        base = make_rng(14).standard_normal((5, cfg.latent_dim))
        replicated = np.repeat(base, 6, axis=0)
        b1 = core.bound(data, params, cfg, noise=base)
        b6 = core.bound(data, params, cfg, noise=replicated)
        assert abs(b1 - b6) < 1e-10

    def test_monotonic_in_k_with_shared_randomness(self):
        data, _, _ = toy_dataset(n=128, seed=3)
        wins = 0
        trials = 20
        for t in range(trials):
            cfg = small_config(hidden_sizes=(6, 6), latent_dim=1, seed=t)
            params = core.init_params(cfg, 4, make_rng(100 + t))
            noise = make_rng(200 + t).standard_normal((128 * 20, 1))
            per_row = noise.reshape(128, 20, 1)
            b1 = core.bound(data, params, cfg, noise=per_row[:, :1].reshape(-1, 1))
            b5 = core.bound(data, params, cfg, noise=per_row[:, :5].reshape(-1, 1))
            b20 = core.bound(data, params, cfg, noise=noise)
            if b1 <= b5 <= b20:
                wins += 1
        assert wins >= trials * 0.95

    def test_without_rng_or_noise_is_refused(self):
        cfg = small_config()
        data, _, _ = toy_dataset(n=5)
        with pytest.raises(DomainError, match="rng or noise"):
            core.bound(data, core.init_params(cfg, 4), cfg)

    @pytest.mark.parametrize("shape", [(0, 2), (0, 1), (11, 2), (4, 2), (10, 1), (10,), (5, 2, 2)])
    def test_noise_not_k_draws_per_row_is_refused(self, shape):
        cfg = small_config()
        data, _, _ = toy_dataset(n=5)
        with pytest.raises(ShapeError, match="noise shape"):
            core.bound(data, core.init_params(cfg, 4), cfg, noise=np.zeros(shape))


class TestTrain:
    def test_bound_improves(self):
        data, _, _ = toy_dataset(n=128, seed=5)
        cfg = small_config(iterations=400, trace_interval=100, batch_size=64)
        _, trace = core.train(data, cfg)
        assert trace[-1][1] > trace[0][1]

    def test_determinism(self):
        data, _, _ = toy_dataset(n=40, seed=6)
        cfg = small_config(iterations=25)
        p1, t1 = core.train(data, cfg)
        p2, t2 = core.train(data, cfg)
        assert t1 == t2
        for name in p1.names:
            assert np.array_equal(p1[name], p2[name])

    def test_alpha_zero_never_updates_mask_decoder(self):
        data, _, _ = toy_dataset(n=40, seed=7)
        cfg = small_config(iterations=25, alpha=0.0)
        init = core.init_params(cfg, 4, make_rng(cfg.seed))
        trained, _ = core.train(data, cfg)
        for name in trained.names:
            if name.startswith("dec_m."):
                assert np.array_equal(trained[name], init[name])
            else:
                assert not np.array_equal(trained[name], init[name])

    def test_a_non_finite_gradient_names_the_iteration_and_the_block(self, monkeypatch):
        data, _, _ = toy_dataset(n=40)
        steps, made = itertools.count(), []
        nodes, run_backward = core._nodes, core.backward
        monkeypatch.setattr(core, "_nodes", lambda *args: made.append(nodes(*args)) or made[-1])

        def poisoned(loss):  # the third step's dec_x.bstd gradient turns NaN
            run_backward(loss)
            if next(steps) == 2:
                made[-1]["dec_x.bstd"].grad = np.full((1, 4), np.nan)

        monkeypatch.setattr(core, "backward", poisoned)
        with pytest.raises(NumericError, match="^iteration 2: adam_step: non-finite gradient "
                                               "in block dec_x.bstd$"):
            core.train(data, small_config(iterations=5))


class TestImpute:
    def test_observed_entries_bit_exact(self):
        data, x, mask = toy_dataset(n=30)
        cfg = small_config(iterations=20)
        params, _ = core.train(data, cfg)
        res = core.impute(data, params, cfg)
        obs = mask == 1
        assert np.array_equal(res.completed[obs], data.values[obs])
        assert np.all((res.prob_mask >= 0) & (res.prob_mask <= 1))

    def test_l_equals_one_is_single_decoded_mean(self):
        data, _, _ = toy_dataset(n=10)
        cfg = small_config(iterations=15, l_impute=1)
        params, _ = core.train(data, cfg)
        res = core.impute(data, params, cfg, rng=make_rng(99))
        # replay the identical forward pass: one key from the rng, and each
        # row's one draw the first of its own stream
        key = make_rng(99).integers(2**64, dtype=np.uint64)
        streams = [np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, i]))
                   for i in range(10)]
        noise = np.concatenate([s.standard_normal((1, cfg.latent_dim)) for s in streams])
        nodes = core._nodes(params)
        chunk = IncompleteMatrix(data.values, data.mask)
        _, mean_x, _, _ = core._forward_weights(chunk, nodes, cfg, 1, noise=noise)
        miss = data.mask == 0
        assert np.array_equal(res.completed[miss], mean_x.reshape(data.shape)[miss])

    def test_hand_weighted_average(self, monkeypatch):
        # two latent draws with normalized weights (0.75, 0.25) and decoded
        # means (0, 4) must impute 0.75*0 + 0.25*4 = 1.0
        data = IncompleteMatrix(np.array([[2.0]]), np.array([[0.0]]))
        cfg = small_config(l_impute=2)
        params = core.init_params(cfg, 1)

        def fake_weights(chunk, latent, nodes, config, pool=None):
            mean_x = np.array([[[0.0], [4.0]]])
            std_x = np.ones((1, 2, 1))
            p_m = np.full((1, 2, 1), 0.5)
            return core.ImportanceWeightSet(
                log_w=np.log(np.array([[0.75, 0.25]])),
                normalized=np.array([[0.75, 0.25]]),
                components={}, node=None, decoded=(mean_x, std_x, p_m))

        monkeypatch.setattr(core, "importance_log_weights", fake_weights)
        res = core.impute(data, params, cfg)
        assert res.completed[0, 0] == 1.0

    def test_probabilistic_mask_ignores_sentinel_contents(self):
        data, x, mask = toy_dataset(n=20)
        cfg = small_config(iterations=15)
        params, _ = core.train(data, cfg)
        res_a = core.impute(data, params, cfg, rng=make_rng(5))
        poisoned = data.values.copy()
        poisoned[mask == 0] = np.nan
        res_b = core.impute(IncompleteMatrix(poisoned, mask), params, cfg, rng=make_rng(5))
        assert np.array_equal(res_a.prob_mask, res_b.prob_mask)
        miss = mask == 0
        assert np.array_equal(res_a.completed[miss], res_b.completed[miss])

    def test_feature_count_mismatch(self):
        data, _, _ = toy_dataset(n=10, d=4)
        cfg = small_config()
        params = core.init_params(cfg, 3)
        with pytest.raises(ConsistencyError):
            core.impute(data, params, cfg)


    @pytest.mark.parametrize("chunk_rows", [0, -1, 2.5])
    def test_bad_chunk_rows_is_refused(self, chunk_rows):
        data, _, _ = toy_dataset(n=20)
        cfg = small_config()
        params = core.init_params(cfg, 4)
        with pytest.raises(DomainError, match="chunk_rows"):
            core.impute(data, params, cfg, chunk_rows=chunk_rows)
        with pytest.raises(DomainError, match="chunk_rows"):
            core.multiple_impute(data, params, cfg, 2, chunk_rows=chunk_rows)

    def test_the_largest_seed_imputes_with_its_default_stream(self):
        data, _, _ = toy_dataset(n=12)
        cfg = small_config(iterations=2, seed=2**64 - 1)
        params, _ = core.train(data, cfg)
        got = core.impute(data, params, cfg)
        want = core.impute(data, params, cfg, rng=make_rng(0))  # seed + 1 wraps to 0
        assert np.array_equal(_bits(got.completed), _bits(want.completed))
        draws = core.multiple_impute(data, params, cfg, 2)
        for got, want in zip(draws, core.multiple_impute(data, params, cfg, 2, rng=make_rng(0))):
            assert np.array_equal(_bits(got), _bits(want))

    def test_alpha_zero_reports_uninformative_mask(self):
        data, _, _ = toy_dataset(n=20)
        cfg = small_config(iterations=10, alpha=0.0)
        params, _ = core.train(data, cfg)
        assert np.all(core.impute(data, params, cfg).prob_mask == 0.5)

    @pytest.mark.parametrize("structure", ["parallel", "serial"])
    def test_one_decode_per_tile(self, monkeypatch, structure):
        data, _, _ = toy_dataset(n=20)
        cfg = small_config(structure=structure)
        params = core.init_params(cfg, 4)
        calls = []
        decode_data = core.decode_data
        monkeypatch.setattr(core, "decode_data",
                            lambda *args: calls.append(1) or decode_data(*args))
        # at least 4 rows of 16 draws per tile: 20 rows make 5 tiles
        monkeypatch.setattr(core, "TILE_ROWS", 64)
        for chunk_rows in (1, 8, 32):
            calls.clear()
            core.impute(data, params, cfg, chunk_rows=chunk_rows)
            assert len(calls) == 5
            core.multiple_impute(data, params, cfg, 2, chunk_rows=chunk_rows)
            assert len(calls) == 10


    def test_imputation_records_no_tape(self, monkeypatch):
        data, _, _ = toy_dataset(n=20)
        cfg = small_config()
        params = core.init_params(cfg, 4)
        built = []
        weights_of = core.importance_log_weights
        monkeypatch.setattr(core, "importance_log_weights",
                            lambda *args, **kwargs: built.append(weights_of(*args, **kwargs))
                            or built[-1])
        monkeypatch.setattr(core, "TILE_ROWS", 64)
        core.impute(data, params, cfg)
        core.bound(data, params, cfg, rng=make_rng(1))
        # five imputation tiles of 4 rows x 16 draws, one bound tile of 20 x 4
        assert [w.log_w.shape for w in built] == [(4, 16)] * 5 + [(20, 4)]
        for weights in built:
            assert weights.node._parents == ()
            assert not weights.node.requires_grad

    @pytest.mark.parametrize("alpha", [1.0, 0.0])
    def test_decoder_outputs_stay_in_their_tile(self, monkeypatch, alpha):
        data, _, _ = toy_dataset(n=20)
        cfg = small_config(alpha=alpha)
        params = core.init_params(cfg, 4)
        decoded = []
        weights_of = core.importance_log_weights

        def recording(*args, **kwargs):
            weights = weights_of(*args, **kwargs)
            decoded.append([None if out is None else out.shape for out in weights.decoded])
            return weights

        monkeypatch.setattr(core, "importance_log_weights", recording)
        monkeypatch.setattr(core, "TILE_ROWS", 64)
        core.impute(data, params, cfg)
        core.multiple_impute(data, params, cfg, 2)
        # (mean_x, std_x, p_m) of one 4-row tile at 16 draws; no array is
        # built for more rows than a tile holds
        tile = (4, 16, 4)
        assert decoded == [[tile, tile, tile if alpha else None]] * 10


# the benchmark's two configurations, both at latent_dim=1 and hidden (128, 128)
BENCH_CONFIGS = {
    "parallel-d4": (4, dict(encoder="zero_impute", structure="parallel")),
    "serial-d32": (32, dict(encoder="set_function", structure="serial")),
}


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestTiledDecode:
    @pytest.mark.parametrize("n", [1, 2047, 2048, 4095, 4096, 8191, 8192, 9000, 32000])
    def test_tiles_cover_the_rows_and_keep_the_minimum(self, n):
        for k in (1, 3, 20, 1000, 5000):
            tiles = core._row_tiles(n, k)
            assert tiles[0].start == 0 and tiles[-1].stop == n
            assert all(a.stop == b.start for a, b in zip(tiles, tiles[1:]))
            lengths = [t.stop - t.start for t in tiles]
            # every tile holds at least TILE_ROWS latent rows, and there
            # are as many tiles as fit
            least = -(-core.TILE_ROWS // k)
            assert min(lengths) >= min(n, least)
            assert len(tiles) == max(1, n // least)
            assert max(lengths) - min(lengths) <= 1

    def test_no_rows_no_tiles(self):
        assert core._row_tiles(0, 1000) == []

    @pytest.mark.parametrize("name", sorted(BENCH_CONFIGS))
    def test_tiled_equals_untiled_bitwise(self, monkeypatch, name):
        d, overrides = BENCH_CONFIGS[name]
        data, _, _ = toy_dataset(n=60, d=d)
        cfg = core.ModelConfig(iterations=3, seed=1, **overrides)
        params, _ = core.train(data, cfg)
        # 11 rows x 1000 draws: several tiles, each of at least TILE_ROWS draws
        tiles = [1000 * (rows.stop - rows.start) for rows in core._row_tiles(11, 1000)]
        assert len(tiles) > 1 and min(tiles) >= core.TILE_ROWS
        sub = IncompleteMatrix(data.values[:11], data.mask[:11])
        noise = make_rng(4).standard_normal((11 * 1000, 1))
        calls = []
        decode_data = core.decode_data
        monkeypatch.setattr(core, "decode_data",
                            lambda z, *args: calls.append(z.shape[0]) or decode_data(z, *args))

        def outputs():
            res = core.impute(sub, params, cfg)
            draws = core.multiple_impute(sub, params, cfg, 3)
            return [res.completed, res.prob_mask, *draws,
                    np.array([core.bound(sub, params, cfg, noise=noise)])]

        tiled = outputs()
        assert sorted(calls) == sorted(tiles * 3)
        monkeypatch.setattr(core, "TILE_ROWS", 10 ** 9)
        untiled = outputs()
        assert calls[3 * len(tiles):] == [11000] * 3
        for got, want in zip(tiled, untiled):
            assert np.array_equal(_bits(got), _bits(want))

    def test_training_keeps_one_pass_on_the_tape(self, monkeypatch):
        data, _, _ = toy_dataset(n=40)
        cfg = small_config(latent_dim=1, iterations=4, batch_size=16)
        calls = []
        decode_data = core.decode_data
        monkeypatch.setattr(core, "decode_data",
                            lambda z, *args: calls.append(z) or decode_data(z, *args))
        default, _ = core.train(data, cfg)
        monkeypatch.setattr(core, "TILE_ROWS", 1)
        tiny, _ = core.train(data, cfg)
        assert len(calls) == 2 * cfg.iterations
        assert all(z.requires_grad and z.shape == (16 * cfg.k_train, 1) for z in calls)
        for name in default.names:
            assert np.array_equal(_bits(default[name]), _bits(tiny[name]))



class TestTileThreads:
    @pytest.mark.parametrize("name", sorted(BENCH_CONFIGS))
    def test_outputs_do_not_depend_on_the_worker_count(self, monkeypatch, name):
        d, overrides = BENCH_CONFIGS[name]
        data, _, _ = toy_dataset(n=60, d=d)
        cfg = core.ModelConfig(iterations=3, seed=1, **overrides)
        params, _ = core.train(data, cfg)
        # 20 rows x 1000 draws: four tiles, more than one per thread
        sub = IncompleteMatrix(data.values[:20], data.mask[:20])
        noise = make_rng(4).standard_normal((20 * 1000, 1))
        threads = set()
        decode_data = core.decode_data
        monkeypatch.setattr(core, "decode_data", lambda *args: threads.add(
            threading.get_ident()) or decode_data(*args))

        def outputs(workers):
            monkeypatch.setattr(core, "_tile_workers", lambda: workers)
            res = core.impute(sub, params, cfg)
            draws = core.multiple_impute(sub, params, cfg, 3)
            return [res.completed, res.prob_mask, *draws,
                    np.array([core.bound(sub, params, cfg, noise=noise)])]

        serial = outputs(1)
        assert threads == {threading.get_ident()}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for workers in (2, 5):
                for got, want in zip(outputs(workers), serial):
                    assert np.array_equal(_bits(got), _bits(want))
        finally:
            sys.setswitchinterval(interval)
        # a thread takes the next tile when it is free, so which thread
        # scores which tile varies; idents of finished threads may be reused
        assert threads - {threading.get_ident()}

    @pytest.mark.parametrize("env, workers", [
        ({}, 1), ({"OPENBLAS_NUM_THREADS": "1"}, 4), ({"OPENBLAS_NUM_THREADS": "2"}, 2),
        ({"OPENBLAS_NUM_THREADS": "8"}, 1), ({"OPENBLAS_NUM_THREADS": "x"}, 1),
        ({"OPENBLAS_NUM_THREADS": "0"}, 1), ({"OMP_NUM_THREADS": "2"}, 2),
        ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 4),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 4)])
    def test_workers_are_the_cpus_over_the_blas_threads(self, monkeypatch, env, workers):
        # the rule where numpy's OpenBLAS is not loaded, so mnarkit cannot set its count
        monkeypatch.setattr(core, "_openblas", lambda: None)
        monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert core._tile_workers() == workers

    def test_a_tile_error_comes_out_unchanged(self, monkeypatch):
        data, _, _ = toy_dataset(n=20)
        cfg = small_config(latent_dim=1, l_impute=1000)
        params = core.init_params(cfg, 4)
        error = NumericError("raised in the second tile")
        calls = itertools.count()
        decode_data = core.decode_data

        def failing(*args):
            if next(calls) == 1:
                raise error
            return decode_data(*args)

        monkeypatch.setattr(core, "decode_data", failing)
        monkeypatch.setattr(core, "_tile_workers", lambda: 2)
        with pytest.raises(NumericError) as info:
            core.impute(data, params, cfg)
        assert info.value is error


class TestRowKeyedDraws:
    """Each row draws from a stream of its own, so no imputation output
    depends on chunk_rows, the tiles' threads or the other rows' draws."""

    def test_multiple_impute_does_not_depend_on_chunk_rows(self):
        data, _, _ = toy_dataset(n=20)
        cfg = small_config()
        params = core.init_params(cfg, 4)
        eight = core.multiple_impute(data, params, cfg, 3, chunk_rows=8)
        twenty = core.multiple_impute(data, params, cfg, 3, chunk_rows=20)
        for a, b in zip(eight, twenty):
            assert np.array_equal(_bits(a), _bits(b))

    def test_impute_and_multiple_impute_share_their_latent_draws(self, monkeypatch):
        data, _, _ = toy_dataset(n=12)
        cfg = small_config()
        params = core.init_params(cfg, 4)
        drawn = []
        sample_latent = core.sample_latent
        monkeypatch.setattr(core, "sample_latent", lambda *args, noise=None, **kwargs: (
            drawn.append(noise) or sample_latent(*args, noise=noise, **kwargs)))
        core.impute(data, params, cfg, rng=make_rng(3))
        core.multiple_impute(data, params, cfg, 2, rng=make_rng(3))
        point, resampled = drawn
        assert np.array_equal(point, resampled)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 24), l_samples=st.integers(1, 24),
           chunk_rows=st.lists(st.integers(1, 40), min_size=3, max_size=3),
           structure=st.sampled_from(["parallel", "serial"]), tile_rows=st.sampled_from([8, 4096]))
    def test_outputs_do_not_depend_on_chunk_rows_or_threads(self, n, l_samples, chunk_rows,
                                                             structure, tile_rows):
        rng = make_rng(n)
        data = compose_observed(rng.standard_normal((n, 3)), rng.random((n, 3)) < 0.6)
        cfg = small_config(l_impute=l_samples, structure=structure)
        params = core.init_params(cfg, 3, make_rng(l_samples))
        obs = data.mask == 1
        runs = []
        with mock.patch.object(core, "TILE_ROWS", tile_rows):
            for workers, rows in zip((1, 2, 5), chunk_rows):
                with mock.patch.object(core, "_tile_workers", lambda: workers):
                    res = core.impute(data, params, cfg, chunk_rows=rows)
                    draws = core.multiple_impute(data, params, cfg, 2, chunk_rows=rows)
                for out in (res.completed, *draws):
                    assert np.array_equal(out[obs], data.values[obs])
                assert np.all(res.prob_mask >= ad.PROB_FLOOR)
                assert np.all(res.prob_mask <= 1.0 - ad.PROB_FLOOR)
                runs.append([res.completed, res.prob_mask, *draws])
        for run in runs[1:]:
            for got, want in zip(run, runs[0]):
                assert np.array_equal(_bits(got), _bits(want))


class TestTrainFork:
    """The parallel mask branch of a training step on a helper thread."""

    @pytest.mark.parametrize("name, alpha", [("parallel-d4", 1.0), ("serial-d32", 1.0),
                                             ("parallel-d4", 0.5), ("parallel-d4", 0.0)])
    def test_training_does_not_depend_on_the_worker_count(self, monkeypatch, name, alpha):
        d, overrides = BENCH_CONFIGS[name]
        data, _, _ = toy_dataset(n=60, d=d)
        cfg = core.ModelConfig(iterations=4, seed=1, alpha=alpha, trace_interval=1, **overrides)

        def trained(workers):
            monkeypatch.setattr(core, "_tile_workers", lambda: workers)
            params, trace = core.train(data, cfg)
            return [params[k] for k in params.names] + [np.array(trace)]

        serial = trained(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for workers in (2, 5):
                for got, want in zip(trained(workers), serial):
                    assert np.array_equal(_bits(got), _bits(want))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_mask_decoder_runs_on_a_helper_thread(self, monkeypatch, workers):
        data, _, _ = toy_dataset(n=40)
        cfg = small_config(iterations=3)
        threads = []
        decode_mask = core.decode_mask
        monkeypatch.setattr(core, "decode_mask", lambda *args: threads.append(
            threading.get_ident()) or decode_mask(*args))
        monkeypatch.setattr(core, "_tile_workers", lambda: workers)
        core.train(data, cfg)
        assert len(threads) == cfg.iterations
        if workers == 1:
            assert set(threads) == {threading.get_ident()}
        else:
            assert threading.get_ident() not in threads

    def test_an_error_in_the_forked_forward_names_the_iteration(self, monkeypatch):
        data, _, _ = toy_dataset(n=40)
        error = NumericError("raised in the mask decoder")
        calls = itertools.count()
        decode_mask = core.decode_mask

        def failing(*args):
            if next(calls) == 2:
                raise error
            return decode_mask(*args)

        monkeypatch.setattr(core, "decode_mask", failing)
        monkeypatch.setattr(core, "_tile_workers", lambda: 2)
        with pytest.raises(NumericError, match="^iteration 2: raised in the mask decoder$") as info:
            core.train(data, small_config(iterations=5))
        assert info.value.__cause__ is error

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_error_in_the_forked_backward_comes_out_unchanged(self, monkeypatch, workers):
        data, _, _ = toy_dataset(n=40)
        error = NumericError("raised in the mask decoder's backward")
        decode_mask = core.decode_mask

        def raising(g):
            raise error

        monkeypatch.setattr(core, "decode_mask",
                            lambda *args: Tensor(decode_mask(*args).value, (args[0],), raising))
        monkeypatch.setattr(core, "_tile_workers", lambda: workers)
        with pytest.raises(NumericError) as info:
            core.train(data, small_config(iterations=2))
        assert info.value is error

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_step_frees_its_mask_branch_before_the_next_forward(self, monkeypatch, workers):
        data, _, _ = toy_dataset(n=40)
        cfg = small_config(iterations=4, batch_size=16)
        masks, alive = [], []  # (step, weakref to that step's mask probabilities)
        steps = itertools.count()
        decode_data, decode_mask = core.decode_data, core.decode_mask

        def data_branch(*args):
            step = len(alive)
            alive.append(sum(ref() is not None for s, ref in list(masks) if s < step))
            return decode_data(*args)

        def mask_branch(*args):
            p_m = decode_mask(*args)
            masks.append((next(steps), weakref.ref(p_m.value)))
            return p_m

        monkeypatch.setattr(core, "decode_data", data_branch)
        monkeypatch.setattr(core, "decode_mask", mask_branch)
        monkeypatch.setattr(core, "_tile_workers", lambda: workers)
        core.train(data, cfg)
        assert len(masks) == cfg.iterations and alive == [0] * cfg.iterations


needs_openblas = pytest.mark.skipif(core._openblas() is None,
                                    reason="numpy's bundled OpenBLAS is not loaded")

# phase -> (config overrides, the call); train forks with parallel and alpha > 0
PHASES = {
    "train-parallel": ({}, lambda data, params, cfg: core.train(data, cfg)),
    "train-serial": ({"structure": "serial"}, lambda data, params, cfg: core.train(data, cfg)),
    "train-alpha0": ({"alpha": 0.0}, lambda data, params, cfg: core.train(data, cfg)),
    "bound": ({}, lambda data, params, cfg: core.bound(data, params, cfg, rng=make_rng(2))),
    "impute": ({}, lambda data, params, cfg: core.impute(data, params, cfg)),
    "multiple_impute": ({}, lambda data, params, cfg: core.multiple_impute(data, params, cfg, 2)),
}


@needs_openblas
class TestBlasThreadPlan:
    """Each phase sets numpy's OpenBLAS to its own thread count and sets the
    caller's back: one BLAS thread per tile thread, one for parallel
    training at alpha > 0, every CPU for serial or alpha = 0 training."""

    @pytest.fixture
    def blas(self):
        get, set_ = core._openblas()
        before = get()
        yield get, set_
        set_(before)

    @pytest.mark.parametrize("raises", [False, True])
    @pytest.mark.parametrize("caller", [1, 2])
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("phase", sorted(PHASES))
    def test_a_phase_runs_at_its_plan_and_sets_back_the_callers_count(
            self, monkeypatch, blas, phase, cpus, caller, raises):
        get, set_ = blas
        overrides, call = PHASES[phase]
        data, _, _ = toy_dataset(n=20)
        cfg = small_config(iterations=2, **overrides)
        params = core.init_params(cfg, 4)
        monkeypatch.setattr(core, "_cpus", lambda: cpus)
        during = []
        decode_data = core.decode_data

        def recording(*args):
            during.append(get())
            if raises:
                raise NumericError("raised inside the plan")
            return decode_data(*args)

        monkeypatch.setattr(core, "decode_data", recording)
        set_(caller)
        with pytest.raises(NumericError) if raises else contextlib.nullcontext():
            call(data, params, cfg)
        assert get() == caller
        plan = cpus if phase in ("train-serial", "train-alpha0") else 1
        assert during and set(during) == {plan}

    def test_the_tile_threads_are_the_cpus_whatever_the_environment(self, monkeypatch):
        monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        assert core._tile_workers() == 3

    def test_without_the_library_the_count_is_left_alone(self, monkeypatch, blas):
        get, set_ = blas
        set_(2)
        monkeypatch.setattr(core, "_openblas", lambda: None)
        with core._blas_threads(1):
            assert get() == 2

    def test_a_nested_entry_sets_back_the_outermost_count(self, blas):
        get, set_ = blas
        set_(2)
        with core._blas_threads(3):
            with core._blas_threads(1):
                assert get() == 1
            assert get() == 3
        assert get() == 2

    def test_calls_that_leave_out_of_order_set_back_the_first_callers_count(self, blas):
        # two threads' calls: the first to enter leaves before the second
        get, set_ = blas
        set_(2)
        first, second = core._blas_threads(3), core._blas_threads(1)
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        second.__exit__(None, None, None)
        assert get() == 2

    def test_many_threads_entering_at_once_set_back_the_callers_count(self, blas):
        get, set_ = blas
        set_(2)

        def enter_and_leave(count):
            for _ in range(200):
                with core._blas_threads(count):
                    pass

        threads = [threading.Thread(target=enter_and_leave, args=(1 + i % 3,)) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert core._blas_held["depth"] == 0 and get() == 2

    @pytest.mark.parametrize("structure", ["parallel", "serial"])
    def test_outputs_do_not_depend_on_the_callers_count(self, blas, structure):
        _, set_ = blas
        # 60 rows x 20 draws: a weight gradient's inner sum that OpenBLAS
        # blocks differently on one thread and on two
        data, _, _ = toy_dataset(n=60)
        cfg = core.ModelConfig(iterations=3, seed=1, l_impute=300, structure=structure)
        noise = make_rng(4).standard_normal((60 * 3, cfg.latent_dim))

        def outputs(caller):
            set_(caller)
            params, trace = core.train(data, cfg)
            res = core.impute(data, params, cfg)
            return [params.flatten(), np.array(trace), res.completed, res.prob_mask,
                    *core.multiple_impute(data, params, cfg, 3),
                    np.array([core.bound(data, params, cfg, noise=noise)])]

        for got, want in zip(outputs(2), outputs(1)):
            assert np.array_equal(_bits(got), _bits(want))


class _FakeLibc:
    """Stands in for ctypes.CDLL(None): records mallopt calls and returns
    ``result`` from each."""

    def __init__(self, result=1):
        self.calls, self.result = [], result

        def mallopt(param, value):
            self.calls.append((param, value))
            return self.result

        self.mallopt = mallopt


class TestHeapPolicy:
    """_keep_heap_mapped: one malloc arena whose freed memory stays mapped."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        core._keep_heap_mapped.cache_clear()
        yield
        core._keep_heap_mapped.cache_clear()  # the next call sets the real policy again

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_repeated_training_faults_in_no_pages(self, monkeypatch, workers):
        data, _, _ = toy_dataset(n=300)
        cfg = core.ModelConfig(iterations=20, seed=3)
        monkeypatch.setattr(core, "_tile_workers", lambda: workers)
        core.train(data, cfg)  # maps what a step needs
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        core.train(data, cfg)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / cfg.iterations < 100

    def test_mallopt_is_called_once_per_process(self, monkeypatch):
        libc = _FakeLibc()
        monkeypatch.setattr(core.os, "confstr", lambda name: "glibc 2.36")
        monkeypatch.setattr(core.ctypes, "CDLL", lambda name: libc)
        core._keep_heap_mapped()
        core._keep_heap_mapped()
        assert libc.calls == [(-8, 1), (-3, 32 * 1024**2), (-1, -1)]

    @pytest.mark.parametrize("error", [ValueError, OSError])
    def test_another_c_library_is_left_alone(self, monkeypatch, error):
        def confstr(name):
            raise error(name)

        monkeypatch.setattr(core.os, "confstr", confstr)
        monkeypatch.setattr(core.ctypes, "CDLL", lambda name: pytest.fail("loaded the C library"))
        core._keep_heap_mapped()

    def test_a_refused_setting_raises_naming_it(self, monkeypatch):
        monkeypatch.setattr(core.os, "confstr", lambda name: "glibc 2.36")
        monkeypatch.setattr(core.ctypes, "CDLL", lambda name: _FakeLibc(result=0))
        with pytest.raises(OSError, match="M_ARENA_MAX = 1"):
            core._keep_heap_mapped()


class TestMultipleImpute:
    def test_single_latent_always_selected(self):
        data, _, mask = toy_dataset(n=8)
        cfg = small_config(iterations=10, l_impute=1)
        params, _ = core.train(data, cfg)
        draws = core.multiple_impute(data, params, cfg, 4)
        assert len(draws) == 4
        obs = mask == 1
        for d in draws:
            assert np.array_equal(d[obs], data.values[obs])

    def test_n_draws_validation(self):
        data, _, _ = toy_dataset(n=4)
        cfg = small_config()
        params = core.init_params(cfg, 4)
        for n_draws in (0, -1, 2.5, True, "2"):
            with pytest.raises(DomainError, match="n_draws"):
                core.multiple_impute(data, params, cfg, n_draws)

    def test_sir_mean_converges_to_point_estimate(self):
        data, _, mask = toy_dataset(n=4, seed=8)
        cfg = small_config(iterations=60, l_impute=64)
        params, _ = core.train(data, cfg)
        point = core.impute(data, params, cfg, rng=make_rng(0))
        n_draws = 10000
        draws = core.multiple_impute(data, params, cfg, n_draws, rng=make_rng(0))
        stack = np.stack(draws)
        miss = mask == 0
        emp_mean = stack.mean(axis=0)[miss]
        emp_std = stack.std(axis=0)[miss]
        tol = 3 * emp_std / np.sqrt(n_draws) + 1e-6
        # both estimators share the same latent draws via the seeded rng, so
        # the SIR mean must converge to the self-normalized point estimate
        assert np.all(np.abs(emp_mean - point.completed[miss]) < tol)


class TestParamBlocks:
    """The blocks are named views of one flat vector."""

    def test_every_block_views_the_flat_vector(self):
        params = core.init_params(small_config(), 3)
        flat = params.flatten()
        assert params.flatten() is flat
        flat[:] = np.arange(flat.size)
        assert np.array_equal(np.concatenate([params[k].ravel() for k in params.names]), flat)
        assert all(np.shares_memory(params[k], flat) for k in params.names)

    def test_unflatten_views_its_argument(self):
        params = core.init_params(small_config(), 3)
        flat = np.zeros(params.flatten().size)
        other = params.unflatten(flat)
        assert other.flatten() is flat and other.names == params.names
        for k in params.names:
            assert other[k].shape == params[k].shape and np.shares_memory(other[k], flat)

    @pytest.mark.parametrize("size", [-1, 1])
    def test_unflatten_length_mismatch(self, size):
        params = core.init_params(small_config(), 3)
        with pytest.raises(ShapeError):
            params.unflatten(np.zeros(params.flatten().size + size))

    def test_copy_shares_no_memory(self):
        params = core.init_params(small_config(), 3)
        twin = params.copy()
        for k in params.names:
            assert np.array_equal(twin[k], params[k])
            assert not np.shares_memory(twin[k], params.flatten())

    def test_setitem_adds_a_block_to_the_flat_vector(self):
        params = core.init_params(small_config(), 3)
        before = {k: params[k].copy() for k in params.names}
        params["enc.extra"] = np.full((1, 2), 7.0)
        assert params.names == [*before, "enc.extra"]
        assert np.array_equal(params.flatten()[-2:], [7.0, 7.0])
        for k, value in before.items():
            assert np.array_equal(params[k], value)
            assert np.shares_memory(params[k], params.flatten())


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = small_config(alpha=0.25, encoder="set_function")
        params = core.init_params(cfg, 5)
        path = tmp_path / "model.npz"
        core.save_checkpoint(path, params, cfg)
        loaded, cfg2 = core.load_checkpoint(path)
        assert cfg2 == cfg
        assert loaded.names == params.names
        for name in params.names:
            assert np.array_equal(loaded[name], params[name])

    def test_version_check(self, tmp_path):
        cfg = small_config()
        params = core.init_params(cfg, 2)
        path = tmp_path / "model.npz"
        core.save_checkpoint(path, params, cfg)
        data = dict(np.load(path, allow_pickle=True))
        data["format_version"] = np.int64(999)
        np.savez(path, **data)
        with pytest.raises(ConsistencyError):
            core.load_checkpoint(path)

    def test_object_array_is_rejected_without_unpickling(self, tmp_path):
        cfg = small_config()
        params = core.init_params(cfg, 2)
        path = tmp_path / "model.npz"
        core.save_checkpoint(path, params, cfg)
        data = dict(np.load(path))
        data["config_json"] = np.array([_PickleTrap()], dtype=object)
        np.savez(path, **data)
        with pytest.raises(ConsistencyError):
            core.load_checkpoint(path)
        assert _TRAP_SPRUNG == []


    def _edited(self, tmp_path, edit):
        cfg = small_config()
        path = tmp_path / "model.npz"
        core.save_checkpoint(path, core.init_params(cfg, 3), cfg)
        data = dict(np.load(path))
        edit(data)
        np.savez(path, **data)
        return path

    def test_listed_block_missing_from_the_archive(self, tmp_path):
        path = self._edited(tmp_path, lambda data: data.pop("param:dec_x.W1"))
        with pytest.raises(ConsistencyError, match=r"param:dec_x\.W1"):
            core.load_checkpoint(path)

    def test_empty_param_order(self, tmp_path):
        path = self._edited(tmp_path, lambda data: data.update(
            {"param_order": np.array([], dtype=str)}))
        with pytest.raises(ConsistencyError, match=r"block enc\.W0 is missing"):
            core.load_checkpoint(path)

    def test_unicode_string_block(self, tmp_path):
        path = self._edited(tmp_path, lambda data: data.update(
            {"param:enc.b0": np.full((1, 8), "0.0")}))
        with pytest.raises(ConsistencyError, match=r"block enc\.b0 has dtype <U3"):
            core.load_checkpoint(path)

    def test_unknown_config_key(self, tmp_path):
        def add_key(data):
            raw = json.loads(str(data["config_json"]))
            data["config_json"] = np.array(json.dumps({**raw, "dropout": 0.1}))

        path = self._edited(tmp_path, add_key)
        with pytest.raises(ConsistencyError, match="unknown key dropout"):
            core.load_checkpoint(path)

    def test_config_value_of_the_wrong_type(self, tmp_path):
        def stringify(data):
            raw = json.loads(str(data["config_json"]))
            data["config_json"] = np.array(json.dumps({**raw, "latent_dim": "1"}))

        path = self._edited(tmp_path, stringify)
        with pytest.raises(ConsistencyError, match=r"model\.npz: config_json: model\.latent_dim"):
            core.load_checkpoint(path)

    def test_format_2_is_refused_by_its_version(self, tmp_path):
        def as_format_2(data):
            raw = json.loads(str(data["config_json"]))
            data["format_version"] = np.int64(2)
            data["config_json"] = np.array(json.dumps(
                {**raw, "mean_activation": "linear", "mean_scale": 1.0}))

        path = self._edited(tmp_path, as_format_2)
        with pytest.raises(ConsistencyError, match="unsupported checkpoint version 2"):
            core.load_checkpoint(path)


_TRAP_SPRUNG = []


def _spring_trap():
    _TRAP_SPRUNG.append(True)
    return "{}"


class _PickleTrap:
    """Unpickling this object calls _spring_trap."""

    def __reduce__(self):
        return _spring_trap, ()


class TestCheckpointShapes:
    @pytest.mark.parametrize("saved, loaded, match", [
        (dict(latent_dim=1), dict(latent_dim=2), r"enc\.Wmean has shape \(8, 1\), .* \(8, 2\)"),
        (dict(), dict(structure="serial"), r"dec_m\.W is missing"),
        (dict(structure="serial"), dict(), r"dec_m\.W0 is missing"),
        (dict(), dict(hidden_sizes=(8, 16)), r"enc\.W1 has shape \(8, 8\), .* \(8, 16\)"),
    ])
    def test_config_disagreeing_with_blocks_is_refused(self, tmp_path, saved, loaded, match):
        params = core.init_params(small_config(**saved), 3)
        path = tmp_path / "model.npz"
        core.save_checkpoint(path, params, small_config(**loaded))
        with pytest.raises(ConsistencyError, match=match):
            core.load_checkpoint(path)

    def test_extra_block_is_refused(self, tmp_path):
        cfg = small_config()
        params = core.init_params(cfg, 3)
        params["enc.extra"] = np.zeros((1, 1))
        path = tmp_path / "model.npz"
        core.save_checkpoint(path, params, cfg)
        with pytest.raises(ConsistencyError, match=r"enc\.extra is not built"):
            core.load_checkpoint(path)
