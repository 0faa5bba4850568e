import math

import numpy as np
import pytest

from mnarkit import baselines, evaluate, model as core, synth
from mnarkit.errors import DomainError, MetricError, NumericError


class TestErrorMetrics:
    def test_perfect_imputation_is_zero(self):
        x = np.arange(6.0).reshape(2, 3)
        m = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        assert evaluate.rmse_missing(x, x, m) == 0.0

    def test_single_missing_entry(self):
        x = np.zeros((2, 2))
        imp = x.copy()
        imp[0, 1] = 2.0
        m = np.ones((2, 2)); m[0, 1] = 0.0
        assert evaluate.rmse_missing(x, imp, m) == 2.0

    def test_rmse_is_sqrt_mse(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal((6, 4))
            imp = rng.standard_normal((6, 4))
            m = (rng.random((6, 4)) < 0.5).astype(float)
            if (m == 0).any():
                assert np.isclose(evaluate.rmse_missing(x, imp, m),
                                  np.sqrt(evaluate.mse_missing(x, imp, m)), atol=1e-12)

    def test_no_missing_entries_errors(self):
        x = np.zeros((2, 2))
        with pytest.raises(MetricError):
            evaluate.rmse_missing(x, x, np.ones((2, 2)))


class TestMaskAccuracy:
    def test_perfect_probabilistic_mask(self):
        m = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert evaluate.mask_accuracy(m, m, 0.5, [0, 1]) == 1.0

    def test_constant_half_probability_predicts_all_observed(self):
        rng = np.random.default_rng(1)
        m = (rng.random((50, 3)) < 0.7).astype(float)
        prob = np.full((50, 3), 0.5)
        acc = evaluate.mask_accuracy(m, prob, 0.5, [0, 1, 2])
        assert np.isclose(acc, m.mean())

    def test_inverted_mask_complements_accuracy(self):
        rng = np.random.default_rng(2)
        m = (rng.random((40, 2)) < 0.5).astype(float)
        prob = rng.random((40, 2))
        # keep probabilities away from the threshold so inversion is exact
        prob = np.where(prob >= 0.5, 0.9, 0.1)
        acc = evaluate.mask_accuracy(m, prob, 0.5, [0, 1])
        inv = evaluate.mask_accuracy(1.0 - m, prob, 0.5, [0, 1])
        assert np.isclose(inv, 1.0 - acc)

    def test_empty_feature_list_errors(self):
        with pytest.raises(MetricError):
            evaluate.mask_accuracy(np.ones((2, 2)), np.ones((2, 2)), 0.5, [])

    def test_default_features_are_those_with_missingness(self):
        m = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
        assert evaluate.missing_features(m) == [1]


class TestRandomFloor:
    @pytest.mark.parametrize("k,want", [(0.2, 0.82), (0.8, 0.52), (1.0, 0.50)])
    def test_reference_values(self, k, want):
        assert np.isclose(evaluate.random_floor(k), want, atol=1e-12)

    def test_range_check(self):
        with pytest.raises(DomainError):
            evaluate.random_floor(1.5)

    def test_matches_marginal_random_predictor(self):
        # empirical accuracy of a predictor that flags "missing" with the
        # marginal rate k/2 on self-masked features, 1e5 entries
        for k in (0.2, 0.8, 1.0):
            rng = np.random.default_rng(int(k * 10))
            n = 100000
            true_missing = rng.random(n) < k / 2
            pred_missing = rng.random(n) < k / 2
            acc = (true_missing == pred_missing).mean()
            assert abs(acc - evaluate.random_floor(k)) < 0.01


class TestRatingTransform:
    @pytest.mark.parametrize("r,want", [(1, 1 / 31), (3, 7 / 31), (5, 1.0)])
    def test_closed_forms(self, r, want):
        assert np.isclose(evaluate.rating_transform(r, 5, 0.0), want, atol=1e-15)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            evaluate.rating_transform(0, 5)
        with pytest.raises(DomainError):
            evaluate.rating_transform(6, 5)

    def test_strictly_increasing(self):
        vals = [evaluate.rating_transform(r, 5, 0.2) for r in range(1, 6)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestReportAndRunner:
    def test_report_mean_is_arithmetic_mean(self):
        rep = evaluate.EvalReport()
        rep.add("m", "s", "rmse", [1.0, 2.0, 4.0])
        row = rep.lookup("m", "s", "rmse")
        assert abs(row["mean"] - 7.0 / 3.0) < 1e-12
        assert row["n_runs"] == 3

    def test_csv_round_trip(self, tmp_path):
        rep = evaluate.EvalReport()
        rep.add("m", "s", "rmse", [1.0, 2.0])
        path = tmp_path / "report.csv"
        rep.write_csv(path)
        text = path.read_text()
        assert text.splitlines()[0] == ",".join(evaluate.REPORT_COLUMNS)
        assert "rmse" in text

    def _tiny_run(self, seeds):
        cfg = core.ModelConfig(latent_dim=1, hidden_sizes=(6, 6), k_train=3,
                               l_impute=8, iterations=20, batch_size=32)
        spec = synth.MissingSpec(kind="self_mask", k=0.8)
        ds = evaluate.GaussianDatasetSpec(n=60, d=4)
        return evaluate.run_experiment(ds, spec, ["conjunction", "mean"], cfg,
                                       n_runs=len(seeds), seeds=seeds)

    def test_runner_deterministic(self):
        a = self._tiny_run([0, 1])
        b = self._tiny_run([0, 1])
        strip = lambda rep: [{k: v for k, v in row.items() if k != "runtime_s"}
                             for row in rep.rows]
        assert strip(a) == strip(b)

    def test_runner_emits_improvement_row(self):
        rep = self._tiny_run([0])
        assert rep.lookup("conjunction", "self_mask:k=0.8", "pct_improvement_rmse") is not None
        assert rep.lookup("random", "self_mask:k=0.8", "mask_accuracy_floor") is not None

    def test_runner_records_toolkit_errors(self, monkeypatch):
        def fail(kind, dataset, config):
            raise NumericError("importance weights degenerate")

        monkeypatch.setattr(baselines, "run_method", fail)
        rep = self._tiny_run([0])
        for method in ("conjunction", "mean"):
            assert rep.lookup(method, "self_mask:k=0.8", "error:seed=0:NumericError") is not None

    def test_runner_propagates_programming_errors(self, monkeypatch):
        def bug(kind, dataset, config):
            raise TypeError("not a toolkit error")

        monkeypatch.setattr(baselines, "run_method", bug)
        with pytest.raises(TypeError):
            self._tiny_run([0])

    @pytest.mark.parametrize("field, value", [
        ("n", 2.5), ("n", 0), ("d", True), ("d", -1), ("rho", "0.7"), ("rho", math.inf),
        ("seed", -1), ("seed", 2**64)])
    def test_dataset_spec_refuses_a_bad_value_by_its_key(self, field, value):
        with pytest.raises(DomainError, match=f"^data\\.{field}: "):
            evaluate.GaussianDatasetSpec(**{field: value})

    @pytest.mark.parametrize("d, lower", [(2, -1.0), (5, -0.25)])
    def test_rho_must_keep_the_covariance_positive_definite(self, d, lower):
        # the equicorrelated covariance's eigenvalues are 1 - rho and 1 + (d - 1) rho
        for rho in (lower, 1.0):
            with pytest.raises(DomainError, match=f"^data\\.rho: must lie in \\({lower:g}, 1\\)"):
                evaluate.GaussianDatasetSpec(d=d, rho=rho)
        for rho in (lower + 1e-9, 1.0 - 1e-9):
            spec = evaluate.GaussianDatasetSpec(n=10, d=d, rho=rho)
            evaluate.draw_dataset(spec, synth.MissingSpec())

    def test_mean_imputer_rmse_near_one_on_standardized_mcar(self):
        # imputing ~0 for unit-variance features puts the RMSE near 1
        cfg = core.ModelConfig(iterations=1)  # model unused below
        spec = synth.MissingSpec(kind="mcar", k=0.5)
        ds = evaluate.GaussianDatasetSpec(n=4000, d=4, rho=0.0)
        rep = evaluate.run_experiment(ds, spec, ["mean"], cfg, n_runs=2, seeds=[0, 1])
        row = rep.lookup("mean", "mcar:k=0.5", "rmse_missing")
        assert abs(row["mean"] - 1.0) < 0.05
