"""Acceptance suite: ten end-to-end criteria, one PASS/FAIL line each.

Criteria 4 and 6 share one set of training runs (2 missing-rate settings x
5 seeds x 3 methods) provided by a module-scoped fixture; the whole file
runs in roughly 10-15 minutes on a laptop CPU.
"""

import os
import sys

import numpy as np
import pytest

from mnarkit import autodiff as ad
from mnarkit import cli, evaluate, model as core, synth
from mnarkit.autodiff import Tensor, backward
from mnarkit.masking import (IncompleteMatrix, compose_missing, compose_observed,
                             feature_stats, recombine, standardize_complete)
from mnarkit.synth import make_rng


def verdict(criterion: str, ok: bool):
    print(f"[ACCEPTANCE] {criterion}: {'PASS' if ok else 'FAIL'}",
          file=sys.stderr, flush=True)
    assert ok, criterion


def fd_grad(f, x, h=1e-4):
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy(); xp[i] += h
        xm = x.copy(); xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
    return g


def grad_matches(build, x0, rtol=1e-4):
    """build(flat) -> (scalar Tensor, param Tensor); True if autodiff agrees
    with central differences at relative tolerance rtol."""
    node, param = build(np.asarray(x0, dtype=np.float64))
    backward(node)
    got = param.grad.ravel()
    want = fd_grad(lambda x: float(build(x)[0].value[0, 0]), np.asarray(x0).ravel())
    scale = np.maximum(np.abs(want), 1.0)
    return bool(np.all(np.abs(got - want) / scale < rtol))


class TestCriterion1AutodiffGradients:
    """Every differentiable primitive vs finite differences: relative error
    below 1e-4 on 100 random instances each."""

    def _primitives(self, r, x, m, noise, aux):
        n, d = x.shape
        return {
            "dense": lambda t: ad.dense(Tensor(x), ad.reshape(t, (d, d)),
                                        Tensor(np.zeros((1, d)))),
            "matmul": lambda t: ad.matmul(Tensor(x), ad.reshape(t, (d, d))),
            "add": lambda t: ad.add(ad.reshape(t, (n, d)), Tensor(aux)),
            "sub": lambda t: ad.sub(Tensor(aux), ad.reshape(t, (n, d))),
            "mul": lambda t: ad.mul(ad.reshape(t, (n, d)), Tensor(aux)),
            "scale": lambda t: ad.scale(ad.reshape(t, (n, d)), 0.37),
            "tanh": lambda t: ad.tanh(ad.reshape(t, (n, d))),
            "sigmoid": lambda t: ad.sigmoid(ad.reshape(t, (n, d))),
            "softplus": lambda t: ad.softplus(ad.reshape(t, (n, d))),
            "std_head": lambda t: ad.std_head(ad.reshape(t, (n, d))),
            "repeat_rows": lambda t: ad.repeat_rows(ad.reshape(t, (n, d)), 3),
            "gaussian_mean": lambda t: ad.gaussian_log_density(
                x, ad.reshape(t, (n, d)), Tensor(np.abs(aux) + 0.5)),
            "gaussian_std": lambda t: ad.gaussian_log_density(
                x, Tensor(aux), ad.std_head(ad.reshape(t, (n, d)))),
            "bernoulli": lambda t: ad.bernoulli_log_density(
                m, ad.sigmoid(ad.reshape(t, (n, d)))),
            "reparameterize": lambda t: ad.reparameterize(
                ad.reshape(t, (n, d)), ad.std_head(Tensor(aux)), noise),
            "log_sum_exp": lambda t: ad.log_sum_exp(ad.reshape(t, (n, d)), 1),
            "sum_axis": lambda t: ad.sum_axis(ad.reshape(t, (n, d)), 1),
        }

    def test_primitive_gradients(self):
        n, d = 3, 3  # square so the same flat parameter serves matmul weights
        failures = {}
        for trial in range(100):
            r = np.random.default_rng(5000 + trial)
            x = r.standard_normal((n, d))
            m = (r.random((n, d)) < 0.5).astype(float)
            noise = r.standard_normal((n, d))
            aux = r.standard_normal((n, d))
            t0 = r.standard_normal(n * d)
            for name, op in self._primitives(r, x, m, noise, aux).items():
                def build(flat, op=op):
                    t = Tensor(flat.reshape(1, n * d))
                    return ad.mean_all(op(t)), t
                if not grad_matches(build, t0):
                    failures[name] = failures.get(name, 0) + 1
        verdict("1 autodiff gradient checks (rel err < 1e-4, 100 instances "
                "per primitive)", not failures)


class TestCriterion2BoundMonotonicity:
    """With shared base randomness, the K-sample bound estimate is
    non-decreasing: L1 <= L5 <= L20 in at least 95 of 100 trials."""

    def test_shared_noise_monotonicity(self):
        cfg = core.ModelConfig(latent_dim=1, hidden_sizes=(8, 8), k_train=20,
                               l_impute=8, iterations=1, batch_size=16)
        wins = 0
        for trial in range(100):
            rng = make_rng(9000 + trial)
            x = rng.standard_normal((64, 4))
            mask = (rng.random((64, 4)) < 0.7).astype(float)
            data = compose_observed(x, mask)
            params = core.init_params(cfg, 4, rng)
            base = rng.standard_normal((64, 20, cfg.latent_dim))
            vals = []
            for k in (1, 5, 20):
                noise = base[:, :k, :].reshape(64 * k, cfg.latent_dim)
                vals.append(core.bound(data, params, cfg, noise=noise))
            if vals[0] <= vals[1] <= vals[2]:
                wins += 1
        verdict(f"2 bound monotonicity L1<=L5<=L20 ({wins}/100 trials, "
                "need >=95)", wins >= 95)


class TestCriterion3AlphaZeroDegeneracy:
    """alpha=0 removes the mask model exactly: zero log-weight contribution
    for all inputs and vanishing gradients for the mask decoder."""

    def test_exact_degeneracy(self):
        ok = True
        for trial in range(20):
            rng = make_rng(300 + trial)
            x = rng.standard_normal((16, 4))
            mask = (rng.random((16, 4)) < 0.6).astype(float)
            data = compose_observed(x, mask)
            cfg = core.ModelConfig(latent_dim=1, hidden_sizes=(8, 8),
                                   k_train=5, alpha=0.0)
            params = core.init_params(cfg, 4, rng)
            noise = rng.standard_normal((16 * 5, 1))
            # one training step's forward and backward over the 16 rows
            nodes, _, components = core._train_tile(data, noise, params, cfg, -1.0 / 16, 0)
            ok &= bool(np.all(components["mask"] == 0.0))
            ok &= all(nodes[n].grad is None for n in params.names
                      if n.startswith("dec_m."))
        verdict("3 alpha=0 degeneracy (mask term exactly 0, mask-decoder "
                "gradients vanish)", ok)


# alpha=2 upweights the mask likelihood; on self-masked data this separates
# the missing/observed populations in the latent space and improves both the
# imputation RMSE and the reconstructed-mask accuracy of the full model.
ORDERING_CFG = core.ModelConfig(latent_dim=1, hidden_sizes=(32, 32), k_train=20,
                                l_impute=1000, iterations=3000, batch_size=128,
                                alpha=2.0)
ORDERING_SEEDS = [0, 1, 2, 3, 4]
ORDERING_METHODS = ["conjunction", "mar_alpha0", "serial_selection"]


@pytest.fixture(scope="module")
def ordering_reports():
    """Shared training runs for criteria 4 and 6: n=2000, d=4, 5 seeds,
    3000 iterations, self-masking at k=0.8 and k=1.0."""
    ds = evaluate.GaussianDatasetSpec(n=2000, d=4, rho=0.7)
    reports = {}
    for k in (0.8, 1.0):
        spec = synth.MissingSpec(kind="self_mask", k=k)
        reports[k] = evaluate.run_experiment(ds, spec, ORDERING_METHODS,
                                             ORDERING_CFG, n_runs=5,
                                             seeds=ORDERING_SEEDS)
    return reports


def _values(report, method, k, metric):
    row = report.lookup(method, f"self_mask:k={k}", metric)
    assert row is not None, (method, k, metric)
    return np.array([float(v) for v in row["values"].split(";")])


class TestCriterion4SyntheticGaussianOrdering:
    """On self-masked Gaussian data the full model's missing-entry RMSE beats
    both baselines in >= 4 of 5 seeds at each missing rate, with a mean gap
    of at least 10% of the alpha=0 baseline's RMSE."""

    def test_rmse_ordering(self, ordering_reports):
        ok = True
        detail = []
        for k in (0.8, 1.0):
            rep = ordering_reports[k]
            ours = _values(rep, "conjunction", k, "rmse_missing")
            mar = _values(rep, "mar_alpha0", k, "rmse_missing")
            ser = _values(rep, "serial_selection", k, "rmse_missing")
            wins = int(np.sum((ours < mar) & (ours < ser)))
            gap = (mar.mean() - ours.mean()) / mar.mean()
            detail.append(f"k={k}: wins {wins}/5, gap {100 * gap:.1f}%")
            ok &= wins >= 4 and gap >= 0.10
        verdict("4 synthetic Gaussian RMSE ordering (" + "; ".join(detail) +
                "; need >=4/5 and gap >=10%)", ok)


class TestCriterion5RandomFloor:
    """Closed-form floor matches a simulated marginal-matched random
    predictor within +-0.01 at 1e5 entries and reproduces the reference
    percentages 82/52/50 for k in {0.2, 0.8, 1.0}."""

    def test_floor(self):
        refs = {0.2: 0.82, 0.8: 0.52, 1.0: 0.50}
        ok = True
        for k, want in refs.items():
            ok &= abs(evaluate.random_floor(k) - want) < 1e-12
            rng = make_rng(int(k * 100))
            n = 100000
            true_missing = rng.random(n) < k / 2
            pred_missing = rng.random(n) < k / 2
            acc = float((true_missing == pred_missing).mean())
            ok &= abs(acc - evaluate.random_floor(k)) < 0.01
        verdict("5 random mask-accuracy floor (82/52/50% exact, simulation "
                "within +-0.01 at 1e5 entries)", ok)


class TestCriterion6MaskReconstructionOrdering:
    """The full model's thresholded mask accuracy exceeds the serial
    selection baseline's and the random floor + 0.05 in >= 4 of 5 seeds at
    k in {0.8, 1.0}."""

    def test_mask_accuracy_ordering(self, ordering_reports):
        ok = True
        detail = []
        for k in (0.8, 1.0):
            rep = ordering_reports[k]
            ours = _values(rep, "conjunction", k, "mask_accuracy")
            ser = _values(rep, "serial_selection", k, "mask_accuracy")
            floor = evaluate.random_floor(k)
            wins = int(np.sum((ours > ser) & (ours > floor + 0.05)))
            detail.append(f"k={k}: wins {wins}/5 (floor {floor:.2f})")
            ok &= wins >= 4
        verdict("6 mask-reconstruction ordering (" + "; ".join(detail) +
                "; need >=4/5)", ok)


class TestCriterion7ImputationPlumbing:
    """Normalized importance weights sum to one, observed entries pass
    through bit-exactly, and the resampling-based multiple imputer's mean
    converges to the point estimate within 3 sigma."""

    def test_plumbing(self):
        # a single row chunk keeps the latent draws shared between the point
        # imputer and the resampling imputer, so the 3 sigma check is tight
        rng = make_rng(77)
        x = rng.standard_normal((24, 4))
        mask = (rng.random((24, 4)) < 0.6).astype(float)
        data = compose_observed(x, mask)
        cfg = core.ModelConfig(latent_dim=1, hidden_sizes=(12, 12), k_train=5,
                               l_impute=64, iterations=80, batch_size=24, seed=3)
        params, _ = core.train(data, cfg)

        nodes = core._nodes(params)
        weights, _, _, _ = core._forward_weights(data, nodes, cfg, cfg.l_impute,
                                                 make_rng(1))
        sums_ok = bool(np.all(np.abs(weights.normalized.sum(axis=1) - 1.0) < 1e-8))

        poisoned = np.array(data.values)
        poisoned[mask == 0] = np.nan
        result = core.impute(IncompleteMatrix(np.where(mask == 1, poisoned, 0.0), mask),
                             params, cfg, rng=make_rng(0))
        obs = mask == 1
        pass_through_ok = bool(np.array_equal(result.completed[obs], data.values[obs]))

        n_draws = 10000
        draws = core.multiple_impute(data, params, cfg, n_draws, rng=make_rng(0))
        stack = np.stack(draws)
        miss = mask == 0
        emp_mean = stack.mean(axis=0)[miss]
        emp_std = stack.std(axis=0)[miss]
        point = core.impute(data, params, cfg, rng=make_rng(0))
        tol = 3 * emp_std / np.sqrt(n_draws) + 1e-6
        sir_ok = bool(np.all(np.abs(emp_mean - point.completed[miss]) < tol))

        verdict("7 imputation plumbing (weights sum to 1 +-1e-8, bit-exact "
                "pass-through, resampling mean within 3 sigma)",
                sums_ok and pass_through_ok and sir_ok)


class TestCriterion8RatingTransform:
    """Star ratings 1, 3, 5 with r_max=5 and no noise map exactly to
    1/31, 7/31 and 1."""

    def test_exact_values(self):
        ok = (evaluate.rating_transform(1, 5, 0.0) == 1.0 / 31.0
              and evaluate.rating_transform(3, 5, 0.0) == 7.0 / 31.0
              and evaluate.rating_transform(5, 5, 0.0) == 1.0)
        verdict("8 rating transform closed forms {1/31, 7/31, 1} exact", ok)


class TestCriterion9MaskAlgebraRoundTrip:
    """Splitting a complete matrix into observed and missing parts and
    recombining them reproduces it exactly, 1000 random pairs."""

    def test_round_trip(self):
        ok = True
        for trial in range(1000):
            r = np.random.default_rng(40000 + trial)
            n, d = int(r.integers(1, 12)), int(r.integers(1, 8))
            x = r.standard_normal((n, d)) * r.uniform(0.1, 10)
            m = (r.random((n, d)) < r.uniform(0.0, 1.0)).astype(float)
            back = recombine(compose_observed(x, m), compose_missing(x, m))
            ok &= bool(np.array_equal(back, x))
            if not ok:
                break
        verdict("9 mask/data algebra round-trip identity (1000 random pairs)", ok)


class TestCriterion10BenchDeterminism:
    """The bench pipeline is bit-reproducible given the seed list; only the
    wall-clock column may differ between runs."""

    def test_bench_reproducible(self, tmp_path):
        args = ["bench", "--n", "80", "--d", "4", "--seeds", "0,1",
                "--methods", "conjunction,mean",
                "--missing-kind", "self_mask", "--missing-k", "0.8",
                "--hidden-sizes", "8,8", "--k-train", "4", "--l-impute", "16",
                "--iterations", "40", "--batch-size", "32"]
        texts = []
        for tag in ("a", "b"):
            out = str(tmp_path / tag)
            assert cli.main(args + ["--out", out]) == 0
            with open(os.path.join(out, "report.csv")) as f:
                header = f.readline().strip().split(",")
                drop = header.index("runtime_s")
                texts.append([",".join(v for i, v in enumerate(line.strip().split(","))
                                       if i != drop) for line in f])
        verdict("10 bench pipeline bit-reproducible given the seed list",
                texts[0] == texts[1] and len(texts[0]) > 0)
