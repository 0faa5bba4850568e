"""Metrics, the rating transform, and the multi-seed experiment runner."""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import baselines, model as core, synth
from .errors import DomainError, MetricError, MnarkitError
from .masking import compose_observed, feature_stats, standardize_complete

REPORT_COLUMNS = ("method", "setting", "metric", "mean", "stderr", "n_runs",
                  "runtime_s", "values")


def mse_missing(truth: np.ndarray, imputed: np.ndarray, mask: np.ndarray) -> float:
    """Mean squared error over missing entries only."""
    truth = np.asarray(truth, dtype=np.float64)
    imputed = np.asarray(imputed, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if truth.shape != imputed.shape or truth.shape != mask.shape:
        raise MetricError("shape mismatch between truth, imputed and mask")
    miss = mask == 0
    if not miss.any():
        raise MetricError("no missing entries; imputation error undefined")
    diff = truth[miss] - imputed[miss]
    return float(np.mean(diff * diff))


def rmse_missing(truth: np.ndarray, imputed: np.ndarray, mask: np.ndarray) -> float:
    return float(np.sqrt(mse_missing(truth, imputed, mask)))


def mask_accuracy(true_mask: np.ndarray, prob_mask: np.ndarray,
                  threshold: float = 0.5, features=None) -> float:
    """Fraction of entries (restricted to the listed features) where the
    thresholded probabilistic mask matches the true mask."""
    true_mask = np.asarray(true_mask, dtype=np.float64)
    prob_mask = np.asarray(prob_mask, dtype=np.float64)
    if not 0.0 < threshold < 1.0:
        raise DomainError("threshold must lie in (0, 1)")
    if features is None:
        features = missing_features(true_mask)
    features = list(features)
    if not features:
        raise MetricError("feature list is empty; mask accuracy undefined")
    t = true_mask[:, features]
    p = (prob_mask[:, features] >= threshold).astype(np.float64)
    return float((t == p).mean())


def missing_features(mask: np.ndarray):
    """Indices of features that contain at least one missing entry."""
    return [int(j) for j in np.flatnonzero((np.asarray(mask) == 0).any(axis=0))]


def random_floor(k: float) -> float:
    """Best accuracy of a marginal-matched random mask predictor on
    self-masked features: (k/2)^2 + (1 - k/2)^2."""
    if not 0.0 <= k <= 1.0:
        raise DomainError("k must lie in [0, 1]")
    half = k / 2.0
    return half * half + (1.0 - half) * (1.0 - half)


def rating_transform(r, r_max: int, epsilon=0.0):
    """Map a star rating r in [1, r_max] to epsilon + (1-epsilon) *
    (2^r - 1) / (2^r_max - 1); works elementwise on arrays."""
    r = np.asarray(r)
    if np.any(r < 1) or np.any(r > r_max):
        raise DomainError(f"rating out of range [1, {r_max}]")
    out = epsilon + (1.0 - np.asarray(epsilon)) * (2.0 ** r - 1.0) / (2.0 ** r_max - 1.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class GaussianDatasetSpec:
    """``n`` rows of ``d`` unit-variance Gaussian features with pairwise
    correlation ``rho``, drawn from the stream of ``seed`` (keys ``data.*``)."""

    n: int = 2000
    d: int = 4
    rho: float = 0.7
    seed: int = 0

    def __post_init__(self):
        core.check_field_types(self, "data.")
        for name in ("n", "d"):
            if getattr(self, name) < 1:
                raise DomainError(f"data.{name}: must be >= 1, got {getattr(self, name)}")
        # the equicorrelated covariance is positive definite exactly there
        lower = -1.0 / (self.d - 1) if self.d > 1 else -math.inf
        if not lower < self.rho < 1.0:
            raise DomainError(f"data.rho: must lie in ({lower:g}, 1) at d = {self.d}, "
                              f"got {self.rho}")
        if not 0 <= self.seed < 2**64:
            raise DomainError(f"data.seed: must lie in [0, 2**64), got {self.seed}")


def draw_dataset(spec: GaussianDatasetSpec, missing_spec: synth.MissingSpec):
    """(truth, observed) at ``spec.seed``: the complete matrix, standardized
    by its own feature statistics, and its part left observed by a mask that
    ``missing_spec`` draws from the same stream after the data."""
    rng = synth.make_rng(spec.seed)
    x = synth.gaussian_synth(spec.n, spec.d, np.zeros(spec.d),
                             synth.equicorrelated_cov(spec.d, spec.rho), rng)
    x = standardize_complete(x, feature_stats(x))
    return x, compose_observed(x, synth.apply_missing(x, missing_spec, rng))


@dataclass
class EvalReport:
    """Per-method, per-setting metric rows with mean and standard error."""

    rows: list = field(default_factory=list)

    def add(self, method, setting, metric, values, runtime_s=0.0):
        values = [float(v) for v in values]
        mean = float(np.mean(values))
        stderr = float(np.std(values, ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
        self.rows.append({"method": method, "setting": setting, "metric": metric,
                          "mean": mean, "stderr": stderr, "n_runs": len(values),
                          "runtime_s": float(runtime_s),
                          "values": ";".join(repr(v) for v in values)})

    def lookup(self, method, setting, metric):
        for row in self.rows:
            if (row["method"], row["setting"], row["metric"]) == (method, setting, metric):
                return row
        return None

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.DictWriter(f, fieldnames=REPORT_COLUMNS)
            w.writeheader()
            for row in self.rows:
                w.writerow(row)


def check_distinct(key: str, values) -> None:
    """Refuse a value that ``values`` holds twice; the DomainError names ``key``."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise DomainError(f"{key}: {value!r} is repeated")


def run_experiment(dataset_spec: GaussianDatasetSpec, missing_spec: synth.MissingSpec,
                   methods, config: core.ModelConfig, n_runs: int = 5,
                   seeds=None) -> EvalReport:
    """Draw the data (``draw_dataset``), train, impute and score per seed;
    the seed replaces both ``dataset_spec.seed`` and ``config.seed``.

    Metrics are computed in standardized space; standardization statistics
    come from the complete matrix before masking. A cell that fails with a
    ``MnarkitError`` is recorded as an ``error`` metric row rather than
    dropped; any other exception is a bug and propagates. A seed or method
    given twice raises DomainError naming ``seeds`` or ``methods``.
    """
    seeds = list(range(n_runs) if seeds is None else seeds)
    methods = list(methods)
    check_distinct("seeds", seeds)
    check_distinct("methods", methods)
    report = EvalReport()
    setting = f"{missing_spec.kind}:k={missing_spec.k}"
    per_method = {m: {"rmse_missing": [], "mse_missing": [], "mask_accuracy": []}
                  for m in methods}
    runtimes = {m: 0.0 for m in methods}
    floors = []
    for seed in seeds:
        truth, observed = draw_dataset(replace(dataset_spec, seed=seed), missing_spec)
        mask = observed.mask
        feats = missing_features(mask)
        floors.append(random_floor(missing_spec.k))
        for method in methods:
            cfg = replace(config, seed=seed)
            start = time.perf_counter()
            try:
                result = baselines.run_method(method, observed, cfg)
            except MnarkitError as e:  # record, do not drop the cell
                report.add(method, setting, f"error:seed={seed}:{type(e).__name__}", [np.nan])
                continue
            runtimes[method] += time.perf_counter() - start
            per_method[method]["mse_missing"].append(mse_missing(truth, result.completed, mask))
            per_method[method]["rmse_missing"].append(rmse_missing(truth, result.completed, mask))
            if feats:
                per_method[method]["mask_accuracy"].append(
                    mask_accuracy(mask, result.prob_mask, features=feats))
    for method in methods:
        for metric, values in per_method[method].items():
            if values:
                report.add(method, setting, metric, values, runtimes[method])
    report.add("random", setting, "mask_accuracy_floor", floors)

    # improvement of the main model over the best baseline, error metrics only
    ours = report.lookup("conjunction", setting, "rmse_missing")
    rivals = [report.lookup(m, setting, "rmse_missing")
              for m in methods if m != "conjunction"]
    rivals = [r for r in rivals if r is not None]
    if ours is not None and rivals:
        best = min(r["mean"] for r in rivals)
        report.add("conjunction", setting, "pct_improvement_rmse",
                   [100.0 * (best - ours["mean"]) / best])
    return report


def score_external(truth: np.ndarray, completed: np.ndarray, mask: np.ndarray) -> dict:
    """Metrics for a completed matrix produced by a third-party imputer."""
    return {"rmse_missing": rmse_missing(truth, completed, mask),
            "mse_missing": mse_missing(truth, completed, mask)}

