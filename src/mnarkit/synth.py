"""Synthetic complete data and MCAR/MNAR/mixed mask generators.

All generators are pure functions of their inputs and a seeded counter-based
random stream (Philox), so identical seeds give identical output on any
platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError

SELF_MASK_KINDS = ("mcar", "self_mask", "star", "mixed")


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic counter-based stream (Philox) keyed by the seed."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


@dataclass(frozen=True)
class MissingSpec:
    """Which missingness mechanism to apply and with what probabilities."""

    kind: str = "self_mask"
    k: float = 0.8
    feature_subset: tuple = ()  # empty = first ceil(d/2) features
    mcar_probability: float = 0.0

    def __post_init__(self):
        if self.kind not in SELF_MASK_KINDS:
            raise DomainError(f"missing.kind: unknown missing kind {self.kind!r}")
        for name in ("k", "mcar_probability"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise DomainError(f"missing.{name}: must lie in [0, 1], got {getattr(self, name)}")
        object.__setattr__(self, "feature_subset", tuple(self.feature_subset))


def default_feature_subset(d: int) -> tuple:
    """First ceil(d/2) feature indices ("half of the features")."""
    return tuple(range((d + 1) // 2))


def gaussian_synth(n: int, d: int, mean, cov, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. multivariate-normal rows via the Cholesky factor of cov."""
    mean = np.asarray(mean, dtype=np.float64).ravel()
    cov = np.asarray(cov, dtype=np.float64)
    if mean.size != d or cov.shape != (d, d):
        raise ShapeError(f"mean/cov shapes do not match d={d}")
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as e:
        raise DomainError(f"covariance is not positive definite: {e}") from e
    z = rng.standard_normal((n, d))
    return mean + z @ chol.T


def equicorrelated_cov(d: int, rho: float = 0.7) -> np.ndarray:
    """Unit-variance covariance with constant off-diagonal correlation."""
    return np.full((d, d), rho) + (1.0 - rho) * np.eye(d)


def mcar_mask(n: int, d: int, p_miss: float, rng: np.random.Generator) -> np.ndarray:
    """Each entry independently missing with probability p_miss."""
    if not 0.0 <= p_miss <= 1.0:
        raise DomainError("p_miss must lie in [0, 1]")
    return (rng.random((n, d)) >= p_miss).astype(np.float64)


def self_mask(x: np.ndarray, features, k: float, rng: np.random.Generator) -> np.ndarray:
    """Self-masking: listed features lose entries strictly above the feature
    mean with probability k; everything else stays observed."""
    x = np.asarray(x, dtype=np.float64)
    if not 0.0 <= k <= 1.0:
        raise DomainError("k must lie in [0, 1]")
    n, d = x.shape
    features = list(features)
    if any(j < 0 or j >= d for j in features):
        raise DomainError("feature index out of range")
    mask = np.ones((n, d))
    means = x.mean(axis=0)
    u = rng.random((n, d))
    for j in features:
        hit = (x[:, j] > means[j]) & (u[:, j] < k)
        mask[hit, j] = 0.0
    return mask


def star_mask(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Feature 1 missing above its mean, feature 2 missing below its mean,
    both deterministically; all other features observed."""
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    if d < 2:
        raise ShapeError("star mask needs at least 2 features")
    mask = np.ones((n, d))
    means = x.mean(axis=0)
    mask[x[:, 0] > means[0], 0] = 0.0
    mask[x[:, 1] < means[1], 1] = 0.0
    return mask


def mixed_mask(x: np.ndarray, features, k_mnar: float, p_mcar: float,
               rng: np.random.Generator) -> np.ndarray:
    """Union of self-masking and MCAR missingness (entry missing under either)."""
    x = np.asarray(x, dtype=np.float64)
    m_self = self_mask(x, features, k_mnar, rng)
    m_mcar = mcar_mask(x.shape[0], x.shape[1], p_mcar, rng)
    return m_self * m_mcar


def apply_missing(x: np.ndarray, spec: MissingSpec, rng: np.random.Generator) -> np.ndarray:
    """Build the mask described by a ``MissingSpec`` for a complete matrix."""
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    subset = spec.feature_subset or default_feature_subset(d)
    if spec.kind == "mcar":
        return mcar_mask(n, d, spec.k, rng)
    if spec.kind == "self_mask":
        return self_mask(x, subset, spec.k, rng)
    if spec.kind == "star":
        return star_mask(x, rng)
    return mixed_mask(x, subset, spec.k, spec.mcar_probability, rng)
