"""Mask/data algebra: incomplete matrices, composition, standardization.

A missing position is represented by the mask alone; the value stored at a
missing position is unspecified and must never be read. All operations here
are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DegenerateFeatureError, DomainError, ShapeError


@dataclass(frozen=True)
class IncompleteMatrix:
    """Row-major values plus a 0/1 mask (1 = observed).

    Observed values must be finite; missing positions may hold anything.
    """

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        mask = np.asarray(self.mask, dtype=np.float64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)
        if values.shape != mask.shape:
            raise ShapeError(f"values {values.shape} vs mask {mask.shape}")
        if np.any((mask != 0) & (mask != 1)):
            raise ConsistencyError("mask entries must be 0 or 1")
        bad = (mask == 1) & ~np.isfinite(values)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise DomainError(f"observed value at row {i}, column {j} is {values[i, j]}, "
                              "not a finite number")

    @property
    def shape(self):
        return self.values.shape

    def observed_fraction(self) -> float:
        return float(self.mask.mean())


@dataclass(frozen=True)
class FeatureStats:
    """Per-feature mean/std used for standardization. Population std."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).ravel()
        std = np.asarray(self.std, dtype=np.float64).ravel()
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)
        if mean.shape != std.shape:
            raise ShapeError("mean and std must have equal length")
        if np.any(std <= 0):
            raise DegenerateFeatureError("std entries must be strictly positive")


def _check_same_shape(x, m):
    if np.shape(x) != np.shape(m):
        raise ShapeError(f"shape mismatch {np.shape(x)} vs {np.shape(m)}")


def compose_observed(x: np.ndarray, m: np.ndarray) -> IncompleteMatrix:
    """Keep entries where m=1; positions with m=0 become unreadable."""
    x = np.asarray(x, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    _check_same_shape(x, m)
    values = np.where(m == 1, x, 0.0)
    return IncompleteMatrix(values, m)


def compose_missing(x: np.ndarray, m: np.ndarray) -> IncompleteMatrix:
    """Complement of compose_observed: keep entries where m=0."""
    x = np.asarray(x, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    _check_same_shape(x, m)
    values = np.where(m == 0, x, 0.0)
    return IncompleteMatrix(values, 1.0 - m)


def recombine(x_obs: IncompleteMatrix, x_mis: IncompleteMatrix) -> np.ndarray:
    """Inverse of the (compose_observed, compose_missing) split."""
    _check_same_shape(x_obs.values, x_mis.values)
    if not np.array_equal(x_obs.mask + x_mis.mask, np.ones_like(x_obs.mask)):
        raise ConsistencyError("masks are not exact complements")
    return np.where(x_obs.mask == 1, x_obs.values, x_mis.values)


def feature_stats(x: np.ndarray) -> FeatureStats:
    """Population mean/std of each column of a complete matrix."""
    x = np.asarray(x, dtype=np.float64)
    std = x.std(axis=0)
    if np.any(std <= 0):
        bad = int(np.flatnonzero(std <= 0)[0])
        raise DegenerateFeatureError(f"feature {bad} has zero spread")
    return FeatureStats(x.mean(axis=0), std)


def standardize_complete(x: np.ndarray, stats: FeatureStats) -> np.ndarray:
    return (np.asarray(x, dtype=np.float64) - stats.mean) / stats.std


def zero_impute(data: IncompleteMatrix) -> np.ndarray:
    """Complete matrix with missing entries set to exactly 0."""
    return np.where(data.mask == 1, data.values, 0.0)
