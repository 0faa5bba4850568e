"""The method table: each method name maps to its ``ModelConfig``
overrides, or to ``None`` for feature-mean fill, the one method without
the model."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import DegenerateFeatureError, DomainError
from .masking import IncompleteMatrix
from . import model as core

# The first entry is the full model; the command line defaults to it.
METHODS = {
    "conjunction": {},
    # the mask decoder switched off (MAR-style)
    "mar_alpha0": {"alpha": 0.0},
    # Same encoder/data decoder as the parallel model; mask probabilities
    # come from one dense+sigmoid layer on the decoded data mean. The
    # mask-likelihood temperature alpha is pinned to 1: the temperature is a
    # knob of the parallel model, and the reference selection model is the
    # standard untempered factorization.
    "serial_selection": {"structure": "serial", "alpha": 1.0},
    "mean": None,
}


def method_config(name: str, config: core.ModelConfig) -> core.ModelConfig | None:
    """``config`` with the named method's overrides; ``None`` for ``mean``."""
    if name not in METHODS:
        raise DomainError(f"unknown method {name!r}")
    overrides = METHODS[name]
    return None if overrides is None else replace(config, **overrides)


def mean_impute(data: IncompleteMatrix) -> np.ndarray:
    """Missing entries replaced by the per-feature observed mean."""
    out = np.array(data.values, dtype=np.float64)
    for j in range(data.shape[1]):
        obs = data.mask[:, j] == 1
        if not obs.any():
            raise DegenerateFeatureError(f"feature {j} has no observed entries")
        out[~obs, j] = data.values[obs, j].mean()
    return out


def run_method(kind: str, dataset: IncompleteMatrix, config: core.ModelConfig) -> core.ImputationResult:
    """Train (where needed) and impute with the named method."""
    cfg = method_config(kind, config)
    if cfg is None:
        return core.ImputationResult(completed=mean_impute(dataset),
                                     prob_mask=np.full(dataset.shape, 0.5))
    params, _ = core.train(dataset, cfg)
    return core.impute(dataset, params, cfg)
