"""Tabular-data imputation toolkit for Missing-Not-At-Random data.

A deep generative imputer with parallel, parameter-disjoint data and mask
decoders trained by an importance-weighted bound, plus missing-mechanism
synthesizers, baseline imputers and an evaluation harness.
"""

from .masking import (FeatureStats, IncompleteMatrix, compose_missing,
                      compose_observed, feature_stats, recombine,
                      standardize_complete, zero_impute)
from .model import (ImputationResult, ModelConfig, ParamBlocks, impute,
                    load_checkpoint, multiple_impute, save_checkpoint, train)
from .synth import (MissingSpec, apply_missing, equicorrelated_cov,
                    gaussian_synth, make_rng)

__version__ = "0.1.0"

__all__ = [
    "FeatureStats", "IncompleteMatrix", "ImputationResult", "MissingSpec",
    "ModelConfig", "ParamBlocks", "apply_missing", "compose_missing",
    "compose_observed", "equicorrelated_cov", "feature_stats",
    "gaussian_synth", "impute", "load_checkpoint", "make_rng",
    "multiple_impute", "recombine", "save_checkpoint", "standardize_complete",
    "train", "zero_impute",
]
