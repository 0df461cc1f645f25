"""Proxy-based metric learning with text-derived adaptive margins.

Trains a small embedding head (linear map, centring, L2 normalization,
which equals a parameterless layer norm followed by L2 normalization) over
precomputed backbone features against learnable unit-norm class proxies,
with optional per-class-pair additive margins built from a second modality.
Includes a Recall@K evaluator for float and sign-binarized embeddings, and
a CLI driving the whole pipeline.
"""

import os as _os
import sys as _sys
import warnings as _warnings

# MF_THREADS caps worker threads; must land before numpy loads its BLAS.
_cap = _os.environ.get("MF_THREADS")
if _cap:
    if "numpy" in _sys.modules:
        _warnings.warn(
            f"MF_THREADS={_cap} has no effect: numpy was imported before marginfit "
            "and its BLAS thread count is already fixed",
            RuntimeWarning,
            stacklevel=2,
        )
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ[_var] = _cap

# ``synthetic`` (test and script data) is left to its callers: no CLI process loads it
from . import data_io, errors, evaluation, margins, sampler, trainer
from .losses import LossConfig, LossOutput, ProxyBank
from .sampler import SamplerConfig
from .trainer import Checkpoint, TrainConfig, load_checkpoint

__all__ = [
    "data_io",
    "errors",
    "evaluation",
    "margins",
    "sampler",
    "synthetic",
    "trainer",
    "LossConfig",
    "LossOutput",
    "ProxyBank",
    "SamplerConfig",
    "Checkpoint",
    "TrainConfig",
    "load_checkpoint",
]

__version__ = "0.1.0"
