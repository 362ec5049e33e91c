"""Training configuration shared by the order-1 and order-2 trainers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

VARIANCE_FLOOR_FACTOR = 1e-3   # of the pooled per-dimension corpus variance
VARIANCE_FLOOR_MIN = 1e-6
MIXTURE_WEIGHT_FLOOR = 1e-6


@dataclass(frozen=True)
class TrainConfig:
    max_iterations: int = 40
    tol: float = 1e-5                 # relative log-likelihood improvement
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise DataError("max_iterations must be >= 1")
        if not self.tol > 0:          # NaN fails too
            raise DataError("tol must be positive")
        if self.seed < 0:
            raise DataError("seed must be >= 0")


def frames_of(obs) -> np.ndarray:
    """Accept a FeatureSequence or a bare (T, D) array."""
    mat = getattr(obs, "frames", obs)
    return np.atleast_2d(np.asarray(mat, dtype=np.float64))


def source_of(obs, index: int) -> str:
    """A sequence's name in messages: its source id, or "sequence <index>"."""
    return getattr(obs, "source_id", "") or f"sequence {index}"


def variance_floor(frames: np.ndarray) -> np.ndarray:
    """Per-dimension floor from the variance of a corpus's pooled (T, D)
    frames; inf where that variance exceeds the largest double, and NaN
    where a frame is infinite."""
    with np.errstate(over="ignore", invalid="ignore"):
        global_var = frames.var(axis=0)
    return np.maximum(VARIANCE_FLOOR_FACTOR * global_var, VARIANCE_FLOOR_MIN)
