"""Diagonal-covariance Gaussian mixture emission densities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import DataError

_LOG_2PI = np.log(2.0 * np.pi)
WEIGHT_TOL = 1e-10


def _stochastic(p: np.ndarray) -> bool:
    """True when every entry is finite and nonnegative and every row (along
    the last axis) sums to 1 within WEIGHT_TOL; NaN fails every test."""
    return bool(np.all(np.isfinite(p)) and np.all(p >= 0)
                and np.all(np.abs(p.sum(axis=-1) - 1.0) <= WEIGHT_TOL))


@dataclass
class GaussianMixture:
    weights: np.ndarray   # (M,)
    means: np.ndarray     # (M, D)
    variances: np.ndarray  # (M, D)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.means = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        self.variances = np.atleast_2d(np.asarray(self.variances, dtype=np.float64))
        if self.means.shape != self.variances.shape:
            raise DataError("means and variances must have matching shapes")
        if self.weights.shape != (self.means.shape[0],):
            raise DataError("one weight per mixture component required")
        if not _stochastic(self.weights):
            raise DataError("component weights must be nonnegative and sum to 1")
        if not np.all(np.isfinite(self.means)):
            raise DataError("means must be finite")
        if not (np.all(np.isfinite(self.variances)) and np.all(self.variances > 0)):
            raise DataError("variances must be finite and strictly positive")

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def component_log_density(self, obs: np.ndarray) -> np.ndarray:
        """Per-component log N(o; mu_m, diag sigma2_m) for obs of shape (T, D) -> (T, M)."""
        obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
        if obs.shape[1] != self.dim:
            raise DataError(f"observation dim {obs.shape[1]} != mixture dim {self.dim}")
        diff = obs[:, None, :] - self.means[None, :, :]  # (T, M, D)
        quad = np.sum(diff * diff / self.variances[None, :, :], axis=2)
        logdet = np.sum(np.log(self.variances), axis=1)  # (M,)
        return -0.5 * (quad + logdet[None, :] + self.dim * _LOG_2PI)

    def log_density_frames(self, obs: np.ndarray) -> np.ndarray:
        """log b(O_t) for every frame of a (T, D) observation matrix -> (T,)."""
        comp = self.component_log_density(obs)
        with np.errstate(divide="ignore"):
            logw = np.log(self.weights)
        return logsumexp(comp + logw[None, :], axis=1)

    def log_density(self, o: np.ndarray) -> float:
        return float(self.log_density_frames(np.atleast_2d(o))[0])
