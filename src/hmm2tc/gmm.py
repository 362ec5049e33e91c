"""Diagonal-covariance Gaussian mixture emission densities.

A `GaussianMixture` is one mixture or a stack of N mixtures of one shape with
a leading state axis, Rabiner's (1989, sec. VI) c_jm, mu_jm and U_jm: every
model holds its emission as one stack, and indexing or iterating a stack
gives its per-state mixtures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .lattice import logsumexp

_LOG_2PI = np.log(2.0 * np.pi)
WEIGHT_TOL = 1e-10


def _stochastic(p: np.ndarray) -> bool:
    """True when every entry is nonnegative and every row (along the last
    axis) sums to 1 within WEIGHT_TOL, so is finite; NaN fails every test."""
    return bool(p.min(initial=0.0) >= 0
                and np.abs(p.sum(axis=-1) - 1.0).max(initial=0.0) <= WEIGHT_TOL)


def check_mixtures(weights, means, variances, lead: int = 0) -> None:
    """`GaussianMixture`'s check, on float arrays of one mixture or stack, or
    of many under `lead` more leading axes (a pack's models, say): DataError
    unless the shapes match, the weights are probability rows, the means are
    finite and the variances finite and positive with finite reciprocals."""
    if means.shape != variances.shape:
        raise DataError("means and variances must have matching shapes")
    if weights.ndim - lead not in (1, 2) or weights.shape != means.shape[:-1]:
        raise DataError("one weight per mixture component required")
    if not _stochastic(weights):
        raise DataError("component weights must be nonnegative and sum to 1")
    # a NaN entry makes min and max NaN, which fail every comparison
    if not (-np.inf < means.min(initial=0.0) and means.max(initial=0.0) < np.inf):
        raise DataError("means must be finite")
    smallest = variances.min(initial=1.0)
    if not (0 < smallest and variances.max(initial=1.0) < np.inf):
        raise DataError("variances must be finite and strictly positive")
    with np.errstate(over="ignore"):   # component_table divides by every variance
        if not 1.0 / smallest < np.inf:
            raise DataError(f"variances must have finite reciprocals, not {float(smallest)!r}")


@dataclass
class GaussianMixture:
    weights: np.ndarray    # (M,), or (N, M) for a stack
    means: np.ndarray      # (M, D), or (N, M, D)
    variances: np.ndarray  # (M, D), or (N, M, D)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        lift = np.atleast_2d if self.weights.ndim < 2 else np.asarray  # one mixture or a stack
        self.means = lift(np.asarray(self.means, dtype=np.float64))
        self.variances = lift(np.asarray(self.variances, dtype=np.float64))
        check_mixtures(self.weights, self.means, self.variances)

    @classmethod
    def from_checked(cls, weights, means, variances) -> GaussianMixture:
        """A stack of float arrays that `check_mixtures` has passed, built
        without checking them again."""
        mix = object.__new__(cls)
        mix.weights, mix.means, mix.variances = weights, means, variances
        return mix

    @classmethod
    def stack(cls, mixtures) -> GaussianMixture:
        """One stack of the states of the given mixtures and stacks, in order."""
        mixtures = list(mixtures)
        shapes = {(mix.n_components, mix.dim) for mix in mixtures}
        if len(shapes) != 1:
            raise DataError("all states must share mixture dim and component count")
        (m, d), = shapes
        return cls(np.concatenate([mix.weights.reshape(-1, m) for mix in mixtures]),
                   np.concatenate([mix.means.reshape(-1, m, d) for mix in mixtures]),
                   np.concatenate([mix.variances.reshape(-1, m, d) for mix in mixtures]))

    def __getitem__(self, j) -> GaussianMixture:
        """State j of a stack; iterating a stack runs through its states."""
        return GaussianMixture(self.weights[j], self.means[j], self.variances[j])

    @property
    def n_components(self) -> int:
        return self.means.shape[-2]

    @property
    def dim(self) -> int:
        return self.means.shape[-1]


def component_table(mixtures, obs) -> np.ndarray:
    """log w_m + log N(o_t; mu_m, diag sigma2_m) of every component of a stack
    of N mixtures (a single mixture is a stack of one, and a list of mixtures
    is stacked), for a (T, D) observation matrix, state-major: (N, M, T), so
    that a reduction over the components or over the frames works on whole
    contiguous blocks of frames.

    The exponent is expanded as in scikit-learn's diagonal-covariance
    `_estimate_log_gaussian_prob` (Pedregosa et al., 2011):
    sum_d (o_d - mu_d)**2 / s_d = sum_d o_d**2 / s_d - 2 o_d mu_d / s_d + mu_d**2 / s_d,
    so the part that depends on the frame is one (N, M, 2D) x (N, 2D, T)
    product of [-1/(2 s), mu / s] with [o**2, o]. Frames and means are first
    centred on the state's mean of its component means: the terms of the
    expansion, and so its cancellation error, then grow with the spread of
    the state's components, not with their common offset. A frame whose
    square overflows gives inf - inf there; such a frame lies so far from
    every mean that its true density underflows, and it scores -inf, as the
    unexpanded form does.
    """
    if not isinstance(mixtures, GaussianMixture):
        mixtures = GaussianMixture.stack(mixtures)
    obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
    m, d = mixtures.n_components, mixtures.dim
    if obs.shape[1] != d:
        raise DataError(f"observation dim {obs.shape[1]} != mixture dim {d}")
    means = mixtures.means.reshape(-1, m, d)                  # (N, M, D)
    prec = 1.0 / mixtures.variances.reshape(-1, m, d)
    with np.errstate(divide="ignore"):
        logw = np.log(mixtures.weights.reshape(-1, m))
    centre = means.mean(axis=1, keepdims=True)                # (N, 1, D)
    means = means - centre
    const = logw - 0.5 * (np.sum(means * means * prec - np.log(prec), axis=2) + d * _LOG_2PI)
    coef = np.concatenate([-0.5 * prec, means * prec], axis=2)  # (N, M, 2D)
    powers = np.empty((len(means), 2 * d, obs.shape[0]))  # per state [x**2, x]
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(np.ascontiguousarray(obs.T), centre.transpose(0, 2, 1), out=powers[:, d:])
        np.square(powers[:, d:], out=powers[:, :d])
        comp = coef @ powers                                  # (N, M, T)
    comp += const[:, :, None]
    comp[np.isnan(comp)] = -np.inf
    return comp


def log_densities(mixtures, obs) -> np.ndarray:
    """(T, N) log densities of a stack of N mixtures at every frame of obs, a
    view of the state-major (N, T) table."""
    return logsumexp(component_table(mixtures, obs), axis=1).T
