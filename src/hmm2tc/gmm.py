"""Diagonal-covariance Gaussian mixture emission densities.

A `GaussianMixture` is one mixture or a stack of N mixtures of one shape with
a leading state axis, Rabiner's (1989, sec. VI) c_jm, mu_jm and U_jm: every
model holds its emission as one stack, and a bank's stacked models hold one
stack of B * N mixtures under a (B, N) lead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .lattice import logsumexp

_LOG_2PI = np.log(2.0 * np.pi)
WEIGHT_TOL = 1e-10
# The largest ratio |mu - c| / sqrt(s), in any dimension, of a component
# mean mu, variance s, to its state's mean c of its component means, for
# which `component_table` expands the exponent; a state with a component
# past it is scored by the direct form. Near such a component the expanded
# exponent adds terms of about the ratio squared in each dimension, each
# rounded to 2.2e-16 relative, so its error grows as D * ratio**2 * 2.2e-16:
# 3.5e-7 nats at 1e4 in 16 dimensions.
# Against the direct form, 300 random 16-dimensional states per ratio range
# gave worst errors of 6e-8 nats at ratios 1e3-4.4e3, 6e-7 at 3e3-1.5e4 and
# 7.6e-6 at 1e4-4.6e4.
MEAN_SPREAD = 1e4


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

    def __iter__(self):
        """The per-state mixtures of a stack, views of its arrays."""
        return map(GaussianMixture.from_checked, self.weights, self.means, self.variances)

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
    the state's components, not with their common offset. A state with a
    component more than MEAN_SPREAD of its standard deviations from that
    centre, in some dimension, is scored instead by the direct form
    sum_d (o_d - mu_d)**2 / s_d, whose error does not grow with the spread
    (`_direct_table`). A frame whose square overflows gives inf - inf in the
    expansion; such a frame lies so far from every mean that its true
    density underflows, and it scores -inf, as the direct form does.
    """
    if not isinstance(mixtures, GaussianMixture):
        mixtures = GaussianMixture.stack(mixtures)
    obs = np.atleast_2d(np.asarray(obs, dtype=np.float64))
    m, d = mixtures.n_components, mixtures.dim
    if obs.shape[1] != d:
        raise DataError(f"observation dim {obs.shape[1]} != mixture dim {d}")
    raw = mixtures.means.reshape(-1, m, d)                    # (N, M, D)
    prec = 1.0 / mixtures.variances.reshape(-1, m, d)
    with np.errstate(divide="ignore"):
        logw = np.log(mixtures.weights.reshape(-1, m))
    # a far mean, or a far frame, may overflow here; see above
    with np.errstate(over="ignore", invalid="ignore"):
        centre = raw.mean(axis=1, keepdims=True)              # (N, 1, D)
        means = raw - centre
        spread = means * means * prec                         # each ratio to the centre, squared
        const = logw - 0.5 * (np.sum(spread - np.log(prec), axis=2) + d * _LOG_2PI)
        coef = np.concatenate([-0.5 * prec, means * prec], axis=2)  # (N, M, 2D)
        powers = np.empty((len(means), 2 * d, obs.shape[0]))  # per state [x**2, x]
        np.subtract(np.ascontiguousarray(obs.T), centre.transpose(0, 2, 1), out=powers[:, d:])
        np.square(powers[:, d:], out=powers[:, :d])
        comp = coef @ powers                                  # (N, M, T)
        comp += const[:, :, None]
    if not spread.max(initial=0.0) <= MEAN_SPREAD ** 2:      # NaN fails too
        for i in np.flatnonzero(~(spread.max(axis=(1, 2)) <= MEAN_SPREAD ** 2)):
            comp[i] = _direct_table(logw[i], raw[i], prec[i], obs)
    comp[np.isnan(comp)] = -np.inf
    return comp


def _direct_table(logw, means, prec, obs) -> np.ndarray:
    """(M, T) weighted component log densities of one state's mixture, from
    each frame's difference to each component mean."""
    quad = np.empty((len(means), len(obs)))
    with np.errstate(over="ignore", invalid="ignore"):   # a square past the largest float is inf
        for row, mu, p in zip(quad, means, prec):
            row[:] = np.square(obs - mu) @ p
    return logw[:, None] - 0.5 * (quad - np.log(prec).sum(axis=1)[:, None] + len(prec[0]) * _LOG_2PI)


def log_densities(mixtures, obs) -> np.ndarray:
    """(T, N) log densities of a stack of N mixtures at every frame of obs, a
    view of the state-major (N, T) table."""
    return logsumexp(component_table(mixtures, obs), axis=1).T
