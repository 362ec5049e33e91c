"""Flat-start initialization: linear segmentation plus per-state k-means."""

from __future__ import annotations

import numpy as np

from .config import frames_of, variance_floor
from .errors import DataError
from .gmm import GaussianMixture
from .hmm1 import Hmm1Model
from .hmm2 import Hmm2Model, lift_hmm1


def _kmeans(data: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Ten plain Lloyd iterations with seeded random-frame init; returns (centers, labels)."""
    n = data.shape[0]
    centers = data[rng.choice(n, size=k, replace=False)].copy()
    labels = np.zeros(n, dtype=np.intp)
    for _ in range(10):
        dist = np.sum((data[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        labels = np.argmin(dist, axis=1)
        for m in range(k):
            sel = labels == m
            if not np.any(sel):
                centers[m] = data[rng.integers(n)]
            else:
                centers[m] = data[sel].mean(axis=0)
    return centers, labels


def _state_mixtures(mats, n_states: int, n_comp: int, rng: np.random.Generator,
                    floor: np.ndarray) -> GaussianMixture:
    frames = np.concatenate(mats)
    assign = np.concatenate([np.minimum((np.arange(len(mat)) * n_states) // len(mat), n_states - 1)
                             for mat in mats])
    weights = np.zeros((n_states, n_comp))
    means = np.empty((n_states, n_comp, frames.shape[1]))
    variances = np.empty_like(means)
    for j in range(n_states):
        data = frames[assign == j]
        if data.shape[0] < n_comp:
            raise DataError("not enough frames for the requested state/mixture counts")
        means[j], labels = _kmeans(data, n_comp, rng)
        for m in range(n_comp):
            sel = labels == m
            weights[j, m] = max(int(np.sum(sel)), 1)
            scatter = data[sel] - means[j, m] if np.any(sel) else np.zeros((1, data.shape[1]))
            variances[j, m] = np.maximum((scatter ** 2).mean(axis=0), floor)
    return GaussianMixture(weights / weights.sum(axis=1, keepdims=True), means, variances)


def init_hmm1(corpus, n_states: int, n_comp: int, topology: str = "ergodic",
              seed: int = 0) -> Hmm1Model:
    """Uniform topology-allowed transitions, k-means emission flat start."""
    if not corpus:
        raise DataError("corpus is empty")
    if n_states < 1 or n_comp < 1:
        raise DataError("state and mixture counts must be >= 1")
    mats = [frames_of(o) for o in corpus]
    if sum(m.shape[0] for m in mats) < n_states * n_comp:
        raise DataError("fewer total frames than states x mixtures")
    rng = np.random.default_rng(seed)
    mixtures = _state_mixtures(mats, n_states, n_comp, rng, variance_floor(mats))
    allowed = np.ones((n_states, n_states))
    if topology == "left-right":
        allowed = np.triu(allowed)
    return Hmm1Model(np.full(n_states, 1.0 / n_states),
                     allowed / allowed.sum(axis=1, keepdims=True), mixtures, topology)


def init_hmm2(corpus, n_states: int, n_comp: int, topology: str = "ergodic",
              seed: int = 0) -> Hmm2Model:
    """The order-1 flat start, lifted: a3[i, j, k] = a[j, k] for every i."""
    return lift_hmm1(init_hmm1(corpus, n_states, n_comp, topology, seed))
