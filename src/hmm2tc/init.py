"""Flat-start initialization of a bank of models: linear segmentation, then
k-means per state, run for all of the bank's labels at once (`flat_start`).

Each sequence is cut into N equal segments, segment j feeding state j. For
state j, every label's state-j frames go into one zero-padded (L, T, D)
stack with a validity mask, and ten Lloyd iterations run on the whole stack.
Distances to the M centres come from one batched matmul as ||c||^2 - 2 x.c
(||x||^2 does not change the argmin); a frame whose two nearest centres lie
within that form's rounding bound, or whose distances overflow in it, is
ranked again by the direct sum((x - c)^2), so every frame goes to the
centre the direct form picks.
Centre sums, counts and the final scatter are per-cluster sums taken in
frame order (`np.bincount`), as numpy sums one cluster's rows: a BLAS
product would add them in an order that depends on the padded length, so a
label's mixtures would depend on the rest of its bank.

Label i draws from its own `default_rng(seed + i)`: per state, `rng.choice`
for the M starting centres, then one `rng.integers` for each cluster that an
iteration leaves empty (it restarts at a random frame of the label's state),
in iteration and component order.
"""

from __future__ import annotations

import numpy as np

from .config import frames_of, variance_floor
from .em import _allowed
from .errors import DataError
from .gmm import GaussianMixture
from .hmm1 import Hmm1Model
from .hmm2 import Hmm2Model, lift_hmm1

_LLOYD_ITERATIONS = 10


def _nearest(xt: np.ndarray, sq_norms: np.ndarray, valid: np.ndarray,
             centers: np.ndarray) -> np.ndarray:
    """(L, T) index of each frame's nearest centre, lowest index on ties, as
    the direct form sum((x - c)^2) ranks them. xt: (L, D, T) frames, with
    squared norms and validity mask (L, T); centers: (L, M, D)."""
    # Either form is within (D + 3) eps (|x| + |c|)^2 <= 2 (D + 3) eps
    # (|x|^2 + |c|^2) of the exact distance, so the direct form ranks two
    # centres as this one does when they differ here by more than four such
    # errors. tol is twice that (plus the smallest normal, for underflow); a
    # frame with another centre within tol of its nearest is ranked again,
    # and so is one whose distances or tol overflow here.
    tie = 16 * (xt.shape[1] + 3) * np.finfo(np.float64).eps
    with np.errstate(over="ignore", invalid="ignore"):
        cc = (centers ** 2).sum(axis=-1)
        dist = cc[..., None] - 2.0 * (centers @ xt)   # (L, M, T)
        tol = tie * sq_norms + tie * cc.max(axis=-1, keepdims=True) + np.finfo(np.float64).tiny
        near = dist - dist.min(axis=1, keepdims=True) <= tol[:, None, :]
        sure = (near.sum(axis=1) == 1) & np.isfinite(dist.sum(axis=1) + tol)
    best = near.argmax(axis=1)
    lab, row = np.nonzero(~sure & valid)
    if lab.size:
        direct = ((xt[lab, :, row][:, None, :] - centers[lab]) ** 2).sum(axis=-1)
        best[lab, row] = direct.argmin(axis=-1)
    return best


def _cluster_sums(slots: np.ndarray, values: np.ndarray, n_slots: int) -> np.ndarray:
    """(n_slots, D) sums of the (n, D) rows of values by their slot, each sum
    taken in row order from 0.0, as numpy sums the rows of one cluster."""
    dim = values.shape[1]
    flat = (slots[:, None] * dim + np.arange(dim)).ravel()
    return np.bincount(flat, weights=values.ravel(),
                       minlength=n_slots * dim).reshape(n_slots, dim)


def _lloyd(data: list[np.ndarray], n_comp: int, rngs: list, floors: np.ndarray):
    """Weights (L, M), means and variances (L, M, D) of the k-means mixtures
    of L labels' frames of one state, data[i] (n_i, D), each n_i >= M.
    Cluster m of label i is slot i * M + m."""
    sizes = np.array([len(d) for d in data])
    valid = np.arange(sizes.max()) < sizes[:, None]
    frames = np.concatenate(data)
    x = np.zeros(valid.shape + frames.shape[1:])
    x[valid] = frames
    xt = x.transpose(0, 2, 1).copy()
    with np.errstate(over="ignore"):   # an infinite norm sends its frame to the direct form
        sq_norms = (x ** 2).sum(axis=-1)
    first_slot = np.repeat(np.arange(len(data)) * n_comp, sizes)
    n_slots = len(data) * n_comp
    centers = np.stack([d[rng.choice(len(d), size=n_comp, replace=False)]
                        for d, rng in zip(data, rngs)])
    for _ in range(_LLOYD_ITERATIONS):
        slots = first_slot + _nearest(xt, sq_norms, valid, centers)[valid]
        counts = np.bincount(slots, minlength=n_slots)
        sums = _cluster_sums(slots, frames, n_slots)
        centers = (sums / np.maximum(counts, 1)[:, None]).reshape(centers.shape)
        for i, m in zip(*np.divmod(np.flatnonzero(counts == 0), n_comp)):
            centers[i, m] = data[i][rngs[i].integers(sizes[i])]
    scatter = _cluster_sums(slots, (frames - centers.reshape(n_slots, -1)[slots]) ** 2, n_slots)
    weights = np.maximum(counts, 1)
    variances = (scatter / weights[:, None]).reshape(centers.shape)
    weights = weights.reshape(-1, n_comp)
    return (weights / weights.sum(axis=1, keepdims=True), centers,
            np.maximum(variances, floors[:, None, :]))


def flat_start(training_sets: dict[str, list], order: int, n_states: int, n_comp: int,
               topology: str = "left-right", seed: int = 0) -> list[Hmm1Model | Hmm2Model]:
    """One flat-started model of the given order per label, in label order:
    uniform topology-allowed transitions and the k-means emission stack of
    the label's frames. Label i takes seed + i. A label without sequences,
    or with a state that gets fewer frames than mixture components, raises
    DataError naming it."""
    if n_states < 1 or n_comp < 1:
        raise DataError("state and mixture counts must be >= 1")
    corpora = [[frames_of(o) for o in seqs] for seqs in training_sets.values()]
    by_state = []   # [label][state] -> that label's frames of the state
    for label, mats in zip(training_sets, corpora):
        if not mats:
            raise DataError(f"condition {label!r} has no training sequences")
        frames = np.concatenate(mats)
        assign = np.concatenate([np.minimum((np.arange(len(mat)) * n_states) // len(mat),
                                            n_states - 1) for mat in mats])
        by_state.append([frames[assign == j] for j in range(n_states)])
        for j, data in enumerate(by_state[-1]):
            if len(data) < n_comp:
                raise DataError(f"condition {label!r} state {j}: {len(data)} frames for "
                                f"{n_comp} mixture components")
    rngs = [np.random.default_rng(seed + i) for i in range(len(corpora))]
    floors = np.stack([variance_floor(mats) for mats in corpora])
    stacks = [_lloyd([states[j] for states in by_state], n_comp, rngs, floors)
              for j in range(n_states)]
    weights, means, variances = (np.stack(part, axis=1) for part in zip(*stacks))
    allowed = _allowed(n_states, topology)
    models = [Hmm1Model(np.full(n_states, 1.0 / n_states),
                        allowed / allowed.sum(axis=1, keepdims=True),
                        GaussianMixture(w, mu, var), topology)
              for w, mu, var in zip(weights, means, variances)]
    return models if order == 1 else [lift_hmm1(model) for model in models]


def init_hmm2(corpus, n_states: int, n_comp: int, topology: str = "ergodic",
              seed: int = 0) -> Hmm2Model:
    """The order-1 flat start, lifted: a3[i, j, k] = a[j, k] for every i."""
    return flat_start({"": corpus}, 2, n_states, n_comp, topology, seed)[0]
