"""Flat-start initialization of a bank of models (`flat_start`): linear
segmentation, then k-means for every (label, state) group of the bank in one
Lloyd (1982) loop.

Each sequence is cut into N equal segments, segment j feeding state j, and
group g = i * N + j holds label i's state-j frames in frame order. The
G = L * N groups go into one zero-padded stack, dimension-major (D, G, T) so
that each dimension's values of all the frames are one contiguous row, and
ten Lloyd iterations run on the whole stack. Each iteration writes the
(G, M, T) distances to the M centres into one buffer of the call, from one
batched matmul as ||c||^2 - 2 x.c (||x||^2 does not change the argmin); a
frame whose two nearest centres lie within that form's rounding bound, or
whose distances overflow in it, is ranked again by the direct
sum((x - c)^2), so every frame goes to the centre the direct form picks.
Every reduction over the centres runs over the (G, T) planes of the
distances. Centre sums, counts and the final scatter are per-cluster sums
taken in frame order (`np.bincount`, one per dimension), as numpy sums one
cluster's rows: a BLAS product would add them in an order that depends on
the padded length, so a label's mixtures would depend on the rest of its
bank.

Label i draws from its own `default_rng(seed + i)`: first one `rng.choice`
for the M starting centres of each of its states, in state order; then, in
each iteration, one `rng.integers` for each of its clusters that the
iteration leaves empty (it restarts at a random frame of its group), in
state and component order. A label none of whose states but the last
empties a cluster draws what a state-by-state k-means would draw, one
state's starting centres and then its reseeds before the next state's.
"""

from __future__ import annotations

import numpy as np

from .em import _allowed, corpora
from .errors import DataError
from .hmm1 import Hmm1Model
from .hmm2 import Hmm2Model

_LLOYD_ITERATIONS = 10


def _nearest(xt: np.ndarray, sq_norms: np.ndarray, valid: np.ndarray,
             centers: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """(G, T) index of each frame's nearest centre, lowest index on ties, as
    the direct form sum((x - c)^2) ranks them. xt: (G, D, T) frames, with
    squared norms and validity mask (G, T); centers: (G, M, D); dist: the
    (G, M, T) buffer that the distances go to."""
    # Either form is within (D + 3) eps (|x| + |c|)^2 <= 2 (D + 3) eps
    # (|x|^2 + |c|^2) of the exact distance, so the direct form ranks two
    # centres as this one does when they differ here by more than four such
    # errors. tol is twice that (plus the smallest normal, for underflow); a
    # frame with another centre within tol of its nearest is ranked again,
    # and so is one whose distances or tol overflow here. Rounding the bound
    # nearest + tol moves it by under 1% of tol.
    tie = 16 * (xt.shape[1] + 3) * np.finfo(np.float64).eps
    with np.errstate(over="ignore", invalid="ignore"):
        cc = (centers ** 2).sum(axis=-1)
        np.matmul(-2.0 * centers, xt, out=dist)
        dist += cc[..., None]
        bound = dist.min(axis=1)
        bound += tie * sq_norms
        bound += tie * cc.max(axis=-1, keepdims=True) + np.finfo(np.float64).tiny
        finite = np.isfinite(dist.max(axis=1) + bound)
        np.less_equal(dist, bound[:, None], out=dist)   # 1 at each centre near the nearest
    # per frame, how many centres are near and the sum of their indices: a
    # frame with one near centre is sure of it
    count, index = np.matmul(np.stack([np.ones(len(cc[0])), np.arange(len(cc[0]))]), dist
                             ).transpose(1, 0, 2)
    sure = (count == 1) & finite
    best = index.astype(np.intp)
    redo = valid & ~sure
    if redo.any():
        group, frame = np.nonzero(redo)
        direct = ((xt[group, :, frame][:, None, :] - centers[group]) ** 2).sum(axis=-1)
        best[group, frame] = direct.argmin(axis=-1)
    return best


def _cluster_sums(slots: np.ndarray, rows, n_slots: int) -> np.ndarray:
    """(n_slots, D) per-cluster sums of a value of each frame of the stack,
    given as D rows, one per dimension, over the frames in the order of
    their (G, T) slots: each sum taken in frame order from 0.0, as numpy
    sums the rows of one cluster. The padding's slot, n_slots, is dropped."""
    flat = slots.ravel()
    return np.stack([np.bincount(flat, weights=row, minlength=n_slots + 1)[:n_slots]
                     for row in rows], axis=1)


def _lloyd(xd: np.ndarray, sizes: np.ndarray, n_comp: int, rngs: list, floors: np.ndarray):
    """Weights (G, M), means and variances (G, M, D) of the k-means mixtures
    of G groups of frames: group g has sizes[g] >= M frames, first on the
    last axis of xd[:, g] in the (D, G, T) stack xd, the variance floor
    floors[g] and the generator rngs[g]. Cluster m of group g is slot
    g * M + m, and every padding frame goes to slot G * M."""
    dim, n_groups, t_max = xd.shape
    xt = xd.transpose(1, 0, 2)   # (G, D, T), the matmul's layout
    n_slots = n_groups * n_comp
    valid = np.arange(t_max) < sizes[:, None]
    first_slot = np.where(valid, np.arange(0, n_slots, n_comp)[:, None], n_slots)
    with np.errstate(over="ignore"):   # an infinite norm sends its frame to the direct form
        sq_norms = np.einsum("dgt,dgt->gt", xd, xd)
    centers = np.stack([xt[g, :, rng.choice(size, size=n_comp, replace=False)]
                        for g, (size, rng) in enumerate(zip(sizes, rngs))])
    rows = xd.reshape(dim, -1)
    dist = np.empty((n_groups, n_comp, t_max))
    slots = np.empty((n_groups, t_max), dtype=np.intp)
    for _ in range(_LLOYD_ITERATIONS):
        np.multiply(_nearest(xt, sq_norms, valid, centers, dist), valid, out=slots)
        slots += first_slot
        counts = np.bincount(slots.ravel(), minlength=n_slots + 1)[:n_slots]
        centers = (_cluster_sums(slots, rows, n_slots)
                   / np.maximum(counts, 1)[:, None]).reshape(centers.shape)
        for slot in np.flatnonzero(counts == 0):
            g, m = divmod(slot, n_comp)
            centers[g, m] = xt[g, :, rngs[g].integers(sizes[g])]
    # (D, G * M + 1): each cluster's mean in each dimension, the padding's slot reading 0
    means = np.concatenate([centers.reshape(n_slots, dim), np.zeros((1, dim))]).T
    flat = slots.ravel()
    scatter = _cluster_sums(slots, ((row - mean[flat]) ** 2 for row, mean in zip(rows, means)),
                            n_slots)
    weights = np.maximum(counts, 1)
    variances = (scatter / weights[:, None]).reshape(centers.shape)
    weights = weights.reshape(-1, n_comp)
    return (weights / weights.sum(axis=1, keepdims=True), centers,
            np.maximum(variances, floors[:, None, :]))


def _groups(bank: list, states: list, sizes: np.ndarray) -> np.ndarray:
    """The zero-padded (D, G, T) stack of the bank's (label, state) groups,
    group i * N + j holding the frames of label i's state j, states[i]
    giving each of its frames' state, in frame order, and sizes each
    group's size."""
    xd = np.zeros((bank[0].frames.shape[1], len(sizes), sizes.max()))
    for i, (c, state, own) in enumerate(zip(bank, states, sizes.reshape(len(bank), -1))):
        order = np.argsort(state, kind="stable")
        group = state[order]
        xd[:, i * len(own) + group, np.arange(len(order)) - (np.cumsum(own) - own)[group]] = \
            c.frames[order].T
    return xd


def flat_start(training_sets, order: int, n_states: int, n_comp: int,
               topology: str = "left-right", seed: int = 0) -> list[Hmm1Model | Hmm2Model]:
    """One flat-started model of the given order per label, in label order:
    uniform topology-allowed transitions and the k-means emission stack of
    the label's frames. training_sets maps each label to its sequences, or
    is their `em.corpora`, which checks their shapes. Label i takes
    seed + i. An order other than 1 or 2, input that `em.corpora` refuses,
    a label of fewer frames than N, checked before any (N,) array is made,
    or a label with a state that gets fewer frames than mixture components
    (as a label of fewer than N * M frames has), raises DataError naming it.
    The models' checks run once over the bank (`StateModel.bank`); no
    frame's values are checked, so a frame whose squared norm overflows is
    ranked by the direct form."""
    if order not in (1, 2):
        raise DataError(f"unsupported model order {order}")
    if n_states < 1 or n_comp < 1:
        raise DataError("state and mixture counts must be >= 1")
    bank = corpora(training_sets)
    for c in bank:
        if n_states > len(c.frames):
            raise DataError(f"condition {c.label!r}: {len(c.frames)} frames for "
                            f"{n_states} states")
    # segment j of each sequence, cut into N equal segments, feeds state j
    states = [c.time * n_states // np.repeat(c.lengths, c.lengths) for c in bank]
    sizes = np.concatenate([np.bincount(state, minlength=n_states) for state in states])
    short = np.flatnonzero(sizes < n_comp)
    if short.size:
        label, state = divmod(int(short[0]), n_states)
        raise DataError(f"condition {bank[label].label!r} state {state}: "
                        f"{sizes[short[0]]} frames for {n_comp} mixture components")
    xd = _groups(bank, states, sizes)
    rngs = [np.random.default_rng(seed + i) for i in range(len(bank))]
    floors = np.repeat([c.floor for c in bank], n_states, axis=0)
    mixtures = _lloyd(xd, sizes, n_comp, [rng for rng in rngs for _ in range(n_states)], floors)
    shape = (len(bank), n_states)
    allowed = _allowed(n_states, topology)
    trans = np.repeat((allowed / allowed.sum(axis=1, keepdims=True))[None], len(bank), axis=0)
    arrays = [np.full(shape, 1.0 / n_states), trans]
    if order == 2:   # the lift of the first-order start (`hmm2.lift_hmm1`): a3[i, j, k] = a[j, k]
        arrays.append(np.repeat(trans[:, None], n_states, axis=1))
    cls = Hmm1Model if order == 1 else Hmm2Model
    return cls.bank(arrays, [x.reshape(shape + x.shape[1:]) for x in mixtures], topology)


def init_hmm2(corpus, n_states: int, n_comp: int, topology: str = "ergodic",
              seed: int = 0) -> Hmm2Model:
    """The order-1 flat start, lifted: a3[i, j, k] = a[j, k] for every i."""
    return flat_start({"": corpus}, 2, n_states, n_comp, topology, seed)[0]
