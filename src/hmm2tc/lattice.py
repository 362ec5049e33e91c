"""Lattice engine shared by the first- and second-order models.

Every recursion runs over a stack of B first-order chains of S states each:
log initial rows (B, S), G transition matrices (G, S, S) for B = G * K
chains, chain b taking matrix b // K, and log-emission tables (B, R, S)
whose row r scores lattice row r. One (S, S) matrix that every chain shares
is the case G = 1, and one matrix per chain the case G = B. In a ragged
stack, `lengths` (B,) gives each chain its own number of rows; the rows
after it are padding, which no result depends on (lattices read -inf there,
posteriors and paths 0). A chain of length 0 has log-likelihood 0 and zero
posteriors and counts. Every function also takes a single chain, as an (S,)
initial row, an (S, S) matrix and an (R, S) table, and returns that chain's
results alone: it runs as a stack of one, on the same code.

A first-order HMM is a chain with S = N. A second-order HMM is the chain over
its N*N state pairs, with P[(i, j), (j, k)] = a3[i, j, k] (du Preez 1998,
order reduction). A stack may hold one utterance under each model of a bank
(G = B), or the training sequences of a bank's models, K to a model (the EM
loop's E-step): a model with fewer sequences fills its group with chains of
length 0. Each row's step is one (G, K, S) @ (G, S, S) product; the chains of
length 0 that end a group take no part in it, so that every group's product
has the shape, and BLAS's rounding, of a stack of that group alone.

One log-domain recursion, `_log_forward`, combines each state's
predecessors by log-sum-exp for the public forward pass and the log-domain
chains of `loglik` and the E-step, and by max for Viterbi (max-product).
The E-step runs in the probability domain with one scale per row (Rabiner
1989, sec. V.A) for each chain whose reachable states one scale per row
holds exactly. Each chain has its own scales, reachable set and test; the
chains that fail it run in the log domain as one smaller stack, and the
others stay scaled. `loglik`, which returns the likelihoods alone, keeps a
chain's scaled pass whenever a bound on what underflow can have lost stays
below 1e-12 of its likelihood. Viterbi ties break toward the lowest state
index, from the last frame back, and `viterbi_scores` gives the best scores
without the paths. The public backward pass runs in the log domain with
log-sum-exp over each state's successors, so that it stays exact for states
the forward pass cannot reach.

Inside the engine a stack's rows come first, (R, B, S), so that one row of
every chain is one contiguous block for the row-by-row recursions.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NumericError

# The scaled pass is kept when every reachable cell holds at least this share
# of its row's unnormalised mass (every factor is at most 1): each of its
# terms is then exact to far below 1e-16 relative, and no scaled backward
# value can overflow.
_TINY = 1e-280
_FLOAT_TINY = np.finfo(np.float64).tiny
# `loglik` keeps a scaled pass whose underflow can have cost at most this
# share of the likelihood.
LOGLIK_UNDERFLOW_TOL = 1e-12


def _log(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(p)


def logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(x))) along one axis, shifted by each line's own maximum."""
    # numpy takes the maximum over a short contiguous axis one line at a
    # time, and over the first axis of a copy one whole block at a time
    top = np.expand_dims(np.moveaxis(x, axis, 0).copy().max(axis=0), axis)
    top[top == -np.inf] = 0.0
    with np.errstate(divide="ignore"):
        return np.squeeze(top, axis) + np.log(np.exp(x - top).sum(axis=axis))


class _Chains(NamedTuple):
    """A stack in the engine's layout (`_stack`)."""

    log_init: np.ndarray   # (B, S)
    trans: np.ndarray      # (G, S, S); chain b takes trans[b // K], K = B // G
    logb: np.ndarray       # (R, B, S), padding rows -inf
    lengths: np.ndarray    # (B,)
    runs: tuple            # the products of one step (`_runs`)

    def some(self, idx: np.ndarray) -> "_Chains":
        """The stack of the chains idx, with one transition matrix each."""
        k = len(self.lengths) // len(self.trans)
        return _stack(self.log_init[idx], self.trans[idx // k], self.logb[:, idx],
                      self.lengths[idx])


def _stack(log_init, trans, logb, lengths) -> _Chains:
    """A stack in the engine's layout, with its runs of products."""
    g = len(trans)
    if len(lengths) % g:
        raise ValueError(f"{g} transition matrices cannot serve {len(lengths)} chains")
    return _Chains(log_init, trans, logb, lengths, _runs(lengths, g))


def _runs(lengths: np.ndarray, g: int) -> tuple:
    """The products of one step of a stack with g groups of chains:
    (first group, end group, n) for each run of consecutive groups that have
    n > 0 chains up to their last one of nonzero length."""
    filled = lengths.reshape(g, -1) > 0
    n = np.where(filled.any(axis=1), filled.shape[1] - np.argmax(filled[:, ::-1], axis=1), 0)
    cut = [0, *(np.flatnonzero(np.diff(n)) + 1), g]
    return tuple((int(a), int(b), int(n[a])) for a, b in zip(cut, cut[1:]) if n[a])


def _lift(log_init, logb):
    """Whether one chain was given, and the arguments as a stack."""
    log_init = np.asarray(log_init, dtype=np.float64)
    if log_init.ndim == 1:
        return True, log_init[None], np.asarray(logb)[None]
    return False, log_init, logb


def _chains(log_init, trans, logb, lengths=None) -> _Chains:
    """One chain's or a stack's arguments in the engine's layout."""
    _, log_init, logb = _lift(log_init, logb)
    table = np.array(np.swapaxes(logb, 0, 1), dtype=np.float64, order="C")
    rows, b = table.shape[:2]
    if lengths is None:
        lengths = np.full(b, rows)
    else:
        lengths = np.asarray(lengths, dtype=np.intp)
        table[np.arange(rows)[:, None] >= lengths] = -np.inf
    trans = np.asarray(trans, dtype=np.float64)
    return _stack(log_init, trans.reshape((-1,) + trans.shape[-2:]), table, lengths)


def _by_chain(x: np.ndarray) -> np.ndarray:
    """An (R, B, ...) engine array as (B, R, ...)."""
    return np.swapaxes(x, 0, 1)


def _one(single: bool, *outs):
    """outs as they are, or for one chain its part of each, a float for a
    per-chain number."""
    if single:
        outs = tuple(float(o[0]) if o.ndim == 1 else o[0] for o in outs)
    return outs if len(outs) > 1 else outs[0]


def _step(rows: np.ndarray, trans: np.ndarray, runs: tuple) -> np.ndarray:
    """Rows (..., B, S), one per chain, each times its chain's transitions
    (G, S, S): one (..., G, n, S) @ (G, S, S) product per run of groups
    (`_runs`), one in all when every group's last chain has rows. The rows of
    the chains of length 0 that end a group come out 0."""
    shape = rows.shape
    g, s = trans.shape[:2]
    k = shape[-2] // g
    view = rows.reshape(shape[:-2] + (g, k, s))
    if runs == ((0, g, k),):
        return np.matmul(view, trans).reshape(shape)
    out = np.zeros(view.shape, np.result_type(rows, trans))
    for a, b, n in runs:
        np.matmul(view[..., a:b, :n, :], trans[a:b], out=out[..., a:b, :n, :])
    return out.reshape(shape)


def _row_ends(lengths: np.ndarray) -> dict[int, np.ndarray]:
    """{row: the chains whose last row it is}."""
    last = lengths - 1
    return {int(r): np.flatnonzero(last == r) for r in np.unique(last)}


def _neighbours(trans: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """(P, B, S) tables of the predecessors of every state of each of the B
    chains that the matrices trans (G, S, S) serve, lowest index first, and
    their log transition probabilities; P is the largest in-degree and
    shorter lists are padded with -inf entries. Pass the transposed matrices
    for successors.

    Over these tables a recursion costs S * P per row: N**3 on the pair chain,
    where the dense (S, S) matrix has N**4 entries. Their first axis is P, so
    that a reduction over the predecessors combines P whole (B, S) blocks.
    """
    support = trans > 0
    width = max(int(support.sum(axis=-2).max()), 1)
    idx = np.argsort(~support, axis=-2, kind="stable")[..., :width, :]
    log_p = _log(np.take_along_axis(trans, idx, axis=-2))
    k = b // len(trans)
    return (np.repeat(np.moveaxis(idx, -2, 0), k, axis=1),
            np.repeat(np.moveaxis(log_p, -2, 0), k, axis=1))


def _flat(idx: np.ndarray) -> np.ndarray:
    """Neighbour tables (P, B, S) as indices into a flattened (B, S) row."""
    return idx + idx.shape[-1] * np.arange(idx.shape[1])[:, None]


def _support(c: _Chains) -> np.ndarray:
    """(R, B, S) mask of the lattice cells with a nonzero forward probability."""
    finite = c.logb > -np.inf
    within = (np.arange(len(finite))[:, None] < c.lengths)[..., None]
    step = c.trans > 0
    live = np.empty(finite.shape, dtype=bool)
    live[0] = (c.log_init > -np.inf) & finite[0]
    # when every row of every chain is finite, a row equal to the one before
    # repeats until its chain ends
    settled = np.array_equal(finite, np.broadcast_to(within, finite.shape))
    for r in range(1, len(finite)):
        live[r] = _step(live[r - 1], step, c.runs) & finite[r]
        if settled and np.array_equal(live[r], live[r - 1] & within[r]):
            live[r + 1:] = live[r] & within[r + 1:]
            break
    return live


class _Pass(NamedTuple):
    """A stack's forward pass with one scale per row (`_scaled_pass`)."""

    chains: _Chains
    ok: np.ndarray         # (B,) the chain keeps its scaled pass
    live: np.ndarray       # (R, B, S) reachable cells
    alpha: np.ndarray      # (R, B, S) normalised rows
    emit: np.ndarray       # (R, B, S) emission factors
    scale: np.ndarray      # (R, B) scale sums
    log_scale: np.ndarray  # (R, B)


def _scaled_pass(log_init, trans, logb, lengths=None) -> _Pass:
    """The forward pass with one scale per row, of a single chain (as a stack
    of one) or a stack. A chain is ok unless one of its rows with reachable
    cells sums to 0; the rows of a chain that is not are zero.

    Each chain's row r is shifted by its best emission among the states it
    can reach, so no factor exceeds 1 and the row's best state never
    underflows. A chain's rows after its first one with no reachable state
    are zero, and that row's log scale is -inf; padding rows are zero, with
    scale 1.
    """
    c = _chains(log_init, trans, logb, lengths)
    rows, b, s = c.logb.shape
    live = _support(c)
    reach = live.any(axis=2)
    end = np.where(reach.all(axis=0), rows, np.argmin(reach, axis=0))
    after = np.arange(rows)[:, None] >= end
    shift = np.where(live, c.logb, -np.inf).max(axis=2)
    shift[after] = 0.0
    emit = np.exp(np.minimum(c.logb - shift[..., None], 0.0))
    emit[after] = 0.0
    alpha = np.zeros((rows, b, s))
    scale = np.ones((rows, b))
    top = np.where(end > 0, c.log_init.max(axis=1), 0.0)
    pred = np.exp(c.log_init - top[:, None])
    # a row that sums to 0 turns its chain's later rows into NaN (0 / 0),
    # and only that chain's
    with np.errstate(invalid="ignore"):
        for r in range(int(end.max())):
            if r:
                pred = _step(alpha[r - 1], c.trans, c.runs)
            row = alpha[r]
            np.multiply(pred, emit[r], out=row)
            row /= np.add.reduce(row, axis=1, out=scale[r])[:, None]
    alpha[after] = 0.0
    scale[after] = 1.0
    ok = np.all(scale > 0, axis=0)
    alpha[:, ~ok] = 0.0
    scale[:, ~ok] = 1.0
    log_scale = shift + np.log(scale)
    log_scale[0] += top
    dead = np.flatnonzero(end < c.lengths)
    log_scale[end[dead], dead] = -np.inf
    return _Pass(c, ok, live, alpha, emit, scale, log_scale)


def _scaled_forward(log_init, trans, logb, lengths=None) -> _Pass:
    """`_scaled_pass`, in which a chain is ok only if one scale per row holds
    each of its reachable cells exactly."""
    fwd = _scaled_pass(log_init, trans, logb, lengths)
    held = (fwd.alpha * fwd.scale[..., None] >= _TINY) | ~fwd.live
    return fwd._replace(ok=fwd.ok & held.all(axis=(0, 2)))


def _log_forward(c: _Chains, reduce=np.logaddexp.reduce) -> np.ndarray:
    """Log forward lattice (R, B, S) by log-sum-exp over each state's
    predecessors; with reduce=np.maximum.reduce, the max-product lattice."""
    into, log_into = _neighbours(c.trans, len(c.lengths))
    flat = _flat(into)
    la = np.empty(c.logb.shape)
    la[0] = c.log_init + c.logb[0]
    for r in range(1, len(la)):
        cand = la[r - 1].take(flat)
        cand += log_into
        reduce(cand, axis=0, out=la[r])
        la[r] += c.logb[r]
    return la


def _last(la: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each chain's last row (B, S) of a lattice (R, B, S); 0 for a chain of length 0."""
    return np.where((lengths > 0)[:, None], la[lengths - 1, np.arange(len(lengths))], 0.0)


def _final(la: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each chain's log-likelihood from its log forward lattice (R, B, S); 0
    for a chain of length 0."""
    return np.where(lengths > 0, logsumexp(_last(la, lengths), axis=1), 0.0)


def _scaled_totals(log_scale: np.ndarray) -> np.ndarray:
    """The running sums (R, B) of each chain's log scales, row by row. (numpy
    sums the one column of a single chain pairwise, so `sum` would make a
    chain's likelihood depend on the stack it runs in.)"""
    return np.cumsum(log_scale, axis=0)


def forward(log_init, trans, logb, lengths=None):
    """Log forward lattices (B, R, S) and total log-likelihoods (B,), in the
    log domain."""
    single, log_init, logb = _lift(log_init, logb)
    c = _chains(log_init, trans, logb, lengths)
    la = _log_forward(c)
    return _one(single, _by_chain(la), _final(la, c.lengths))


def loglik(log_init, trans, logb, lengths=None):
    """Total log-likelihoods (B,), without the lattices: the scaled pass, and
    the log domain only for the chains on which a bound on what underflow can
    have lost exceeds LOGLIK_UNDERFLOW_TOL of the likelihood (`_underflow`)."""
    single, log_init, logb = _lift(log_init, logb)
    fwd = _scaled_pass(log_init, trans, logb, lengths)
    ll = _scaled_totals(fwd.log_scale)[-1]
    keep = fwd.ok & ((ll == -np.inf) | (_underflow(fwd) <= LOGLIK_UNDERFLOW_TOL))
    redo = np.flatnonzero(~keep)
    if redo.size:
        some = fwd.chains.some(redo)
        ll[redo] = _final(_log_forward(some), some.lengths)
    return _one(single, ll)


def _underflow(fwd: _Pass) -> np.ndarray:
    """A bound (B,) on the share of each chain's likelihood that underflow
    can have cost its scaled pass.

    Rounding aside, the scaled pass loses only what its operations lose to
    underflow, at most tiny (the smallest normal double) each; with gradual
    underflow a sum loses nothing, since a sum that underflows is exact. Let
    c_r be row r's scale sum: c_r <= 1 for r >= 1, since the predecessor mass
    of a row sums to 1 and no emission factor exceeds 1, and c_0 <= S. A
    cell is dirty when an operation that made it may have given a result
    below tiny: its value lies below _TINY before or after the division by
    c_r, or one of the products in its predecessor sum may lie below tiny.
    A dirty cell of the normalised row r is off by at most
    e_r = (S + 2) tiny / c_r: S products, the emission factor with its
    product, and the division. An error e in cell (r, j) moves the
    likelihood by e * beta_r(j) relative to it, where beta_r(j) is the
    backward value in the scale of the normalised rows. Since
    sum_j alpha_r(j) beta_r(j) = 1, beta_r(j) <= 1 / alpha_r(j); and since
    every later row multiplies the one before by a row-stochastic matrix and
    by factors in [0, 1], beta_r(j) <= 1 / prod_{r' > r} c_r'. So the
    likelihood's relative loss is at most, to first order,

        sum over dirty cells (r, j) of
            e_r * min(1 / (alpha_r(j) - e_r), 1 / prod_{r' > r} c_r').

    A state that underflows and later carries the likelihood (one that
    revives) leaves the rows after it with small scale sums, so the bound
    grows with the loss it has to cover.
    """
    alpha, scale, c = fwd.alpha, fwd.scale, fwd.chains
    smallest = np.where(alpha > 0, alpha, np.inf).min(axis=2)
    dirty = np.minimum(alpha, alpha * scale[..., None]) < _TINY
    dirty[0] &= fwd.live[0]
    least_in = np.where(c.trans > 0, c.trans, np.inf).min(axis=-2)
    least_in = np.repeat(least_in, len(c.lengths) // len(c.trans), axis=0)
    dirty[1:] |= smallest[:-1, :, None] * least_in < _FLOAT_TINY
    dirty[1:] &= (_step(alpha[:-1] > 0, c.trans, c.runs) > 0) & (c.logb[1:] > -np.inf)
    if not dirty.any():
        return np.zeros(alpha.shape[1])
    err = (alpha.shape[2] + 2) * _FLOAT_TINY / scale[..., None]
    log_c = np.log(scale)
    after = np.cumsum(log_c[::-1], axis=0)[::-1] - log_c  # log prod_{r' > r} c_r'
    with np.errstate(divide="ignore", over="ignore"):
        gain = np.minimum(1.0 / np.maximum(alpha - err, 0.0), np.exp(-after)[..., None])
    return np.where(dirty, err * gain, 0.0).sum(axis=(0, 2))


def backward(trans, logb, lengths=None) -> np.ndarray:
    """Log backward lattices (B, R, S); each chain's last row is identically 0.

    Each state's sum over its successors runs in the log domain
    (`np.logaddexp`), so every finite beta stays finite whatever the other
    states score.
    """
    single, log_init, logb = _lift(np.zeros(np.shape(logb)[:-2] + np.shape(logb)[-1:]), logb)
    return _one(single, _by_chain(_backward(_chains(log_init, trans, logb, lengths))))


def _backward(c: _Chains) -> np.ndarray:
    """Log backward lattice (R, B, S); padding rows are -inf."""
    succ, log_succ = _neighbours(np.swapaxes(c.trans, -1, -2), len(c.lengths))
    flat = _flat(succ)
    ends = _row_ends(c.lengths)
    lb = np.zeros(c.logb.shape)
    lb[-1:, c.lengths < len(lb)] = -np.inf
    for r in range(len(lb) - 1, 0, -1):
        np.logaddexp.reduce(log_succ + (c.logb[r] + lb[r]).take(flat), axis=0, out=lb[r - 1])
        if r - 1 in ends:
            lb[r - 1, ends[r - 1]] = 0.0
    return lb


def estep(log_init, trans, logb, lengths=None):
    """State posteriors (B, R, S), expected transition counts (B, S, S)
    summed over each chain's rows, and log-likelihoods (B,).

    After a scaled forward pass the backward pass reuses its scales, and
    states the forward pass did not reach keep beta = 0: their posteriors are
    0 either way, and a zero keeps their unscaled betas from overflowing into
    the reachable ones. The chains the scaled pass cannot hold run the whole
    E-step in the log domain. Raises NumericError when a chain's likelihood
    is not finite.
    """
    single, log_init, logb = _lift(log_init, logb)
    fwd = _scaled_forward(log_init, trans, logb, lengths)
    ll = _scaled_totals(fwd.log_scale)[-1]
    _training_ll(ll[fwd.ok])
    gamma, counts = _scaled_estep(fwd)
    redo = np.flatnonzero(~fwd.ok)
    if redo.size:
        gamma[:, redo], counts[redo], ll[redo] = _log_estep(fwd.chains.some(redo))
    return _one(single, _by_chain(gamma), counts, ll)


def _scaled_estep(fwd: _Pass):
    """Posteriors (R, B, S) and transition counts (B, S, S) of a scaled pass;
    those of the chains that are not ok are 0."""
    c, alpha = fwd.chains, fwd.alpha
    live = alpha > 0
    beta = np.ones_like(alpha)
    weights = fwd.emit / fwd.scale[..., None]  # row r becomes emit_r * beta_r / scale_r
    back = np.ascontiguousarray(np.swapaxes(c.trans, -1, -2))
    ends = _row_ends(c.lengths)
    for r in range(len(alpha) - 1, 0, -1):
        weights[r] *= beta[r]
        np.multiply(_step(weights[r], back, c.runs), live[r - 1], out=beta[r - 1])
        if r - 1 in ends:
            beta[r - 1, ends[r - 1]] = 1.0
    flow = np.matmul(alpha[:-1].transpose(1, 2, 0), weights[1:].transpose(1, 0, 2))
    g, s = c.trans.shape[:2]
    return alpha * beta, (c.trans[:, None] * flow.reshape(g, -1, s, s)).reshape(flow.shape)


def _log_estep(c: _Chains):
    """`estep` in the log domain, in the engine's layout."""
    la = _log_forward(c)
    ll = _training_ll(_final(la, c.lengths))
    lb = _backward(c)
    b, s = c.log_init.shape
    succ, log_succ = _neighbours(np.swapaxes(c.trans, -1, -2), b)
    flat = _flat(succ)
    acc = np.zeros(flat.shape)
    for r in range(1, len(la)):
        acc += np.exp(la[r - 1] + log_succ + (c.logb[r] + lb[r] - ll[:, None]).take(flat))
    counts = np.zeros((b, s, s))
    counts[np.arange(b)[:, None], np.arange(s), succ] = acc
    return np.exp(la + lb - ll[:, None]), counts, ll


def _training_ll(ll: np.ndarray) -> np.ndarray:
    bad = ll[~np.isfinite(ll)]
    if bad.size:
        raise NumericError(f"training sequence has log-likelihood {bad[0]}")
    return ll


def viterbi(log_init, trans, logb, lengths=None):
    """Most likely state sequences (B, R) and their log scores (B,). A chain
    with no admissible path scores -inf; a single chain raises NumericError.

    Ties break toward the lowest state index, from each chain's last row
    back: that row's lowest-index best state, then at each row back the
    lowest-index best predecessor of the state chosen after it, compared on
    its best score plus the transition.
    """
    single, log_init, logb = _lift(log_init, logb)
    c = _chains(log_init, trans, logb, lengths)
    delta = _log_forward(c, np.maximum.reduce)
    final = _last(delta, c.lengths)
    rows, b, s = c.logb.shape
    chains = np.arange(b)
    best = final.argmax(axis=1)
    score = final[chains, best]
    if single and score[0] == -np.inf:
        raise NumericError("no admissible state path for this observation sequence")
    # each cell's best predecessor is its lowest p that reaches the maximum,
    # the one argmax picks, for all rows at once
    into, log_into = _neighbours(c.trans, b)
    cand = delta[:-1].reshape(rows - 1, b * s).take(_flat(into), axis=1)
    cand += log_into
    back = np.zeros((rows, b, s), dtype=np.intp)
    back[1:] = np.argmax(cand == cand.max(axis=1, keepdims=True), axis=1)
    ends = _row_ends(c.lengths)
    path = np.zeros((rows, b), dtype=np.intp)
    state = np.zeros(b, dtype=np.intp)
    for r in range(rows - 1, -1, -1):
        if r in ends:
            state[ends[r]] = best[ends[r]]
        path[r] = state
        if r:
            state = into[back[r, chains, state], chains, state]
    path[np.arange(rows)[:, None] >= c.lengths] = 0
    return _one(single, path.T, score)


def viterbi_scores(log_init, trans, logb, lengths=None):
    """The log scores (B,) of `viterbi`'s paths, without the paths; -inf for
    a chain with no admissible path."""
    single, log_init, logb = _lift(log_init, logb)
    c = _chains(log_init, trans, logb, lengths)
    return _one(single, _last(_log_forward(c, np.maximum.reduce), c.lengths).max(axis=1))
