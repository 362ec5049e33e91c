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
the state pairs its topology allows, with P[(i, j), (j, k)] = a3[i, j, k]
(du Preez 1998, order reduction); which pairs those are is the model's
business (`hmm2._pairs`), not the engine's, which sees S states and their
transitions alone. A stack may hold one utterance under each model of a bank
(G = B), or the training sequences of a bank's models, K to a model (the EM
loop's E-step): a model with fewer sequences fills its group with chains of
length 0. Each row's step is one (G, K, S) @ (G, S, S) product; the chains
of length 0 that end a group take no part in it, so that every group's
product has the shape, and BLAS's rounding, of a stack of that group alone.

One log-domain recursion, `_log_forward`, combines each state's
predecessors by log-sum-exp for `forward` (and `loglik`, its likelihoods
alone) and for the log-domain chains of the E-step, and by max for
`viterbi` and `viterbi_scores` (max-product). Each row gathers every
state's predecessors from a (P, B, S) table, built once per pass, and
reduces over its first axis (`_neighbours`). A table leaves out the lanes
of zero transitions. Every pass reads the same table order: each state's
absent lanes come first, carrying -inf, so that its reduction starts on
np.logaddexp's cheap -inf (+) -inf case, and its real predecessors follow,
lowest index first; so on a finite cell the first lane at the maximum is
the lowest-index best predecessor, which `viterbi`'s back pointers and tie
rule read. A reduction adds -inf terms exactly, wherever they sit, and so
a state that no path reaches changes no other state's value. For the same
reason each likelihood sums its chain's last row in order (`_final`): a
state that reads -inf there adds an exact 0, so a chain's likelihood has
the bits of the same chain with states that no path enters added or left
out. A flat edge list reduced by
`np.logaddexp.reduceat` is faster on left-right chains but slower on dense
(ergodic) pair chains, where each state's segment becomes one long serial
chain of operations instead of a reduction over whole (B, S) blocks.
The E-step runs in the probability domain with one scale per row
(Rabiner 1989, sec. V.A; `_scaled_estep`) for each chain whose reachable
cells one scale per row holds exactly, a test made cell by cell, which a row
that sums to 0 fails, a row with no reachable state; the chains
that fail it run in the log domain as one smaller stack, and the others stay
scaled. Viterbi ties break toward the lowest state index, from the last
frame back, and `viterbi_scores` gives the best scores without the paths.
The public backward pass runs in the log domain with log-sum-exp over each
state's successors, so that it stays exact for states that no forward
path enters.

Inside the engine a stack's rows come first, (R, B, S), so that one row of
every chain is one contiguous block for the row-by-row recursions; a table
given in that layout, padded -inf, is read without a copy. The engine writes
only into arrays it allocated, anew in each call.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple

import numpy as np

from .errors import NumericError

# The scaled pass is kept when every reachable cell holds at least this share
# of its row's unnormalised mass (every factor is at most 1): each of its
# terms is then exact to far below 1e-16 relative, and no scaled backward
# value can overflow.
_TINY = 1e-280


def _log(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(p)


def logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(x))) along one axis, shifted by each line's own maximum."""
    top = x.max(axis=axis, keepdims=True)
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


def _chains(log_init, trans, logb, lengths=None) -> tuple[bool, _Chains]:
    """Whether one chain was given, and its or a stack's arguments as a stack
    in the engine's layout."""
    log_init = np.asarray(log_init, dtype=np.float64)
    single = log_init.ndim == 1
    if single:
        log_init, logb = log_init[None], np.asarray(logb)[None]
    table = np.swapaxes(np.asarray(logb, dtype=np.float64), 0, 1)
    rows, b = table.shape[:2]
    lengths = np.full(b, rows) if lengths is None else np.asarray(lengths, dtype=np.intp)
    after = np.arange(rows)[:, None] >= lengths
    if not (table.flags.c_contiguous and np.all(table[after] == -np.inf)):
        table = np.array(table, order="C")
        table[after] = -np.inf
    trans = np.asarray(trans, dtype=np.float64)
    return single, _stack(log_init, trans.reshape((-1,) + trans.shape[-2:]), table, lengths)


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


def _row_ends(lengths: np.ndarray) -> dict[int, list[int]]:
    """{row: the chains whose last row it is, in ascending order}."""
    ends: dict[int, list[int]] = {}
    for b, n in enumerate(lengths.tolist()):
        ends.setdefault(n - 1, []).append(b)
    return ends


def _neighbours(trans: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """(P, B, S) tables of the predecessors of every state of each of the B
    chains that the matrices trans (G, S, S) serve, and their log transition
    probabilities; P is the largest in-degree, and a state with fewer
    predecessors has absent lanes, which carry -inf. Its absent lanes come
    first and its real predecessors after them, lowest index first. Pass the
    transposed matrices for successors.

    Over these tables a recursion costs S * P per row: N**3 on the pair chain,
    where the dense (S, S) matrix has N**4 entries. Their first axis is P, so
    that a reduction over the predecessors combines P whole (B, S) blocks.
    """
    support = trans > 0
    width = max(int(support.sum(axis=-2).max()), 1)
    idx = np.argsort(support, axis=-2, kind="stable")[..., -width:, :]
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


def _log_forward(c: _Chains, into: np.ndarray, log_into: np.ndarray,
                 combine=np.logaddexp.reduce) -> np.ndarray:
    """Log forward lattice (R, B, S), each row combining every state's
    predecessors from the (P, B, S) tables into and log_into (`_neighbours`):
    by log-sum-exp, or, with combine=np.maximum.reduce, the max-product
    lattice."""
    flat = _flat(into)
    la = np.empty(c.logb.shape)
    la[0] = c.log_init + c.logb[0]
    for prev, row, logb in zip(la, la[1:], c.logb[1:]):
        cand = prev.take(flat)
        cand += log_into
        combine(cand, axis=0, out=row)
        row += logb
    return la


def _last(la: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each chain's last row (B, S) of a lattice (R, B, S); 0 for a chain of length 0."""
    return np.where((lengths > 0)[:, None], la[lengths - 1, np.arange(len(lengths))], 0.0)


def _final(la: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each chain's log-likelihood from its log forward lattice (R, B, S); 0
    for a chain of length 0. Each last row is summed in order, by a running
    sum: numpy's `sum` adds a row pairwise, in an order set by the row's
    length, which would give a chain with states that no path enters other
    bits than the same chain without them."""
    last = _last(la, lengths)
    top = last.max(axis=1, keepdims=True)
    top[top == -np.inf] = 0.0
    with np.errstate(divide="ignore"):
        ll = top[:, 0] + np.log(np.cumsum(np.exp(last - top), axis=1)[:, -1])
    return np.where(lengths > 0, ll, 0.0)


def forward(log_init, trans, logb, lengths=None):
    """Log forward lattices (B, R, S) and total log-likelihoods (B,), in the
    log domain."""
    single, c = _chains(log_init, trans, logb, lengths)
    la = _log_forward(c, *_neighbours(c.trans, len(c.lengths)))
    return _one(single, _by_chain(la), _final(la, c.lengths))


def loglik(log_init, trans, logb, lengths=None):
    """`forward`'s total log-likelihoods (B,) alone."""
    return forward(log_init, trans, logb, lengths)[1]


def backward(trans, logb, lengths=None) -> np.ndarray:
    """Log backward lattices (B, R, S); each chain's last row is identically 0.

    Each state's sum over its successors runs in the log domain
    (`np.logaddexp`), so every finite beta stays finite whatever the other
    states score.
    """
    single, c = _chains(np.zeros(np.shape(logb)[:-2] + np.shape(logb)[-1:]), trans, logb, lengths)
    lb = _backward(c, *_neighbours(np.swapaxes(c.trans, -1, -2), len(c.lengths)))
    return _one(single, _by_chain(lb))


def _backward(c: _Chains, succ: np.ndarray, log_succ: np.ndarray) -> np.ndarray:
    """Log backward lattice (R, B, S) over the successor tables succ and
    log_succ (`_neighbours` of the transposed matrices); padding rows are -inf."""
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
    summed over each chain's rows, and log-likelihoods (B,): by one scale
    per row (`_scaled_estep`), and in the log domain for the chains that
    one scale per row cannot hold, a chain with a row of no reachable
    state. The log domain raises NumericError when a chain's likelihood
    is not finite.
    """
    single, c = _chains(log_init, trans, logb, lengths)
    gamma, counts, ll, ok = _scaled_estep(c)
    redo = np.flatnonzero(~ok)
    if redo.size:
        gamma[:, redo], counts[redo], ll[redo] = _log_estep(c.some(redo))
    return _one(single, _by_chain(gamma), counts, ll)


def _scaled_estep(c: _Chains):
    """Posteriors (R, B, S), transition counts (B, S, S), log-likelihoods
    (B,) and the mask ok (B,) of the chains whose pass with one scale per row
    is kept. A chain is ok unless one of its rows sums to 0, as a row with
    no reachable state does (each of its cells has predecessor mass 0 or
    emission factor 0), or one scale per row does not hold each of its
    reachable cells exactly; the posteriors and counts of a chain that is
    not ok are 0.

    Each chain's row r is shifted by its best emission over its reachable
    states (by 0 on a row with none), so no factor exceeds 1 and the row's
    best state never underflows. Padding rows are zero, with scale 1. The
    backward pass reuses the forward scales, and states that no forward path
    enters keep beta = 0: their posteriors are 0 either way, and a zero
    keeps their unscaled betas from overflowing into the reachable ones.
    """
    rows, b, s = c.logb.shape
    live = _support(c)
    after = np.arange(rows)[:, None] >= c.lengths
    emit = np.where(live, c.logb, -np.inf)
    shift = reduce(np.maximum, np.moveaxis(emit, 2, 0))  # faster than .max(axis=2)
    shift[shift == -np.inf] = 0.0
    np.exp(np.minimum(np.subtract(c.logb, shift[..., None], out=emit), 0.0, out=emit), out=emit)
    alpha = np.empty((rows, b, s))
    scale = np.empty((rows, b))
    top = np.where(live[0].any(axis=1), c.log_init.max(axis=1), 0.0)
    pred = np.exp(c.log_init - top[:, None])
    # a row that sums to 0 turns its chain's later rows into NaN (0 / 0),
    # and only that chain's
    with np.errstate(invalid="ignore"):
        for r in range(int(c.lengths.max())):
            if r:
                pred = _step(alpha[r - 1], c.trans, c.runs)
            row = alpha[r]
            np.multiply(pred, emit[r], out=row)
            row /= np.add.reduce(row, axis=1, out=scale[r])[:, None]
    alpha[after] = 0.0
    scale[after] = 1.0
    beta = alpha * scale[..., None]  # the backward pass's buffer holds the test's product
    held = np.greater_equal(beta >= _TINY, live)  # held by the scale, or unreachable
    ok = (scale > 0).all(axis=0) & held.all(axis=0).all(axis=1)
    # a chain that is not ok gets zero rows and scale 1, so that its scaled
    # backward pass, which `estep` replaces, cannot overflow
    alpha[:, ~ok] = 0.0
    scale[:, ~ok] = 1.0
    log_scale = shift + np.log(scale)
    log_scale[0] += top
    # numpy sums the one column of a single chain pairwise, so `sum` would
    # make a chain's likelihood depend on the stack it runs in
    ll = np.cumsum(log_scale, axis=0)[-1]
    weights = np.divide(emit, scale[..., None], out=emit)  # emit_r * beta_r / scale_r
    beta[-1] = 1.0
    back = np.ascontiguousarray(np.swapaxes(c.trans, -1, -2))
    ends = _row_ends(c.lengths)
    for r in range(rows - 1, 0, -1):
        weights[r] *= beta[r]
        np.multiply(_step(weights[r], back, c.runs), live[r - 1], out=beta[r - 1])
        if r - 1 in ends:
            beta[r - 1, ends[r - 1]] = 1.0
    flow = np.matmul(alpha[:-1].transpose(1, 2, 0), weights[1:].transpose(1, 0, 2))
    alpha *= beta
    counts = c.trans[:, None] * flow.reshape(len(c.trans), -1, s, s)
    return alpha, counts.reshape(flow.shape), ll, ok


def _log_estep(c: _Chains):
    """`estep` in the log domain, in the engine's layout."""
    b, s = c.log_init.shape
    la = _log_forward(c, *_neighbours(c.trans, b))
    ll = _final(la, c.lengths)
    bad = ll[~np.isfinite(ll)]
    if bad.size:
        raise NumericError(f"training sequence has log-likelihood {bad[0]}")
    succ, log_succ = _neighbours(np.swapaxes(c.trans, -1, -2), b)
    lb = _backward(c, succ, log_succ)
    flat = _flat(succ)
    acc = np.zeros(flat.shape)
    for r in range(1, len(la)):
        acc += np.exp(la[r - 1] + log_succ + (c.logb[r] + lb[r] - ll[:, None]).take(flat))
    counts = np.zeros((b, s, s))
    counts[np.arange(b)[:, None], np.arange(s), succ] = acc
    return np.exp(la + lb - ll[:, None]), counts, ll


def viterbi(log_init, trans, logb, lengths=None):
    """Most likely state sequences (B, R) and their log scores (B,). A chain
    with no admissible path scores -inf and gets the all-zero path of its
    padding rows; a single chain raises NumericError.

    Ties break toward the lowest state index, from each chain's last row
    back: that row's lowest-index best state, then at each row back the
    lowest-index best predecessor of the state chosen after it, compared on
    its best score plus the transition.
    """
    single, c = _chains(log_init, trans, logb, lengths)
    rows, b, s = c.logb.shape
    into, log_into = _neighbours(c.trans, b)
    delta = _log_forward(c, into, log_into, np.maximum.reduce)
    final = _last(delta, c.lengths)
    chains = np.arange(b)
    best = final.argmax(axis=1)
    score = final[chains, best]
    if single and score[0] == -np.inf:
        raise NumericError("no admissible state path for this observation sequence")
    # each finite cell's best predecessor is its first lane at the maximum,
    # the one argmax picks, for all rows at once
    cand = delta[:-1].reshape(rows - 1, b * s).take(_flat(into), axis=1)
    cand += log_into
    back = cand.argmax(axis=1)   # row r's back pointers are back[r - 1]
    ends = _row_ends(c.lengths)
    path = np.zeros((rows, b), dtype=np.intp)
    state = np.zeros(b, dtype=np.intp)
    for r in range(rows - 1, -1, -1):
        if r in ends:
            state[ends[r]] = best[ends[r]]
        path[r] = state
        if r:
            state = into[back[r - 1, chains, state], chains, state]
    path[(np.arange(rows)[:, None] >= c.lengths) | (score == -np.inf)] = 0
    return _one(single, path.T, score)


def viterbi_scores(log_init, trans, logb, lengths=None):
    """The log scores (B,) of `viterbi`'s paths, without the paths; -inf for
    a chain with no admissible path."""
    single, c = _chains(log_init, trans, logb, lengths)
    delta = _log_forward(c, *_neighbours(c.trans, len(c.lengths)), np.maximum.reduce)
    return _one(single, _last(delta, c.lengths).max(axis=1))
