"""Lattice engine shared by the first- and second-order models.

Every recursion runs over a first-order chain of S states, given by a log
initial row (S,), an (S, S) transition matrix and an (R, S) log-emission
table whose row r scores lattice row r. A first-order HMM is that chain with
S = N. A second-order HMM is the chain over its N*N state pairs, with
P[(i, j), (j, k)] = a3[i, j, k] (du Preez 1998, order reduction).

The forward pass and the E-step run in the probability domain with one scale
per row (Rabiner 1989, sec. V.A) whenever one scale per row holds every
reachable state exactly, and in the log domain for the sequences where it
cannot. `loglik`, which returns the likelihood alone, keeps the scaled pass
whenever a bound on what underflow can have lost stays below 1e-12 of it.
Viterbi runs in the log domain by max-product; ties break toward the lowest
state index, from the last frame back. The public backward pass runs in the
log domain with log-sum-exp over each state's successors, so that it stays
exact for states the forward pass cannot reach.
"""

from __future__ import annotations

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
    top = x.max(axis=axis, keepdims=True)
    top[top == -np.inf] = 0.0
    with np.errstate(divide="ignore"):
        return np.squeeze(top, axis) + np.log(np.exp(x - top).sum(axis=axis))


def _neighbours(trans: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S, P) tables of the predecessors of every state, lowest index first,
    and their log transition probabilities; P is the largest in-degree and
    shorter lists are padded with -inf entries. Pass trans.T for successors.

    Over these tables a recursion costs S * P per row: N**3 on the pair chain,
    where the dense (S, S) matrix has N**4 entries.
    """
    support = trans > 0
    width = max(int(support.sum(axis=0).max()), 1)
    idx = np.argsort(~support, axis=0, kind="stable")[:width].T
    return idx, _log(trans[idx, np.arange(trans.shape[1])[:, None]])


def _support(log_init, trans, logb) -> np.ndarray:
    """(R, S) mask of the lattice cells with a nonzero forward probability."""
    rows = logb.shape[0]
    finite = logb > -np.inf
    step = trans > 0
    live = np.empty(logb.shape, dtype=bool)
    live[0] = (log_init > -np.inf) & finite[0]
    settled = finite.all()          # then a row equal to the one before repeats
    for r in range(1, rows):
        live[r] = (live[r - 1] @ step) & finite[r]
        if settled and np.array_equal(live[r], live[r - 1]):
            live[r + 1:] = live[r]
            break
    return live


def _scaled_pass(log_init, trans, logb):
    """The forward pass with one scale per row: the (R, S) mask of reachable
    cells, the normalised rows (R, S), the emission factors they used, their
    scale sums and their log scales; None when a row with reachable cells
    sums to 0.

    Row r is shifted by its best emission among the states it can reach, so
    no factor exceeds 1 and the row's best state never underflows. Rows after
    the first one with no reachable state are zero, and that row's log scale
    is -inf.
    """
    rows, s = logb.shape
    live = _support(log_init, trans, logb)
    reach = live.any(axis=1)
    end = rows if reach.all() else int(np.argmin(reach))
    shift = np.where(live, logb, -np.inf).max(axis=1)
    shift[end:] = 0.0
    emit = np.exp(np.minimum(logb - shift[:, None], 0.0))
    alpha = np.zeros((rows, s))
    scale = np.ones(rows)
    top = log_init.max() if end else 0.0
    pred = np.exp(log_init - top)
    for r in range(end):
        if r:
            pred = alpha[r - 1] @ trans
        row = alpha[r]
        np.multiply(pred, emit[r], out=row)
        c = np.add.reduce(row)
        if not c > 0:
            return None
        np.divide(row, c, out=row)
        scale[r] = c
    log_scale = shift + np.log(scale)
    log_scale[0] += top
    if end < rows:
        log_scale[end] = -np.inf
    return live, alpha, emit, scale, log_scale


def _scaled_forward(log_init, trans, logb):
    """`_scaled_pass` without its mask, or None when one scale per row cannot
    hold every reachable cell exactly."""
    fwd = _scaled_pass(log_init, trans, logb)
    if fwd is None:
        return None
    live, alpha, emit, scale, log_scale = fwd
    if not np.all((alpha * scale[:, None])[live] >= _TINY):
        return None
    return alpha, emit, scale, log_scale


def _log_forward(log_init, trans, logb) -> np.ndarray:
    """Log forward lattice (R, S) by log-sum-exp over each state's predecessors."""
    into, log_into = _neighbours(trans)
    la = np.empty(logb.shape)
    la[0] = log_init + logb[0]
    for r in range(1, len(la)):
        la[r] = logsumexp(la[r - 1][into] + log_into, axis=1) + logb[r]
    return la


def forward(log_init, trans, logb) -> tuple[np.ndarray, float]:
    """Log forward lattice (R, S) and the total log-likelihood."""
    fwd = _scaled_forward(log_init, trans, logb)
    if fwd is None:
        la = _log_forward(log_init, trans, logb)
        return la, float(logsumexp(la[-1], axis=0))
    alpha, _, _, log_scale = fwd
    return _log(alpha) + np.cumsum(log_scale)[:, None], float(log_scale.sum())


def loglik(log_init, trans, logb) -> float:
    """Total log-likelihood of one sequence, without its lattice: the scaled
    pass, and the log domain only for a sequence on which a bound on what
    underflow can have lost exceeds LOGLIK_UNDERFLOW_TOL of the likelihood.

    The bound. Rounding aside, the scaled pass loses only what its operations
    lose to underflow, at most tiny (the smallest normal double) each; with
    gradual underflow a sum loses nothing, since a sum that underflows is
    exact. Let c_r be row r's scale sum: c_r <= 1 for r >= 1, since the
    predecessor mass of a row sums to 1 and no emission factor exceeds 1,
    and c_0 <= S. A cell is dirty when an operation that made it may have
    given a result below tiny: its value lies below _TINY before or after the
    division by c_r, or one of the products in its predecessor sum may lie
    below tiny. A dirty cell of the normalised row r is off by at most
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
    fwd = _scaled_pass(log_init, trans, logb)
    if fwd is not None:
        live, alpha, _, scale, log_scale = fwd
        ll = float(log_scale.sum())
        if ll == -np.inf:
            return ll
        smallest = np.where(alpha > 0, alpha, np.inf).min(axis=1)
        dirty = np.minimum(alpha, alpha * scale[:, None]) < _TINY
        dirty[0] &= live[0]
        dirty[1:] |= smallest[:-1, None] * np.where(trans > 0, trans, np.inf).min(axis=0) \
            < _FLOAT_TINY
        dirty[1:] &= ((alpha[:-1] > 0) @ trans > 0) & (logb[1:] > -np.inf)
        if not dirty.any():
            return ll
        err = (alpha.shape[1] + 2) * _FLOAT_TINY / scale[:, None]
        after = np.cumsum(np.log(scale)[::-1])[::-1] - np.log(scale)  # log prod_{r' > r} c_r'
        with np.errstate(divide="ignore", over="ignore"):
            gain = np.minimum(1.0 / np.maximum(alpha - err, 0.0), np.exp(-after)[:, None])
        if np.sum((err * gain)[dirty]) <= LOGLIK_UNDERFLOW_TOL:
            return ll
    return float(logsumexp(_log_forward(log_init, trans, logb)[-1], axis=0))


def backward(trans, logb) -> np.ndarray:
    """Log backward lattice (R, S); the last row is identically 0.

    Each state's sum over its successors is shifted by its own best term, so
    every finite beta stays finite whatever the other states score.
    """
    succ, log_succ = _neighbours(trans.T)
    lb = np.zeros(logb.shape)
    for r in range(logb.shape[0] - 1, 0, -1):
        lb[r - 1] = logsumexp(log_succ + (logb[r] + lb[r])[succ], axis=1)
    return lb


def estep(log_init, trans, logb) -> tuple[np.ndarray, np.ndarray, float]:
    """State posteriors (R, S), expected transition counts (S, S) summed over
    rows, and the log-likelihood of one sequence.

    After a scaled forward pass the backward pass reuses its scales, and
    states the forward pass did not reach keep beta = 0: their posteriors are
    0 either way, and a zero keeps their unscaled betas from overflowing into
    the reachable ones. Otherwise the whole E-step runs in the log domain.
    """
    fwd = _scaled_forward(log_init, trans, logb)
    if fwd is None:
        return _log_estep(log_init, trans, logb)
    alpha, emit, scale, log_scale = fwd
    ll = _training_ll(float(log_scale.sum()))
    live = alpha > 0
    beta = np.ones_like(alpha)
    weights = emit / scale[:, None]  # row r becomes emit_r * beta_r / scale_r
    for r in range(len(alpha) - 1, 0, -1):
        weights[r] *= beta[r]
        np.multiply(trans @ weights[r], live[r - 1], out=beta[r - 1])
    counts = trans * (alpha[:-1].T @ weights[1:])
    return alpha * beta, counts, ll


def _log_estep(log_init, trans, logb):
    """`estep` in the log domain."""
    la = _log_forward(log_init, trans, logb)
    ll = _training_ll(float(logsumexp(la[-1], axis=0)))
    lb = backward(trans, logb)
    succ, log_succ = _neighbours(trans.T)
    acc = np.zeros(succ.shape)
    for r in range(1, len(la)):
        acc += np.exp(la[r - 1][:, None] + log_succ + (logb[r] + lb[r] - ll)[succ])
    counts = np.zeros(trans.shape)
    counts[np.arange(len(succ))[:, None], succ] = acc
    return np.exp(la + lb - ll), counts, ll


def _training_ll(ll: float) -> float:
    if not np.isfinite(ll):
        raise NumericError(f"training sequence has log-likelihood {ll}")
    return ll


def viterbi(log_init, trans, logb) -> tuple[np.ndarray, float]:
    """Most likely state sequence and its log score.

    Ties break toward the lowest state index, from the last frame back: the
    last row's lowest-index best state, then at each row back the
    lowest-index best predecessor of the state chosen after it, compared on
    its best score plus the transition.
    """
    rows, s = logb.shape
    into, log_into = _neighbours(trans)
    delta = log_init + logb[0]
    back = np.zeros((rows, s), dtype=np.intp)
    for r in range(1, rows):
        cand = delta[into]
        cand += log_into
        back[r] = cand.argmax(axis=1)
        delta = cand.max(axis=1) + logb[r]
    best = int(np.argmax(delta))
    score = float(delta[best])
    if score == -np.inf:
        raise NumericError("no admissible state path for this observation sequence")
    path = np.empty(rows, dtype=np.intp)
    path[-1] = best
    for r in range(rows - 1, 0, -1):
        path[r - 1] = into[path[r], back[r, path[r]]]
    return path, score
