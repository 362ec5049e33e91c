"""First-order continuous-density HMM baseline, and the training and sampling
code both model orders share.

Forward, backward, Viterbi and the EM E-step run on the shared lattice engine
(`hmm2tc.lattice`) with S = N states. `_baum_welch` is the one EM loop of both
orders: `hmm2tc.hmm2` runs it on its pair chain with its own transition
M-step. `_sample_frames` draws the frames for both orders' samplers.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import lattice
from .config import MIXTURE_WEIGHT_FLOOR, TrainConfig, frames_of, variance_floor
from .errors import DataError
from .gmm import GaussianMixture, _stochastic, component_log_densities, log_densities
from .lattice import _log, logsumexp

log = logging.getLogger(__name__)

TOPOLOGIES = ("ergodic", "left-right")


class _StateMixtures:
    """The emission half of both model orders: one stack of N Gaussian
    mixtures, one per state (`GaussianMixture`). The constructors also take
    a list of the per-state mixtures and stack it."""

    mixtures: GaussianMixture

    @property
    def n_components(self) -> int:
        return self.mixtures.n_components

    @property
    def dim(self) -> int:
        return self.mixtures.dim

    def emission_log_probs(self, obs) -> np.ndarray:
        """(T, N) matrix of log b_j(O_t)."""
        return log_densities(self.mixtures, frames_of(obs))


@dataclass
class Hmm1Model(_StateMixtures):
    pi: np.ndarray                  # (N,)
    a: np.ndarray                   # (N, N)
    mixtures: GaussianMixture       # a stack of N
    topology: str = "ergodic"

    def __post_init__(self):
        self.pi = np.asarray(self.pi, dtype=np.float64)
        self.a = np.asarray(self.a, dtype=np.float64)
        if not isinstance(self.mixtures, GaussianMixture):
            self.mixtures = GaussianMixture.stack(self.mixtures)
        n = self.pi.size
        if self.a.shape != (n, n) or self.mixtures.weights.shape[:-1] != (n,):
            raise DataError("inconsistent state counts across pi, a, mixtures")
        if not _stochastic(self.pi):
            raise DataError("pi must be a probability vector")
        if not _stochastic(self.a):
            raise DataError("every transition row must be a probability vector")
        if self.topology not in TOPOLOGIES:
            raise DataError(f"unknown topology {self.topology!r}")
        if self.topology == "left-right" and np.any(np.tril(self.a, -1) != 0):
            raise DataError("left-right topology requires an upper-triangular transition matrix")

    @property
    def n_states(self) -> int:
        return self.pi.size


def _chain1(model: Hmm1Model, logb: np.ndarray):
    """The lattice engine's (log initial rows, transition matrix, emission
    tables) for a first-order model, given one (T, N) emission table or a
    stack (B, T, N) of them: its own states, one row per frame."""
    return np.broadcast_to(_log(model.pi), logb.shape[:-2] + model.pi.shape), model.a, logb


def forward1(model: Hmm1Model, obs) -> tuple[np.ndarray, float]:
    """Log forward lattice (T, N) and total log-likelihood."""
    return lattice.forward(*_chain1(model, model.emission_log_probs(obs)))


def viterbi1(model: Hmm1Model, obs) -> tuple[np.ndarray, float]:
    """Most likely state path and its log score; ties break toward the
    lowest state index, from the last frame back (`lattice.viterbi`)."""
    return lattice.viterbi(*_chain1(model, model.emission_log_probs(obs)))


def backward1(model: Hmm1Model, obs) -> np.ndarray:
    """Log backward lattice (T, N); the last row is identically 0."""
    return lattice.backward(model.a, model.emission_log_probs(obs))


def sample_hmm1(model: Hmm1Model, t_len: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw a state path and observation sequence from the generative model."""
    if t_len < 1:
        raise DataError("sequence length must be >= 1")
    rng = np.random.default_rng(seed)
    u = rng.random(t_len)
    cdf_a = _cdf(model.a)
    states = np.empty(t_len, dtype=np.intp)
    states[0] = np.searchsorted(_cdf(model.pi), u[0], side="right")
    for t in range(1, t_len):
        states[t] = np.searchsorted(cdf_a[states[t - 1]], u[t], side="right")
    return states, _sample_frames(model.mixtures, states, rng)


def _cdf(p: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, each row ending at exactly 1."""
    cdf = np.cumsum(p, axis=-1)
    cdf[..., -1] = 1.0
    return cdf


def _sample_frames(mixtures: GaussianMixture, states, rng: np.random.Generator) -> np.ndarray:
    """One frame per state of the path, from a component drawn by weight;
    the frame-drawing half of both orders' samplers."""
    u = rng.random(len(states))
    # each frame's searchsorted(cdf, u, side="right"): the cdf entries <= u
    comps = np.sum(_cdf(mixtures.weights)[states] <= u[:, None], axis=1)
    return rng.normal(mixtures.means[states, comps], np.sqrt(mixtures.variances[states, comps]))


def _update_mixtures(mixtures, occ, frames, comp, logb, floor):
    """Shared GMM M-step given per-frame state occupancies.

    occ: the (T, N) state occupancies of every training frame; frames: those
    (T, D) frames; comp and logb: their (T, N, M) weighted component log
    densities and (T, N) emission table. A state that cannot emit a frame
    (log density -inf) takes no share of it. Returns the new stack and a
    (N, M) mask of the components that had zero occupancy; those components,
    and states whose every component is empty, keep their previous
    parameters.
    """
    n, m_comp, d = mixtures.means.shape
    with np.errstate(invalid="ignore"):
        share = np.exp(comp - logb[:, :, None])
    share[logb == -np.inf] = 0.0
    resp = occ[:, :, None] * share                            # (T, N, M)
    w_acc = resp.sum(axis=0)
    moments = resp.reshape(len(frames), -1).T @ np.concatenate([frames, frames * frames], axis=1)
    mean_acc, sq_acc = np.moveaxis(moments.reshape(n, m_comp, 2, d), 2, 0)
    tot = w_acc.sum(axis=1)
    dead = tot <= 1e-300
    empty = (w_acc <= 1e-300) | dead[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        means = mean_acc / w_acc[:, :, None]
        variances = np.maximum(sq_acc / w_acc[:, :, None] - means ** 2, floor)
        weights = np.maximum(w_acc / tot[:, None], MIXTURE_WEIGHT_FLOOR)
    keep = empty[:, :, None]
    means = np.where(keep, mixtures.means, means)
    variances = np.where(keep, mixtures.variances, variances)
    weights /= weights.sum(axis=1, keepdims=True)
    weights[dead] = mixtures.weights[dead]
    return GaussianMixture(weights, means, variances), empty


class _ZeroOccupancy:
    """Tally, over one EM run, of the parameters that had zero occupancy and
    were kept; `report` logs one summary record per kind of parameter
    ("mixture components", "(i, j) pairs") to the trainer's logger."""

    def __init__(self, logger: logging.Logger):
        self.logger = logger
        self.hits: dict[str, tuple[np.ndarray, int]] = {}

    def add(self, kind: str, mask: np.ndarray) -> None:
        seen, iters = self.hits.get(kind, (np.zeros(mask.shape, dtype=bool), 0))
        self.hits[kind] = (seen | mask, iters + int(np.any(mask)))

    def report(self, iterations: int) -> None:
        for kind, (seen, iters) in self.hits.items():
            if iters:
                self.logger.warning(
                    "%d %s had zero occupancy in %d of %d EM iterations; kept",
                    int(seen.sum()), kind, iters, iterations)


def _normalise_rows(counts: np.ndarray, old: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows (along the last axis) of counts scaled to sum to 1, and the mask
    of the rows with no count, which keep their old values."""
    new = old.copy()
    denom = counts.sum(axis=-1)
    rows = denom > 0
    new[rows] = counts[rows] / denom[rows][:, None]
    return new, ~rows


def _baum_welch(model, corpus, cfg: TrainConfig | None, order: int, chain, occupancy,
                reestimate, logger: logging.Logger):
    """The EM loop of both model orders; returns (model, log-likelihood trace).

    Each iteration scores every frame of the corpus in one emission call and
    runs one `lattice.estep` over the stack of all its sequences, padded to
    the longest. Each order supplies three things: `chain(model, logb)`, the
    lattice engine's chains for a (B, T, N) stack of emission tables, one
    row per frame from frame `order - 1` on; `occupancy(gamma, n)`, the map
    from their (B, R, S) posteriors to (B, T, N) state occupancies; and its
    transition M-step, `reestimate(model, start, first, counts, mixtures,
    freeze, zero)`, which gets the first-frame state occupancies, the
    chains' first-row posteriors and their transition counts, each summed
    over the corpus, and returns the new model. Zero-occupancy summaries go
    to `logger`. Raises NumericError when a sequence has a non-finite
    log-likelihood.
    """
    cfg = cfg or TrainConfig()
    if not corpus:
        raise DataError("training corpus is empty")
    mats = [frames_of(o) for o in corpus]
    for mat in mats:
        if mat.shape[0] <= order:
            raise DataError(f"baum_welch{order} requires sequences with T >= {order + 1}")
        if mat.shape[1] != model.dim:
            raise DataError("observation dim does not match the model")
    floor = variance_floor(mats)
    frames = np.concatenate(mats)
    lengths = np.array([len(mat) for mat in mats])
    within = np.arange(lengths.max()) < lengths[:, None]   # (B, T): the frames of each sequence
    table = np.zeros(within.shape + (model.n_states,))
    zero = _ZeroOccupancy(logger)
    trace: list[float] = []
    for _ in range(cfg.max_iterations):
        comp = component_log_densities(model.mixtures, frames)
        logb = logsumexp(comp, axis=2)
        table[within] = logb
        gamma, xi, ll = lattice.estep(*chain(model, table), lengths - (order - 1))
        occ = occupancy(gamma, model.n_states)
        trace.append(float(ll.sum()))
        mixtures, empty = _update_mixtures(model.mixtures, occ[within], frames, comp, logb, floor)
        model = reestimate(model, occ[:, 0].sum(axis=0), gamma[:, 0].sum(axis=0), xi.sum(axis=0),
                           mixtures, cfg.freeze_initials, zero)
        zero.add("mixture components", empty)
        if len(trace) >= 2 and trace[-1] - trace[-2] < cfg.tol * abs(trace[-2]):
            break
    zero.report(len(trace))
    return model, trace


def _reestimate1(model, start, first, counts, mixtures, freeze, zero) -> Hmm1Model:
    pi = model.pi if freeze else start / start.sum()
    return Hmm1Model(pi, _normalise_rows(counts, model.a)[0], mixtures, model.topology)


def baum_welch1(model: Hmm1Model, corpus, cfg: TrainConfig | None = None
                ) -> tuple[Hmm1Model, list[float]]:
    """EM training over multiple sequences; returns (model, log-likelihood trace).

    Raises NumericError when a sequence has a non-finite log-likelihood.
    """
    return _baum_welch(model, corpus, cfg, 1, _chain1, lambda gamma, n: gamma,
                       _reestimate1, log)
