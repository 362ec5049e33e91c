"""First-order continuous-density HMM baseline, and the training and sampling
code both model orders share.

Forward, backward, Viterbi and the EM E-step run on the shared lattice engine
(`hmm2tc.lattice`) with S = N states. `_StateMixtures` is the base of both
model classes: their emission stack and their one constructor check. Each
class carries its order, `order`, and the three hooks through which
`_baum_welch`, the one EM loop of both orders, trains a bank of its models at
once (one model is a bank of one): `_chain`, `_occupancy` and `_reestimate`.
`_sample_frames` draws the frames for both orders' samplers.
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

TOPOLOGIES = ("ergodic", "left-right")


class _StateMixtures:
    """What both model orders share: one stack of N Gaussian mixtures, one per
    state (`GaussianMixture`), and the constructor check. The constructors
    also take a list of the per-state mixtures and stack it.

    Each class names its initial vector and transition arrays in `_ARRAYS`.
    The check makes them float arrays and requires shapes (N,), (N, N) and,
    for the second order's a3, (N, N, N); probability rows; a known
    topology; and, for a left-right model, no backward transition (k < j in
    the last two axes of each transition array). Each class also carries
    its `order` and the EM loop's hooks: `_chain(logb)`, the lattice
    engine's (log initial rows, transitions, emission tables) for a (T, N)
    emission table or a stack (B, T, N) of them, one row per frame from frame
    `order - 1` on; `_occupancy(gamma)`, the map from those chains' (B, R, S)
    posteriors to (B, T, N) state occupancies; and the transition M-step
    `_reestimate(start, first, counts, mixtures, freeze, zero)`, which gets
    the first-frame state occupancies, the chains' first-row posteriors and
    their transition counts, each summed over a corpus, and returns the new
    model.
    """

    _ARRAYS: tuple[str, ...]
    mixtures: GaussianMixture
    topology: str

    def __post_init__(self):
        for name in self._ARRAYS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if not isinstance(self.mixtures, GaussianMixture):
            self.mixtures = GaussianMixture.stack(self.mixtures)
        arrays = [getattr(self, name) for name in self._ARRAYS]
        n = arrays[0].size
        if (any(x.shape != (n,) * (rank + 1) for rank, x in enumerate(arrays))
                or self.mixtures.weights.shape[:-1] != (n,)):
            raise DataError(f"inconsistent state counts across {', '.join(self._ARRAYS)}, "
                            "mixtures")
        for name, x in zip(self._ARRAYS, arrays):
            if not _stochastic(x):
                raise DataError(f"every row of {name} must be a probability vector")
        if self.topology not in TOPOLOGIES:
            raise DataError(f"unknown topology {self.topology!r}")
        for name, x in zip(self._ARRAYS[1:], arrays[1:]):
            # on a3, tril takes the last two axes: a3[i, j, k] with k < j
            if self.topology == "left-right" and np.any(np.tril(x, -1) != 0):
                raise DataError(f"left-right topology forbids backward {name} transitions")

    @property
    def n_states(self) -> int:
        return getattr(self, self._ARRAYS[0]).size

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

    order = 1
    _ARRAYS = ("pi", "a")

    def _chain(self, logb: np.ndarray):
        """Its own states, one lattice row per frame."""
        return np.broadcast_to(_log(self.pi), logb.shape[:-2] + self.pi.shape), self.a, logb

    def _occupancy(self, gamma: np.ndarray) -> np.ndarray:
        return gamma

    def _reestimate(self, start, first, counts, mixtures, freeze, zero) -> "Hmm1Model":
        pi = self.pi if freeze else start / start.sum()
        return Hmm1Model(pi, _normalise_rows(counts, self.a)[0], mixtures, self.topology)


def forward1(model: Hmm1Model, obs) -> tuple[np.ndarray, float]:
    """Log forward lattice (T, N) and total log-likelihood."""
    return lattice.forward(*model._chain(model.emission_log_probs(obs)))


def viterbi1(model: Hmm1Model, obs) -> tuple[np.ndarray, float]:
    """Most likely state path and its log score; ties break toward the
    lowest state index, from the last frame back (`lattice.viterbi`)."""
    return lattice.viterbi(*model._chain(model.emission_log_probs(obs)))


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


class _Member:
    """One model of a bank in the EM loop: its training frames, their
    sequence lengths, its variance floor, zero-occupancy tally and trace."""

    def __init__(self, model, corpus, logger: logging.Logger):
        if not corpus:
            raise DataError("training corpus is empty")
        mats = [frames_of(o) for o in corpus]
        for mat in mats:
            if mat.shape[0] <= model.order:
                raise DataError(f"baum_welch{model.order} requires sequences with "
                                f"T >= {model.order + 1}")
            if mat.shape[1] != model.dim:
                raise DataError("observation dim does not match the model")
        self.model = model
        self.floor = variance_floor(mats)
        self.frames = np.concatenate(mats)
        self.lengths = np.array([len(mat) for mat in mats])
        self.zero = _ZeroOccupancy(logger)
        self.trace: list[float] = []

    def converged(self, tol: float) -> bool:
        trace = self.trace
        return len(trace) >= 2 and trace[-1] - trace[-2] < tol * abs(trace[-2])


def _baum_welch(models, corpora, cfg: TrainConfig | None = None) -> list[tuple]:
    """The EM loop of a bank of models of one class, each with its own
    corpus; returns each model's (model, log-likelihood trace). One model is
    a bank of one.

    Each iteration scores each training model's corpus in one emission call
    and runs one `lattice.estep` over the sequences of every model still
    training: K sequences to a model, K the most any model has, padded to
    the longest, and a model with fewer fills its group with chains of
    length 0, which the engine leaves out of its products. Then each model
    takes its GMM M-step and its transition M-step. A model whose relative
    log-likelihood gain falls below `cfg.tol` leaves the stack, and the rest
    go on; each model's results are those it gets trained alone.

    The model class supplies the chains, the state occupancies and the
    transition M-step (`_StateMixtures`). Zero-occupancy summaries go to the
    logger of the class's module, one per model and kind of parameter.
    Raises NumericError when a sequence has a non-finite log-likelihood.
    """
    cfg = cfg or TrainConfig()
    logger = logging.getLogger(type(models[0]).__module__)
    bank = [_Member(model, corpus, logger) for model, corpus in zip(models, corpora)]
    k = max(len(member.lengths) for member in bank)
    t_max = max(member.lengths.max() for member in bank)
    within = np.zeros((len(bank), k, t_max), dtype=bool)  # the frames of each sequence
    rows = np.zeros((len(bank), k), dtype=np.intp)          # lattice rows, 0 for padding
    for g, member in enumerate(bank):
        within[g, :len(member.lengths)] = np.arange(t_max) < member.lengths[:, None]
        rows[g, :len(member.lengths)] = member.lengths - (member.model.order - 1)
    table = np.zeros(within.shape + (models[0].n_states,))
    active = list(range(len(bank)))
    for _ in range(cfg.max_iterations):
        scored = []
        for g in active:
            comp = component_log_densities(bank[g].model.mixtures, bank[g].frames)
            logb = logsumexp(comp, axis=2)
            table[g][within[g]] = logb
            scored.append((comp, logb))
        log_init, trans, tables = zip(*(bank[g].model._chain(table[g]) for g in active))
        gamma, xi, ll = lattice.estep(np.concatenate(log_init), np.stack(trans),
                                      np.concatenate(tables), rows[active].ravel())
        for i, (g, (comp, logb)) in enumerate(zip(active, scored)):
            member = bank[g]
            own = slice(i * k, i * k + len(member.lengths))
            occ = member.model._occupancy(gamma[own])
            member.trace.append(float(ll[own].sum()))
            mixtures, empty = _update_mixtures(member.model.mixtures, occ[within[g, :len(occ)]],
                                               member.frames, comp, logb, member.floor)
            member.model = member.model._reestimate(
                occ[:, 0].sum(axis=0), gamma[own, 0].sum(axis=0), xi[own].sum(axis=0), mixtures,
                cfg.freeze_initials, member.zero)
            member.zero.add("mixture components", empty)
        active = [g for g in active if not bank[g].converged(cfg.tol)]
        if not active:
            break
    for member in bank:
        member.zero.report(len(member.trace))
    return [(member.model, member.trace) for member in bank]


def baum_welch1(model: Hmm1Model, corpus, cfg: TrainConfig | None = None
                ) -> tuple[Hmm1Model, list[float]]:
    """EM training over multiple sequences; returns (model, log-likelihood trace).

    Raises NumericError when a sequence has a non-finite log-likelihood.
    """
    return _baum_welch([model], [corpus], cfg)[0]
