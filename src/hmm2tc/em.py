"""The EM training both model orders share: their base class (`StateModel`),
the GMM M-step, each label's training frames as the flat start and the EM
loop read them (`Corpus`), gathered and checked in one place (`corpora`),
and the loop that trains a bank of models (`baum_welch`).
"""

from __future__ import annotations

import logging
import math

import numpy as np

from . import lattice
from .config import MIXTURE_WEIGHT_FLOOR, TrainConfig, frames_of, source_of, variance_floor
from .errors import DataError
from .gmm import GaussianMixture, _stochastic, check_mixtures, component_table, log_densities

TOPOLOGIES = ("ergodic", "left-right")


def _allowed(n: int, topology: str) -> np.ndarray:
    """(N, N) mask of the transitions j -> k that a model of the topology
    allows, and so of the state pairs (j, k) that it can enter: all of them
    when ergodic, and k >= j when left-right."""
    states = np.arange(n)
    return (states[:, None] <= states) | (topology == "ergodic")


class StateModel:
    """What both model orders share: one stack of N Gaussian mixtures, one per
    state (`GaussianMixture`), and the constructor check (`check_model`).
    The constructors also take a list of the per-state mixtures and stack it.

    Each class names its initial vector and transition arrays in `_ARRAYS`.
    The constructor makes them float arrays, and its check requires shapes
    (N,), (N, N) and, for the second order's a3, (N, N, N); probability
    rows; a known topology; and, for a left-right model, no backward
    transition (k < j in the last two axes of each transition array).

    Each class also carries its `order` and the hooks of the EM loop and of
    bank scoring. They all read one map of the S states of the model's
    chain: its N states at the first order, and at the second the state
    pairs its topology allows (`hmm2._pairs`). A model made by `stack`
    carries its models' arrays under a leading bank axis, and its hooks then
    serve one chain per model (G = B in the engine's terms).
    - `_chain(logb)`: the lattice engine's (log initial rows, transitions,
      emission tables) for a (T, N) emission table, or a stack (..., T, N)
      of them under the arrays' leading axes or over one model's arrays.
      It is `_head` of the first frame, then `_rows`.
    - `_head(first)`: the rows and transitions alone, for first-frame
      emissions (..., N).
    - `_rows(logb)`: the tables alone, one row per frame from frame
      `order - 1` on, as a view of one row-major (R, ..., S) array: the
      layout the engine reads without a copy.
    - `_occupancy(gamma)`: from (R, B, S) chain posteriors to (T, B, N)
      state occupancies.
    - `_reestimate(start, first, counts, mixtures)`: the transition M-step.
      It gets the first-frame state occupancies, the chains' first-row
      posteriors and their transition counts, each summed over a corpus. It
      returns the new model and {kind of parameter: mask of those that had
      no count and kept their values}.
    """

    _ARRAYS: tuple[str, ...]
    mixtures: GaussianMixture
    topology: str

    def __post_init__(self):
        for name in self._ARRAYS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        if not isinstance(self.mixtures, GaussianMixture):
            self.mixtures = GaussianMixture.stack(self.mixtures)
        check_model(self._ARRAYS, [getattr(self, name) for name in self._ARRAYS],
                    self.mixtures.weights.shape, self.topology)

    @classmethod
    def from_checked(cls, *fields):
        """A model of its fields, in order, whose arrays `check_model` and
        `check_mixtures` have passed, built without checking them again."""
        model = object.__new__(cls)
        model.__dict__.update(zip(cls._ARRAYS + ("mixtures", "topology"), fields))
        return model

    @classmethod
    def bank(cls, arrays, mixtures, topology: str) -> list:
        """The models of stacked arrays, each array holding one model per
        index of its leading axis: `arrays`, the initial vector and
        transition arrays, and `mixtures`, the mixture weights, means and
        variances. The checks run once over the stacks (`check_mixtures`,
        `check_model`) and raise DataError; each model is then built from
        its views without checking it again."""
        check_mixtures(*mixtures, lead=1)
        check_model(cls._ARRAYS, arrays, mixtures[0].shape, topology, lead=1)
        return [cls.from_checked(*parts[:-3], GaussianMixture.from_checked(*parts[-3:]), topology)
                for parts in zip(*arrays, *mixtures)]

    @classmethod
    def stack(cls, models) -> StateModel:
        """One model whose arrays are the given models' arrays stacked on a
        leading axis, in order, built without checking them again; its
        topology is theirs when they share one, and otherwise ergodic, whose
        chain holds every model of either topology."""
        models = list(models)
        topologies = {model.topology for model in models}
        return cls.from_checked(
            *(np.stack([getattr(model, name) for model in models]) for name in cls._ARRAYS),
            GaussianMixture.from_checked(*(np.stack([getattr(model.mixtures, part)
                                                     for model in models])
                                           for part in ("weights", "means", "variances"))),
            topologies.pop() if len(topologies) == 1 else "ergodic")

    def _chain(self, logb: np.ndarray):
        rows = self._rows(logb)
        return (*self._head(logb[..., 0, :]), rows)

    @property
    def n_states(self) -> int:
        return getattr(self, self._ARRAYS[0]).shape[-1]

    @property
    def n_components(self) -> int:
        return self.mixtures.n_components

    @property
    def dim(self) -> int:
        return self.mixtures.dim

    def emission_log_probs(self, obs) -> np.ndarray:
        """(T, N) matrix of log b_j(O_t)."""
        return log_densities(self.mixtures, frames_of(obs))


def check_model(names, arrays, weights_shape, topology, lead: int = 0) -> None:
    """`StateModel`'s check, on the float initial vector and transition
    arrays `arrays`, named `names`, of one model, or of many under `lead`
    leading axes (a pack's models, say), with mixture weights of shape
    `weights_shape`: DataError unless every array has the model's N on each
    of its own axes and the weights one row per state, every row is a
    probability vector, the topology is known, and a left-right model has no
    backward transition."""
    shape = arrays[0].shape[:lead]
    n = arrays[0].size // max(math.prod(shape), 1)
    if (any(x.shape != shape + (n,) * (rank + 1) for rank, x in enumerate(arrays))
            or weights_shape[:-1] != shape + (n,)):
        raise DataError(f"inconsistent state counts across {', '.join(names)}, mixtures")
    for name, x in zip(names, arrays):
        if not _stochastic(x):
            raise DataError(f"every row of {name} must be a probability vector")
    if topology not in TOPOLOGIES:
        raise DataError(f"unknown topology {topology!r}")
    back = ~_allowed(n, topology)  # the steps j -> k it forbids; on a3, its last two axes
    for name, x in zip(names[1:], arrays[1:]):
        if x[..., back].any():
            raise DataError(f"left-right topology forbids backward {name} transitions")


def normalise_rows(counts: np.ndarray, old: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows (along the last axis) of counts scaled to sum to 1, and the mask
    of the rows with no count, which keep their old values."""
    new = old.copy()
    denom = counts.sum(axis=-1)
    rows = denom > 0
    new[rows] = counts[rows] / denom[rows][:, None]
    return new, ~rows


def _update_mixtures(mixtures, occ, frames, comp, logb, floor):
    """Shared GMM M-step given per-frame state occupancies.

    occ: the (T, N) state occupancies of every training frame; frames: those
    (T, D) frames; comp and logb: their state-major (N, M, T) weighted
    component log densities (`component_table`) and (N, T) emission table. A
    state that cannot emit a frame (log density -inf) takes no share of it.
    Returns the new stack and a (N, M) mask of the components that had zero
    occupancy; those components, and states whose every component is empty,
    keep their previous parameters.
    """
    n, m_comp, d = mixtures.means.shape
    with np.errstate(invalid="ignore"):
        resp = np.exp(comp - logb[:, None])                   # (N, M, T)
    resp.transpose(0, 2, 1)[logb == -np.inf] = 0.0  # exp(-inf - -inf) is NaN, even times 0
    resp *= occ.T[:, None]
    w_acc = resp.sum(axis=2)
    moments = resp.reshape(n * m_comp, -1) @ np.concatenate([frames, frames * frames], axis=1)
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


class Corpus:
    """One label's training sequences as the flat start and the EM loop read
    them, built once per bank by `corpora`, which has converted and checked
    them: the frames of all its sequences in one (T, D) array, each frame's
    time in its sequence and its sequence, the sequence lengths, their names
    in messages and the label's variance floor."""

    def __init__(self, label: str, mats: list[np.ndarray], names: list[str]):
        self.label, self.names = label, names
        self.frames = np.concatenate(mats)
        self.lengths = np.array([len(mat) for mat in mats])
        self.time = np.concatenate([np.arange(n) for n in self.lengths])
        self.seq = np.repeat(np.arange(len(mats)), self.lengths)
        self.floor = variance_floor(self.frames)


def corpora(training_sets) -> list[Corpus]:
    """The `Corpus` of each label of training_sets (label -> sequences), in
    its order; a list of corpora, which a caller builds once to hand to both
    the flat start and the EM loop, is returned as it is. This is where a
    bank's training input is checked: no labels, a label without sequences,
    or a sequence whose dimension differs from the bank's first sequence,
    raises DataError naming its condition and source."""
    if not training_sets:
        raise DataError("no condition labels to train")
    if not isinstance(training_sets, dict):
        return list(training_sets)
    bank, dim = [], None
    for label, seqs in training_sets.items():
        if not seqs:
            raise DataError(f"condition {label!r} has no training sequences")
        mats = [frames_of(seq) for seq in seqs]
        names = [source_of(seq, i) for i, seq in enumerate(seqs)]
        dim = mats[0].shape[1] if dim is None else dim
        for name, mat in zip(names, mats):
            if mat.shape[1] != dim:
                raise DataError(f"condition {label!r}: {name} has {mat.shape[1]} dimensions, "
                                f"the first training sequence {dim}")
        bank.append(Corpus(label, mats, names))
    return bank


class _Member:
    """One model of a bank in the EM loop: its corpus (`Corpus`), trace and
    zero-occupancy tally ({kind: (mask ever kept, iterations that kept any)})."""

    def __init__(self, model, corpus: Corpus):
        short = np.flatnonzero(corpus.lengths <= model.order)
        if short.size:
            raise DataError(f"condition {corpus.label!r}: {corpus.names[short[0]]} has "
                            f"T = {corpus.lengths[short[0]]}; order-{model.order} "
                            f"training needs T >= {model.order + 1}")
        if corpus.frames.shape[1] != model.dim:
            raise DataError(f"condition {corpus.label!r}: {corpus.names[0]} has "
                            f"{corpus.frames.shape[1]} dimensions, the model {model.dim}")
        self.model = model
        self.floor, self.frames, self.lengths = corpus.floor, corpus.frames, corpus.lengths
        self.time, self.seq = corpus.time, corpus.seq
        self.trace: list[float] = []
        self.zero: dict[str, tuple[np.ndarray, int]] = {}

    def converged(self, tol: float) -> bool:
        trace = self.trace
        return len(trace) >= 2 and trace[-1] - trace[-2] < tol * abs(trace[-2])


def baum_welch(models, training_sets: dict[str, list] | list[Corpus],
               cfg: TrainConfig | None = None) -> list[tuple]:
    """The EM loop of a bank of models of one class, one per label of
    training_sets (label -> sequences, or their `corpora`), in its order;
    returns each model's (model, log-likelihood trace).

    Each iteration writes each training model's emission (one call over its
    corpus) into one (T, B, N) table, padded -inf, takes the chains' tables
    from it (`_rows`) in the lattice engine's (R, B, S) layout, and runs one
    `lattice.estep` on them: K chains to a model, K the
    most sequences any model has, and a model with fewer fills its group
    with chains of length 0, which the engine leaves out of its products.
    The whole stack's occupancies, then each model's GMM and transition
    M-steps follow. A model whose relative log-likelihood gain falls below
    `cfg.tol` leaves the stack; each model's results are those it gets
    trained alone.

    Zero-occupancy summaries go to the logger of the models' module, one per
    model and kind of parameter. Input that `corpora` refuses, a sequence
    too short for the order, or a corpus of another dimension than its
    model, raises DataError naming its condition and source; a non-finite
    log-likelihood raises NumericError.
    """
    cfg = cfg or TrainConfig()
    if len({model.topology for model in models}) > 1:
        raise DataError("the models of one EM loop must share one topology")
    logger = logging.getLogger(type(models[0]).__module__)
    bank = [_Member(model, corpus) for model, corpus in zip(models, corpora(training_sets))]
    order, n = models[0].order, models[0].n_states
    k, t_max = max(len(m.lengths) for m in bank), max(m.lengths.max() for m in bank)
    rows = np.array([np.pad(m.lengths - (order - 1), (0, k - len(m.lengths))) for m in bank])
    active = list(range(len(bank)))
    for _ in range(cfg.max_iterations):
        # frame t of each chain at row t, then each chain's table (`_rows`)
        frames = np.full((t_max, len(active) * k, n), -np.inf)
        heads, scored = [], []
        for i, g in enumerate(active):
            member, chains = bank[g], i * k + bank[g].seq
            comp = component_table(member.model.mixtures, member.frames)
            logb = lattice.logsumexp(comp, axis=1)
            frames[member.time, chains] = logb.T
            heads.append(member.model._head(frames[0, i * k:(i + 1) * k]))
            scored.append((comp, logb, chains))
        log_init, trans = zip(*heads)
        table = models[0]._rows(frames.swapaxes(0, 1))
        del frames
        gamma, xi, ll = lattice.estep(np.concatenate(log_init), np.stack(trans), table,
                                      rows[active].ravel())
        occ = models[0]._occupancy(gamma.swapaxes(0, 1))  # in the engine's (R, B, S) layout
        for i, (g, (comp, logb, chains)) in enumerate(zip(active, scored)):
            member = bank[g]
            own = slice(i * k, i * k + len(member.lengths))
            member.trace.append(float(ll[own].sum()))
            mixtures, empty = _update_mixtures(member.model.mixtures, occ[member.time, chains],
                                               member.frames, comp, logb, member.floor)
            member.model, kept = member.model._reestimate(
                occ[0, own].sum(axis=0), gamma[own, 0].sum(axis=0), xi[own].sum(axis=0), mixtures)
            for kind, mask in {**kept, "mixture components": empty}.items():
                seen, iters = member.zero.get(kind, (False, 0))
                member.zero[kind] = (seen | mask, iters + int(np.any(mask)))
        del gamma, occ, table  # before the next iteration allocates its own
        active = [g for g in active if not bank[g].converged(cfg.tol)]
        if not active:
            break
    for member in bank:
        for kind, (seen, iters) in member.zero.items():
            if iters:
                logger.warning("%d %s had zero occupancy in %d of %d EM iterations; kept",
                               int(seen.sum()), kind, iters, len(member.trace))
    return [(member.model, member.trace) for member in bank]
