"""Second-order continuous-density HMM: extended Viterbi, forward/backward, sampling, EM.

State pairs index every lattice: a trellis cell (t, j, k) covers the
transition between times t-1 and t. The model runs as a first-order chain
over state pairs, P[(i, j), (j, k)] = a3[i, j, k] (du Preez 1998, order
reduction), on the shared lattice engine (`hmm2tc.lattice`), which sees
only its states and transitions. The hooks of the EM loop and of bank
scoring run the chain over the pairs (j, k) that the topology allows: all
N*N of them when ergodic, and the N(N + 1)/2 with k >= j when left-right,
whose other pairs no path can enter. One index map (`_pairs`) gives those
pairs, in ascending j * N + k, and their steps; the hooks read it, and no
other module knows which pairs a chain holds. The E-step runs in the
probability domain with per-row scaling (log domain for sequences that one
scale per row cannot hold), forward and Viterbi in the log domain.
`forward2`, `viterbi2` and `backward2` run the chain over all N*N pairs
(`_every_pair`), since beta is defined on pairs that no path enters too;
the forward lattice and the Viterbi path have the bits of the chain over
the allowed pairs, as the engine gives a chain with states that no path
enters the bits of the same chain without them.
Impossible events carry -inf in every log-domain result. `Hmm2Model` gives
the EM loop of both orders (`hmm2tc.em`) its pair chain, the map from pair
posteriors to state occupancies, and its psi, a2 and a3 M-step; its hooks
also serve a bank's models stacked on a leading axis (`StateModel.stack`).
`sample_hmm2` is the one sampler: an HMM1 draws as its lift (`lift_hmm1`),
a3[i, j, k] = a[j, k].
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from . import lattice
from .config import TrainConfig
from .errors import DataError
from .gmm import GaussianMixture
from .em import StateModel, _allowed, baum_welch, normalise_rows
from .hmm1 import Hmm1Model
from .lattice import _log
from .lattice import logsumexp  # noqa: F401  (perfbench/spans.py counts its calls here)


def _pairs(n: int, topology: str):
    """The index map of the pair chain: its pairs (j, k), those `_allowed`,
    in ascending j * N + k, as the arrays j and k, in which each j's pairs
    run from some k up to N - 1; and its steps, as the arrays p and q of the
    pairs p = (i, j) that step to q = (j, k)."""
    j, k = np.nonzero(_allowed(n, topology))
    p, q = np.nonzero(k[:, None] == j)
    return j, k, p, q


@dataclass
class Hmm2Model(StateModel):
    psi: np.ndarray                  # (N,)  initial state probabilities
    a2: np.ndarray                   # (N, N)  first-step transition matrix
    a3: np.ndarray                   # (N, N, N)  a3[i, j, k] = P(k | j, i)
    mixtures: GaussianMixture        # a stack of N
    topology: str = "ergodic"

    order = 2
    _ARRAYS = ("psi", "a2", "a3")

    def _rows(self, logb: np.ndarray) -> np.ndarray:
        """Row r of the pair lattice covers frames (r, r + 1), and pair
        (j, k) emits frame r + 1 from state k; the initial row holds psi, a2
        and the first frame's emission (`_head`)."""
        if logb.shape[-2] < 2:
            raise DataError("second-order recursions require T >= 2")
        k = _pairs(self.n_states, self.topology)[1]
        rows = np.ascontiguousarray(np.moveaxis(logb, -2, 0)[1:])
        return np.moveaxis(rows[..., k], 0, -2)   # row-major in, row-major out

    def _head(self, first: np.ndarray):
        j, k, p, q = _pairs(self.n_states, self.topology)
        log_init = (_log(self.psi) + first)[..., j] + _log(self.a2[..., j, k])
        trans = np.zeros(self.a3.shape[:-3] + (len(j), len(j)))
        trans[..., p, q] = self.a3[..., j[p], k[p], k[q]]
        return log_init, trans

    def _occupancy(self, gamma: np.ndarray) -> np.ndarray:
        """(T, B, N) state occupancies from (T-1, B, S) pair posteriors: frame 0
        of state j sums row 0's pairs (j, k) over all N values of k, and frame
        r + 1 of state k adds row r's pairs (j, k) over j in turn, which
        beats numpy's sum over that short axis. A pair the chain leaves out
        has posterior 0, so each sum has the bits of the same sum over every
        pair."""
        n = self.n_states
        j, k = _pairs(n, self.topology)[:2]
        occ = np.zeros((len(gamma) + 1,) + gamma.shape[1:-1] + (n,))
        first = np.zeros(gamma.shape[1:-1] + (n, n))
        first[..., j, k] = gamma[0]
        first.sum(axis=-1, out=occ[0])
        starts = np.flatnonzero(np.diff(j, prepend=-1))   # each j's first pair
        for a, b in zip(starts, [*starts[1:], len(j)]):
            occ[1:, ..., k[a]:] += gamma[..., a:b]
        return occ

    def _reestimate(self, start, first, counts, mixtures) -> tuple["Hmm2Model", dict]:
        n = self.n_states
        j, k, p, q = _pairs(n, self.topology)
        pair_first = np.zeros((n, n))
        pair_first[j, k] = first
        a2 = normalise_rows(pair_first, self.a2)[0]
        a3_counts = np.zeros((n, n, n))
        a3_counts[j[p], k[p], k[q]] = counts[p, q]
        a3, kept = normalise_rows(a3_counts, self.a3)
        return (Hmm2Model(start / start.sum(), a2, a3, mixtures, self.topology),
                {"(i, j) pairs": kept[j, k]})


@dataclass
class Trellis2:
    """Log-domain lattice over state pairs; row s covers times (s+1, s+2), 1-based."""

    values: np.ndarray               # (T-1, N, N)


def lift_hmm1(model: Hmm1Model) -> Hmm2Model:
    """Embed a first-order model: a3[i, j, k] := a[j, k] for every i; the
    two models share one emission stack."""
    n = model.n_states
    return Hmm2Model(model.pi.copy(), model.a.copy(),
                     np.broadcast_to(model.a[None], (n, n, n)).copy(),
                     model.mixtures, model.topology)


def path_log_prob2(model: Hmm2Model, states, obs=None) -> float:
    """Log joint probability of a state path, with emissions unless obs is None."""
    states = np.asarray(states, dtype=np.intp)
    t_len = states.size
    if t_len < 2:
        raise DataError("paths must have length >= 2")
    if np.any(states < 0) or np.any(states >= model.n_states):
        raise DataError("state index out of range")
    with np.errstate(divide="ignore"):
        total = np.log(model.psi[states[0]]) + np.log(model.a2[states[0], states[1]])
        if t_len > 2:
            total += np.sum(np.log(model.a3[states[:-2], states[1:-1], states[2:]]))
    if obs is not None:
        logb = model.emission_log_probs(obs)
        if logb.shape[0] != t_len:
            raise DataError("state path and observation sequence lengths differ")
        total += np.sum(logb[np.arange(t_len), states])
    return float(total)


def _every_pair(model: Hmm2Model, obs):
    """The lattice engine's arguments for the model's chain over all N*N
    pairs (j, k), indexed j * N + k, those that the topology does not allow
    too, for an observation sequence."""
    every = Hmm2Model.from_checked(model.psi, model.a2, model.a3, model.mixtures, "ergodic")
    return every._chain(model.emission_log_probs(obs))


def forward2(model: Hmm2Model, obs) -> tuple[Trellis2, float]:
    """Extended forward lattice alpha_t(j, k) and total log-likelihood; a
    pair that the topology does not allow reads -inf."""
    la, ll = lattice.forward(*_every_pair(model, obs))
    return Trellis2(la.reshape(-1, model.n_states, model.n_states)), ll


def backward2(model: Hmm2Model, obs) -> Trellis2:
    """Extended backward lattice beta_t(i, j) over every pair, those that the
    topology does not allow too; beta_T is identically 1."""
    lb = lattice.backward(*_every_pair(model, obs)[1:])
    return Trellis2(lb.reshape(-1, model.n_states, model.n_states))


def viterbi2(model: Hmm2Model, obs) -> tuple[np.ndarray, float]:
    """Most likely state path and its log score; ties break toward the
    lowest pair index j * N + k, from the last frame back (`lattice.viterbi`)."""
    pairs, score = lattice.viterbi(*_every_pair(model, obs))
    return np.concatenate((pairs[:1] // model.n_states, pairs % model.n_states)), score


def sample_hmm2(model: Hmm2Model, t_len: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw a state path and observation sequence from the generative model.

    Each state is the first entry of its cdf row above a uniform draw, the
    rule of np.searchsorted(..., side="right"), found by bisect_right over
    the rows as Python lists: one numpy call per frame costs more than the
    search itself."""
    if t_len < 2:
        raise DataError("sequence length must be >= 2")
    rng = np.random.default_rng(seed)
    u = rng.random(t_len).tolist()
    cdf_a3 = _cdf(model.a3).tolist()
    path = [bisect_right(_cdf(model.psi).tolist(), u[0])]
    path.append(bisect_right(_cdf(model.a2)[path[0]].tolist(), u[1]))
    for t in range(2, t_len):
        path.append(bisect_right(cdf_a3[path[-2]][path[-1]], u[t]))
    states = np.array(path, dtype=np.intp)
    return states, _sample_frames(model.mixtures, states, rng)


def _cdf(p: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, each row ending at exactly 1."""
    cdf = np.cumsum(p, axis=-1)
    cdf[..., -1] = 1.0
    return cdf


def _sample_frames(mixtures: GaussianMixture, states, rng: np.random.Generator) -> np.ndarray:
    """One frame per state of the path, from a component drawn by weight."""
    u = rng.random(len(states))
    # each frame's searchsorted(cdf, u, side="right"): the cdf entries <= u
    comps = np.sum(_cdf(mixtures.weights)[states] <= u[:, None], axis=1)
    return rng.normal(mixtures.means[states, comps], np.sqrt(mixtures.variances[states, comps]))


def baum_welch2(model: Hmm2Model, corpus, cfg: TrainConfig | None = None
                ) -> tuple[Hmm2Model, list[float]]:
    """EM training of the second-order model over multiple sequences.

    The E-step runs on the pair chain: its transition counts are the a3
    counts, and the pair posteriors gamma_t(j, k) drive the Psi/a2 updates
    and the per-frame state occupancies for the GMM M-step. Raises
    NumericError when a sequence has a non-finite log-likelihood.
    """
    return baum_welch([model], {"": corpus}, cfg)[0]
