"""Second-order continuous-density HMM: extended Viterbi, forward/backward, EM.

State pairs index every lattice: a trellis cell (t, j, k) covers the
transition between times t-1 and t. The model runs as a first-order chain
over the N*N pairs, P[(i, j), (j, k)] = a3[i, j, k], on the shared lattice
engine (`hmm2tc.lattice`): the EM E-step in the probability domain with
per-row scaling (log domain for sequences that one scale per row cannot
hold), forward, backward and Viterbi in the log domain. Impossible events
carry -inf in every log-domain result. `Hmm2Model` gives the shared EM loop
(`hmm2tc.hmm1._baum_welch`) its pair chain, the map from pair posteriors to
state occupancies, and its psi, a2 and a3 M-step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lattice
from .config import TrainConfig
from .errors import DataError
from .gmm import GaussianMixture
from .hmm1 import Hmm1Model, _StateMixtures, _baum_welch, _cdf, _normalise_rows, _sample_frames
from .lattice import _log
from .lattice import logsumexp  # noqa: F401  (perfbench/spans.py counts its calls here)


@dataclass
class Hmm2Model(_StateMixtures):
    psi: np.ndarray                  # (N,)  initial state probabilities
    a2: np.ndarray                   # (N, N)  first-step transition matrix
    a3: np.ndarray                   # (N, N, N)  a3[i, j, k] = P(k | j, i)
    mixtures: GaussianMixture        # a stack of N
    topology: str = "ergodic"

    order = 2
    _ARRAYS = ("psi", "a2", "a3")

    def _chain(self, logb: np.ndarray):
        """The chain over pairs (j, k), indexed j * N + k. Row r of the pair
        lattice covers frames (r, r + 1): the initial row holds psi, a2 and
        the first frame's emission, and pair (j, k) emits frame r + 1 from
        state k."""
        if logb.shape[-2] < 2:
            raise DataError("second-order recursions require T >= 2")
        n = self.n_states
        log_init = (_log(self.psi) + logb[..., 0, :])[..., :, None] + _log(self.a2)
        trans = np.zeros((n, n, n, n))
        same = np.arange(n)
        trans[:, same, same, :] = self.a3
        return (log_init.reshape(logb.shape[:-2] + (n * n,)), trans.reshape(n * n, n * n),
                np.tile(logb[..., 1:, :], n))

    def _occupancy(self, gamma: np.ndarray) -> np.ndarray:
        """(B, T, N) state occupancies from (B, T-1, N*N) pair posteriors."""
        n = self.n_states
        gamma = gamma.reshape(gamma.shape[:2] + (n, n))
        return np.concatenate([gamma[:, :1].sum(axis=3), gamma.sum(axis=2)], axis=1)

    def _reestimate(self, start, first, counts, mixtures, freeze, zero) -> "Hmm2Model":
        n = self.n_states
        psi, a2 = self.psi, self.a2
        if not freeze:
            psi = start / start.sum()
            a2 = _normalise_rows(first.reshape(n, n), self.a2)[0]
        same = np.arange(n)
        a3, kept = _normalise_rows(counts.reshape(n, n, n, n)[:, same, same, :], self.a3)
        zero.add("(i, j) pairs", kept)
        return Hmm2Model(psi, a2, a3, mixtures, self.topology)


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


def forward2(model: Hmm2Model, obs) -> tuple[Trellis2, float]:
    """Extended forward lattice alpha_t(j, k) and total log-likelihood."""
    la, ll = lattice.forward(*model._chain(model.emission_log_probs(obs)))
    n = model.n_states
    return Trellis2(la.reshape(-1, n, n)), ll


def backward2(model: Hmm2Model, obs) -> Trellis2:
    """Extended backward lattice beta_t(i, j); beta_T is identically 1."""
    _, trans, pair_logb = model._chain(model.emission_log_probs(obs))
    n = model.n_states
    return Trellis2(lattice.backward(trans, pair_logb).reshape(-1, n, n))


def viterbi2(model: Hmm2Model, obs) -> tuple[np.ndarray, float]:
    """Most likely state path and its log score; ties break toward the
    lowest pair index j * N + k, from the last frame back (`lattice.viterbi`)."""
    pairs, score = lattice.viterbi(*model._chain(model.emission_log_probs(obs)))
    n = model.n_states
    return np.concatenate(([pairs[0] // n], pairs % n)), score


def sample_hmm2(model: Hmm2Model, t_len: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Draw a state path and observation sequence from the generative model."""
    if t_len < 2:
        raise DataError("sequence length must be >= 2")
    rng = np.random.default_rng(seed)
    u = rng.random(t_len)
    cdf_a3 = _cdf(model.a3)
    states = np.empty(t_len, dtype=np.intp)
    states[0] = np.searchsorted(_cdf(model.psi), u[0], side="right")
    states[1] = np.searchsorted(_cdf(model.a2)[states[0]], u[1], side="right")
    for t in range(2, t_len):
        states[t] = np.searchsorted(cdf_a3[states[t - 2], states[t - 1]],
                                    u[t], side="right")
    return states, _sample_frames(model.mixtures, states, rng)


def baum_welch2(model: Hmm2Model, corpus, cfg: TrainConfig | None = None
                ) -> tuple[Hmm2Model, list[float]]:
    """EM training of the second-order model over multiple sequences.

    The E-step runs on the pair chain: its transition counts are the a3
    counts, and the pair posteriors gamma_t(j, k) drive the Psi/a2 updates
    and the per-frame state occupancies for the GMM M-step. Raises
    NumericError when a sequence has a non-finite log-likelihood.
    """
    return _baum_welch([model], [corpus], cfg)[0]
