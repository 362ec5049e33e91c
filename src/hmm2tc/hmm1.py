"""First-order continuous-density HMM baseline.

Forward, Viterbi, the backward pass (`lattice.backward(model.a, logb)`) and
the EM E-step run on the shared lattice engine (`hmm2tc.lattice`) with S = N
states. `Hmm1Model` gives the EM loop of both orders (`hmm2tc.em`) its chain
over its own states, the identity map to state occupancies, and its pi and
a M-step. An HMM1 samples as its lift, `sample_hmm2(lift_hmm1(model))`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lattice
from .config import TrainConfig
from .em import StateModel, baum_welch, normalise_rows
from .gmm import GaussianMixture
from .lattice import _log
from .lattice import logsumexp  # noqa: F401  (perfbench/spans.py counts its calls here)


@dataclass
class Hmm1Model(StateModel):
    pi: np.ndarray                  # (N,)
    a: np.ndarray                   # (N, N)
    mixtures: GaussianMixture       # a stack of N
    topology: str = "ergodic"

    order = 1
    _ARRAYS = ("pi", "a")

    def _head(self, first: np.ndarray):
        return np.broadcast_to(_log(self.pi), first.shape), self.a

    def _rows(self, logb: np.ndarray) -> np.ndarray:
        """Its own states, one lattice row per frame."""
        return logb

    def _occupancy(self, gamma: np.ndarray) -> np.ndarray:
        return gamma

    def _reestimate(self, start, first, counts, mixtures) -> tuple["Hmm1Model", dict]:
        return Hmm1Model(start / start.sum(), normalise_rows(counts, self.a)[0], mixtures,
                         self.topology), {}


def forward1(model: Hmm1Model, obs) -> tuple[np.ndarray, float]:
    """Log forward lattice (T, N) and total log-likelihood."""
    return lattice.forward(*model._chain(model.emission_log_probs(obs)))


def viterbi1(model: Hmm1Model, obs) -> tuple[np.ndarray, float]:
    """Most likely state path and its log score; ties break toward the
    lowest state index, from the last frame back (`lattice.viterbi`)."""
    return lattice.viterbi(*model._chain(model.emission_log_probs(obs)))


def baum_welch1(model: Hmm1Model, corpus, cfg: TrainConfig | None = None
                ) -> tuple[Hmm1Model, list[float]]:
    """EM training over multiple sequences; returns (model, log-likelihood trace).

    Raises NumericError when a sequence has a non-finite log-likelihood.
    """
    return baum_welch([model], {"": corpus}, cfg)[0]
