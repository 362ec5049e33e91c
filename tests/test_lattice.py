"""The scaled lattice engine against fixed values, the brute-force oracles and
log-domain reference recursions kept here for comparison."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from hmm2tc import lattice
from hmm2tc.errors import NumericError
from hmm2tc.gmm import GaussianMixture
from hmm2tc.hmm1 import Hmm1Model, forward1, viterbi1
from hmm2tc.hmm2 import (Hmm2Model, _pairs, backward2, forward2, lift_hmm1,
                         viterbi2)

from conftest import (_path_scores2, enumerate_loglik1, enumerate_loglik2,
                      enumerate_viterbi2)


def _log(p):
    with np.errstate(divide="ignore"):
        return np.log(p)


def _kept(*args):
    """The mask of the chains whose scaled E-step `lattice.estep` keeps."""
    return lattice._scaled_estep(lattice._chains(*args)[1])[3]


def reference_forward2(model, obs):
    """Log-domain forward recursion over (i, j, k) with log-sum-exp per frame."""
    logb = model.emission_log_probs(obs)
    la = (_log(model.psi) + logb[0])[:, None] + _log(model.a2) + logb[1][None, :]
    for t in range(2, logb.shape[0]):
        la = logsumexp(la[:, :, None] + _log(model.a3), axis=0) + logb[t][None, :]
    return float(logsumexp(la))


def reference_viterbi2(model, obs):
    """Log-domain max-product over (i, j, k); ties go to the lowest index."""
    logb = model.emission_log_probs(obs)
    n = model.n_states
    delta = (_log(model.psi) + logb[0])[:, None] + _log(model.a2) + logb[1][None, :]
    back = []
    for t in range(2, logb.shape[0]):
        cand = delta[:, :, None] + _log(model.a3)
        back.append(np.argmax(cand, axis=0))
        delta = np.max(cand, axis=0) + logb[t][None, :]
    j, k = divmod(int(np.argmax(delta)), n)
    path = [j, k]
    for ptr in reversed(back):
        path.insert(0, int(ptr[path[0], path[1]]))
    return path, float(delta.max())


def enumerated_posteriors2(model, obs, ll):
    """Pair posteriors (T-1, N, N) and a3 counts (N, N, N) by path enumeration."""
    n, t_len = model.n_states, obs.shape[0]
    want_gamma = np.zeros((t_len - 1, n, n))
    want_a3 = np.zeros((n, n, n))
    for q, lp in _path_scores2(model, obs):
        w = np.exp(lp - ll)
        for s in range(t_len - 1):
            want_gamma[s, q[s], q[s + 1]] += w
        for t in range(2, t_len):
            want_a3[q[t - 2], q[t - 1], q[t]] += w
    return want_gamma, want_a3


def left_right_mixtures():
    return [GaussianMixture([1.0], [[m]], [[1.0]]) for m in (0.0, 0.0, 45.0)]


def left_right_hmm2():
    """Reachable states score ~1000 nats below state 2 on the first frames."""
    a2 = np.triu(np.ones((3, 3)))
    a2 /= a2.sum(axis=1, keepdims=True)
    a3 = np.zeros((3, 3, 3))
    for j in range(3):
        a3[:, j, j:] = 1.0 / (3 - j)
    return Hmm2Model([1.0, 0.0, 0.0], a2, a3, left_right_mixtures(), "left-right")


FRAMES_45 = np.full((6, 1), 45.0)


class TestLeftRightFarFromUnreachable:
    def test_forward2_value(self):
        _, ll = forward2(left_right_hmm2(), FRAMES_45)
        assert ll == pytest.approx(-1019.1122434878964, rel=1e-9)
        assert ll == pytest.approx(enumerate_loglik2(left_right_hmm2(), FRAMES_45), rel=1e-9)

    def test_backward2_row_identity(self):
        model = left_right_hmm2()
        alpha, ll = forward2(model, FRAMES_45)
        beta = backward2(model, FRAMES_45)
        for s in range(alpha.values.shape[0]):
            row_ll = logsumexp(alpha.values[s] + beta.values[s])
            assert abs(row_ll - ll) <= 1e-8 * max(1.0, abs(ll))

    def test_backward_exact_for_unreached_states(self):
        # state 0 scores ~1013 nats per frame below state 2; its beta stays finite
        model = Hmm1Model([1.0, 0.0, 0.0], [[.5, .5, 0], [0, .5, .5], [0, 0, 1]],
                          left_right_mixtures(), "left-right")
        lb = lattice.backward(model.a, model.emission_log_probs(FRAMES_45))
        assert np.all(np.isfinite(lb))
        assert lb[0, 0] == pytest.approx(-1018.48098703, abs=1e-6)

    def test_forward1_value(self):
        model = Hmm1Model([1.0, 0.0, 0.0], [[.5, .5, 0], [0, .5, .5], [0, 0, 1]],
                          left_right_mixtures(), "left-right")
        _, ll = forward1(model, FRAMES_45)
        assert ll == pytest.approx(-2031.899925560348, rel=1e-9)
        assert ll == pytest.approx(enumerate_loglik1(model, FRAMES_45), rel=1e-9)
        path, _ = viterbi1(model, FRAMES_45)
        assert path.tolist() == [0, 1, 2, 2, 2, 2]


class TestDroppedStateRevives:
    """A reachable state ~1000 nats below the row's best on frames 1-2 carries
    the best paths on the frames after them; a single scale per row would
    drop it and give about -4058 instead of -2032."""

    FRAMES = np.array([0.0, 45.0, 45.0, 0.0, 0.0, 0.0])[:, None]

    def model1(self):
        return Hmm1Model([1.0, 0.0, 0.0], [[.5, .5, 0], [0, .5, .5], [0, 0, 1]],
                         left_right_mixtures(), "left-right")

    def test_order_one(self):
        model = self.model1()
        want = enumerate_loglik1(model, self.FRAMES)
        assert want == pytest.approx(-2032.1876076327994, rel=1e-12)
        _, ll = forward1(model, self.FRAMES)
        assert ll == pytest.approx(want, rel=1e-9)
        _, _, em_ll = lattice.estep(_log(model.pi), model.a,
                                    model.emission_log_probs(self.FRAMES))
        assert em_ll == pytest.approx(want, rel=1e-9)
        path, score = viterbi1(model, self.FRAMES)
        assert score <= ll
        assert path.tolist() == [0, 0, 0, 0, 0, 0]

    def test_order_two(self):
        model = lift_hmm1(self.model1())
        want = enumerate_loglik2(model, self.FRAMES)
        _, ll = forward2(model, self.FRAMES)
        assert ll == pytest.approx(want, rel=1e-9)
        gamma, counts, em_ll = lattice.estep(
            *model._chain(model.emission_log_probs(self.FRAMES)))
        assert em_ll == pytest.approx(want, rel=1e-9)
        want_gamma, want_a3 = enumerated_posteriors2(model, self.FRAMES, em_ll)
        # the chain holds the pairs (j, k) with k >= j, in the order of _pairs
        n = model.n_states
        j, k, p, q = _pairs(n, model.topology)
        pair_gamma = np.zeros((len(gamma), n, n))
        pair_gamma[:, j, k] = gamma
        a3_counts = np.zeros((n, n, n))
        a3_counts[j[p], k[p], k[q]] = counts[p, q]
        assert np.allclose(pair_gamma, want_gamma, rtol=1e-9, atol=1e-12)
        assert np.allclose(a3_counts, want_a3, rtol=1e-9, atol=1e-12)
        _, score = viterbi2(model, self.FRAMES)
        assert score <= ll


def enumerate_chain(log_init, trans, logb):
    """Brute-force log-likelihood of an engine chain over every state path."""
    rows, s = logb.shape
    log_trans = _log(trans)
    scores = [log_init[q[0]] + sum(logb[r, k] for r, k in enumerate(q))
              + sum(log_trans[i, k] for i, k in zip(q, q[1:]))
              for q in itertools.product(range(s), repeat=rows)]
    return float(logsumexp(scores))


def test_dropped_state_is_kept_when_its_row_still_has_mass():
    # states 0 and 1 fall ~1000 nats behind state 2 on rows 1-2, then carry
    # the best paths; state 2 keeps rows 3-5 a small but nonzero scale, so
    # only the per-cell check can tell that the scaled pass lost them
    log_init = _log(np.array([1.0, 0.0, 0.0]))
    trans = np.array([[.5, .5, 0], [0, .5, .5], [0, 0, 1]])
    logb = np.array([[0, 0, -700], [-1000, -1000, 0], [-1000, -1000, 0],
                     [0, 0, -700], [0, 0, -700], [0, 0, -700]], dtype=float)
    want = enumerate_chain(log_init, trans, logb)
    assert not _kept(log_init, trans, logb)[0]
    _, ll = lattice.forward(log_init, trans, logb)
    assert ll == pytest.approx(want, rel=1e-12)
    _, _, em_ll = lattice.estep(log_init, trans, logb)
    assert em_ll == pytest.approx(want, rel=1e-12)


def test_chain_whose_scale_only_the_per_cell_check_rejects_leaves_no_overflow():
    # row 1 keeps only state 1, whose mass e**-730 is subnormal: the row's
    # scale is above 0, but 1 / scale overflows
    log_init = _log(np.array([.5, .5]))
    logb = np.array([[0, -730], [-1000, 0], [0, 0]], dtype=float)
    assert not _kept(log_init, np.eye(2), logb)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        _, _, ll = lattice.estep(log_init, np.eye(2), logb)
    assert ll == pytest.approx(enumerate_chain(log_init, np.eye(2), logb), rel=1e-12)


def reference_forward1(model, obs):
    """Log-domain forward recursion with log-sum-exp per frame."""
    logb = model.emission_log_probs(obs)
    la = np.empty(logb.shape)
    la[0] = _log(model.pi) + logb[0]
    for t in range(1, len(la)):
        la[t] = logsumexp(la[t - 1][:, None] + _log(model.a), axis=0) + logb[t]
    return la


@pytest.mark.parametrize("far", [False, True])
def test_scaled_and_log_domain_passes_agree(far):
    # one frame far from every mean spreads its row beyond what one scale can
    # hold, and the sequence runs in the log domain; without it, scaled
    rng = np.random.default_rng(5)
    mix = [GaussianMixture([1.0], [[m]], [[v]]) for m, v in ((0.0, 1.0), (2.0, 0.5), (-1.0, 4.0))]
    model = Hmm1Model([0.2, 0.3, 0.5], rng.dirichlet(np.ones(3), size=3), mix)
    obs = rng.normal(0, 1, size=(30, 1))
    if far:
        obs[12] = 80.0
    logb = model.emission_log_probs(obs)
    assert (not _kept(_log(model.pi), model.a, logb)[0]) == far
    want = reference_forward1(model, obs)
    la, ll = forward1(model, obs)
    assert np.allclose(la, want, rtol=1e-12, atol=0)
    assert ll == pytest.approx(logsumexp(want[-1]), rel=1e-12)
    gamma, counts, em_ll = lattice.estep(_log(model.pi), model.a, logb)
    assert em_ll == pytest.approx(ll, rel=1e-12)
    lb = lattice.backward(model.a, model.emission_log_probs(obs))
    assert np.allclose(gamma, np.exp(want + lb - em_ll), rtol=1e-9, atol=1e-15)
    assert np.allclose(gamma.sum(axis=1), 1.0, rtol=1e-12)
    assert counts.sum() == pytest.approx(29.0, rel=1e-12)


def test_unreachable_frames_give_minus_inf():
    mix = [GaussianMixture([1.0], [[0.0]], [[1.0]]) for _ in range(2)]
    model = Hmm1Model([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], mix)
    logb = model.emission_log_probs(np.zeros((4, 1)))
    logb[2, 0] = -np.inf
    la, ll = lattice.forward(_log(model.pi), model.a, logb)
    assert ll == -np.inf and np.all(la[2:] == -np.inf)
    with pytest.raises(NumericError):
        lattice.estep(_log(model.pi), model.a, logb)


def test_backward_padding_rows_are_minus_inf():
    # chains of lengths 2 and 0 beside a full-length one: every row after a
    # chain's length is padding, the last row included
    trans = np.full((2, 2), 0.5)
    lb = lattice.backward(trans, np.zeros((3, 4, 2)), [2, 0, 4])
    assert np.all(lb[0, :2] == 0) and np.all(lb[0, 2:] == -np.inf)
    assert np.all(lb[1] == -np.inf)
    assert np.array_equal(lb[2], lattice.backward(trans, np.zeros((4, 2))))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=30))
def test_row_ends_match_a_search_per_distinct_length(lengths):
    lengths = np.array(lengths, dtype=np.intp)
    last = lengths - 1
    want = {int(r): np.flatnonzero(last == r) for r in np.unique(last)}
    got = lattice._row_ends(lengths)
    assert got.keys() == want.keys()
    for r, chains in want.items():
        assert np.array_equal(got[r], chains)


def _stochastic(draw, shape):
    """Rows with entries in {0, 1/2, 1} before normalising: many zeros and ties."""
    w = np.asarray(draw(st.lists(st.integers(0, 2), min_size=int(np.prod(shape)),
                                 max_size=int(np.prod(shape)))), dtype=float).reshape(shape)
    w[..., 0] += w.sum(axis=-1) == 0
    return w / w.sum(axis=-1, keepdims=True)


@st.composite
def small_hmm2_cases(draw):
    n = draw(st.integers(2, 3))
    t_len = draw(st.integers(2, 5))
    # 45 lies ~1000 nats from the other values: rows then span more than one
    # scale can hold, and the engine must take its log-domain rows
    means = draw(st.lists(st.sampled_from([0.0, 1.0, 3.0, 45.0]), min_size=n, max_size=n))
    model = Hmm2Model(_stochastic(draw, (n,)), _stochastic(draw, (n, n)),
                      _stochastic(draw, (n, n, n)),
                      [GaussianMixture([1.0], [[m]], [[1.0]]) for m in means])
    frames = draw(st.lists(st.sampled_from([0.0, 1.0, 2.5, 45.0]), min_size=t_len,
                           max_size=t_len))
    return model, np.asarray(frames)[:, None]


@settings(max_examples=150, deadline=None)
@given(small_hmm2_cases())
def test_engine_matches_brute_force(case):
    model, obs = case
    oracle_ll = enumerate_loglik2(model, obs)
    _, ll = forward2(model, obs)
    assert ll == pytest.approx(oracle_ll, rel=1e-9, abs=1e-12)
    assert ll == pytest.approx(reference_forward2(model, obs), rel=1e-9, abs=1e-12)

    best_q, best = enumerate_viterbi2(model, obs)
    if best == -np.inf:
        with pytest.raises(NumericError):
            viterbi2(model, obs)
        return
    path, score = viterbi2(model, obs)
    assert score == pytest.approx(best, rel=1e-9)
    # The arithmetic is the reference's, so path and score are identical,
    # ties included: both break ties toward the lowest index from the last
    # frame back, while the oracle takes the first path in lexicographic order.
    ref_path, ref_score = reference_viterbi2(model, obs)
    assert path.tolist() == ref_path and score == ref_score
    runner_up = max((lp for q, lp in _path_scores2(model, obs) if q != best_q),
                    default=-np.inf)
    if best - runner_up > 1e-9 * abs(best):
        assert tuple(path) == best_q


@settings(max_examples=60, deadline=None)
@given(small_hmm2_cases())
def test_estep_matches_enumerated_posteriors(case):
    model, obs = case
    if enumerate_loglik2(model, obs) == -np.inf:
        return
    n = model.n_states
    gamma, counts, ll = lattice.estep(*model._chain(model.emission_log_probs(obs)))
    want_gamma, want_a3 = enumerated_posteriors2(model, obs, ll)
    assert np.allclose(gamma.reshape(-1, n, n), want_gamma, rtol=1e-9, atol=1e-12)
    same = np.arange(n)
    assert np.allclose(counts.reshape(n, n, n, n)[:, same, same, :], want_a3,
                       rtol=1e-9, atol=1e-12)
    # pair-chain counts only ever connect (i, j) to (j, k)
    mask = np.zeros((n, n, n, n), dtype=bool)
    mask[:, same, same, :] = True
    assert np.all(counts.reshape(n, n, n, n)[~mask] == 0)


def test_order_one_engine_with_zeroed_transitions():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = 3
        a = rng.dirichlet(np.ones(n), size=n) * rng.integers(0, 2, size=(n, n))
        a[:, 0] += a.sum(axis=1) == 0
        a /= a.sum(axis=1, keepdims=True)
        mix = [GaussianMixture([1.0], [[m]], [[1.0]]) for m in rng.normal(0, 2, n)]
        model = Hmm1Model(rng.dirichlet(np.ones(n)), a, mix)
        obs = rng.normal(0, 2, size=(5, 1))
        la, ll = forward1(model, obs)
        assert ll == pytest.approx(enumerate_loglik1(model, obs), rel=1e-9)
        lb = lattice.backward(model.a, model.emission_log_probs(obs))
        assert np.all(np.abs(logsumexp(la + lb, axis=1) - ll) <= 1e-9 * abs(ll))


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("frames", [TestDroppedStateRevives.FRAMES,
                                    np.array([0.0, 45.0, 45.0, 10.0, 10.0, 10.0])[:, None]])
def test_loglik_keeps_a_state_that_revives(order, frames):
    # states 0 and 1 underflow on the frames at 45 and carry the likelihood on
    # the frames after them. At 0.0 state 2 underflows as well and the scaled
    # pass stops; at 10.0 it keeps every row a nonzero scale, and the scaled
    # pass alone gives about -2857 there, where the enumeration gives about
    # -2182.
    model = TestDroppedStateRevives().model1()
    if order == 2:
        model = lift_hmm1(model)
        chain = model._chain(model.emission_log_probs(frames))
        want = enumerate_loglik2(model, frames)
    else:
        chain = (_log(model.pi), model.a, model.emission_log_probs(frames))
        want = enumerate_loglik1(model, frames)
    assert lattice.loglik(*chain) == pytest.approx(want, rel=1e-12)


@settings(max_examples=150, deadline=None)
@given(small_hmm2_cases())
def test_loglik_matches_the_log_domain(case):
    model, obs = case
    want = reference_forward2(model, obs)
    chain = model._chain(model.emission_log_probs(obs))
    assert lattice.loglik(*chain) == pytest.approx(want, rel=1e-9, abs=1e-12)
    for first in (model.psi, model.a2[0]):
        # the order-1 engine on each of the model's first-order pieces
        one = Hmm1Model(first, model.a2, model.mixtures)
        la = reference_forward1(one, obs)
        got = lattice.loglik(_log(one.pi), one.a, one.emission_log_probs(obs))
        assert got == pytest.approx(logsumexp(la[-1]), rel=1e-9, abs=1e-12)


def tie_rule_viterbi(model, obs):
    """Best path and score by brute force, ties broken by the stated rule.

    A path's chain state at frame t is q_t for an order-1 model and the pair
    (q_{t-1}, q_t), with index q_{t-1} * N + q_t, for an order-2 one. best[t]
    maps each chain state to the best score over every path of frames 0..t
    that ends in it, each path scored left to right as the recursions add
    its terms. The path ends in the lowest-index best chain state; each step
    back takes the lowest-index chain state whose best score plus its
    transition into the chain state after it is highest.
    """
    logb = model.emission_log_probs(obs)
    order = 2 if isinstance(model, Hmm2Model) else 1
    t_len, n = logb.shape
    if order == 1:
        first, log_a = _log(model.pi), _log(model.a)
        start = lambda q: first[q[0]]
        step = lambda q, t: log_a[q[t - 1], q[t]]
    else:
        psi, log_a2, log_a3 = _log(model.psi), _log(model.a2), _log(model.a3)
        start = lambda q: (psi[q[0]] + logb[0, q[0]]) + log_a2[q[0], q[1]]
        step = lambda q, t: log_a3[q[t - 2], q[t - 1], q[t]]
    best = [dict() for _ in range(t_len)]
    for q in itertools.product(range(n), repeat=t_len):
        score = start(q) + logb[order - 1, q[order - 1]]
        for t in range(order - 1, t_len):
            if t >= order:
                score = (score + step(q, t)) + logb[t, q[t]]
            key = q[t - order + 1:t + 1]
            best[t][key] = max(best[t].get(key, -np.inf), score)
    top = max(best[-1].values())
    if top == -np.inf:
        return None, top
    path = list(min(k for k, v in best[-1].items() if v == top))
    for t in range(t_len - 1, order - 1, -1):
        ahead = tuple(path[:order])              # the chain state chosen at t
        cand = {k: v + step(k + ahead[-1:], order)
                for k, v in best[t - 1].items() if k[1:] == ahead[:-1]}
        high = max(cand.values())
        path.insert(0, min(k for k, v in cand.items() if v == high)[0])
    return path, top


def _halves(rng, shape):
    """Stochastic rows, each with one entry 1 or two entries 1/2."""
    out = np.zeros(shape)
    for row in out.reshape(-1, shape[-1]):
        row[rng.choice(shape[-1], size=rng.integers(1, 3), replace=False)] = 1.0
    return out / out.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("order", [1, 2])
def test_viterbi_tie_rule(order):
    # transitions in {0, 1/2, 1}, unit variances and integer means and frames
    # give many exactly tied best paths
    rng = np.random.default_rng(order)
    tied = 0
    for _ in range(300):
        n = int(rng.integers(2, 4))
        t_len = int(rng.integers(2, 6))
        mix = [GaussianMixture([1.0], [[m]], [[1.0]]) for m in rng.integers(0, 3, n)]
        obs = rng.integers(0, 3, size=(t_len, 1)).astype(float)
        if order == 1:
            model = Hmm1Model(_halves(rng, (n,)), _halves(rng, (n, n)), mix)
            run = viterbi1
        else:
            model = Hmm2Model(_halves(rng, (n,)), _halves(rng, (n, n)),
                              _halves(rng, (n, n, n)), mix)
            run = viterbi2
        want, top = tie_rule_viterbi(model, obs)
        if want is None:
            with pytest.raises(NumericError):
                run(model, obs)
            continue
        path, score = run(model, obs)
        assert path.tolist() == want and score == top
        tied += sum(v == top for v in _path_totals(model, obs)) > 1
    assert tied >= 30


def _path_totals(model, obs):
    logb = model.emission_log_probs(obs)
    if isinstance(model, Hmm2Model):
        return [lp for _, lp in _path_scores2(model, obs)]
    first, log_a = _log(model.pi), _log(model.a)
    return [first[q[0]] + sum(logb[t, k] for t, k in enumerate(q))
            + sum(log_a[i, k] for i, k in zip(q, q[1:]))
            for q in itertools.product(range(model.n_states), repeat=len(obs))]


# The batch axis: a stack of chains in one call gives each chain's own results.

def _chain_table(draw, s, rows):
    """Log emissions in {0, -1, -2.5, -1000, -inf}: ties, rows ~1000 nats
    apart and cells no path can use."""
    values = [0.0, -1.0, -2.5, -1000.0, -np.inf]
    cells = draw(st.lists(st.sampled_from(values), min_size=rows * s, max_size=rows * s))
    return np.asarray(cells).reshape(rows, s)


@st.composite
def chain_stacks(draw):
    """B chains of S states with ragged lengths, their transitions shared by
    every chain or drawn per chain; every transition in {0, 1/2, 1} before
    normalising."""
    b, s = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    lengths = np.array(draw(st.lists(st.integers(1, 6), min_size=b, max_size=b)))
    log_init = _log(_stochastic(draw, (b, s)))
    trans = _stochastic(draw, (s, s) if draw(st.booleans()) else (b, s, s))
    logb = np.zeros((b, lengths.max(), s))
    for k, rows in enumerate(lengths):
        logb[k, :rows] = _chain_table(draw, s, int(rows))
    return log_init, trans, logb, lengths


def _one_chain(stack, k):
    log_init, trans, logb, lengths = stack
    return log_init[k], trans if trans.ndim == 2 else trans[k], logb[k, :lengths[k]]


@settings(max_examples=150, deadline=None)
@given(chain_stacks())
def test_stack_matches_each_chain(stack):
    lengths = stack[3]
    singles = [_one_chain(stack, k) for k in range(len(lengths))]
    lls = lattice.loglik(*stack)
    la, fwd_lls = lattice.forward(*stack)
    assert np.array_equal(lls, fwd_lls)
    paths, scores = lattice.viterbi(*stack)
    assert np.array_equal(lattice.viterbi_scores(*stack), scores)
    for k, (chain, rows) in enumerate(zip(singles, lengths)):
        assert lls[k] == pytest.approx(lattice.loglik(*chain), rel=1e-12, abs=0)
        want_la, want_ll = lattice.forward(*chain)
        assert fwd_lls[k] == pytest.approx(want_ll, rel=1e-12, abs=0)
        assert np.allclose(la[k, :rows], want_la, rtol=1e-12, atol=0, equal_nan=False)
        assert np.all(la[k, rows:] == -np.inf)
        assert lattice.viterbi_scores(*chain) == scores[k]
        try:
            want_path, want_score = lattice.viterbi(*chain)
        except NumericError:
            assert scores[k] == -np.inf
        else:
            assert scores[k] == want_score
            assert paths[k, :rows].tolist() == want_path.tolist()
    try:
        singles_e = [lattice.estep(*chain) for chain in singles]
    except NumericError:
        with pytest.raises(NumericError):
            lattice.estep(*stack)
        return
    gamma, counts, ll = lattice.estep(*stack)
    for k, (want_gamma, want_counts, want_ll) in enumerate(singles_e):
        assert ll[k] == pytest.approx(want_ll, rel=1e-12)
        assert np.allclose(gamma[k, :lengths[k]], want_gamma, rtol=1e-12, atol=1e-300)
        assert np.all(gamma[k, lengths[k]:] == 0)
        assert np.allclose(counts[k], want_counts, rtol=1e-12, atol=1e-300)


def test_viterbi_gives_a_chain_with_no_path_the_all_zero_path():
    # ragged stacks with zero transitions and -inf emission cells, so that
    # some chains have no admissible path: such a chain's path is all 0, as
    # its padding rows are, and every other chain's is its path alone
    rng = np.random.default_rng(41)
    no_path = 0
    for _ in range(300):
        b, s = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        lengths = rng.integers(1, 7, b)
        shape = (b, lengths.max(), s)
        logb = np.where(rng.random(shape) < 0.4, -np.inf, rng.normal(0.0, 1.0, shape))
        stack = (_log(_halves(rng, (b, s))), _halves(rng, (b, s, s)), logb, lengths)
        paths, scores = lattice.viterbi(*stack)
        for k, rows in enumerate(lengths):
            if scores[k] == -np.inf:
                no_path += 1
                assert not paths[k].any()
                continue
            want, score = lattice.viterbi(*_one_chain(stack, k))
            assert scores[k] == score
            assert paths[k, :rows].tolist() == want.tolist() and not paths[k, rows:].any()
    assert no_path >= 100


def test_bank_with_log_domain_chains_and_a_chain_with_no_path():
    # chain 1 is the chain of test_dropped_state_is_kept_when_its_row_still_has_mass,
    # which only the log domain holds; chain 2 can emit nothing on row 3, so
    # the scaled pass sums that row to 0 and the chain goes to the log domain,
    # where its -inf likelihood raises; on chain 4 the one state reachable on
    # row 1 has its only predecessor underflow on row 0, so the scaled pass
    # sums row 1 to 0
    log_init = _log(np.array([[.5, .5, 0], [1.0, 0, 0], [.2, .3, .5], [0, .5, .5], [.5, .5, 0]]))
    left_right = np.array([[.5, .5, 0], [0, .5, .5], [0, 0, 1]])
    trans = np.stack([left_right] * 4 + [np.array([[1.0, 0, 0], [0, 0, 1], [0, 0, 1]])])
    rng = np.random.default_rng(3)
    logb = -rng.uniform(0, 3, size=(5, 6, 3))
    logb[1] = [[0, 0, -700], [-1000, -1000, 0], [-1000, -1000, 0],
               [0, 0, -700], [0, 0, -700], [0, 0, -700]]
    logb[2, 3] = -np.inf
    logb[4, :2] = [[0, -1000, -np.inf], [-np.inf, -np.inf, 0]]
    stack = (log_init, trans, logb, np.full(5, 6))
    assert _kept(*stack).tolist() == [True, False, False, True, False]
    lls = lattice.loglik(*stack)
    _, fwd_lls = lattice.forward(*stack)
    _, scores = lattice.viterbi(*stack)
    assert np.array_equal(lattice.viterbi_scores(*stack), scores)
    assert lls[2] == fwd_lls[2] == scores[2] == -np.inf
    for k in (0, 1, 3, 4):
        chain = _one_chain(stack, k)
        assert lls[k] == pytest.approx(lattice.loglik(*chain), rel=1e-12)
        assert fwd_lls[k] == pytest.approx(lattice.forward(*chain)[1], rel=1e-12)
        assert scores[k] == lattice.viterbi(*chain)[1]
        assert np.isfinite(lls[k])
    for k in (1, 4):
        assert lls[k] == pytest.approx(enumerate_chain(*_one_chain(stack, k)), rel=1e-12)
    with pytest.raises(NumericError):
        lattice.estep(*stack)
    with pytest.raises(NumericError, match="log-likelihood -inf"):
        lattice.estep(*_one_chain(stack, 2))
    keep = [0, 1, 3, 4]
    gamma, counts, ll = lattice.estep(log_init[keep], trans[keep], logb[keep])
    for i, k in enumerate(keep):
        want_gamma, want_counts, want_ll = lattice.estep(*_one_chain(stack, k))
        assert ll[i] == pytest.approx(want_ll, rel=1e-12)
        assert np.allclose(gamma[i], want_gamma, rtol=1e-12, atol=1e-300)
        assert np.allclose(counts[i], want_counts, rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize("order", [1, 2])
def test_ragged_estep_matches_each_sequence(order):
    rng = np.random.default_rng(7)
    mix = [GaussianMixture([1.0], [[m]], [[v]]) for m, v in ((0.0, 1.0), (2.0, 0.5), (-1.0, 4.0))]
    model = Hmm1Model([0.2, 0.3, 0.5], rng.dirichlet(np.ones(3), size=3), mix)
    if order == 2:
        model = lift_hmm1(model)
    seqs = [rng.normal(0, 1.5, size=(t, 1)) for t in (3, 7, 12)]
    seqs[2][5] = 60.0   # this sequence needs the log domain
    table = np.zeros((3, 12, 3))
    for k, seq in enumerate(seqs):
        table[k, :len(seq)] = model.emission_log_probs(seq)
    rows = np.array([len(seq) for seq in seqs]) - (order - 1)
    assert _kept(*model._chain(table), rows).tolist() == [True, True, False]
    gamma, counts, ll = lattice.estep(*model._chain(table), rows)
    for k, seq in enumerate(seqs):
        want = lattice.estep(*model._chain(model.emission_log_probs(seq)))
        want_gamma, want_counts, want_ll = want
        assert ll[k] == pytest.approx(want_ll, rel=1e-12)
        assert np.allclose(gamma[k, :rows[k]], want_gamma, rtol=1e-12, atol=1e-300)
        assert np.all(gamma[k, rows[k]:] == 0)
        assert np.allclose(counts[k], want_counts, rtol=1e-12, atol=1e-300)


# The grouped form: G transition matrices (G, S, S) serve G groups of K
# chains, chain b taking matrix b // K.

@st.composite
def grouped_stacks(draw):
    """G groups of K chains of S states with ragged lengths, one transition
    matrix per group; every transition in {0, 1/2, 1} before normalising."""
    g, k, s = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    lengths = np.array(draw(st.lists(st.integers(1, 6), min_size=g * k, max_size=g * k)))
    log_init = _log(_stochastic(draw, (g * k, s)))
    trans = _stochastic(draw, (g, s, s))
    logb = np.zeros((g * k, lengths.max(), s))
    for b, rows in enumerate(lengths):
        logb[b, :rows] = _chain_table(draw, s, int(rows))
    return log_init, trans, logb, lengths


def _per_chain(stack):
    """The same stack with each group's matrix repeated for each of its chains."""
    log_init, trans, logb, lengths = stack
    return log_init, np.repeat(trans, len(lengths) // len(trans), axis=0), logb, lengths


def _agree(got, want, exact):
    """Bit for bit where exact, elsewhere within 1e-12 relative; zeros and
    infinities in the same places either way."""
    if exact:
        assert np.array_equal(got, want)
    else:
        assert np.allclose(got, want, rtol=1e-12, atol=0)


@settings(max_examples=150, deadline=None)
@given(grouped_stacks())
def test_grouped_transitions_match_repeated_ones(stack):
    # the chains the scaled pass holds take the same steps in another layout,
    # which BLAS may round differently; the others run in the log domain,
    # with one matrix per chain, and max-product only adds and compares
    per_chain = _per_chain(stack)
    log_domain = ~_kept(*stack)
    paths, scores = lattice.viterbi(*stack)
    want_paths, want_scores = lattice.viterbi(*per_chain)
    assert np.array_equal(paths, want_paths) and np.array_equal(scores, want_scores)
    assert np.array_equal(lattice.viterbi_scores(*stack), want_scores)
    _agree(lattice.loglik(*stack), lattice.loglik(*per_chain), False)
    la, ll = lattice.forward(*stack)
    want_la, want_ll = lattice.forward(*per_chain)
    for b, exact in enumerate(log_domain):
        _agree(la[b], want_la[b], exact)
        _agree(ll[b], want_ll[b], exact)
    try:
        want = lattice.estep(*per_chain)
    except NumericError:
        with pytest.raises(NumericError):
            lattice.estep(*stack)
        return
    for got, expected in zip(lattice.estep(*stack), want):
        for b, exact in enumerate(log_domain):
            _agree(got[b], expected[b], exact)


@st.composite
def padded_groups(draw):
    """A grouped stack whose groups hold 1-3 chains each, filled up to the
    largest with chains of length 0, and each group's own stack."""
    log_init, trans, logb, lengths = draw(grouped_stacks())
    g, k = len(trans), len(lengths) // len(trans)
    used = np.array(draw(st.lists(st.integers(1, k), min_size=g, max_size=g)))
    lengths = np.where(np.arange(k) < used[:, None], lengths.reshape(g, k), 0).ravel()
    groups = []
    for i, n in enumerate(used):
        own = slice(i * k, i * k + n)
        rows = lengths[own].max()
        groups.append((log_init[own], trans[i], logb[own, :rows], lengths[own]))
    return (log_init, trans, logb, lengths), groups


@settings(max_examples=150, deadline=None)
@given(padded_groups())
def test_padded_groups_match_each_group_alone(case):
    # the chains of length 0 that fill a group take no part in its products,
    # so each group's results are those of its stack alone, bit for bit
    stack, groups = case
    k = len(stack[3]) // len(stack[1])
    la, ll = lattice.forward(*stack)
    paths, scores = lattice.viterbi(*stack)
    lls = lattice.loglik(*stack)
    empty = stack[3] == 0
    assert np.all(ll[empty] == 0) and np.all(lls[empty] == 0) and np.all(scores[empty] == 0)
    assert np.array_equal(lattice.viterbi_scores(*stack), scores)
    alone = []
    for i, group in enumerate(groups):
        own = slice(i * k, i * k + len(group[3]))
        rows = group[2].shape[1]
        want_la, want_ll = lattice.forward(*group)
        assert np.array_equal(la[own, :rows], want_la) and np.array_equal(ll[own], want_ll)
        want_paths, want_scores = lattice.viterbi(*group)
        assert np.array_equal(paths[own, :rows], want_paths)
        assert np.array_equal(scores[own], want_scores)
        assert np.allclose(lls[own], lattice.loglik(*group), rtol=1e-12, atol=0)
        try:
            alone.append((own, rows, lattice.estep(*group)))
        except NumericError:
            with pytest.raises(NumericError):
                lattice.estep(*stack)
            return
    gamma, counts, em_ll = lattice.estep(*stack)
    assert np.all(em_ll[empty] == 0)
    assert np.all(gamma[empty] == 0) and np.all(counts[empty] == 0)
    for own, rows, (want_gamma, want_counts, want_ll) in alone:
        assert np.array_equal(gamma[own, :rows], want_gamma)
        assert np.all(gamma[own, rows:] == 0)
        assert np.array_equal(counts[own], want_counts)
        assert np.array_equal(em_ll[own], want_ll)


def test_group_with_a_log_domain_chain_and_chains_of_length_0():
    # group 0: the chain of test_dropped_state_is_kept_when_its_row_still_has_mass,
    # which only the log domain holds, and two chains the scaled pass holds;
    # group 1: one chain, then two chains of length 0
    left_right = np.array([[.5, .5, 0], [0, .5, .5], [0, 0, 1]])
    trans = np.stack([left_right, np.full((3, 3), 1 / 3)])
    log_init = _log(np.array([[1.0, 0, 0], [.5, .5, 0], [.2, .3, .5]] + [[1 / 3] * 3] * 3))
    rng = np.random.default_rng(4)
    logb = -rng.uniform(0, 3, size=(6, 6, 3))
    logb[0] = [[0, 0, -700], [-1000, -1000, 0], [-1000, -1000, 0],
               [0, 0, -700], [0, 0, -700], [0, 0, -700]]
    lengths = np.array([6, 4, 5, 6, 0, 0])
    stack = (log_init, trans, logb, lengths)
    assert _kept(*stack).tolist() == [False] + [True] * 5
    per_chain = _per_chain(stack)
    gamma, counts, ll = lattice.estep(*stack)
    want_gamma, want_counts, want_ll = lattice.estep(*per_chain)
    assert np.array_equal(gamma[0], want_gamma[0]) and np.array_equal(counts[0], want_counts[0])
    assert ll[0] == want_ll[0]
    assert ll[0] == pytest.approx(enumerate_chain(*_one_chain(per_chain, 0)), rel=1e-12)
    assert np.allclose(gamma, want_gamma, rtol=1e-12, atol=0)
    assert np.allclose(counts, want_counts, rtol=1e-12, atol=0)
    assert np.allclose(ll, want_ll, rtol=1e-12, atol=0)
    for b in range(4):
        single_gamma, single_counts, single_ll = lattice.estep(*_one_chain(per_chain, b))
        assert ll[b] == pytest.approx(single_ll, rel=1e-12)
        assert np.allclose(gamma[b, :lengths[b]], single_gamma, rtol=1e-12, atol=1e-300)
        assert np.allclose(counts[b], single_counts, rtol=1e-12, atol=1e-300)
    assert ll[4:].tolist() == [0.0, 0.0]
    assert np.all(gamma[4:] == 0) and np.all(counts[4:] == 0)
    assert np.array_equal(lattice.loglik(*stack)[4:], [0.0, 0.0])
    assert np.array_equal(lattice.forward(*stack)[1][4:], [0.0, 0.0])
    assert np.array_equal(lattice.viterbi_scores(*stack)[4:], [0.0, 0.0])
    assert np.array_equal(lattice.viterbi(*stack)[1][4:], [0.0, 0.0])


@pytest.mark.parametrize("s", [5, 25])
def test_padded_groups_match_each_group_alone_at_model_sizes(s):
    # at S = N = 5 and on the pair chain of N = 5, BLAS rounds a product of
    # n rows differently for different n, so a group's chains of length 0
    # must stay out of its products for it to match its stack alone
    rng = np.random.default_rng(s)
    used, k = [3, 1, 2, 3], 3
    trans = rng.dirichlet(np.ones(s), size=(len(used), s))
    log_init = _log(rng.dirichlet(np.ones(s), size=len(used) * k))
    logb = rng.normal(-3.0, 2.0, size=(len(used) * k, 60, s))
    lengths = np.where(np.arange(k) < np.array(used)[:, None],
                       rng.integers(30, 61, size=(len(used), k)), 0).ravel()
    gamma, counts, ll = lattice.estep(log_init, trans, logb, lengths)
    for i, n in enumerate(used):
        own = slice(i * k, i * k + n)
        rows = lengths[own].max()
        want_gamma, want_counts, want_ll = lattice.estep(log_init[own], trans[i],
                                                         logb[own, :rows], lengths[own])
        assert np.array_equal(gamma[own, :rows], want_gamma)
        assert np.array_equal(counts[own], want_counts)
        assert np.array_equal(ll[own], want_ll)


@pytest.mark.parametrize("b", [1, 2, 3, 4])
@pytest.mark.parametrize("layout", ["chain-major", "engine"])
def test_engine_writes_only_arrays_it_allocated(b, layout):
    # chain 0 is the chain of test_dropped_state_is_kept_when_its_row_still_has_mass,
    # which only the log domain holds; the others are ragged and scaled. In
    # the engine's own layout, padded -inf, the table is read without a copy,
    # so a write into it, or a buffer shared between two calls, would show.
    rng = np.random.default_rng(b)
    lengths = np.array([6, 4, 5, 3][:b])
    log_init = _log(np.array([[1.0, 0, 0]] + [[.2, .3, .5]] * (b - 1)))
    trans = np.array([[.5, .5, 0], [0, .5, .5], [0, 0, 1]])
    table = np.full((6, b, 3), -np.inf)  # (R, B, S)
    table[:, 0] = [[0, 0, -700], [-1000, -1000, 0], [-1000, -1000, 0],
                   [0, 0, -700], [0, 0, -700], [0, 0, -700]]
    for k in range(1, b):
        table[:lengths[k], k] = -rng.uniform(0, 3, size=(lengths[k], 3))
    logb = table.swapaxes(0, 1)
    if layout == "chain-major":
        logb = np.ascontiguousarray(logb)
    else:
        assert np.shares_memory(lattice._chains(log_init, trans, logb, lengths)[1].logb, table)
    args = (log_init, trans, logb, lengths)
    given_args = [x.copy() for x in args]
    assert _kept(*args).tolist() == [False] + [True] * (b - 1)
    first = lattice.estep(*args)
    first_copy = [x.copy() for x in first]
    for run in (lattice.forward, lattice.loglik, lattice.viterbi, lattice.viterbi_scores):
        run(*args)
    lattice.estep(log_init, trans, logb * 1.5, lengths)
    for got, want in zip(args, given_args):
        assert np.array_equal(got, want)
    for got, want in zip(first, first_copy):
        assert np.array_equal(got, want)


# The log-sum-exp gather: each state's reduction over its predecessors runs
# over a table without the lanes that read -inf on every row (a zero
# transition, or a source no initial row reaches), and with its -inf lanes
# first. Its results are those of the padded table, bit for bit.

def padded_forward(log_init, trans, logb, lengths):
    """Log forward lattices (B, R, S) and log-likelihoods (B,) of a grouped
    stack over the padded predecessor table: each state's predecessors with
    a nonzero transition, lowest index first, then -inf entries up to the
    largest in-degree, combined by np.logaddexp.reduce in that order."""
    b, rows, s = logb.shape
    k = b // len(trans)
    support = trans > 0
    width = max(int(support.sum(axis=1).max()), 1)
    idx = np.argsort(~support, axis=1, kind="stable")[:, :width]  # (G, P, S)
    log_p = _log(np.take_along_axis(trans, idx, axis=1))
    la = np.full((b, rows, s), -np.inf)
    for c, n in enumerate(lengths):
        g = c // k
        if n:
            la[c, 0] = log_init[c] + logb[c, 0]
        for r in range(1, n):
            cand = la[c, r - 1][idx[g]] + log_p[g]
            la[c, r] = np.logaddexp.reduce(cand, axis=0) + logb[c, r]
    last = la[np.arange(b), np.maximum(lengths - 1, 0)]
    return la, np.where(lengths > 0, lattice.logsumexp(last, axis=1), 0.0)


@st.composite
def gather_stacks(draw):
    """G groups of K chains of S states with ragged lengths 0-6, one
    transition matrix per group with zeros of its own (upper triangular
    now and then, so that states below the first start state are out of
    reach), initial rows over a drawn set of start states, which may be
    empty, and emissions in {0, -1, -2.5, -1000, -inf}."""
    g, k, s = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 5))
    lengths = np.array(draw(st.lists(st.integers(0, 6), min_size=g * k, max_size=g * k)))
    trans = _stochastic(draw, (g, s, s))
    if draw(st.booleans()):
        trans = np.triu(trans)
    starts = np.array(draw(st.lists(st.booleans(), min_size=s, max_size=s)))
    log_init = _log(_stochastic(draw, (g * k, s)) * starts)
    logb = np.full((g * k, max(lengths.max(), 1), s), -np.inf)
    for b, rows in enumerate(lengths):
        logb[b, :rows] = _chain_table(draw, s, int(rows))
    return log_init, trans, logb, lengths


@settings(max_examples=300, deadline=None)
@given(gather_stacks())
def test_forward_gather_matches_the_padded_table_bit_for_bit(stack):
    want_la, want_ll = padded_forward(*stack)
    la, ll = lattice.forward(*stack)
    assert np.array_equal(la, want_la)
    assert np.array_equal(ll, want_ll)
    assert np.array_equal(lattice.loglik(*stack), want_ll)


def test_stack_with_no_reachable_state_scores_minus_inf():
    trans = np.array([[[.5, .5], [0, 1]], [[1, 0], [.5, .5]]])
    log_init = np.full((4, 2), -np.inf)
    logb = np.zeros((4, 3, 2))
    lengths = np.array([3, 1, 0, 2])
    la, ll = lattice.forward(log_init, trans, logb, lengths)
    assert np.all(la == -np.inf)
    assert ll.tolist() == [-np.inf, -np.inf, 0.0, -np.inf]
    assert np.array_equal(lattice.loglik(log_init, trans, logb, lengths), ll)


def test_gather_puts_absent_lanes_first():
    # the pair chain of a left-right HMM2: pair (j, k) has the j + 1
    # predecessors (i, j), i <= j: two absent lanes for j = 0, one for j = 1
    _, c = lattice._chains(*left_right_hmm2()._chain(np.zeros((4, 3))))
    into, log_into = lattice._neighbours(c.trans, 1)
    real = log_into > -np.inf
    assert np.array_equal(np.sort(real, axis=0), real)   # absent lanes first
    assert np.array_equal(real.sum(axis=0), (c.trans > 0).sum(axis=-2))
    order = np.where(real, into, -1)
    assert np.all(np.diff(order, axis=0)[real[1:] & real[:-1]] > 0)   # lowest index first


def test_states_no_path_enters_leave_each_likelihood_bit_for_bit():
    # each chain of 15 states, placed among 10 states that no path enters
    # (initial -inf, a self-loop only) at drawn places: numpy's pairwise sum
    # of a last row of 25 states would give other bits than one of 15
    rng = np.random.default_rng(29)
    b, s, rows, extra = 300, 15, 8, 10
    log_init = _log(rng.dirichlet(np.ones(s), size=b))
    trans = rng.dirichlet(np.ones(s), size=(b, s))
    logb = rng.normal(0.0, 0.5, (b, rows, s))
    big_init = np.full((b, s + extra), -np.inf)
    big_trans = np.zeros((b, s + extra, s + extra))
    big_logb = rng.normal(0.0, 0.5, (b, rows, s + extra))
    places = []
    for c in range(b):
        at = np.sort(rng.choice(s + extra, s, replace=False))
        out = np.setdiff1d(np.arange(s + extra), at)
        big_init[c, at] = log_init[c]
        big_trans[c, at[:, None], at] = trans[c]
        big_trans[c, out, out] = 1.0
        big_logb[c][:, at] = logb[c]
        places.append(at)
    la, ll = lattice.forward(log_init, trans, logb)
    big_la, big_ll = lattice.forward(big_init, big_trans, big_logb)
    assert np.array_equal(big_ll, ll)
    assert np.array_equal(lattice.loglik(big_init, big_trans, big_logb), ll)
    for c, at in enumerate(places):
        assert np.array_equal(big_la[c][:, at], la[c])
