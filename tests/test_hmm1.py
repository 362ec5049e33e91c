import numpy as np
import pytest

from hmm2tc import lattice
from hmm2tc.config import TrainConfig
from hmm2tc.errors import DataError, NumericError
from hmm2tc.gmm import GaussianMixture, log_densities
from hmm2tc.hmm1 import Hmm1Model, baum_welch1, forward1, viterbi1
from hmm2tc.hmm2 import forward2, lift_hmm1, sample_hmm2, viterbi2

from conftest import enumerate_loglik1, random_hmm1


def test_single_state_forward_is_emission_sum():
    mix = GaussianMixture([1.0], [[0.5]], [[1.0]])
    model = Hmm1Model([1.0], [[1.0]], [mix])
    obs = np.array([[0.0], [1.0], [2.0]])
    _, ll = forward1(model, obs)
    assert ll == pytest.approx(log_densities(mix, obs).sum())


@pytest.mark.parametrize("seed", range(5))
def test_forward_brute_force(seed):
    rng = np.random.default_rng(seed)
    model = random_hmm1(rng, 2, 1, 1)
    obs = rng.normal(size=(4, 1))
    _, ll = forward1(model, obs)
    assert ll == pytest.approx(enumerate_loglik1(model, obs), rel=1e-12)


def test_forward_t1():
    model = random_hmm1(np.random.default_rng(1), 3, 1, 2)
    obs = np.zeros((1, 2))
    _, ll = forward1(model, obs)
    logb = model.emission_log_probs(obs)
    expected = np.logaddexp.reduce(np.log(model.pi) + logb[0])
    assert ll == pytest.approx(expected)


def test_forward_backward_consistency():
    rng = np.random.default_rng(2)
    model = random_hmm1(rng, 3, 2, 2)
    obs = rng.normal(size=(7, 2))
    la, ll = forward1(model, obs)
    lb = lattice.backward(model.a, model.emission_log_probs(obs))
    for t in range(7):
        assert np.logaddexp.reduce(la[t] + lb[t]) == pytest.approx(ll, abs=1e-10)


def test_reduction_identity():
    rng = np.random.default_rng(3)
    model1 = random_hmm1(rng, 3, 2, 2)
    model2 = lift_hmm1(model1)
    obs = rng.normal(size=(12, 2))
    _, ll1 = forward1(model1, obs)
    _, ll2 = forward2(model2, obs)
    assert ll1 == pytest.approx(ll2, abs=1e-9)
    p1, s1 = viterbi1(model1, obs)
    p2, s2 = viterbi2(model2, obs)
    assert p1.tolist() == p2.tolist()
    assert s1 == pytest.approx(s2, abs=1e-9)


def test_viterbi_score_is_path_prob():
    rng = np.random.default_rng(4)
    model = random_hmm1(rng, 3, 1, 2)
    obs = rng.normal(size=(6, 2))
    path, score = viterbi1(model, obs)
    logb = model.emission_log_probs(obs)
    lp = np.log(model.pi[path[0]]) + logb[0, path[0]]
    for t in range(1, 6):
        lp += np.log(model.a[path[t - 1], path[t]]) + logb[t, path[t]]
    assert score == pytest.approx(lp)


def test_baum_welch_monotone_and_stochastic():
    rng = np.random.default_rng(5)
    true = random_hmm1(rng, 2, 1, 2)
    corpus = [sample_hmm2(lift_hmm1(true), 40, seed=s)[1] for s in range(5)]
    init = random_hmm1(np.random.default_rng(99), 2, 1, 2)
    cfg = TrainConfig(max_iterations=10, tol=1e-12)
    model, trace = baum_welch1(init, corpus, cfg)
    assert len(trace) >= 2
    assert all(b - a >= -1e-8 for a, b in zip(trace, trace[1:]))
    assert abs(model.pi.sum() - 1) < 1e-10
    assert np.all(np.abs(model.a.sum(axis=1) - 1) < 1e-10)
    assert np.all(np.abs(model.mixtures.weights.sum(axis=1) - 1) < 1e-10)


def test_nan_parameters_rejected():
    mix = [GaussianMixture([1.0], [[0.0]], [[1.0]]) for _ in range(2)]
    with pytest.raises(DataError):
        Hmm1Model([np.nan, 1.0], np.eye(2), mix)
    with pytest.raises(DataError):
        Hmm1Model([0.5, 0.5], [[np.nan, 1.0], [0.0, 1.0]], mix)


def test_baum_welch_non_finite_likelihood_raises():
    mix = [GaussianMixture([1.0], [[0.0]], [[1.0]]) for _ in range(2)]
    model = Hmm1Model([1.0, 0.0], [[0.5, 0.5], [0.0, 1.0]], mix, "left-right")
    with pytest.raises(NumericError):
        baum_welch1(model, [np.zeros((5, 1)), np.full((5, 1), 1e200)])


def test_baum_welch_frame_one_state_cannot_emit():
    # state 0 scores the frame at 1e153 -inf (its square over the variance
    # overflows) and state 1 does not: the frame counts for state 1 alone
    mix = [GaussianMixture([1.0], [[0.0]], [[1e-3]]), GaussianMixture([1.0], [[0.0]], [[1e3]])]
    model = Hmm1Model([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], mix)
    frames = np.random.default_rng(0).normal(0, 1, (30, 1))
    frames[10] = 1e153
    logb = model.emission_log_probs(frames[10:11])[0]
    assert logb[0] == -np.inf and np.isfinite(logb[1])
    trained, trace = baum_welch1(model, [frames], TrainConfig(max_iterations=3))
    assert np.all(np.isfinite(trace)) and np.all(np.diff(trace) >= 0)
    assert abs(trained.mixtures.means[0, 0, 0]) < 1.0
    assert trained.mixtures.means[1, 0, 0] > 1e152


def test_baum_welch_requires_t2():
    model = random_hmm1(np.random.default_rng(6), 2, 1, 1)
    with pytest.raises(DataError):
        baum_welch1(model, [np.zeros((1, 1))])


def test_baum_welch_empty_corpus():
    model = random_hmm1(np.random.default_rng(6), 2, 1, 1)
    with pytest.raises(DataError):
        baum_welch1(model, [])


def test_sample_deterministic():
    model = random_hmm1(np.random.default_rng(7), 3, 2, 2)
    s1, f1 = sample_hmm2(lift_hmm1(model), 20, seed=1)
    s2, f2 = sample_hmm2(lift_hmm1(model), 20, seed=1)
    assert np.array_equal(s1, s2) and np.array_equal(f1, f2)
