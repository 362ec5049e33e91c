import itertools

import numpy as np
import pytest
from scipy.special import logsumexp

from hmm2tc.errors import DataError, NumericError
from hmm2tc.gmm import GaussianMixture
from hmm2tc.hmm1 import Hmm1Model, forward1, sample_hmm1, viterbi1
from hmm2tc.hmm2 import (Hmm2Model, backward2, forward2, lift_hmm1,
                         path_log_prob2, sample_hmm2, viterbi2)

from conftest import (enumerate_loglik2, enumerate_viterbi2, random_hmm1,
                      random_hmm2)


def unit_gmm(mean):
    mean = np.atleast_1d(np.asarray(mean, float))
    return GaussianMixture([1.0], [mean], [np.ones_like(mean)])


def constant_emission_model(n=2, log_kappa=None):
    """All states share one emission density, so P(O) marginalizes transitions."""
    rng = np.random.default_rng(0)
    psi = rng.dirichlet(np.ones(n))
    a2 = np.stack([rng.dirichlet(np.ones(n)) for _ in range(n)])
    a3 = np.stack([[rng.dirichlet(np.ones(n)) for _ in range(n)] for _ in range(n)])
    return Hmm2Model(psi, a2, a3, [unit_gmm([0.0]) for _ in range(n)])


class TestPathLogProb:
    def test_deterministic_chain(self):
        a2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        a3 = np.zeros((2, 2, 2))
        a3[:, 0, 1] = 1.0
        a3[:, 1, 0] = 1.0
        model = Hmm2Model([1.0, 0.0], a2, a3, [unit_gmm([0.0]), unit_gmm([1.0])])
        assert path_log_prob2(model, [0, 1, 0, 1]) == pytest.approx(0.0)

    def test_hand_product(self):
        a2 = np.array([[0.5, 0.5], [0.5, 0.5]])
        a3 = np.full((2, 2, 2), 0.5)
        model = Hmm2Model([1.0, 0.0], a2, a3, [unit_gmm([0.0]), unit_gmm([1.0])])
        assert np.exp(path_log_prob2(model, [0, 1, 0])) == pytest.approx(0.25)

    def test_state_only_normalizes(self):
        rng = np.random.default_rng(1)
        model = random_hmm2(rng, 2, 1, 1)
        for t_len in (2, 3, 4):
            total = -np.inf
            for q in itertools.product(range(2), repeat=t_len):
                total = np.logaddexp(total, path_log_prob2(model, q))
            assert np.exp(total) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_short_path(self):
        model = random_hmm2(np.random.default_rng(2), 2, 1, 1)
        with pytest.raises(DataError):
            path_log_prob2(model, [0])

    def test_rejects_length_mismatch(self):
        model = random_hmm2(np.random.default_rng(2), 2, 1, 1)
        with pytest.raises(DataError):
            path_log_prob2(model, [0, 1, 0], np.zeros((2, 1)))


class TestForward2:
    def test_constant_emission(self):
        model = constant_emission_model()
        obs = np.zeros((6, 1))
        kappa = model.mixtures[0].log_density([0.0])
        _, ll = forward2(model, obs)
        assert ll == pytest.approx(6 * kappa)

    @pytest.mark.parametrize("seed", range(5))
    def test_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        model = random_hmm2(rng, 2, 1, 2)
        obs = rng.normal(size=(3, 2))
        _, ll = forward2(model, obs)
        assert ll == pytest.approx(enumerate_loglik2(model, obs), rel=1e-12)

    def test_order_reduction(self):
        rng = np.random.default_rng(7)
        model1 = random_hmm1(rng, 3, 2, 2)
        model2 = lift_hmm1(model1)
        obs = rng.normal(size=(10, 2))
        _, ll1 = forward1(model1, obs)
        _, ll2 = forward2(model2, obs)
        assert ll2 == pytest.approx(ll1, abs=1e-9)

    def test_rejects_t1(self):
        model = random_hmm2(np.random.default_rng(0), 2, 1, 1)
        with pytest.raises(DataError):
            forward2(model, np.zeros((1, 1)))


class TestBackward2:
    def test_termination_is_one(self):
        rng = np.random.default_rng(3)
        model = random_hmm2(rng, 3, 1, 2)
        beta = backward2(model, rng.normal(size=(5, 2)))
        assert np.all(beta.values[-1] == 0.0)

    def test_forward_backward_consistency(self):
        rng = np.random.default_rng(4)
        model = random_hmm2(rng, 3, 1, 2)
        obs = rng.normal(size=(8, 2))
        alpha, ll = forward2(model, obs)
        beta = backward2(model, obs)
        for s in range(alpha.values.shape[0]):
            assert logsumexp(alpha.values[s] + beta.values[s]) == pytest.approx(ll, abs=1e-8)

    def test_deterministic_constant(self):
        # forced transitions, shared emission: beta_t = kappa^(T-t)
        a2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        a3 = np.zeros((2, 2, 2))
        a3[:, 0, 1] = 1.0
        a3[:, 1, 0] = 1.0
        model = Hmm2Model([1.0, 0.0], a2, a3, [unit_gmm([0.0]), unit_gmm([0.0])])
        obs = np.zeros((5, 1))
        kappa = model.mixtures[0].log_density([0.0])
        beta = backward2(model, obs)
        for s in range(4):
            t = s + 2  # 1-based time of the pair's second slot
            vals = beta.values[s]
            assert np.max(vals) == pytest.approx((5 - t) * kappa)


class TestViterbi2:
    def test_forced_path(self):
        a2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        a3 = np.zeros((2, 2, 2))
        a3[:, 0, 1] = 1.0
        a3[:, 1, 0] = 1.0
        model = Hmm2Model([1.0, 0.0], a2, a3, [unit_gmm([0.0]), unit_gmm([1.0])])
        obs = np.zeros((4, 1))
        path, score = viterbi2(model, obs)
        assert path.tolist() == [0, 1, 0, 1]
        logb = model.emission_log_probs(obs)
        assert score == pytest.approx(logb[np.arange(4), path].sum())

    @pytest.mark.parametrize("seed", range(5))
    def test_brute_force(self, seed):
        rng = np.random.default_rng(100 + seed)
        model = random_hmm2(rng, 2, 1, 1)
        obs = rng.normal(size=(4, 1))
        path, score = viterbi2(model, obs)
        best_q, best = enumerate_viterbi2(model, obs)
        assert tuple(path) == best_q
        assert score == pytest.approx(best, abs=1e-12)

    def test_score_matches_path_log_prob(self):
        rng = np.random.default_rng(8)
        model = random_hmm2(rng, 3, 2, 2)
        obs = rng.normal(size=(9, 2))
        path, score = viterbi2(model, obs)
        assert score == pytest.approx(path_log_prob2(model, path, obs), abs=1e-10)

    def test_score_below_forward(self):
        rng = np.random.default_rng(9)
        model = random_hmm2(rng, 3, 1, 2)
        obs = rng.normal(size=(7, 2))
        _, ll = forward2(model, obs)
        _, score = viterbi2(model, obs)
        assert score <= ll + 1e-12

    def test_no_path(self):
        # valid stochastic rows always admit some path, so force the dead end
        # by zeroing a row after construction
        model = random_hmm2(np.random.default_rng(10), 2, 1, 1)
        model.a2 = np.zeros((2, 2))
        with pytest.raises(NumericError, match="no admissible"):
            viterbi2(model, np.zeros((4, 1)))

    def test_impossible_path_scores_minus_inf(self):
        a2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        a3 = np.zeros((2, 2, 2))
        a3[:, 0, 1] = 1.0
        a3[:, 1, 0] = 1.0
        model = Hmm2Model([1.0, 0.0], a2, a3, [unit_gmm([0.0]), unit_gmm([0.0])])
        assert path_log_prob2(model, [0, 0, 0, 0]) == -np.inf


class TestSampling:
    def test_deterministic_model(self):
        a2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        a3 = np.zeros((2, 2, 2))
        a3[:, 0, 1] = 1.0
        a3[:, 1, 0] = 1.0
        model = Hmm2Model([1.0, 0.0], a2, a3, [unit_gmm([0.0]), unit_gmm([5.0])])
        states, _ = sample_hmm2(model, 6, seed=0)
        assert states.tolist() == [0, 1, 0, 1, 0, 1]

    def test_seed_reproducible(self):
        model = random_hmm2(np.random.default_rng(5), 3, 2, 2)
        s1, f1 = sample_hmm2(model, 50, seed=42)
        s2, f2 = sample_hmm2(model, 50, seed=42)
        assert np.array_equal(s1, s2) and np.array_equal(f1, f2)

    def test_transition_frequencies(self):
        model = random_hmm2(np.random.default_rng(7), 3, 1, 1)
        states, _ = sample_hmm2(model, 100000, seed=8)
        n = model.n_states
        counts = np.zeros((n, n, n))
        np.add.at(counts, (states[:-2], states[1:-1], states[2:]), 1)
        pair_totals = counts.sum(axis=2)
        for i in range(n):
            for j in range(n):
                if pair_totals[i, j] >= 1000:
                    freq = counts[i, j] / pair_totals[i, j]
                    assert np.max(np.abs(freq - model.a3[i, j])) < 0.01

    def test_emission_mean(self):
        model = Hmm2Model([1.0], np.ones((1, 1)), np.ones((1, 1, 1)),
                          [unit_gmm([2.5])])
        _, frames = sample_hmm2(model, 20000, seed=8)
        assert abs(frames.mean() - 2.5) < 3.0 / np.sqrt(20000)

    def test_rejects_short(self):
        model = random_hmm2(np.random.default_rng(0), 2, 1, 1)
        with pytest.raises(DataError):
            sample_hmm2(model, 1, seed=0)

    @pytest.mark.parametrize("seed", range(4))
    def test_lifted_model_samples_as_order1(self, seed):
        model1 = random_hmm1(np.random.default_rng(seed), 3, 2, 2)
        for t_len in (2, 3, 40):
            s1, f1 = sample_hmm1(model1, t_len, seed=seed)
            s2, f2 = sample_hmm2(lift_hmm1(model1), t_len, seed=seed)
            assert np.array_equal(s1, s2) and np.array_equal(f1, f2)


class TestModelValidation:
    def test_bad_a3_rows(self):
        with pytest.raises(DataError):
            Hmm2Model([1.0, 0.0], np.eye(2), np.zeros((2, 2, 2)),
                      [unit_gmm([0.0]), unit_gmm([0.0])])

    def test_nan_parameters_rejected(self):
        mix = [unit_gmm([0.0]), unit_gmm([0.0])]
        a3 = np.full((2, 2, 2), 0.5)
        with pytest.raises(DataError):
            Hmm2Model([np.nan, 1.0], np.full((2, 2), 0.5), a3, mix)
        with pytest.raises(DataError):
            Hmm2Model([0.5, 0.5], [[np.nan, 1.0], [0.5, 0.5]], a3, mix)
        bad = a3.copy()
        bad[1, 0] = [np.nan, 1.0]
        with pytest.raises(DataError):
            Hmm2Model([0.5, 0.5], np.full((2, 2), 0.5), bad, mix)

    def test_left_right_masks(self):
        a2 = np.array([[0.5, 0.5], [0.0, 1.0]])
        a3 = np.zeros((2, 2, 2))
        a3[:, 0] = [0.5, 0.5]
        a3[:, 1] = [0.0, 1.0]
        model = Hmm2Model([0.5, 0.5], a2, a3, [unit_gmm([0.0]), unit_gmm([0.0])],
                          topology="left-right")
        assert model.topology == "left-right"
        bad = a3.copy()
        bad[:, 1] = [1.0, 0.0]
        with pytest.raises(DataError):
            Hmm2Model([0.5, 0.5], a2, bad, [unit_gmm([0.0]), unit_gmm([0.0])],
                      topology="left-right")


def reference_sample(model, t_len, seed):
    """The samplers' draws made one frame at a time: the state path by
    inverse cdf, then each frame's component by np.searchsorted on its
    state's weight cdf, then one normal draw per frame."""
    def cdf(p):
        c = np.cumsum(p)
        c[-1] = 1.0
        return c

    rng = np.random.default_rng(seed)
    u = rng.random(t_len)
    if isinstance(model, Hmm2Model):
        rows = [model.psi, lambda q: model.a2[q[-1]], lambda q: model.a3[q[-2], q[-1]]]
    else:
        rows = [model.pi, lambda q: model.a[q[-1]], lambda q: model.a[q[-1]]]
    states = [int(np.searchsorted(cdf(rows[0]), u[0], side="right"))]
    for t in range(1, t_len):
        row = rows[1] if t == 1 else rows[2]
        states.append(int(np.searchsorted(cdf(row(states)), u[t], side="right")))
    mixtures = list(model.mixtures)
    comps = [np.searchsorted(cdf(mixtures[q].weights), v, side="right")
             for q, v in zip(states, rng.random(t_len))]
    means = np.stack([mixtures[q].means[m] for q, m in zip(states, comps)])
    stds = np.stack([np.sqrt(mixtures[q].variances[m]) for q, m in zip(states, comps)])
    return np.array(states), rng.normal(means, stds)


@pytest.mark.parametrize("seed", range(6))
def test_samplers_match_a_frame_by_frame_reference(seed):
    rng = np.random.default_rng(seed)
    model2 = random_hmm2(rng, 3, 4, 2)
    # a component of weight 0 leaves two equal entries in its state's cdf
    zero = GaussianMixture([0.5, 0.0, 0.25, 0.25], rng.normal(size=(4, 2)), np.ones((4, 2)))
    model2 = Hmm2Model(model2.psi, model2.a2, model2.a3, [zero] + list(model2.mixtures)[1:])
    for model, sample in ((random_hmm1(rng, 4, 3, 3), sample_hmm1), (model2, sample_hmm2)):
        states, frames = sample(model, 50, seed)
        want_states, want_frames = reference_sample(model, 50, seed)
        assert np.array_equal(states, want_states)
        assert np.array_equal(frames, want_frames)


LR_A = np.array([[0.5, 0.25, 0.25], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
ONE_STATE_MIXTURE = (np.ones(1), np.zeros((1, 1)), np.ones((1, 1)))


def three_state_model(order, topology="left-right", part=None, index=None, value=None):
    """A valid three-state left-right model of either order, with one part
    ("initial", "transitions", "a3", "mixtures" or "topology") replaced
    (index None) or one entry of it set."""
    parts = {"initial": np.array([0.5, 0.25, 0.25]), "transitions": LR_A.copy(),
             "a3": np.broadcast_to(LR_A, (3, 3, 3)).copy(),
             "mixtures": GaussianMixture(*(np.stack([x] * 3) for x in ONE_STATE_MIXTURE)),
             "topology": topology}
    if index is None and part is not None:
        parts[part] = value
    elif part is not None:
        parts[part][index] = value
    arrays = [parts["initial"], parts["transitions"]] + [parts["a3"]] * (order == 2)
    return (Hmm1Model if order == 1 else Hmm2Model)(*arrays, parts["mixtures"], parts["topology"])


# (part, index, value): one change that the constructors of both orders
# reject; "a3" applies to the second order only
REJECTED = {
    "initial shape": ("initial", None, np.full(4, 0.25)),
    "transitions shape": ("transitions", None, np.full((3, 2), 0.5)),
    "a3 shape": ("a3", None, np.full((3, 3, 2), 0.5)),
    "mixture count": ("mixtures", None,
                      GaussianMixture(*(np.stack([x] * 2) for x in ONE_STATE_MIXTURE))),
    "initial NaN": ("initial", 0, np.nan),
    "transitions NaN": ("transitions", (1, 1), np.nan),
    "a3 NaN": ("a3", (0, 1, 1), np.nan),
    "initial not stochastic": ("initial", 0, 0.9),
    "transitions row not stochastic": ("transitions", (2, 2), 0.9),
    "a3 row not stochastic": ("a3", (2, 1, 2), 0.9),
    "unknown topology": ("topology", None, "circular"),
    "left-right backward transition": ("transitions", 1, [0.5, 0.0, 0.5]),
    "left-right backward a3 transition (k < j)": ("a3", (0, 2), [0.5, 0.0, 0.5]),
}
BACKWARD = [name for name in REJECTED if name.startswith("left-right")]


def _by_order(names):
    return [pytest.param(order, name, id=f"order{order}-{name}") for order in (1, 2)
            for name in names if order == 2 or REJECTED[name][0] != "a3"]


class TestConstructorChecks:
    @pytest.mark.parametrize("order, name", _by_order(REJECTED))
    def test_rejected(self, order, name):
        with pytest.raises(DataError):
            three_state_model(order, "left-right", *REJECTED[name])

    @pytest.mark.parametrize("order, name", _by_order(BACKWARD))
    def test_backward_transitions_load_when_ergodic(self, order, name):
        assert three_state_model(order, "ergodic", *REJECTED[name]).topology == "ergodic"

    @pytest.mark.parametrize("order", (1, 2))
    def test_valid_left_right_model_loads(self, order):
        model = three_state_model(order)
        assert (model.n_states, model.topology) == (3, "left-right")

    def test_left_right_a3_with_forward_entries_only_loads(self):
        # from state 2 back to state 0 is the a2 step's concern; a3 only
        # forbids k < j, whatever i is
        a3 = np.zeros((3, 3, 3))
        a3[:, 0] = [0.0, 0.0, 1.0]
        a3[:, 1] = [0.0, 1.0, 0.0]
        a3[:, 2] = [0.0, 0.0, 1.0]
        model = three_state_model(2, "left-right", "a3", None, a3)
        assert np.array_equal(model.a3, a3)
