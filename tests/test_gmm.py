import numpy as np
import pytest
from scipy.special import logsumexp

from hmm2tc.config import VARIANCE_FLOOR_MIN
from hmm2tc.errors import DataError
from hmm2tc.gmm import MEAN_SPREAD, GaussianMixture, component_table, log_densities


def density(mixture, o):
    """log b(o) of one mixture at one frame."""
    return float(log_densities(mixture, np.atleast_2d(o))[0, 0])


def test_standard_normal_at_zero():
    gmm = GaussianMixture([1.0], [[0.0]], [[1.0]])
    assert density(gmm, [0.0]) == pytest.approx(-0.9189385332046727)


def test_identical_components_collapse():
    one = GaussianMixture([1.0], [[0.3]], [[0.7]])
    two = GaussianMixture([0.3, 0.7], [[0.3], [0.3]], [[0.7], [0.7]])
    for x in (-1.0, 0.0, 2.5):
        assert density(two, [x]) == pytest.approx(density(one, [x]))


def test_diagonal_factorizes():
    rng = np.random.default_rng(0)
    mu = rng.normal(size=2)
    var = rng.uniform(0.5, 2.0, size=2)
    joint = GaussianMixture([1.0], [mu], [var])
    parts = [GaussianMixture([1.0], [[mu[d]]], [[var[d]]]) for d in range(2)]
    o = rng.normal(size=2)
    expected = sum(density(parts[d], [o[d]]) for d in range(2))
    assert density(joint, o) == pytest.approx(expected)


def test_weight_validation():
    with pytest.raises(DataError):
        GaussianMixture([0.5, 0.4], np.zeros((2, 1)), np.ones((2, 1)))


@pytest.mark.parametrize("weights, means, variances", [
    ([np.nan], [[0.0]], [[np.nan]]),
    ([1.0], [[np.nan]], [[1.0]]),
    ([1.0], [[0.0]], [[np.nan]]),
    ([1.0], [[0.0]], [[np.inf]]),
    ([np.inf], [[0.0]], [[1.0]]),
])
def test_non_finite_parameters_rejected(weights, means, variances):
    with pytest.raises(DataError):
        GaussianMixture(weights, means, variances)


def test_dim_mismatch():
    gmm = GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
    with pytest.raises(DataError):
        log_densities(gmm, np.zeros((3, 3)))


def test_never_minus_inf_far_away():
    gmm = GaussianMixture([1.0], [[0.0]], [[1e-6]])
    assert np.isfinite(density(gmm, [100.0]))


def centred_log_densities(mixtures, obs):
    """(T, N, M) weighted component log densities, each from the frame's
    difference to the component mean (no expansion of the square)."""
    out = []
    for mix in mixtures:
        diff = obs[:, None, :] - mix.means[None]
        quad = np.sum(diff * diff / mix.variances[None], axis=2)
        logdet = np.sum(np.log(mix.variances), axis=1)
        out.append(np.log(mix.weights) - 0.5 * (quad + logdet + obs.shape[1] * np.log(2 * np.pi)))
    return np.stack(out, axis=1)


@pytest.mark.parametrize("seed", range(4))
def test_stacked_components_match_the_centred_form(seed):
    # five 5-component states in 16 dimensions, a third of their variances at
    # the floor; frames near a mean, at feature scale, and far from every mean
    rng = np.random.default_rng(seed)
    mixtures = []
    for _ in range(5):
        var = rng.uniform(0.05, 2.0, (5, 16))
        var[rng.random((5, 16)) < 1 / 3] = VARIANCE_FLOOR_MIN
        mixtures.append(GaussianMixture(rng.dirichlet(np.ones(5)), rng.normal(0, 1, (5, 16)), var))
    near = mixtures[1].means[rng.integers(0, 5, 20)] + rng.normal(0, 1e-3, (20, 16))
    obs = np.concatenate([near, rng.normal(0, 1, (20, 16)), rng.normal(0, 50, (20, 16))])
    got = component_table(mixtures, obs).transpose(2, 0, 1)
    want = centred_log_densities(mixtures, obs)
    assert got.shape == (60, 5, 5)
    # Near a mean at the variance floor a cell is the sum of expanded terms
    # near 1e6 that cancel, so its error there is absolute: up to 3.3e-9 on
    # cells below 10 in size over 300 such draws. Elsewhere it is relative.
    assert np.allclose(got, want, rtol=1e-9, atol=1e-8)
    logb, want_logb = log_densities(mixtures, obs), logsumexp(want, axis=2)
    assert np.allclose(logb, want_logb, rtol=1e-9, atol=1e-8)
    # what the likelihoods see: each state's log density of the whole sequence
    assert np.allclose(logb.sum(axis=0), want_logb.sum(axis=0), rtol=1e-9, atol=0)


def test_overflowing_frame_scores_minus_inf():
    # the square of 1e306 overflows; the expanded form would give inf - inf
    for gmm in (GaussianMixture([1.0], [[1.0, -1.0]], [[1e-3, 1e-3]]),
                GaussianMixture([0.5, 0.5], [[1.0, -1.0], [-1.0, 1.0]], np.full((2, 2), 1e-3))):
        comp = component_table([gmm], np.array([[1e306, -1e306]])).transpose(2, 0, 1)
        assert np.all(comp == -np.inf)
        assert density(gmm, [1e306, -1e306]) == -np.inf


@pytest.mark.parametrize("far", [3e4, 1e6, 1e154, 1.5e308])
def test_far_component_mean_is_scored_by_the_direct_form(far):
    # state 1's second component lies past MEAN_SPREAD of its state's other
    # component's standard deviation from their mean of means (at 1.5e308
    # that mean is past the largest float); state 0 lies well within
    rng = np.random.default_rng(3)
    near = GaussianMixture([0.4, 0.6], rng.normal(0, 1, (2, 4)), rng.uniform(0.5, 2.0, (2, 4)))
    means = rng.normal(0, 1, (2, 4))
    means[1, 2] = far
    spread = GaussianMixture([0.7, 0.3], means, np.full((2, 4), 1e-3))
    assert far / 2 / 1e-3 ** 0.5 > MEAN_SPREAD
    obs = np.concatenate([rng.normal(0, 1, (10, 4)), means[1] + rng.normal(0, 1e-2, (3, 4))])
    got = component_table([near, spread], obs).transpose(2, 0, 1)
    with np.errstate(over="ignore"):
        want = centred_log_densities([near, spread], obs)
    assert np.allclose(got[:, 1], want[:, 1], rtol=1e-13, atol=0)
    assert np.array_equal(got[:, 0], component_table([near], obs).transpose(2, 0, 1)[:, 0])
    assert np.all(np.isfinite(log_densities(spread, obs)))


def random_states(seed, n=4, m=3, d=5):
    rng = np.random.default_rng(seed)
    return [GaussianMixture(rng.dirichlet(np.ones(m)), rng.normal(0, 2, (m, d)),
                            rng.uniform(0.1, 2.0, (m, d))) for _ in range(n)]


@pytest.mark.parametrize("seed", range(3))
def test_stack_holds_the_per_state_arrays_and_scores_like_them(seed):
    states = random_states(seed)
    stack = GaussianMixture.stack(states)
    assert (stack.weights.shape, stack.means.shape) == ((4, 3), (4, 3, 5))
    for part in ("weights", "means", "variances"):
        assert np.array_equal(getattr(stack, part), np.stack([getattr(s, part) for s in states]))
    obs = np.random.default_rng(seed + 10).normal(0, 3, (30, 5))
    assert np.array_equal(component_table(stack, obs).transpose(2, 0, 1),
                          component_table(states, obs).transpose(2, 0, 1))
    assert np.array_equal(log_densities(stack, obs), log_densities(states, obs))
    for j, state in enumerate(states):
        assert np.array_equal(log_densities(stack, obs)[:, j], log_densities(state, obs)[:, 0])


def test_stacking_stacks_concatenates_them_in_order():
    states = random_states(0, n=5)
    stack = GaussianMixture.stack([GaussianMixture.stack(states[:2]), states[2],
                                   GaussianMixture.stack(states[3:])])
    whole = GaussianMixture.stack(states)
    for part in ("weights", "means", "variances"):
        assert np.array_equal(getattr(stack, part), getattr(whole, part))


@pytest.mark.parametrize("other", [random_states(1, n=1, m=2)[0], random_states(1, n=1, d=4)[0]])
def test_stacking_mixtures_of_unequal_shape_raises(other):
    with pytest.raises(DataError):
        GaussianMixture.stack(random_states(0, n=2) + [other])
    with pytest.raises(DataError):
        GaussianMixture.stack([])


def test_stack_constructor_checks_every_state():
    stack = GaussianMixture.stack(random_states(0))
    weights = stack.weights.copy()
    weights[2, 0] += 0.1
    with pytest.raises(DataError):
        GaussianMixture(weights, stack.means, stack.variances)
    with pytest.raises(DataError):
        GaussianMixture(stack.weights, stack.means[:, :2], stack.variances[:, :2])


def test_iterating_a_stack_gives_its_states():
    states = random_states(2)
    got = list(GaussianMixture.stack(states))
    assert len(got) == 4
    for mix, want in zip(got, states):
        assert isinstance(mix, GaussianMixture)
        assert (mix.n_components, mix.dim) == (3, 5)
        for part in ("weights", "means", "variances"):
            assert np.array_equal(getattr(mix, part), getattr(want, part))
