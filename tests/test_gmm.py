import numpy as np
import pytest

from hmm2tc.errors import DataError
from hmm2tc.gmm import GaussianMixture


def test_standard_normal_at_zero():
    gmm = GaussianMixture([1.0], [[0.0]], [[1.0]])
    assert gmm.log_density([0.0]) == pytest.approx(-0.9189385332046727)


def test_identical_components_collapse():
    one = GaussianMixture([1.0], [[0.3]], [[0.7]])
    two = GaussianMixture([0.3, 0.7], [[0.3], [0.3]], [[0.7], [0.7]])
    for x in (-1.0, 0.0, 2.5):
        assert two.log_density([x]) == pytest.approx(one.log_density([x]))


def test_diagonal_factorizes():
    rng = np.random.default_rng(0)
    mu = rng.normal(size=2)
    var = rng.uniform(0.5, 2.0, size=2)
    joint = GaussianMixture([1.0], [mu], [var])
    parts = [GaussianMixture([1.0], [[mu[d]]], [[var[d]]]) for d in range(2)]
    o = rng.normal(size=2)
    expected = sum(parts[d].log_density([o[d]]) for d in range(2))
    assert joint.log_density(o) == pytest.approx(expected)


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
        gmm.log_density_frames(np.zeros((3, 3)))


def test_never_minus_inf_far_away():
    gmm = GaussianMixture([1.0], [[0.0]], [[1e-6]])
    assert np.isfinite(gmm.log_density([100.0]))
