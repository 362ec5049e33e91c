import warnings

import numpy as np
import pytest

from hmm2tc import lattice
from hmm2tc.classify import train_bank
from hmm2tc.config import TrainConfig
from hmm2tc.errors import DataError, NumericError
from hmm2tc.gmm import GaussianMixture
from hmm2tc.hmm1 import Hmm1Model, _baum_welch, baum_welch1
from hmm2tc.hmm2 import Hmm2Model, baum_welch2, forward2, lift_hmm1, sample_hmm2
from hmm2tc.init import init_hmm1, init_hmm2
from hmm2tc.model_io import dumps_model

from conftest import random_hmm2


def two_cluster_frames(rng, n=200):
    a = rng.normal([-3.0, -3.0], 0.3, (n, 2))
    b = rng.normal([3.0, 3.0], 0.3, (n, 2))
    return np.concatenate([a, b])


class TestInit:
    def test_single_state_single_component(self):
        rng = np.random.default_rng(0)
        corpus = [rng.normal(size=(30, 2)), rng.normal(size=(25, 2))]
        model = init_hmm2(corpus, 1, 1, "ergodic", seed=0)
        pooled = np.concatenate(corpus)
        assert np.allclose(model.mixtures[0].means[0], pooled.mean(axis=0))
        assert np.allclose(model.mixtures[0].variances[0], pooled.var(axis=0))

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        corpus = [rng.normal(size=(50, 3))]
        m1 = init_hmm2(corpus, 3, 2, "left-right", seed=7)
        m2 = init_hmm2(corpus, 3, 2, "left-right", seed=7)
        assert np.array_equal(m1.psi, m2.psi)
        assert np.array_equal(m1.a3, m2.a3)
        for a, b in zip(m1.mixtures, m2.mixtures):
            assert np.array_equal(a.means, b.means)
            assert np.array_equal(a.variances, b.variances)

    def test_two_clusters_recovered(self):
        rng = np.random.default_rng(2)
        corpus = [two_cluster_frames(rng)]
        model = init_hmm2(corpus, 1, 2, "ergodic", seed=0)
        means = model.mixtures[0].means[np.argsort(model.mixtures[0].means[:, 0])]
        assert np.allclose(means[0], [-3, -3], atol=0.1)
        assert np.allclose(means[1], [3, 3], atol=0.1)

    def test_left_right_structure(self):
        rng = np.random.default_rng(3)
        model = init_hmm2([rng.normal(size=(60, 2))], 3, 1, "left-right", seed=0)
        assert np.all(np.tril(model.a2, -1) == 0)
        for j in range(3):
            assert np.all(model.a3[:, j, :j] == 0)

    def test_too_few_frames(self):
        with pytest.raises(DataError):
            init_hmm1([np.zeros((3, 2))], 2, 2, seed=0)

    @pytest.mark.parametrize("topology", ["ergodic", "left-right"])
    def test_order2_flat_start_is_the_lifted_order1_one(self, topology):
        rng = np.random.default_rng(4)
        corpus = [rng.normal(size=(40, 2)), rng.normal(size=(25, 2))]
        for n_states, n_comp in [(1, 1), (3, 2), (5, 3)]:
            model1 = init_hmm1(corpus, n_states, n_comp, topology, seed=3)
            model2 = init_hmm2(corpus, n_states, n_comp, topology, seed=3)
            assert dumps_model(model2) == dumps_model(lift_hmm1(model1))


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_config_rejects_non_positive_tol(tol):
    with pytest.raises(DataError):
        TrainConfig(tol=tol)


class TestBaumWelch2:
    def test_monotone_trace(self):
        rng = np.random.default_rng(4)
        true = random_hmm2(rng, 2, 1, 2)
        corpus = [sample_hmm2(true, 60, seed=s)[1] for s in range(4)]
        init = init_hmm2(corpus, 2, 1, "ergodic", seed=0)
        model, trace = baum_welch2(init, corpus, TrainConfig(max_iterations=15, tol=1e-12))
        assert all(b - a >= -1e-8 for a, b in zip(trace, trace[1:]))
        assert abs(model.psi.sum() - 1) < 1e-10
        assert np.all(np.abs(model.a2.sum(axis=1) - 1) < 1e-10)
        assert np.all(np.abs(model.a3.sum(axis=2) - 1) < 1e-10)

    def test_improves_over_init(self):
        rng = np.random.default_rng(5)
        true = random_hmm2(rng, 3, 1, 2)
        corpus = [sample_hmm2(true, 80, seed=s)[1] for s in range(5)]
        init = init_hmm2(corpus, 3, 1, "ergodic", seed=0)
        model, trace = baum_welch2(init, corpus, TrainConfig(max_iterations=20))
        final_ll = sum(forward2(model, o)[1] for o in corpus)
        assert final_ll > trace[0]

    def test_single_state_reduces_to_gmm_em(self):
        # N=1: transition structure is trivially 1, EM fits the pooled mixture
        rng = np.random.default_rng(6)
        frames = two_cluster_frames(rng, 60)
        init = init_hmm2([frames], 1, 2, "ergodic", seed=1)
        model, trace = baum_welch2(init, [frames], TrainConfig(max_iterations=10, tol=1e-12))
        assert model.a2.shape == (1, 1) and model.a2[0, 0] == 1.0
        assert model.a3[0, 0, 0] == 1.0
        assert all(b - a >= -1e-8 for a, b in zip(trace, trace[1:]))
        means = model.mixtures[0].means[np.argsort(model.mixtures[0].means[:, 0])]
        assert np.allclose(means[0], [-3, -3], atol=0.2)
        assert np.allclose(means[1], [3, 3], atol=0.2)

    def test_non_finite_likelihood_raises(self):
        a2 = np.array([[0.5, 0.5], [0.0, 1.0]])
        a3 = np.zeros((2, 2, 2))
        a3[:, 0] = [0.5, 0.5]
        a3[:, 1] = [0.0, 1.0]
        mix = [GaussianMixture([1.0], [[0.0]], [[1.0]]) for _ in range(2)]
        model = Hmm2Model([1.0, 0.0], a2, a3, mix, "left-right")
        with pytest.raises(NumericError):
            baum_welch2(model, [np.zeros((5, 1)), np.full((5, 1), 1e200)])

    def test_zero_occupancy_summarised_once(self, caplog):
        rng = np.random.default_rng(10)
        corpus = [rng.normal(size=(30, 2)) for _ in range(3)]
        init = init_hmm2(corpus, 3, 1, "left-right", seed=0)
        with caplog.at_level("WARNING", logger="hmm2tc"):
            baum_welch2(init, corpus, TrainConfig(max_iterations=4, tol=1e-12))
        pair_records = [r.getMessage() for r in caplog.records
                        if "pairs had zero occupancy" in r.getMessage()]
        assert len(pair_records) == 1
        assert pair_records[0].endswith("in 4 of 4 EM iterations; kept")

    @pytest.mark.parametrize("order", [1, 2])
    def test_zero_occupancy_reported_on_the_trainer_logger(self, order, caplog):
        # component 2 sits far from every frame and the left-right pair (1, 0)
        # never occurs, so both stay at zero occupancy
        mix = [GaussianMixture([0.5, 0.5], [[0.0], [1e3]], [[1.0], [1.0]])] * 2
        a = np.array([[0.5, 0.5], [0.0, 1.0]])
        model1 = Hmm1Model([0.5, 0.5], a, mix, "left-right")
        rng = np.random.default_rng(11)
        corpus = [rng.normal(size=(20, 1)) for _ in range(2)]
        with caplog.at_level("WARNING", logger="hmm2tc"):
            if order == 1:
                baum_welch1(model1, corpus, TrainConfig(max_iterations=3, tol=1e-12))
            else:
                baum_welch2(lift_hmm1(model1), corpus,
                            TrainConfig(max_iterations=3, tol=1e-12))
        records = [r for r in caplog.records if "zero occupancy" in r.getMessage()]
        kinds = ["2 mixture components"] + (["1 (i, j) pairs"] if order == 2 else [])
        assert sorted(r.getMessage().split(" had")[0] for r in records) == sorted(kinds)
        assert {r.name for r in records} == {f"hmm2tc.hmm{order}"}

    def test_requires_t3(self):
        model = random_hmm2(np.random.default_rng(7), 2, 1, 1)
        with pytest.raises(DataError):
            baum_welch2(model, [np.zeros((2, 1))])

    def test_dimension_mismatch(self):
        model = random_hmm2(np.random.default_rng(7), 2, 1, 2)
        with pytest.raises(DataError):
            baum_welch2(model, [np.zeros((5, 3))])

    def test_freeze_initials(self):
        rng = np.random.default_rng(8)
        true = random_hmm2(rng, 2, 1, 2)
        corpus = [sample_hmm2(true, 40, seed=s)[1] for s in range(3)]
        init = init_hmm2(corpus, 2, 1, "ergodic", seed=0)
        cfg = TrainConfig(max_iterations=5, tol=1e-12, freeze_initials=True)
        model, _ = baum_welch2(init, corpus, cfg)
        assert np.array_equal(model.psi, init.psi)
        assert np.array_equal(model.a2, init.a2)

    def test_variance_floor_respected(self):
        rng = np.random.default_rng(9)
        corpus = [rng.normal(size=(50, 2)) for _ in range(3)]
        init = init_hmm2(corpus, 2, 2, "ergodic", seed=0)
        cfg = TrainConfig(max_iterations=8, tol=1e-12)
        model, _ = baum_welch2(init, corpus, cfg)
        pooled = np.concatenate(corpus)
        floor = np.maximum(1e-3 * pooled.var(axis=0), 1e-6)
        for mix in model.mixtures:
            assert np.all(mix.variances >= floor - 1e-15)


def left_right_pair(order):
    """A two-state left-right model of the given order with unit-variance
    states at 0."""
    mix = [GaussianMixture([1.0], [[0.0]], [[1.0]]) for _ in range(2)]
    model = Hmm1Model([1.0, 0.0], [[0.5, 0.5], [0.0, 1.0]], mix, "left-right")
    return model if order == 1 else lift_hmm1(model)


@pytest.mark.parametrize("order", [1, 2])
def test_frame_too_large_to_square_raises_without_a_warning(order):
    model = left_right_pair(order)
    train = baum_welch1 if order == 1 else baum_welch2
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericError):
            train(model, [np.zeros((5, 1)), np.full((5, 1), 1e200)])


def level_sets(rng, counts, dim=2):
    """One label per count: that many sequences of 15-59 frames that step
    through three levels 8 apart, offset by the label's index."""
    sets = {}
    for i, count in enumerate(counts):
        seqs = []
        for t in rng.integers(15, 60, size=count):
            level = 8.0 * (3 * np.arange(t) // t) + i
            seqs.append(rng.normal(level[:, None], 1.0, (t, dim)))
        sets[f"c{i}"] = seqs
    return sets


class TestBankLoop:
    """`train_bank` trains every label in one EM loop, and each label gets
    the model and trace that `baum_welch1`/`baum_welch2` give it alone."""

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("topology", ["ergodic", "left-right"])
    @pytest.mark.parametrize("freeze", [False, True])
    def test_bank_matches_each_label_alone(self, order, topology, freeze, monkeypatch):
        # labels of 3, 1, 4 and 2 sequences of different lengths, which stop
        # at different iterations, and on which some chains run in the log
        # domain
        sets = level_sets(np.random.default_rng(12), [3, 1, 4, 2])
        cfg = TrainConfig(max_iterations=12, tol=1e-3, seed=5, freeze_initials=freeze)
        log_domain = []
        log_estep = lattice._log_estep
        monkeypatch.setattr(lattice, "_log_estep",
                            lambda c: log_domain.append(len(c.lengths)) or log_estep(c))
        bank, traces = train_bank(sets, order, 5, 2, topology, cfg)
        assert log_domain
        init, train = (init_hmm1, baum_welch1) if order == 1 else (init_hmm2, baum_welch2)
        for idx, (label, seqs) in enumerate(sets.items()):
            model, trace = train(init(seqs, 5, 2, topology, cfg.seed + idx), seqs, cfg)
            assert dumps_model(bank.models[label]) == dumps_model(model)
            assert traces[label] == trace
        iterations = [len(trace) for trace in traces.values()]
        assert len(set(iterations)) > 1 and min(iterations) < cfg.max_iterations

    @pytest.mark.parametrize("order", [1, 2])
    def test_non_finite_likelihood_in_one_label_raises(self, order):
        model = left_right_pair(order)
        good = [np.zeros((5, 1)), np.ones((7, 1))]
        with pytest.raises(NumericError):
            _baum_welch([model] * 3, [good, [good[0], np.full((5, 1), 1e200)], good], None)

    @pytest.mark.parametrize("order", [1, 2])
    def test_zero_occupancy_one_record_per_label_and_kind(self, order, caplog):
        # component 2 sits far from every frame and the left-right pair (1, 0)
        # never occurs, so both stay at zero occupancy in every label
        mix = [GaussianMixture([0.5, 0.5], [[0.0], [1e3]], [[1.0], [1.0]])] * 2
        model = Hmm1Model([0.5, 0.5], [[0.5, 0.5], [0.0, 1.0]], mix, "left-right")
        if order == 2:
            model = lift_hmm1(model)
        rng = np.random.default_rng(13)
        corpora = [[rng.normal(size=(t, 1)) for t in rng.integers(10, 30, size=count)]
                   for count in (2, 1, 3)]
        cfg = TrainConfig(max_iterations=3, tol=1e-12)

        def records(corpora):
            caplog.clear()
            with caplog.at_level("WARNING", logger="hmm2tc"):
                _baum_welch([model] * len(corpora), corpora, cfg)
            return [(r.name, r.getMessage()) for r in caplog.records
                    if "zero occupancy" in r.getMessage()]

        alone = [record for corpus in corpora for record in records([corpus])]
        assert len(alone) == 3 * order
        assert {name for name, _ in alone} == {f"hmm2tc.hmm{order}"}
        assert records(corpora) == alone
