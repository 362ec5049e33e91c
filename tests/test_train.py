import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

from hmm2tc import init, lattice
from hmm2tc.classify import train_bank
from hmm2tc.config import MIXTURE_WEIGHT_FLOOR, TrainConfig, variance_floor
from hmm2tc.errors import DataError, NumericError
from hmm2tc.gmm import GaussianMixture, component_table
from hmm2tc.em import _update_mixtures, baum_welch, corpora
from hmm2tc.hmm1 import Hmm1Model, baum_welch1
from hmm2tc.hmm2 import Hmm2Model, baum_welch2, forward2, lift_hmm1, sample_hmm2
from hmm2tc.init import flat_start, init_hmm2
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
        assert np.allclose(model.mixtures.means[0, 0], pooled.mean(axis=0))
        assert np.allclose(model.mixtures.variances[0, 0], pooled.var(axis=0))

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        corpus = [rng.normal(size=(50, 3))]
        m1 = init_hmm2(corpus, 3, 2, "left-right", seed=7)
        m2 = init_hmm2(corpus, 3, 2, "left-right", seed=7)
        assert np.array_equal(m1.psi, m2.psi)
        assert np.array_equal(m1.a3, m2.a3)
        assert np.array_equal(m1.mixtures.means, m2.mixtures.means)
        assert np.array_equal(m1.mixtures.variances, m2.mixtures.variances)

    def test_two_clusters_recovered(self):
        rng = np.random.default_rng(2)
        corpus = [two_cluster_frames(rng)]
        model = init_hmm2(corpus, 1, 2, "ergodic", seed=0)
        means = model.mixtures.means[0, np.argsort(model.mixtures.means[0, :, 0])]
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
            flat_start({"": [np.zeros((3, 2))]}, 1, 2, 2, seed=0)

    @pytest.mark.parametrize("order", [0, 3])
    def test_unsupported_order_is_refused(self, order):
        corpus = [np.random.default_rng(5).normal(size=(40, 2))]
        with pytest.raises(DataError, match=f"unsupported model order {order}"):
            flat_start({"": corpus}, order, 2, 2, seed=0)

    def test_labels_of_two_dimensions_are_refused(self):
        sets = {"a": [np.zeros((40, 2))], "b": [np.ones((40, 3))]}
        with pytest.raises(DataError, match="condition 'b': sequence 0 has 3 dimensions, "
                                            "the first training sequence 2"):
            flat_start(sets, 1, 2, 2, seed=0)

    def test_peak_memory_stays_within_three_times_the_frames(self):
        # a bank of the benchmark's train corpus's shape: six labels of five
        # sequences of 80-200 frames, N = M = 5, D = 16. The padded (D, G, T)
        # stack takes about 1.3 times the frames' bytes and the distance
        # buffer 0.4 times, so one more copy of the stack breaks the bound.
        rng = np.random.default_rng(30)
        sets = {f"c{i}": [rng.normal(rng.normal(size=16), 1.0, size=(t, 16))
                          for t in rng.integers(80, 201, size=5)] for i in range(6)}
        bank = corpora(sets)
        frame_bytes = sum(c.frames.nbytes for c in bank)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            flat_start(bank, 1, 5, 5, "ergodic", seed=0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 3 * frame_bytes, (peak, frame_bytes)

    @pytest.mark.parametrize("topology", ["ergodic", "left-right"])
    def test_order2_flat_start_is_the_lifted_order1_one(self, topology):
        rng = np.random.default_rng(4)
        corpus = [rng.normal(size=(40, 2)), rng.normal(size=(25, 2))]
        for n_states, n_comp in [(1, 1), (3, 2), (5, 3)]:
            model1 = flat_start({"": corpus}, 1, n_states, n_comp, topology, seed=3)[0]
            model2 = init_hmm2(corpus, n_states, n_comp, topology, seed=3)
            assert dumps_model(model2) == dumps_model(lift_hmm1(model1))


def reference_flat_start(mats, n_states, n_comp, seed):
    """The per-label flat start, one k-means per state with a loop over the
    components, drawing the starting centres of every state first, in state
    order, then each iteration's reseeds in state and component order: per
    state j the labels of every Lloyd iteration, then the (N, M) weights and
    (N, M, D) means and variances, and the number of empty-cluster reseeds."""
    rng = np.random.default_rng(seed)
    frames = np.concatenate(mats)
    assign = np.concatenate([np.minimum((np.arange(len(mat)) * n_states) // len(mat),
                                        n_states - 1) for mat in mats])
    floor = variance_floor(frames)
    data = [frames[assign == j] for j in range(n_states)]
    centers = [d[rng.choice(len(d), size=n_comp, replace=False)].copy() for d in data]
    iterations, reseeds = [[] for _ in range(n_states)], 0
    for _ in range(10):
        for j, d in enumerate(data):
            dist = np.sum((d[:, None, :] - centers[j][None, :, :]) ** 2, axis=2)
            labels = np.argmin(dist, axis=1)
            iterations[j].append(labels)
            for m in range(n_comp):
                sel = labels == m
                if not np.any(sel):
                    centers[j][m] = d[rng.integers(len(d))]
                    reseeds += 1
                else:
                    centers[j][m] = d[sel].mean(axis=0)
    weights = np.zeros((n_states, n_comp))
    means = np.array(centers)
    variances = np.empty_like(means)
    for j, d in enumerate(data):
        for m in range(n_comp):
            sel = iterations[j][-1] == m
            weights[j, m] = max(int(np.sum(sel)), 1)
            scatter = d[sel] - means[j, m] if np.any(sel) else np.zeros((1, d.shape[1]))
            variances[j, m] = np.maximum((scatter ** 2).mean(axis=0), floor)
    return iterations, weights / weights.sum(axis=1, keepdims=True), means, variances, reseeds


def random_ragged_bank(rng):
    """L 1-6 labels of 1-4 sequences, N 1-5, M 1-5, D 2-16; each sequence
    long enough for M frames per state. About a third of the banks repeat a
    few rows of small integers, or of small multiples of 0.1, which make
    ties and empty clusters."""
    n_labels, n_states, n_comp = rng.integers(1, 7), rng.integers(1, 6), rng.integers(1, 6)
    dim = rng.integers(2, 17)
    tied = rng.random() < 0.35
    bank = {}
    for i in range(n_labels):
        lengths = rng.integers(n_states * n_comp, n_states * n_comp + 60, size=rng.integers(1, 5))
        if tied:
            rows = rng.integers(-2, 3, size=(rng.integers(1, 2 * n_comp + 1), dim)) \
                * rng.choice([1.0, 0.1])
            seqs = [rows[rng.integers(len(rows), size=t)] for t in lengths]
        else:
            scale = 10.0 ** rng.uniform(-3, 3)
            seqs = [scale * rng.normal(rng.normal(size=dim), 1.0, size=(t, dim)) for t in lengths]
        bank[f"c{i}"] = seqs
    return bank, int(n_states), int(n_comp)


def test_flat_start_matches_the_per_label_kmeans(monkeypatch):
    """The batched flat start against the per-label one on seeded random
    ragged banks: every Lloyd iteration's labels and the weights identical,
    means and variances within 1e-12 of the data's scale, and each label's
    model serialising like the flat start of a bank of its corpus alone."""
    seen = []
    nearest = init._nearest

    def record(xt, sq_norms, valid, centers, dist):
        best = nearest(xt, sq_norms, valid, centers, dist)
        seen.append([b[v] for b, v in zip(best, valid)])   # per group, label-major
        return best

    monkeypatch.setattr(init, "_nearest", record)
    rng = np.random.default_rng(20)
    reseeds = 0
    for case in range(60):
        bank, n_states, n_comp = random_ragged_bank(rng)
        seen.clear()
        models = flat_start(bank, 1, n_states, n_comp, "ergodic", seed=case)
        for i, (mats, model) in enumerate(zip(bank.values(), models)):
            iterations, weights, means, variances, count = reference_flat_start(
                mats, n_states, n_comp, case + i)
            reseeds += count
            for j in range(n_states):
                for it in range(10):
                    assert np.array_equal(seen[it][i * n_states + j], iterations[j][it]), \
                        (case, i, j)
            scale = np.abs(np.concatenate(mats)).max()
            assert np.array_equal(model.mixtures.weights, weights), case
            np.testing.assert_allclose(model.mixtures.means, means, rtol=1e-12,
                                       atol=1e-12 * scale)
            np.testing.assert_allclose(model.mixtures.variances, variances, rtol=1e-12,
                                       atol=1e-12 * scale ** 2)
            alone = flat_start({"": mats}, 1, n_states, n_comp, "ergodic", seed=case + i)[0]
            assert dumps_model(alone) == dumps_model(model), (case, i)
    assert reseeds > 100   # the tied banks reach the empty-cluster path


def test_flat_start_ranks_a_frame_whose_squared_norm_overflows():
    # each value of frame 5 can be squared, its squared norm cannot: the
    # expanded distances overflow, and the direct form must rank the frame
    rng = np.random.default_rng(22)
    mats = [rng.normal(size=(60, 16)), rng.normal(size=(40, 16))]
    mats[0][5] = 1.2e154
    with np.errstate(over="ignore"):
        model = flat_start({"a": mats}, 1, 3, 2, "ergodic", seed=0)[0]
        _, weights, means, variances, _ = reference_flat_start(mats, 3, 2, 0)
    assert np.array_equal(model.mixtures.weights, weights)
    assert np.array_equal(model.mixtures.means, means)
    assert np.array_equal(model.mixtures.variances, variances)


def test_train_bank_refuses_a_frame_whose_squared_norm_overflows():
    # each value of frame 5 can be squared, its squared norm cannot
    rng = np.random.default_rng(22)
    mats = [rng.normal(size=(60, 16)), rng.normal(size=(40, 16))]
    mats[1][5] = 1.2e154
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DataError, match="'a': sequence 1 frame 5 is too large"):
            train_bank({"a": mats}, 1, 3, 2, "ergodic")


class TestTrainingInputRule:
    """Every way into training checks a bank's input in `em.corpora`, so one
    fault gives one message whichever function it enters by."""

    @staticmethod
    def three_labels():
        """Labels a, b and c of three 2-dimensional sequences each."""
        rng = np.random.default_rng(40)
        return {lab: [rng.normal(size=(30, 2)) for _ in range(3)] for lab in "abc"}

    @pytest.mark.parametrize("way", ["train_bank", "flat_start", "baum_welch"])
    def test_a_dimension_fault_has_one_message(self, way):
        sets = self.three_labels()
        models = flat_start(sets, 1, 2, 2, "ergodic", seed=0)
        sets["c"][2] = np.zeros((30, 3))
        call = {"train_bank": lambda: train_bank(sets, 1, 2, 2, "ergodic"),
                "flat_start": lambda: flat_start(sets, 1, 2, 2, "ergodic", seed=0),
                "baum_welch": lambda: baum_welch(models, sets)}[way]
        with pytest.raises(DataError) as exc:
            call()
        assert str(exc.value) == ("condition 'c': sequence 2 has 3 dimensions, "
                                  "the first training sequence 2")

    @pytest.mark.parametrize("order", [1, 2])
    def test_a_dimension_fault_has_one_message_alone(self, order):
        seqs = self.three_labels()["c"]
        model = flat_start({"": seqs}, order, 2, 2, "ergodic", seed=0)[0]
        seqs[2] = np.zeros((30, 3))
        with pytest.raises(DataError) as exc:
            (baum_welch1 if order == 1 else baum_welch2)(model, seqs)
        assert str(exc.value) == ("condition '': sequence 2 has 3 dimensions, "
                                  "the first training sequence 2")

    @pytest.mark.parametrize("value", [1.2e154, np.inf, -np.inf, np.nan])
    def test_train_bank_names_the_frame_whose_squared_norm_is_not_finite(self, value):
        sets = self.three_labels()
        sets["c"][2][7] = value
        with pytest.raises(DataError) as exc:
            train_bank(sets, 1, 2, 2, "ergodic")
        assert str(exc.value) == ("condition 'c': sequence 2 frame 7 is too large or not a "
                                  "number: its squared norm is not finite")


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
        means = model.mixtures.means[0, np.argsort(model.mixtures.means[0, :, 0])]
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
        # no jump from state 0 to state 2, so the pair (0, 2), which the
        # topology allows, never occurs
        init.a2[0] = init.a3[:, 0] = [0.5, 0.5, 0.0]
        with caplog.at_level("WARNING", logger="hmm2tc"):
            baum_welch2(init, corpus, TrainConfig(max_iterations=4, tol=1e-12))
        pair_records = [r.getMessage() for r in caplog.records
                        if "pairs had zero occupancy" in r.getMessage()]
        assert pair_records == ["1 (i, j) pairs had zero occupancy in 4 of 4 EM iterations; kept"]

    @pytest.mark.parametrize("order", [1, 2])
    def test_zero_occupancy_reported_on_the_trainer_logger(self, order, caplog):
        # component 2 sits far from every frame, and state 0 holds the first
        # frame alone, so the pair (0, 0), which the topology allows, never
        # occurs: both stay at zero occupancy
        mix = [GaussianMixture([0.5, 0.5], [[0.0], [1e3]], [[1.0], [1.0]])] * 2
        a = np.array([[0.0, 1.0], [0.0, 1.0]])
        model1 = Hmm1Model([1.0, 0.0], a, mix, "left-right")
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

    def test_variance_floor_respected(self):
        rng = np.random.default_rng(9)
        corpus = [rng.normal(size=(50, 2)) for _ in range(3)]
        init = init_hmm2(corpus, 2, 2, "ergodic", seed=0)
        cfg = TrainConfig(max_iterations=8, tol=1e-12)
        model, _ = baum_welch2(init, corpus, cfg)
        pooled = np.concatenate(corpus)
        floor = np.maximum(1e-3 * pooled.var(axis=0), 1e-6)
        assert np.all(model.mixtures.variances >= floor - 1e-15)


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
    def test_bank_matches_each_label_alone(self, order, topology, monkeypatch):
        # labels of 3, 1, 4 and 2 sequences of different lengths, which stop
        # at different iterations, and on which some chains run in the log
        # domain
        sets = level_sets(np.random.default_rng(12), [3, 1, 4, 2])
        cfg = TrainConfig(max_iterations=12, tol=1e-3, seed=5)
        log_domain = []
        log_estep = lattice._log_estep
        monkeypatch.setattr(lattice, "_log_estep",
                            lambda c: log_domain.append(len(c.lengths)) or log_estep(c))
        bank, traces = train_bank(sets, order, 5, 2, topology, cfg)
        assert log_domain
        train = baum_welch1 if order == 1 else baum_welch2
        for idx, (label, seqs) in enumerate(sets.items()):
            flat = flat_start({label: seqs}, order, 5, 2, topology, cfg.seed + idx)[0]
            model, trace = train(flat, seqs, cfg)
            assert dumps_model(bank.models[label]) == dumps_model(model)
            assert traces[label] == trace
        iterations = [len(trace) for trace in traces.values()]
        assert len(set(iterations)) > 1 and min(iterations) < cfg.max_iterations

    @pytest.mark.parametrize("order", [1, 2])
    def test_non_finite_likelihood_in_one_label_raises(self, order):
        model = left_right_pair(order)
        good = [np.zeros((5, 1)), np.ones((7, 1))]
        with pytest.raises(NumericError):
            baum_welch([model] * 3, {"a": good, "b": [good[0], np.full((5, 1), 1e200)],
                                     "c": good}, None)

    @pytest.mark.parametrize("order", [1, 2])
    def test_models_of_two_topologies_are_refused(self, order):
        # the chains of one loop are stacked, so they share one pair map
        model = left_right_pair(order)
        ergodic = type(model).from_checked(*(getattr(model, name) for name in model._ARRAYS),
                                           model.mixtures, "ergodic")
        sets = {"a": [np.zeros((5, 1))], "b": [np.ones((5, 1))]}
        with pytest.raises(DataError, match="must share one topology"):
            baum_welch([model, ergodic], sets, None)

    @pytest.mark.parametrize("order", [1, 2])
    def test_zero_occupancy_one_record_per_label_and_kind(self, order, caplog):
        # component 2 sits far from every frame, and state 0 holds the first
        # frame alone, so the pair (0, 0), which the topology allows, never
        # occurs: both stay at zero occupancy in every label
        mix = [GaussianMixture([0.5, 0.5], [[0.0], [1e3]], [[1.0], [1.0]])] * 2
        model = Hmm1Model([1.0, 0.0], [[0.0, 1.0], [0.0, 1.0]], mix, "left-right")
        if order == 2:
            model = lift_hmm1(model)
        rng = np.random.default_rng(13)
        sets = {f"c{count}": [rng.normal(size=(t, 1)) for t in rng.integers(10, 30, size=count)]
                for count in (2, 1, 3)}
        cfg = TrainConfig(max_iterations=3, tol=1e-12)

        def records(sets):
            caplog.clear()
            with caplog.at_level("WARNING", logger="hmm2tc"):
                baum_welch([model] * len(sets), sets, cfg)
            return [(r.name, r.getMessage()) for r in caplog.records
                    if "zero occupancy" in r.getMessage()]

        alone = [record for label, seqs in sets.items() for record in records({label: seqs})]
        kinds = ["1 (i, j) pairs", "2 mixture components"][2 - order:]
        assert alone == [(f"hmm2tc.hmm{order}",
                          f"{kind} had zero occupancy in 3 of 3 EM iterations; kept")
                         for _ in sets for kind in kinds]
        assert records(sets) == alone


def reference_mixture_update(mixtures, occ, frames, floor):
    """The GMM M-step by a loop over frames, from the direct density formula
    log w + log N(x; mu, diag s): weights, means and two-pass variances of
    each state's occupancy-weighted component responsibilities."""
    n, m, d = mixtures.means.shape
    acc = np.zeros((n, m))
    first = np.zeros((n, m, d))
    resp = np.zeros((len(frames), n, m))
    for t, x in enumerate(frames):
        for j in range(n):
            with np.errstate(over="ignore"):
                quad = np.sum((x - mixtures.means[j]) ** 2 / mixtures.variances[j], axis=1)
            log_p = np.log(mixtures.weights[j]) - 0.5 * (
                quad + np.sum(np.log(2 * np.pi * mixtures.variances[j]), axis=1))
            if np.all(log_p == -np.inf):
                continue   # a frame the state cannot emit: no share of it
            p = np.exp(log_p - log_p.max())
            resp[t, j] = occ[t, j] * p / p.sum()
            acc[j] += resp[t, j]
            first[j] += resp[t, j][:, None] * x
    weights = mixtures.weights.copy()
    means = mixtures.means.copy()
    variances = mixtures.variances.copy()
    for j in range(n):
        if acc[j].sum() > 0:
            w = np.maximum(acc[j] / acc[j].sum(), MIXTURE_WEIGHT_FLOOR)
            weights[j] = w / w.sum()
        for k in range(m):
            if acc[j, k] > 0:
                means[j, k] = first[j, k] / acc[j, k]
                second = sum(resp[t, j, k] * (x - means[j, k]) ** 2
                             for t, x in enumerate(frames))
                variances[j, k] = np.maximum(second / acc[j, k], floor)
    return weights, means, variances


def test_mixture_update_matches_a_frame_loop():
    # three 2-component states in 2 dimensions on 40 frames: state 2's second
    # component sits far from every frame and is empty; frame 7 is too large
    # for states 0 and 2 (its square over their variances overflows), and
    # state 0 has occupancy there but cannot emit it, while state 1 can
    rng = np.random.default_rng(21)
    frames = rng.normal(0.0, 1.5, (40, 2))
    frames[7] = [1e154, 0.0]
    means = rng.normal(0.0, 1.0, (3, 2, 2))
    means[2, 1] = [60.0, -60.0]
    variances = rng.uniform(0.2, 0.5, (3, 2, 2))
    variances[:, :, 0] = 0.1
    variances[1] = [[0.8, 1.2], [0.6, 0.9]]
    mixtures = GaussianMixture(rng.dirichlet(np.ones(2), 3), means, variances)
    occ = rng.dirichlet(np.ones(3), 40)
    floor = np.array([1e-3, 2e-3])
    comp = component_table(mixtures, frames)
    logb = lattice.logsumexp(comp, axis=1)
    assert logb[0, 7] == -np.inf and np.isfinite(logb[1, 7]) and occ[7, 0] > 0
    new, empty = _update_mixtures(mixtures, occ, frames, comp, logb, floor)
    want = reference_mixture_update(mixtures, occ, frames, floor)
    for got, ref in zip((new.weights, new.means, new.variances), want):
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))
    assert empty.tolist() == [[False, False], [False, False], [False, True]]
    assert np.array_equal(new.means[2, 1], means[2, 1])
    assert np.array_equal(new.variances[2, 1], variances[2, 1])


def test_pair_occupancy_matches_a_loop_over_pairs():
    # from (R, B, N*N) pair posteriors in the engine's layout: frame t + 1 of
    # state k adds the pairs (j, k) of row t over j in turn, as numpy's sum
    # over that axis does, bit for bit; frame 0 of state j sums row 0's (j, k)
    rng = np.random.default_rng(14)
    n, rows, chains = 3, 6, 4
    mix = [GaussianMixture([1.0], [[0.0]], [[1.0]])] * n
    model = lift_hmm1(Hmm1Model(np.full(n, 1 / n), np.full((n, n), 1 / n), mix))
    gamma = rng.random((rows, chains, n * n))
    pairs = gamma.reshape(rows, chains, n, n)
    occ = model._occupancy(gamma)
    assert occ.shape == (rows + 1, chains, n)
    assert np.array_equal(occ[0], pairs[0].sum(axis=2))
    for r, b, k in itertools.product(range(rows), range(chains), range(n)):
        total = pairs[r, b, 0, k]
        for j in range(1, n):
            total += pairs[r, b, j, k]
        assert occ[r + 1, b, k] == total
