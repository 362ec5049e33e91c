import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmm2tc import lattice
from hmm2tc.classify import (ConditionBank, EvaluationReport, _scores, evaluate, identify,
                             improvement_rate, improvement_table,
                             render_improvement_text, render_report_text,
                             round_half_away, train_bank)
from hmm2tc.config import TrainConfig
from hmm2tc.errors import DataError, NumericError
from hmm2tc.gmm import GaussianMixture
from hmm2tc.hmm1 import Hmm1Model, forward1, viterbi1
from hmm2tc.hmm2 import Hmm2Model, _pairs, forward2, sample_hmm2, viterbi2
from hmm2tc.lattice import _log

from conftest import random_hmm2


def point_model(mean, dim=2):
    mix = GaussianMixture([1.0], [np.full(dim, float(mean))], [np.ones(dim)])
    return Hmm2Model([1.0], np.ones((1, 1)), np.ones((1, 1, 1)), [mix])


def two_label_bank():
    return ConditionBank(["a", "b"], {"a": point_model(0.0), "b": point_model(6.0)})


class TestIdentify:
    def test_dominant_model_wins(self):
        bank = two_label_bank()
        obs = np.zeros((10, 2))
        assert identify(bank, obs).label == "a"
        assert identify(bank, obs + 6.0).label == "b"

    def test_tie_takes_first_label(self):
        bank = ConditionBank(["x", "y"], {"x": point_model(0.0), "y": point_model(0.0)})
        assert identify(bank, np.zeros((5, 2))).label == "x"

    def test_score_shift_invariance(self):
        bank = two_label_bank()
        obs = np.random.default_rng(0).normal(2.0, 1.0, (8, 2))
        result = identify(bank, obs)
        shifted = {k: v + 123.4 for k, v in result.scores.items()}
        assert max(shifted, key=shifted.get) == result.label

    def test_dim_mismatch(self):
        with pytest.raises(DataError):
            identify(two_label_bank(), np.zeros((5, 3)))

    def test_monte_carlo_separated(self):
        rng = np.random.default_rng(1)
        models = {lab: point_model(m) for lab, m in [("a", -4.0), ("b", 4.0)]}
        bank = ConditionBank(["a", "b"], models)
        correct = 0
        for trial in range(200):
            lab = ("a", "b")[trial % 2]
            _, frames = sample_hmm2(models[lab], 20, seed=trial)
            correct += identify(bank, frames).label == lab
        assert correct >= 190


def random_model(rng, order, topology, n=3, m=2, dim=2):
    """A random model of the given order and topology; a left-right model's
    backward transitions are 0."""
    def rows(shape):
        p = rng.dirichlet(np.ones(n), shape)
        if topology == "left-right":
            p = np.triu(p)
            p /= p.sum(axis=-1, keepdims=True)
        return p

    mixtures = GaussianMixture(rng.dirichlet(np.ones(m), n), rng.normal(0.0, 2.0, (n, m, dim)),
                               rng.uniform(0.5, 1.5, (n, m, dim)))
    pi = rng.dirichlet(np.ones(n))
    if order == 1:
        return Hmm1Model(pi, rows(n), mixtures, topology)
    return Hmm2Model(pi, rows(n), rows((n, n)), mixtures, topology)


@pytest.mark.parametrize("order", [1, 2])
def test_bank_scores_equal_each_model_scored_alone(order):
    # six models, ergodic and left-right; model "z" has tiny variances in
    # the first dimension, so it cannot emit a frame of 1e154 there (the
    # square overflows) and gives the second utterance probability 0
    rng = np.random.default_rng(30 + order)
    topologies = ["ergodic", "left-right"] * 3
    models = {f"m{i}": random_model(rng, order, top) for i, top in enumerate(topologies[:5])}
    models["z"] = random_model(rng, order, topologies[5])
    models["z"].mixtures.variances[:, :, 0] = 0.1
    bank = ConditionBank(list(models), models)
    utterance = rng.normal(0.0, 2.0, (25, 2))
    huge = utterance.copy()
    huge[11, 0] = 1e154
    alone = {1: (forward1, viterbi1), 2: (forward2, viterbi2)}[order]
    for obs in (utterance, huge):
        for scoring, score in zip(("forward", "viterbi"), alone):
            got = identify(bank, obs, scoring).scores
            for label, model in models.items():
                try:
                    want = score(model, obs)[1]
                except NumericError:   # a single chain with no admissible path
                    want = -np.inf
                if obs is huge and label == "z":
                    assert got[label] == want == -np.inf
                else:
                    assert np.isfinite(want)
                    assert abs(got[label] - want) <= 1e-12 * abs(want), (scoring, label)


# Bank scoring runs one stacked chain per bank, and an order-2 model's chain
# holds only the pairs its topology allows. Its scores, lattices and paths
# are those of each model's chain over all N*N pairs, bit for bit.

def full_pair_chain(model, logb):
    """An order-2 model's chain over all N*N pairs (j, k), indexed j * N + k,
    for a (T, N) emission table: psi, a2 and the first frame in the initial
    row, P[(i, j), (j, k)] = a3[i, j, k], and pair (j, k) emitting frame
    r + 1 from state k at row r."""
    n = model.n_states
    log_init = ((_log(model.psi) + logb[0])[:, None] + _log(model.a2)).reshape(n * n)
    trans = np.zeros((n, n, n, n))
    trans[:, np.arange(n), np.arange(n), :] = model.a3
    return log_init, trans.reshape(n * n, n * n), np.tile(logb[1:], n)


def _rows(draw, shape, left_right):
    """Probability rows along the last axis, with entries in {0, 1/2, 1}
    before normalising: zeros and ties. A left-right row j has no entry
    before k = j, and a row with no entry puts its mass on the last state."""
    size = int(np.prod(shape))
    w = np.asarray(draw(st.lists(st.integers(0, 2), min_size=size, max_size=size)),
                   dtype=float).reshape(shape)
    if left_right and len(shape) > 1:
        w *= ~np.tri(shape[-1], k=-1, dtype=bool)
    w[..., -1] += w.sum(axis=-1) == 0
    return w / w.sum(axis=-1, keepdims=True)


@st.composite
def banks_and_utterances(draw):
    """A bank of 1-4 models of one order and N = 1-5 states, left-right or
    ergodic (one topology for the bank, or one per model), with zeros in
    every transition array; a model's state may copy state 0's emission,
    so that paths tie. The utterance has 2-7 frames, now and then one far
    from every mean."""
    order, n, b = draw(st.integers(1, 2)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    shared = draw(st.sampled_from([None, "ergodic", "left-right"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    models = {}
    for label in "abcd"[:b]:
        topology = shared or draw(st.sampled_from(["ergodic", "left-right"]))
        means = rng.normal(0.0, 1.5, (n, 2, 2))
        variances = rng.uniform(0.5, 2.0, (n, 2, 2))
        copies = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        means[copies], variances[copies] = means[0], variances[0]
        mixtures = GaussianMixture(np.full((n, 2), 0.5), means, variances)
        arrays = [_rows(draw, (n,) * (rank + 1), topology == "left-right")
                  for rank in range(order + 1)]
        models[label] = (Hmm1Model if order == 1 else Hmm2Model)(*arrays, mixtures, topology)
    t_len = draw(st.integers(2, 7))
    obs = rng.normal(0.0, 2.0, (t_len, 2))
    obs[rng.random(t_len) < 0.1] = 40.0
    return ConditionBank(list(models), models), obs


@settings(max_examples=200, deadline=None)
@given(banks_and_utterances())
def test_bank_scores_equal_each_full_chain_bit_for_bit(case):
    bank, obs = case
    want = {"forward": [], "viterbi": []}
    for model in bank.models.values():
        logb = model.emission_log_probs(obs)
        chain = model._chain(logb) if model.order == 1 else full_pair_chain(model, logb)
        want["forward"].append(lattice.loglik(*chain))
        want["viterbi"].append(lattice.viterbi_scores(*chain))
        if model.order == 1:
            continue
        # the hooks' chain over the allowed pairs, spread over all N*N
        n = model.n_states
        j, k = _pairs(n, model.topology)[:2]
        reduced = model._chain(logb)
        want_la, want_ll = lattice.forward(*chain)
        la, ll = lattice.forward(*reduced)
        spread = np.full(want_la.shape, -np.inf)
        spread[:, j * n + k] = la
        assert np.array_equal(spread, want_la) and ll == want_ll
        if want["viterbi"][-1] > -np.inf:
            pairs, score = lattice.viterbi(*chain)
            got_pairs, got = lattice.viterbi(*reduced)
            assert got == score
            assert (j * n + k)[got_pairs].tolist() == pairs.tolist()
    for scoring, scores in want.items():
        assert np.array_equal(_scores(bank.stack, obs, scoring), scores), scoring


class TestTrainBank:
    def test_separated_conditions(self):
        rng = np.random.default_rng(2)
        gen = {"lo": point_model(-3.0), "hi": point_model(3.0)}
        sets = {lab: [sample_hmm2(m, 30, seed=s)[1] for s in range(4)]
                for lab, m in gen.items()}
        cfg = TrainConfig(max_iterations=10)
        bank, traces = train_bank(sets, order=2, n_states=1, n_comp=1,
                                  topology="ergodic", cfg=cfg)
        assert set(traces) == {"lo", "hi"}
        for lab in ("lo", "hi"):
            other = "hi" if lab == "lo" else "lo"
            scores = identify(bank, sets[lab][0]).scores
            assert scores[lab] > scores[other]

    def test_single_label(self):
        obs = [np.random.default_rng(3).normal(size=(20, 2)) for _ in range(2)]
        bank, _ = train_bank({"only": obs}, 1, 1, 1, "ergodic",
                             TrainConfig(max_iterations=3))
        assert identify(bank, obs[0]).label == "only"

    def test_empty_label_rejected(self):
        with pytest.raises(DataError):
            train_bank({"a": []}, 2, 1, 1)

    def test_heterogeneous_dims_rejected(self):
        with pytest.raises(DataError):
            train_bank({"a": [np.zeros((5, 2))], "b": [np.zeros((5, 3))]}, 2, 1, 1)


class TestEvaluate:
    def test_perfect_predictions(self):
        bank = two_label_bank()
        sets = {"a": [np.zeros((6, 2))] * 3, "b": [np.full((6, 2), 6.0)] * 3}
        report = evaluate(bank, sets)
        assert np.array_equal(report.counts, [[3, 0], [0, 3]])
        assert np.allclose(report.percentages, [[100, 0], [0, 100]])
        assert np.allclose(report.rates, [100, 100])

    def test_partial_rate(self):
        report = EvaluationReport(["a", "b"], [[3, 0], [1, 4]])
        assert report.rates[0] == pytest.approx(75.0)

    def test_columns_sum_to_100(self):
        rng = np.random.default_rng(4)
        counts = rng.integers(0, 9, (4, 4))
        report = EvaluationReport(list("wxyz"), counts)
        sums = report.percentages.sum(axis=0)
        for j, total in enumerate(counts.sum(axis=0)):
            if total > 0:
                assert sums[j] == pytest.approx(100.0)

    def test_counts_partition(self):
        bank = two_label_bank()
        sets = {"a": [np.zeros((5, 2))] * 4, "b": [np.full((5, 2), 6.0)] * 3}
        report = evaluate(bank, sets)
        assert report.n_test == 7

    def test_unknown_label(self):
        with pytest.raises(DataError):
            evaluate(two_label_bank(), {"zzz": [np.zeros((5, 2))]})

    def test_no_test_utterances(self):
        with pytest.raises(DataError, match="no test utterances"):
            evaluate(two_label_bank(), {})


class TestImprovementRate:
    def test_shouted_row(self):
        assert round_half_away(improvement_rate(30, 38)) == pytest.approx(26.7)

    @pytest.mark.parametrize("base,new,expected", [
        (54, 60, 11.1), (38, 46, 21.1), (59, 64, 8.5), (49, 55, 12.2)])
    def test_published_rows(self, base, new, expected):
        assert round_half_away(improvement_rate(base, new)) == pytest.approx(expected)

    def test_identity(self):
        assert round_half_away(improvement_rate(99, 99)) == 0.0

    def test_zero_baseline(self):
        with pytest.raises(DataError):
            improvement_rate(0, 10)

    def test_table_from_rates(self):
        base = {"labels": ["neutral", "shouted"], "rates": [99.0, 30.0]}
        new = {"labels": ["neutral", "shouted"], "rates": [99.0, 38.0]}
        assert improvement_table(base, new) == {"neutral": 0.0, "shouted": 26.7}

    def test_label_mismatch(self):
        with pytest.raises(DataError):
            improvement_table({"labels": ["a"], "rates": [1.0]},
                              {"labels": ["b"], "rates": [1.0]})


class TestRendering:
    def test_golden_report_text(self):
        report = EvaluationReport(["neutral", "shouted"], [[3, 1], [1, 3]])
        expected = (
            "TALKING CONDITION IDENTIFICATION PERFORMANCE\n"
            "Condition  Average\n"
            "  neutral    75.0%\n"
            "  shouted    75.0%\n"
            "\n"
            "CONFUSION MATRIX (columns: portrayed condition, rows: evaluated; column %)\n"
            "  Model  neutral  shouted\n"
            "neutral    75.0%    25.0%\n"
            "shouted    25.0%    75.0%\n"
            "\n"
            "test utterances: 8\n"
        )
        assert render_report_text(report) == expected

    def test_improvement_text_contains_values(self):
        text = render_improvement_text({"neutral": 0.0, "shouted": 26.7})
        assert "26.7" in text and "neutral" in text

    def test_round_half_away_from_zero(self):
        assert round_half_away(0.05) == 0.1
        assert round_half_away(-0.05) == -0.1
        assert round_half_away(26.65) == pytest.approx(26.7)
