"""Tests of the benchmark's own checks, oracles and tracer.

Run with: python3 -m pytest perfbench/tests -q
"""

import numpy as np
import pytest

import inputs
import oracles
import spans
import speed
import workloads
from hmm2tc.corpus import random_hmm2
from hmm2tc.hmm1 import Hmm1Model, forward1
from hmm2tc import hmm2
from hmm2tc.config import TrainConfig
from hmm2tc.hmm2 import Hmm2Model, forward2, viterbi2
from hmm2tc.model_io import save_model


def _left_right(model: Hmm2Model) -> Hmm2Model:
    n = model.n_states
    a2 = np.triu(model.a2)
    a3 = model.a3 * (np.arange(n)[None, :, None] <= np.arange(n)[None, None, :])
    return Hmm2Model(model.psi, a2 / a2.sum(1, keepdims=True),
                     a3 / a3.sum(2, keepdims=True), model.mixtures, "left-right")


@pytest.fixture
def bank(tmp_path):
    """Two order-2 models (one left-right), an order-1 model and 60 frames."""
    rng = np.random.default_rng(5)
    ergodic = random_hmm2(4, 3, 6, rng)
    banded = _left_right(random_hmm2(4, 3, 6, rng, base_mean=np.full(6, 0.7)))
    first = Hmm1Model(ergodic.psi, ergodic.a2, ergodic.mixtures)
    docs = {}
    for name, model in (("ergodic", ergodic), ("banded", banded), ("first", first)):
        save_model(model, tmp_path / f"{name}.json")
        docs[name] = oracles.load_model_doc(tmp_path / f"{name}.json")
    frames = rng.normal(0.3, 1.2, (60, 6))
    return {"ergodic": ergodic, "banded": banded, "first": first}, docs, frames


def test_oracles_agree_with_the_program(bank):
    models, docs, frames = bank
    for name in ("ergodic", "banded"):
        ll = forward2(models[name], frames)[1]
        assert oracles.scaled_forward(docs[name], frames) == pytest.approx(ll, rel=1e-11)
        best = viterbi2(models[name], frames)[1]
        assert oracles.log_viterbi(docs[name], frames) == pytest.approx(best, rel=1e-11)
        assert best <= ll
    ll1 = forward1(models["first"], frames)[1]
    assert oracles.scaled_forward(docs["first"], frames) == pytest.approx(ll1, rel=1e-11)


def _identify_stdout(label, scores):
    return label + "\n" + "".join(f"{lab}\t{v:.6f}\n" for lab, v in scores.items())


def test_identify_check_counts_a_perturbed_score_as_failed(bank):
    _, docs, frames = bank
    labels = ["ergodic", "banded"]
    ref = {lab: oracles.scaled_forward(docs[lab], frames) for lab in labels}
    best = max(labels, key=ref.get)
    tally = workloads.Tally()
    tally.record(oracles.check_identify(_identify_stdout(best, ref), labels, ref))
    assert (tally.attempted, tally.failed) == (1, 0)
    bent = dict(ref, ergodic=ref["ergodic"] * (1 + 1e-7))
    tally.record(oracles.check_identify(_identify_stdout(best, bent), labels, ref))
    other = next(lab for lab in labels if lab != best)
    tally.record(oracles.check_identify(_identify_stdout(other, ref), labels, ref))
    assert (tally.attempted, tally.failed, tally.wrong) == (3, 2, 2)


def test_viterbi_score_above_forward_is_a_failure(bank):
    _, docs, frames = bank
    labels = ["ergodic"]
    fwd = {"ergodic": oracles.scaled_forward(docs["ergodic"], frames)}
    high = {"ergodic": fwd["ergodic"] + 1.0}
    problems = oracles.check_identify(_identify_stdout("ergodic", high), labels, high, fwd)
    assert any("exceeds forward" in p for p in problems)


def test_extract_check_counts_a_wrong_cepstrum_as_failed():
    samples, silences = inputs.synth_clip(3, 0)
    t_len = inputs.n_frames(inputs.CLIP_SAMPLES)
    silent = inputs.silent_frames(silences, t_len)
    assert len(silent) == inputs.N_SILENCES * ((inputs.SILENCE_SAMPLES - inputs.WIN)
                                               // inputs.SHIFT + 1)
    sampled = {t: oracles.lpcc_reference(samples, t) for t in (7, 300)}
    frames = np.zeros((t_len, inputs.CEPSTRAL_ORDER))
    for t, row in sampled.items():
        frames[t] = row
    tally = workloads.Tally()
    tally.record(oracles.check_features(frames, silent, sampled))
    wrong = frames.copy()
    wrong[300, 4] += 1e-4
    tally.record(oracles.check_features(wrong, silent, sampled))
    loud_silence = frames.copy()
    loud_silence[silent[0], 0] = 0.5
    tally.record(oracles.check_features(loud_silence, silent, sampled))
    assert (tally.attempted, tally.failed) == (3, 2)


def test_extract_round_passes_against_the_program(tmp_path):
    work = workloads.Extract(tmp_path / "w", 2, speed.Wall())
    work.reset()
    work.setup()
    work.prepare_checks()
    tally = workloads.Tally()
    samples = work.round(tally)
    assert (tally.attempted, tally.failed) == (1, 0), tally.notes
    assert samples[0].frames == inputs.N_CLIPS * inputs.n_frames(inputs.CLIP_SAMPLES)


def test_em_trace_check_counts_a_drop_as_failed():
    tally = workloads.Tally()
    tally.record(oracles.check_em_trace("a", [-100.0, -90.0, -90.0]))
    tally.record(oracles.check_em_trace("a", [-100.0, -90.0, -95.0]))
    tally.record(oracles.check_em_trace("a", [-100.0, float("nan")]))
    assert (tally.attempted, tally.failed) == (3, 2)


def test_repeat_and_accuracy_checks():
    assert oracles.check_same_files({"m": b"1"}, {"m": b"1"}) == []
    assert oracles.check_same_files({"m": b"1"}, {"m": b"2"})
    good = {"counts": [[4, 0], [0, 4]]}
    assert oracles.check_accuracy(good, 8) == []
    assert oracles.check_accuracy({"counts": [[3, 1], [1, 3]]}, 8)
    assert oracles.check_accuracy(good, 9)


class _SmallIdentify(workloads.Identify):
    LENGTHS = [80, 130]


def test_identify_round_passes_and_is_traced(tmp_path):
    work = _SmallIdentify(tmp_path / "w", 4, speed.Wall())
    work.reset()
    work.setup()
    work.prepare_checks()
    tracer = spans.Tracer()
    from hmm2tc import cli
    main = cli.main
    tracer.begin("round")
    try:
        tally = workloads.Tally()
        work.round(tally)
    finally:
        tracer.uninstall()
    assert cli.main is main
    assert (tally.attempted, tally.failed) == (6, 0), tally.notes
    metrics = spans.layer_metrics(tracer)
    assert metrics["classify.models_scored"] == 6 * 6
    assert metrics["hmm2.forward_us_per_frame"] > 0
    assert metrics["hmm2.viterbi_us_per_frame"] > 0
    assert metrics["hmm1.viterbi_us_per_frame"] == 0
    assert metrics["audio.extract_us_per_frame"] == 0
    # forward2 makes T - 2 recursion calls and one for the total, per model
    assert metrics["hmm2.logsumexp_calls"] == 6 * ((80 - 1) + (130 - 1))


def test_em_phases_split_every_iteration(bank):
    models, _, frames = bank
    tracer = spans.Tracer()
    tracer.begin("setup")
    try:
        # through the module, so the wrapped trainer is the one called
        _, trace = hmm2.baum_welch2(models["ergodic"], [frames, frames[:40]],
                                    TrainConfig(max_iterations=3, tol=1e-12))
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer)
    assert len(trace) == 3
    assert metrics["hmm2.em_iter_ms"] == pytest.approx(
        metrics["hmm2.em_estep_ms"] + metrics["hmm2.em_mstep_ms"])
    assert metrics["hmm2.em_mstep_ms"] > 0 and metrics["hmm2.em_estep_ms"] > 0
    assert metrics["gmm.component_calls"] == 3 * 2 * 4

