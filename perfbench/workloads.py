"""The three workloads. Each drives the `hmm2tc` CLI in-process through
`hmm2tc.cli.main` and checks every output against `oracles`.

A workload has a timed `setup`, an untimed `prepare_checks` that computes the
independent reference values once, and a `round` that runs the same operations
every time and returns one `Sample` per timed CLI call.

Timed calls go through the run's clock (see `speed`); `Sample.seconds` is in
that clock's seconds and `Sample.wall_s` in wall seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import oracles


@dataclass
class Sample:
    kind: str
    seconds: float  # in the run clock's seconds
    frames: int     # frames of work done by the call
    wall_s: float


@dataclass
class Tally:
    """Operations attempted and failed. An operation fails when the CLI
    errors or when a check finds its output wrong; `wrong` counts the latter."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, problems: list[str], error: str | None = None) -> None:
        self.attempted += 1
        if error or problems:
            self.failed += 1
        if problems:
            self.wrong += 1
        if len(self.notes) < 20:
            self.notes += ([error] if error else []) + problems[:3]


@dataclass
class CliCall:
    rc: int | None
    stdout: str
    stderr: str
    seconds: float = 0.0  # in the run clock's seconds, when timed
    wall_s: float = 0.0

    @property
    def error(self) -> str | None:
        if self.rc == 0:
            return None
        return f"exit {self.rc}: {self.stderr.strip()[-400:]}"


def _run_cli(argv: list[str]) -> CliCall:
    from hmm2tc import cli  # looked up per call so a traced run sees the wrapped main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - one failed operation must not end the run
            rc = None
            err.write(traceback.format_exc())
    return CliCall(rc, out.getvalue(), err.getvalue())


def call_cli(clock, argv: list[str]) -> CliCall:
    """One timed CLI call."""
    call, call.seconds, call.wall_s = clock.time(_run_cli, argv)
    return call


def setup_cli(argv: list[str]) -> None:
    call = _run_cli(argv)
    if call.rc != 0:
        raise RuntimeError(f"set-up step {argv[0]} failed: {call.error}")


def median_ms(samples: list[Sample], kind: str) -> float:
    return 1e3 * statistics.median(s.seconds for s in samples if s.kind == kind)


def rate(samples: list[Sample], kind: str) -> float:
    picked = [s for s in samples if s.kind == kind]
    return sum(s.frames for s in picked) / sum(s.seconds for s in picked)


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int, clock):
        self.work = work
        self.seed = seed
        self.clock = clock

    def reset(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        raise NotImplementedError

    def round(self, tally: Tally) -> list[Sample]:
        raise NotImplementedError

    def detail(self, samples: list[Sample]) -> dict[str, float]:
        """The workload's own figures, named as in the benchmark README."""
        raise NotImplementedError


class Extract(Workload):
    """`hmm2tc extract` over 16 seeded 3 s WAV files with inserted silences."""

    name = "extract"

    def setup(self) -> None:
        (self.work / "wav").mkdir()
        self.clips, rows = [], []
        for i in range(inputs.N_CLIPS):
            samples, silences = inputs.synth_clip(self.seed, i)
            inputs.write_wav(self.work / "wav" / f"c{i:02d}.wav", samples)
            self.clips.append((samples, silences))
            rows.append({"speaker": "spk", "sentence": "s1",
                         "condition": inputs.LABELS[i % 6], "token": i // 6 + 1,
                         "path": f"wav/c{i:02d}.wav"})
        inputs.write_manifest(self.work / "manifest.tsv", rows)
        self.outputs = [f"spk_s1_{r['condition']}_{r['token']:03d}.lpcc" for r in rows]

    def prepare_checks(self) -> None:
        t_len = inputs.n_frames(inputs.CLIP_SAMPLES)
        self.frames_per_call = t_len * inputs.N_CLIPS
        self.silent, self.sampled = [], []
        for samples, silences in self.clips:
            self.silent.append(inputs.silent_frames(silences, t_len))
            rows = {t: oracles.lpcc_reference(samples, t) for t in range(7, t_len, 25)}
            self.sampled.append({t: row for t, row in rows.items() if row is not None})
        self.degenerate = sum(len(s) for s in self.silent)

    def round(self, tally: Tally) -> list[Sample]:
        out = self.work / "features"
        call = call_cli(self.clock, ["extract", "--manifest",
                                     str(self.work / "manifest.tsv"), "--out", str(out)])
        problems = []
        if call.rc == 0:
            problems = oracles.check_extract_summary(call.stdout, inputs.N_CLIPS,
                                                     self.frames_per_call, self.degenerate)
            for name, silent, sampled in zip(self.outputs, self.silent, self.sampled):
                try:
                    frames = inputs.read_lpcc(out / name)
                except (OSError, ValueError) as exc:
                    problems.append(str(exc))
                    continue
                problems += [f"{name}: {p}" for p in
                             oracles.check_features(frames, silent, sampled)]
        tally.record(problems, call.error)
        return [Sample("extract", call.seconds, self.frames_per_call, call.wall_s)]

    def detail(self, samples):
        audio_s = inputs.N_CLIPS * inputs.CLIP_SAMPLES / inputs.RATE
        return {"extract_audio_s_per_s": audio_s * len(samples) / sum(s.seconds for s in samples)}


class Train(Workload):
    """`hmm2tc train --order 2` and `--order 1` on a six-condition synthetic
    corpus at the scripts/run_synthetic_benchmark.py defaults."""

    name = "train"
    MAX_ITER = 3
    N_TEST = 6 * 4

    def setup(self) -> None:
        inputs.write_synth_spec(self.work / "spec.json", self.seed, 9, [80, 200])
        setup_cli(["synth", "--spec", str(self.work / "spec.json"),
                   "--out", str(self.work / "corpus")])

    def prepare_checks(self) -> None:
        # The 5-train/4-test protocol takes tokens 1-5 of each condition for training.
        self.train_frames = {
            lab: sum(inputs.lpcc_length(self.work / "corpus" / "features" / f"{lab}_{tok:03d}.lpcc")
                     for tok in range(1, 6))
            for lab in inputs.LABELS}
        self.first_files: dict[int, dict[str, bytes]] = {}

    def _bank_files(self, bank: Path) -> dict[str, bytes]:
        return {str(p.relative_to(bank)): p.read_bytes()
                for p in sorted(bank.rglob("*")) if p.is_file()}

    def round(self, tally: Tally) -> list[Sample]:
        samples = []
        manifest = str(self.work / "corpus" / "manifest.tsv")
        for order in (2, 1):
            bank = self.work / f"bank{order}"
            call = call_cli(self.clock, [
                "train", "--manifest", manifest, "--out", str(bank), "--order", str(order),
                "--topology", "ergodic", "--max-iter", str(self.MAX_ITER),
                "--seed", str(self.seed)])
            problems, frame_iters = [], 0
            if call.rc == 0:
                log = json.loads((bank / "train_log.json").read_text(encoding="utf-8"))
                traces = log["syn_s1"]
                for lab in inputs.LABELS:
                    problems += oracles.check_em_trace(lab, traces[lab])
                    frame_iters += len(traces[lab]) * self.train_frames[lab]
                files = self._bank_files(bank)
                if order in self.first_files:
                    problems += oracles.check_same_files(self.first_files[order], files)
                else:
                    self.first_files[order] = files
                    problems += self._accuracy(manifest, bank, order)
            tally.record(problems, call.error)
            samples.append(Sample(f"train{order}", call.seconds, frame_iters, call.wall_s))
        return samples

    def _accuracy(self, manifest: str, bank: Path, order: int) -> list[str]:
        report = self.work / f"report{order}"
        call = _run_cli(["evaluate", "--manifest", manifest, "--bank", str(bank),
                         "--out", str(report)])
        if call.rc != 0:
            return [f"evaluate failed: {call.error}"]
        doc = json.loads((report / "report.json").read_text(encoding="utf-8"))
        return [f"order {order}: {p}" for p in oracles.check_accuracy(doc, self.N_TEST)]

    def detail(self, samples):
        return {"train_hmm2_bank_s": median_ms(samples, "train2") / 1e3,
                "train_hmm1_bank_s": median_ms(samples, "train1") / 1e3,
                "train_hmm2_frame_iters_per_s": rate(samples, "train2"),
                "train_hmm1_frame_iters_per_s": rate(samples, "train1")}


class Identify(Workload):
    """One client in a closed loop: one `hmm2tc identify` call per utterance
    and mode against six-condition left-right banks."""

    name = "identify"
    LENGTHS = [int(v) for v in np.linspace(80, 600, 12).round()]
    TRAIN_TOKENS = (1, 2)
    TRAIN_FRAMES = 150
    TRAIN_ITER = 2

    def setup(self) -> None:
        corpus = self.work / "corpus"
        inputs.write_synth_spec(self.work / "spec.json", self.seed, 4, [600, 600])
        setup_cli(["synth", "--spec", str(self.work / "spec.json"), "--out", str(corpus)])
        (self.work / "train").mkdir()
        (self.work / "utts").mkdir()
        rows = []
        for lab in inputs.LABELS:
            for tok in self.TRAIN_TOKENS:
                frames = inputs.read_lpcc(corpus / "features" / f"{lab}_{tok:03d}.lpcc")
                inputs.write_lpcc(self.work / "train" / f"{lab}_{tok}.lpcc",
                                  frames[:self.TRAIN_FRAMES])
                rows.append({"speaker": "syn", "sentence": "s1", "condition": lab,
                             "token": tok, "split": "train", "path": f"{lab}_{tok}.lpcc"})
        inputs.write_manifest(self.work / "train" / "manifest.tsv", rows)
        for order in (2, 1):
            setup_cli(["train", "--manifest", str(self.work / "train" / "manifest.tsv"),
                       "--out", str(self.work / f"bank{order}"), "--order", str(order),
                       "--max-iter", str(self.TRAIN_ITER), "--seed", str(self.seed)])
        self.utterances = []
        for i, t_len in enumerate(self.LENGTHS):
            lab, tok = inputs.LABELS[i % 6], 3 + i // 6
            frames = inputs.read_lpcc(corpus / "features" / f"{lab}_{tok:03d}.lpcc")[:t_len]
            path = self.work / "utts" / f"u{i:02d}.lpcc"
            inputs.write_lpcc(path, frames)
            self.utterances.append((path, t_len))

    def prepare_checks(self) -> None:
        self.labels = {}
        self.refs = []
        models = {}
        for order in (2, 1):
            self.labels[order], models[order] = oracles.load_bank_docs(self.work / f"bank{order}")
        for path, _ in self.utterances:
            frames = inputs.read_lpcc(path)
            fwd2 = {lab: oracles.scaled_forward(m, frames) for lab, m in models[2].items()}
            fwd1 = {lab: oracles.scaled_forward(m, frames) for lab, m in models[1].items()}
            vit2 = {lab: oracles.log_viterbi(m, frames) for lab, m in models[2].items()}
            self.refs.append({"identify2": (2, [], fwd2, None),
                              "identify1": (1, [], fwd1, None),
                              "viterbi2": (2, ["--scoring", "viterbi"], vit2, fwd2)})

    def round(self, tally: Tally) -> list[Sample]:
        samples = []
        for (path, t_len), refs in zip(self.utterances, self.refs):
            for kind, (order, extra, reference, forward) in refs.items():
                call = call_cli(self.clock, ["identify", "--bank",
                                             str(self.work / f"bank{order}"),
                                             "--features", str(path), *extra])
                problems = [] if call.rc != 0 else oracles.check_identify(
                    call.stdout, self.labels[order], reference, forward)
                tally.record(problems, call.error)
                samples.append(Sample(kind, call.seconds, t_len, call.wall_s))
        return samples

    def detail(self, samples):
        return {"identify_hmm2_ms_p50": median_ms(samples, "identify2"),
                "identify_hmm1_ms_p50": median_ms(samples, "identify1"),
                "identify_viterbi_ms_p50": median_ms(samples, "viterbi2"),
                "identify_frames_per_s": sum(s.frames for s in samples)
                / sum(s.seconds for s in samples)}


WORKLOADS = {w.name: w for w in (Extract, Train, Identify)}
