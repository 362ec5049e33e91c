"""Span tracing of the program's module boundaries, from outside the program.

`Tracer.install` replaces every public function (and public method of a
public class) of the traced modules with a wrapper that records a span:
name, start, end, parent span and the traced segment (one set-up or one
round) it ran in. A name imported into another module is replaced there too,
so calls through `from .x import f` are traced. `scipy.special.logsumexp` is
replaced in each module that imports it by a counter. Spans stay in memory
until `write_spans`. `uninstall` restores every original.

`layer_metrics` turns the spans into per-layer numbers. A span's self time is
its duration minus its children's; a layer's self time is the sum over its
spans. Times are pooled over all traced segments. Counts are given per unit
of work: the count in traced set-ups per set-up plus the count in traced
rounds per round, so they repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import logging
import time
from collections import Counter, defaultdict
from pathlib import Path

MODULES = ("audio", "gmm", "hmm1", "hmm2", "init", "classify", "model_io", "corpus", "cli")
# The shared GMM M-step; its start marks the end of an EM iteration's E-step.
PRIVATE = {"hmm1._update_mixtures"}
LSE_MODULES = ("gmm", "hmm1", "hmm2")
TRAINERS = {"hmm1.baum_welch1": "hmm1", "hmm2.baum_welch2": "hmm2"}

# Work done per span, read from a call's arguments and result.
_FRAMES = {
    "audio.extract_features": lambda args, res: res.T,
    "audio.save_features": lambda args, res: args[0].T,
    "audio.load_features": lambda args, res: res.T,
    "gmm.GaussianMixture.component_log_density": lambda args, res: res.shape[0],
    "hmm1.Hmm1Model.emission_log_probs": lambda args, res: res.shape[0],
    "hmm2.Hmm2Model.emission_log_probs": lambda args, res: res.shape[0],
    "hmm1.forward1": lambda args, res: res[0].shape[0],
    "hmm1.viterbi1": lambda args, res: res[0].size,
    "hmm2.forward2": lambda args, res: res[0].values.shape[0] + 1,
    "hmm2.viterbi2": lambda args, res: res[0].size,
}

NAME, START, END, PARENT, SEGMENT, FRAMES, MARK = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.segments: list[str] = []      # kind of each traced segment
        self.counts: Counter = Counter()   # (segment kind, counter) -> n
        self.last_lse_end = 0
        self._saved: list[tuple] = []

    # ------------------------------------------------------------ patching

    def _wrap(self, name: str, fn):
        spans, stack, frames_of = self.spans, self.stack, _FRAMES.get(name)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1,
                    len(tracer.segments) - 1, 0,
                    tracer.last_lse_end if name in PRIVATE else 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if frames_of is not None:
                span[FRAMES] = frames_of(args, result)
                if name == "audio.extract_features":
                    tracer.count("audio.frames", result.T)
                    tracer.count("audio.degenerate_frames", result.degenerate_frames)
            return result
        return wrapper

    def _lse(self, module: str, fn):
        key = f"{module}.logsumexp_calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self.last_lse_end = time.perf_counter_ns()
                self.count(key)
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {m: importlib.import_module(f"hmm2tc.{m}") for m in MODULES}
        wrappers = {}
        for mname, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{mname}.{attr}"
                if inspect.isfunction(obj) and (not attr.startswith("_") or name in PRIVATE):
                    wrappers[obj] = self._wrap(name, obj)
                elif inspect.isclass(obj) and not attr.startswith("_"):
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            self._set(obj, meth, self._wrap(f"{name}.{meth}", fn))
        namespaces = [importlib.import_module("hmm2tc"), *mods.values()]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(ns, attr, wrappers[obj])
        for mname in LSE_MODULES:
            self._set(mods[mname], "logsumexp", self._lse(mname, mods[mname].logsumexp))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def begin(self, kind: str) -> None:
        """Start a traced segment ("setup" or "round") and install the wrappers;
        `uninstall` ends it."""
        self.segments.append(kind)
        self.install()

    # ------------------------------------------------------------ counting

    def count(self, key: str, n: int = 1) -> None:
        self.counts[(self.segments[-1], key)] += n

    def trainer(self) -> str | None:
        """Order of the EM trainer the current call runs under, if any."""
        for idx in reversed(self.stack):
            if self.spans[idx][NAME] in TRAINERS:
                return TRAINERS[self.spans[idx][NAME]]
        return None

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tsegment\tkind\tname\tstart_ns\tend_ns\tframes\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i}\t{s[PARENT]}\t{s[SEGMENT]}\t{self.segments[s[SEGMENT]]}"
                         f"\t{s[NAME]}\t{s[START]}\t{s[END]}\t{s[FRAMES]}\n")


class LogCounter(logging.Handler):
    """Takes the program's warning records off stderr; while a tracer is
    active, counts the "zero occupancy" records per EM trainer."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.tracer: Tracer | None = None

    def emit(self, record: logging.LogRecord) -> None:
        tracer = self.tracer
        message = record.getMessage()
        if tracer is None or "zero occupancy" not in message:
            return
        if "pairs had zero occupancy" in message:
            tracer.count("hmm2.zero_pair_warnings")
        else:
            order = tracer.trainer() or record.name.rsplit(".", 1)[-1]
            tracer.count(f"{order}.zero_state_warnings")


def quiet_program_logs() -> LogCounter:
    handler = LogCounter()
    logger = logging.getLogger("hmm2tc")
    logger.addHandler(handler)
    logger.propagate = False
    return handler


# ---------------------------------------------------------------- metrics

PER_LAYER = {
    # name: unit
    "audio.decode_us_per_frame": "us",
    "audio.window_us_per_frame": "us",
    "audio.lpc_us_per_frame": "us",
    "audio.cepstrum_us_per_frame": "us",
    "audio.extract_us_per_frame": "us",
    "audio.features_io_us_per_frame": "us",
    "audio.frames": "count",
    "audio.degenerate_frames": "count",
    "gmm.component_us_per_frame": "us",
    "gmm.component_calls": "count",
    **{f"{o}.{m}": u for o in ("hmm2", "hmm1") for m, u in (
        ("emission_us_per_frame", "us"), ("forward_us_per_frame", "us"),
        ("viterbi_us_per_frame", "us"), ("em_iter_ms", "ms"), ("em_estep_ms", "ms"),
        ("em_mstep_ms", "ms"), ("logsumexp_calls", "count"))},
    "hmm2.zero_pair_warnings": "count",
    "hmm2.zero_state_warnings": "count",
    "hmm1.zero_state_warnings": "count",
    "init.flat_start_ms": "ms",
    "classify.identify_self_ms": "ms",
    "classify.models_scored": "count",
    "model_io.load_ms_per_model": "ms",
    "model_io.save_ms_per_model": "ms",
    "corpus.manifest_parse_ms": "ms",
    "corpus.synth_ms": "ms",
    "cli.self_ms": "ms",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _em_phases(spans, children, trainer: int) -> list[tuple[int, int]]:
    """(E-step ns, M-step ns) of each EM iteration inside one trainer span.

    An iteration starts at its first child span (emission scoring of the first
    sequence). Its E-step ends where the last log-sum-exp before the GMM
    M-step ended; its M-step runs from there to the next iteration's start or
    to the trainer's end.
    """
    kids = children[trainer]
    updates = [k for k in kids if spans[k][NAME] == "hmm1._update_mixtures"]
    phases = []
    start = spans[kids[0]][START] if kids else spans[trainer][START]
    for u in updates:
        after = [spans[k][START] for k in kids
                 if spans[k][START] >= spans[u][END] and spans[k][NAME] != "hmm1._update_mixtures"]
        stop = min(after) if after else spans[trainer][END]
        split = max(spans[u][MARK], start)
        phases.append((split - start, stop - split))
        start = stop
    return phases


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    spans = tracer.spans
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    incl, self_ns, calls, frames = Counter(), Counter(), Counter(), Counter()
    per_kind = Counter()  # (segment kind, name) -> calls
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        name = s[NAME]
        incl[name] += dur
        self_ns[name] += dur - sum(spans[k][END] - spans[k][START] for k in children[i])
        calls[name] += 1
        frames[name] += s[FRAMES]
        per_kind[(tracer.segments[s[SEGMENT]], name)] += 1
    n_kind = Counter(tracer.segments)

    def per_unit(key: str, table: Counter = tracer.counts) -> float:
        return sum(_ratio(table[(kind, key)], n) for kind, n in n_kind.items())

    def self_per_frame(names, frame_name) -> float:
        return _ratio(sum(self_ns[n] for n in names), frames[frame_name]) / 1e3

    def mean_ms(names) -> float:
        return _ratio(sum(incl[n] for n in names), sum(calls[n] for n in names)) / 1e6

    front, comp = "audio.extract_features", "gmm.GaussianMixture.component_log_density"
    out = {
        "audio.decode_us_per_frame": self_per_frame(["audio.decode_pcm16_wav"], front),
        "audio.window_us_per_frame": self_per_frame(["audio.frame_and_window"], front),
        "audio.lpc_us_per_frame": self_per_frame(
            ["audio.autocorrelate", "audio.levinson_durbin"], front),
        "audio.cepstrum_us_per_frame": self_per_frame(["audio.lpc_to_lpcc"], front),
        "audio.extract_us_per_frame": _ratio(incl[front], frames[front]) / 1e3,
        "audio.features_io_us_per_frame": _ratio(
            incl["audio.save_features"] + incl["audio.load_features"],
            frames["audio.save_features"] + frames["audio.load_features"]) / 1e3,
        "audio.frames": per_unit("audio.frames"),
        "audio.degenerate_frames": per_unit("audio.degenerate_frames"),
        "gmm.component_us_per_frame": self_per_frame([comp], comp),
        "gmm.component_calls": per_unit(comp, per_kind),
    }
    for order, suffix, model in (("hmm2", "2", "Hmm2Model"), ("hmm1", "1", "Hmm1Model")):
        emission = f"{order}.{model}.emission_log_probs"
        phases = [p for i, s in enumerate(spans) if s[NAME] == f"{order}.baum_welch{suffix}"
                  for p in _em_phases(spans, children, i)]
        estep = sum(p[0] for p in phases)
        mstep = sum(p[1] for p in phases)
        out.update({
            f"{order}.emission_us_per_frame": _ratio(incl[emission], frames[emission]) / 1e3,
            f"{order}.forward_us_per_frame": self_per_frame([f"{order}.forward{suffix}"],
                                                            f"{order}.forward{suffix}"),
            f"{order}.viterbi_us_per_frame": self_per_frame([f"{order}.viterbi{suffix}"],
                                                            f"{order}.viterbi{suffix}"),
            f"{order}.em_iter_ms": _ratio(estep + mstep, len(phases)) / 1e6,
            f"{order}.em_estep_ms": _ratio(estep, len(phases)) / 1e6,
            f"{order}.em_mstep_ms": _ratio(mstep, len(phases)) / 1e6,
            f"{order}.logsumexp_calls": per_unit(f"{order}.logsumexp_calls"),
        })
    out.update({
        "hmm2.zero_pair_warnings": per_unit("hmm2.zero_pair_warnings"),
        "hmm2.zero_state_warnings": per_unit("hmm2.zero_state_warnings"),
        "hmm1.zero_state_warnings": per_unit("hmm1.zero_state_warnings"),
        "init.flat_start_ms": mean_ms(["init.init_hmm1", "init.init_hmm2"]),
        "classify.identify_self_ms": _ratio(
            self_ns["classify.identify"] + self_ns["classify.score_sequence"],
            calls["classify.identify"]) / 1e6,
        "classify.models_scored": per_unit("classify.score_sequence", per_kind),
        "model_io.load_ms_per_model": mean_ms(["model_io.load_model"]),
        "model_io.save_ms_per_model": mean_ms(["model_io.save_model"]),
        "corpus.manifest_parse_ms": mean_ms(["corpus.parse_manifest"]),
        "corpus.synth_ms": mean_ms(["corpus.generate_synthetic_corpus"]),
        "cli.self_ms": _ratio(sum(v for n, v in self_ns.items() if n.startswith("cli.")),
                              calls["cli.main"]) / 1e6,
    })
    return out

