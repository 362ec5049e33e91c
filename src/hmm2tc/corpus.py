"""Corpus manifests, the 5-train/4-test split protocol, and synthetic corpora."""

from __future__ import annotations

import logging
import math
import os
import zlib
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .audio import FeatureSequence, save_features
from .errors import DataError, FormatError
from .gmm import GaussianMixture
from .hmm2 import Hmm2Model, sample_hmm2
from .model_io import save_model

log = logging.getLogger(__name__)

REQUIRED_COLUMNS = ("speaker", "sentence", "condition", "token", "path")
ALL_COLUMNS = ("speaker", "group", "sentence", "condition", "token", "split", "path")
SPLITS = ("train", "test", "auto", "unused")


@dataclass
class ManifestEntry:
    speaker: str
    sentence: str
    condition: str
    token: int
    path: str
    group: str = ""
    split: str = "auto"

    def __post_init__(self):
        if not self.path:
            raise DataError("manifest entry path must be nonempty")
        if self.split not in SPLITS:
            raise DataError(f"unknown split value {self.split!r}")

    @property
    def key(self) -> tuple:
        return (self.speaker, self.sentence, self.condition, self.token)


def parse_manifest(text: str) -> list[ManifestEntry]:
    """Parse the tab-separated manifest format (header line required)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty manifest")
    header = [h.strip() for h in lines[0].split("\t")]
    missing = [c for c in REQUIRED_COLUMNS if c not in header]
    if missing:
        raise FormatError(f"manifest missing required columns: {', '.join(missing)}")
    for col in header:
        if col not in ALL_COLUMNS:
            log.warning("ignoring unknown manifest column %r", col)
    entries = []
    seen = set()
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split("\t")
        if len(cells) != len(header):
            raise FormatError(f"manifest line {lineno}: expected {len(header)} fields")
        row = dict(zip(header, (c.strip() for c in cells)))
        try:
            token = int(row["token"])
        except ValueError:
            raise FormatError(f"manifest line {lineno}: token must be an integer")
        entry = ManifestEntry(
            speaker=row["speaker"], sentence=row["sentence"],
            condition=row["condition"], token=token, path=row["path"],
            group=row.get("group", ""), split=row.get("split", "auto") or "auto")
        if entry.key in seen:
            raise DataError(f"duplicate manifest key {entry.key}")
        seen.add(entry.key)
        entries.append(entry)
    return entries


def format_manifest(entries: list[ManifestEntry]) -> str:
    lines = ["\t".join(ALL_COLUMNS)]
    for e in entries:
        lines.append("\t".join([e.speaker, e.group, e.sentence, e.condition,
                                str(e.token), e.split, e.path]))
    return "\n".join(lines) + "\n"


def apply_split_protocol(entries: list[ManifestEntry], train_count: int,
                         test_count: int, seed: int | None = None
                         ) -> list[ManifestEntry]:
    """Resolve 'auto' splits per (speaker, sentence, condition) group.

    Tokens are ordered by index; the first train_count become training data
    and the next test_count become test data (the published 5-of-9 / 4-of-9
    protocol). With a seed, token order is shuffled deterministically first.
    Explicit train/test markings are preserved untouched.
    """
    groups: dict[tuple, list[int]] = {}
    for i, e in enumerate(entries):
        if e.split == "auto":
            groups.setdefault((e.speaker, e.sentence, e.condition), []).append(i)
    out = list(entries)
    for key in sorted(groups):
        idx = sorted(groups[key], key=lambda i: entries[i].token)
        if len(idx) < train_count + test_count:
            raise DataError(
                f"group {key} has {len(idx)} tokens, needs {train_count + test_count}")
        if seed is not None:
            key_hash = zlib.crc32("\t".join(map(str, key)).encode())
            order = np.random.default_rng([seed, key_hash]).permutation(len(idx))
            idx = [idx[i] for i in order]
        for rank, i in enumerate(idx):
            if rank < train_count:
                split = "train"
            elif rank < train_count + test_count:
                split = "test"
            else:
                split = "unused"
            out[i] = replace(entries[i], split=split)
    return out


@dataclass
class SynthSpec:
    """Recipe for a desk-scale synthetic corpus standing in for real speech."""

    labels: list[str]
    tokens_per_condition: int = 9
    frames: tuple[int, int] = (80, 200)   # single int for a fixed length
    n_states: int = 5
    n_components: int = 5
    dim: int = 16
    separation: float = 4.0
    seed: int = 0

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels) or not self.labels:
            raise DataError("labels must be nonempty and unique")
        if self.tokens_per_condition < 2:
            raise DataError("tokens_per_condition must be >= 2")
        if isinstance(self.frames, int):
            self.frames = (self.frames, self.frames)
        lo, hi = self.frames
        if lo < 2 or hi < lo:
            raise DataError("frames range must satisfy 2 <= lo <= hi")
        if min(self.n_states, self.n_components, self.dim) < 1:
            raise DataError("n_states, n_components and dim must be >= 1")
        if self.seed < 0:
            raise DataError("seed must be >= 0")
        if not math.isfinite(self.separation):
            raise DataError("separation must be finite")

    @classmethod
    def from_dict(cls, doc) -> "SynthSpec":
        """The spec of a JSON document; FormatError unless labels is a list of
        strings, frames one or two integers, separation a number and every
        other field an integer."""
        if not (isinstance(doc, dict) and isinstance(doc.get("labels"), list)
                and all(isinstance(v, str) for v in doc["labels"])):
            raise FormatError("synth spec must be a JSON object with a list of label strings")
        given = {f.name: doc[f.name] for f in fields(cls) if f.name in doc and f.name != "labels"}
        checks = {"frames": lambda v: _is_int(v) or (isinstance(v, (list, tuple)) and len(v) == 2
                                                     and all(map(_is_int, v))),
                  "separation": lambda v: _is_int(v) or isinstance(v, float)}
        if not all(checks.get(k, _is_int)(v) for k, v in given.items()):
            raise FormatError("synth spec fields must be integers (frames one or two of "
                              "them, separation a number)")
        if isinstance(given.get("frames"), list):
            given["frames"] = tuple(given["frames"])
        return cls(labels=list(doc["labels"]), **given)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def random_hmm2(n_states: int, n_comp: int, dim: int, rng: np.random.Generator,
                base_mean: np.ndarray | None = None, jitter: float = 0.5
                ) -> Hmm2Model:
    """Random ergodic model; component means scatter around base_mean."""
    psi = rng.dirichlet(np.ones(n_states))
    a2 = np.stack([rng.dirichlet(np.ones(n_states)) for _ in range(n_states)])
    a3 = np.stack([[rng.dirichlet(np.ones(n_states)) for _ in range(n_states)]
                   for _ in range(n_states)])
    base = np.zeros(dim) if base_mean is None else np.asarray(base_mean, float)
    mixtures = []
    for _ in range(n_states):
        weights = rng.dirichlet(np.ones(n_comp))
        means = base + rng.normal(0.0, jitter, (n_comp, dim))
        variances = rng.uniform(0.5, 1.5, (n_comp, dim))
        mixtures.append(GaussianMixture(weights, means, variances))
    return Hmm2Model(psi, a2, a3, mixtures)


def generate_synthetic_corpus(spec: SynthSpec, out_dir
                              ) -> tuple[list[ManifestEntry], dict[str, Hmm2Model]]:
    """Materialize per-condition true models, sample tokens, write the corpus.

    Condition base means sit separation * sigma apart along the first axis,
    so the inter-condition distance is controlled by spec.separation (unit
    emission variance scale). Writes features/, true_models/ and
    manifest.tsv under out_dir; returns the entries and the true models.
    """
    out_dir = str(out_dir)
    feat_dir = os.path.join(out_dir, "features")
    model_dir = os.path.join(out_dir, "true_models")
    os.makedirs(feat_dir, exist_ok=True)
    os.makedirs(model_dir, exist_ok=True)
    entries = []
    true_models: dict[str, Hmm2Model] = {}
    lo, hi = spec.frames
    for c, label in enumerate(spec.labels):
        rng = np.random.default_rng([spec.seed, c])
        base = np.zeros(spec.dim)
        base[0] = spec.separation * c
        model = random_hmm2(spec.n_states, spec.n_components, spec.dim, rng, base_mean=base)
        true_models[label] = model
        save_model(model, os.path.join(model_dir, f"{label}.model.json"))
        for token in range(1, spec.tokens_per_condition + 1):
            trng = np.random.default_rng([spec.seed, c, token])
            t_len = int(trng.integers(lo, hi + 1))
            # sample_hmm2 needs its own integer seed; derive one per token
            sample_seed = int(trng.integers(0, 2**31))
            _, frames = sample_hmm2(model, t_len, sample_seed)
            rel = os.path.join("features", f"{label}_{token:03d}.lpcc")
            seq = FeatureSequence(frames, source_id=f"syn/{label}/{token}")
            save_features(seq, os.path.join(out_dir, rel))
            entries.append(ManifestEntry(speaker="syn", sentence="s1",
                                         condition=label, token=token, path=rel))
    with open(os.path.join(out_dir, "manifest.tsv"), "w", encoding="utf-8") as fh:
        fh.write(format_manifest(entries))
    return entries, true_models
