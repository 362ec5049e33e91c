"""Every file the package reads or writes; the versioned JSON persistence
of order-1 and order-2 models and of packs of their arrays; and the bank
directory that `train` writes and `identify` and `evaluate` read.

`read_file` is the one reader of every file of every command (WAVs,
manifests, features, model and pack files, bank documents, reports and
recipes): the bytes of a regular file, and nothing from a FIFO, a device
or a directory. `write_file` is the one writer (features, manifests, logs,
model and pack files, bank documents and reports): bytes as given, text as
UTF-8 with no newline translated, each file whole or not at all.

A model file's JSON is the format of record. A pack holds the arrays of a
list of same-shaped models as one run of raw little-endian float64 values,
model after model: psi (or pi), a2 (or a), a3 for the second order, then the
mixture weights, means and variances. It carries no shapes: its reader takes
them from the caller and from the file's size, and reads a pack only when
the pack's bytes have the SHA-256 that the caller gives. The model checks
run once over a pack's stacked arrays, not once per model.

A bank directory holds, per scope of one (speaker, sentence) or of the
pooled corpus, a model file per condition label under models/ and a pack
of them under packed/; then train_log.json, and bank.json, which lists the
scopes with their model paths and a "packed" record of the digests that
vouch for the pack. `save_bank` writes one, `read_bank` reads its bank.json
and `load_scope` one scope's models.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import stat

import numpy as np

from .errors import DataError, FormatError

MODEL_FORMAT_VERSION = 1
_PARTS = ("weights", "means", "variances")   # the fields of each state in "mixtures"
# the initial vector and transition arrays of either order: pi and a are
# stored as psi and a2
_ARRAYS = ("psi", "a2", "a3")
PACK_DTYPE = np.dtype("<f8")
BANK_FILE = "bank.json"


def model_to_dict(model: Hmm1Model | Hmm2Model) -> dict:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "order": model.order,
        "N": model.n_states,
        "M": model.n_components,
        "D": model.dim,
        "topology": model.topology,
        "mixtures": [dict(zip(_PARTS, state)) for state in
                     zip(*(getattr(model.mixtures, part).tolist() for part in _PARTS))],
    }
    doc.update((key, getattr(model, name).tolist()) for key, name in zip(_ARRAYS, model._ARRAYS))
    return doc


def _model_class(order):
    """Hmm1Model or Hmm2Model for `order`, or None. The model classes are
    imported here, where models are built, so that importing this module
    (as `cli` does for every command, extract too) loads no HMM code."""
    from .hmm1 import Hmm1Model
    from .hmm2 import Hmm2Model
    return {1: Hmm1Model, 2: Hmm2Model}.get(order)


def model_from_dict(doc: dict) -> Hmm1Model | Hmm2Model:
    from .gmm import GaussianMixture
    try:
        version = doc["format_version"]
        if version != MODEL_FORMAT_VERSION:
            raise FormatError(f"unsupported model format version {version}")
        mixtures = GaussianMixture(*(np.array([m[part] for m in doc["mixtures"]])
                                     for part in _PARTS))
        cls = _model_class(doc["order"])
        if cls is None:
            raise FormatError(f"unsupported model order {doc['order']}")
        arrays = (np.array(doc[key]) for key in _ARRAYS[:cls.order + 1])
        return cls(*arrays, mixtures, doc["topology"])
    except KeyError as exc:
        raise FormatError(f"model document missing field {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise FormatError(f"malformed model document: {exc}") from exc


def dumps_model(model) -> str:
    # sort_keys + fixed separators makes serialization canonical (byte-stable)
    return json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":"))


def sha256(data: bytes) -> str:
    # imported on first use: loading hashlib's OpenSSL bindings takes ~3 ms,
    # which every extract or synth process would otherwise pay for nothing
    import hashlib
    return hashlib.sha256(data).hexdigest()


def read_file(path) -> bytes:
    """The bytes of the file at `path`, or of the file it names when it is a
    symlink. OSError, before anything is read, unless that is a regular
    file: a FIFO is opened without waiting for a writer (O_NONBLOCK where
    the platform has it), and it, a device or a directory is then refused.
    A path that holds a NUL character is refused before anything is opened,
    with its NUL escaped in the message."""
    if "\0" in os.fsdecode(path):
        raise OSError(f"{os.fsdecode(path)!r}: the path holds a NUL character")

    def regular(name, flags):
        fd = os.open(name, flags | getattr(os, "O_NONBLOCK", 0))
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            os.close(fd)
            raise OSError(f"{path}: not a regular file")
        return fd
    with open(path, "rb", buffering=0, opener=regular) as fh:
        return fh.readall()


def write_file(path, *chunks: bytes | str) -> None:
    """Write the chunks, in order, as the file at `path`: bytes as they are,
    str as UTF-8. The target is `path`, or the file it names when it is a
    symlink (which then keeps pointing at it). The file is written under the
    temporary name `<target>.<pid>.tmp` and then replaces the target, so a
    reader sees the old file or the new one, never a part. Missing parent
    directories are made, and the temporary file is removed when anything
    fails. OSError, before anything is written, when the target exists and
    is not a regular file."""
    # realpath only for a symlink: it costs a system call per path component
    real = os.path.realpath(path) if os.path.islink(path) else os.fspath(path)
    if not os.path.isfile(real) and os.path.exists(real):
        raise OSError(f"{path}: exists and is not a regular file")
    if not os.path.isdir(parent := os.path.dirname(real) or os.curdir):
        os.makedirs(parent, exist_ok=True)
    tmp = f"{real}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(c.encode("utf-8") if isinstance(c, str) else c for c in chunks)
        os.replace(tmp, real)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def save_model(model, path) -> str:
    """Write the model's JSON file; returns the SHA-256 of the bytes written."""
    data = (dumps_model(model) + "\n").encode("utf-8")
    write_file(path, data)
    return sha256(data)


def read_json(path, data: bytes | None = None):
    """The JSON document in a file, or in `data`, the file's bytes when they
    are already read; FormatError naming the file unless it holds one."""
    data = read_file(path) if data is None else data
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError as exc:   # not JSON, or not UTF-8 text
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc


def load_model(path, data: bytes | None = None) -> Hmm1Model | Hmm2Model:
    return model_from_dict(read_json(path, data))


def _pack_arrays(model):
    return [getattr(model, name) for name in model._ARRAYS] + \
        [getattr(model.mixtures, part) for part in _PARTS]


def save_pack(models, path) -> str:
    """Write the models' arrays, in order, as one pack file; returns the
    SHA-256 of its bytes."""
    data = b"".join(np.ascontiguousarray(x, dtype=PACK_DTYPE).tobytes()
                    for model in models for x in _pack_arrays(model))
    write_file(path, data)
    return sha256(data)


def load_pack(path, digest: str, count: int, order: int, n_states: int, n_components: int,
              topology: str) -> list | None:
    """The `count` models of a pack file, each of the given order, N, M and
    topology (D follows from the file's size); None unless the file is a
    regular file whose size fits that layout and whose bytes have SHA-256
    `digest`, or when the model checks refuse its arrays. Every check of the
    model constructors runs once, over all the models' arrays stacked, and
    each model is then built from its views (`StateModel.bank`)."""
    if not all(type(v) is int and v > 0 for v in (count, order, n_states, n_components)) \
            or (cls := _model_class(order)) is None:
        return None
    n, m = n_states, n_components
    shapes = [(n,) * (rank + 1) for rank in range(order + 1)] + [(n, m)]
    head = sum(map(math.prod, shapes))   # the values of a model that do not depend on D
    try:
        size = os.stat(path).st_size   # a size that fits no layout is not read
        per, rest = divmod(size // PACK_DTYPE.itemsize, count)
        dim, spare = divmod(per - head, 2 * n * m)
        if size % PACK_DTYPE.itemsize or rest or spare or dim < 1 \
                or len(data := read_file(path)) != size or sha256(data) != digest:
            return None
    except (OSError, ValueError):   # ValueError: a NUL in the path
        return None
    shapes += [(n, m, dim)] * 2
    ends = list(itertools.accumulate(map(math.prod, shapes), initial=0))
    # copied out of the read-only bytes: writable arrays, as a model file's are
    rows = np.frombuffer(data, dtype=PACK_DTYPE).astype(np.float64).reshape(count, per)
    # each part of every model at once: (count,) + its shape, a view of the pack
    parts = [rows[:, a:b].reshape((count,) + s) for a, b, s in zip(ends, ends[1:], shapes)]
    try:
        return cls.bank(parts[:-3], parts[-3:], topology)
    except DataError:
        return None


def save_bank(out, doc: dict, scopes, train_log: dict) -> None:
    """Write the bank directory `out`: `doc` (order, N, M, topology and
    protocol) with one record per (name, speaker, sentence, models by label)
    of `scopes`, and the EM traces `train_log`. An old bank.json is removed
    first; then each scope's model files and its pack are written, then
    train_log.json, and bank.json last. So a run that fails partway leaves
    no bank.json, and identify and evaluate never read a mix of two runs'
    models."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(out, BANK_FILE))
    records = []
    for name, speaker, sentence, models in scopes:
        paths = {lab: os.path.join("models", f"{name}_{lab}.model.json") for lab in models}
        digests = [save_model(model, os.path.join(out, paths[lab]))
                   for lab, model in models.items()]
        pack = os.path.join("packed", f"{name}.f8")
        records.append({"speaker": speaker, "sentence": sentence, "labels": list(models),
                        "models": paths, "packed": {
                            "path": pack, "model_sha256": digests,
                            "sha256": save_pack(models.values(), os.path.join(out, pack))}})
    write_file(os.path.join(out, "train_log.json"),
               json.dumps(train_log, sort_keys=True, indent=1))
    write_file(os.path.join(out, BANK_FILE),
               json.dumps({**doc, "scopes": records}, sort_keys=True, indent=1))


def read_bank(bank_dir) -> dict:
    """The bank directory's bank.json; FormatError unless it holds the fields
    that identify and evaluate read: an order, a protocol and a nonempty
    list of scopes, each with a speaker, a sentence, a list of label
    strings and model paths by label."""
    path = os.path.join(bank_dir, BANK_FILE)
    doc = read_json(path)
    scopes = doc.get("scopes") if isinstance(doc, dict) else None
    if not (isinstance(scopes, list) and scopes and {"order", "protocol"} <= doc.keys()
            and all(isinstance(s, dict) and {"labels", "models", "speaker", "sentence"} <= s.keys()
                    and isinstance(s["labels"], list) and isinstance(s["models"], dict)
                    and all(isinstance(v, str) for v in [*s["labels"], *s["models"].values()])
                    for s in scopes)):
        raise FormatError(f"{path}: not a bank document")
    return doc


def load_scope(bank_dir, doc: dict, scope: dict) -> dict:
    """The models, by label, of one scope of a bank document (`read_bank`).
    Each model file is read once. The models come from the scope's pack
    only when its "packed" record lists, in label order, the SHA-256 of each
    model file's bytes and names a pack whose own SHA-256 it holds and whose
    size fits the document's order, N and M: so a pack is never read in
    place of a model file that changed after train wrote both. Otherwise
    they come from the model files' JSON, the format of record."""
    paths = {lab: os.path.join(bank_dir, rel) for lab, rel in scope["models"].items()}
    texts = {}
    for lab, path in paths.items():
        try:
            texts[lab] = read_file(path)
        except OSError:   # load_model names the file, after parsing the files before it
            break
    record, labels = scope.get("packed"), scope["labels"]
    if isinstance(record, dict) and isinstance(record.get("path"), str) \
            and sorted(labels) == sorted(texts) \
            and record.get("model_sha256") == [sha256(texts[lab]) for lab in labels]:
        models = load_pack(os.path.join(bank_dir, record["path"]), record.get("sha256"),
                           len(labels), doc.get("order"), doc.get("N"), doc.get("M"),
                           doc.get("topology"))
        if models is not None:
            return dict(zip(labels, models))
    return {lab: load_model(path, texts.get(lab)) for lab, path in paths.items()}
