"""Versioned JSON persistence for order-1 and order-2 models, and packs of
their arrays.

A model file's JSON is the format of record. A pack holds the arrays of a
list of same-shaped models as one run of raw little-endian float64 values,
model after model: psi (or pi), a2 (or a), a3 for the second order, then the
mixture weights, means and variances. It carries no shapes: its reader takes
them from the caller and from the file's size, and reads a pack only when
the pack's bytes have the SHA-256 that the caller gives. The model checks
run once over a pack's stacked arrays, not once per model.
"""

from __future__ import annotations

import io
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


def save_model(model, path) -> str:
    """Write the model's JSON file; returns the SHA-256 of the bytes written."""
    data = (dumps_model(model) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return sha256(data)


def read_json(path, data: bytes | None = None):
    """The JSON document in a file, or in `data`, the file's bytes when they
    are already read; FormatError naming the file unless it holds one."""
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    try:   # read as open(path, encoding="utf-8") reads text
        return json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
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
    with open(path, "wb") as fh:
        fh.write(data)
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
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno())
            per, rest = divmod(size.st_size // PACK_DTYPE.itemsize, count)
            dim, spare = divmod(per - head, 2 * n * m)
            if (not stat.S_ISREG(size.st_mode) or size.st_size % PACK_DTYPE.itemsize
                    or rest or spare or dim < 1):
                return None
            data = bytearray(size.st_size)
            if fh.readinto(data) != len(data) or sha256(data) != digest:
                return None
    except (OSError, ValueError):   # ValueError: a NUL in the path
        return None
    shapes += [(n, m, dim)] * 2
    ends = list(itertools.accumulate(map(math.prod, shapes), initial=0))
    rows = np.frombuffer(data, dtype=PACK_DTYPE).astype(np.float64, copy=False).reshape(count, per)
    # each part of every model at once: (count,) + its shape, a view of the pack
    parts = [rows[:, a:b].reshape((count,) + s) for a, b, s in zip(ends, ends[1:], shapes)]
    try:
        return cls.bank(parts[:-3], parts[-3:], topology)
    except DataError:
        return None
