"""Versioned JSON persistence for order-1 and order-2 models."""

from __future__ import annotations

import json

import numpy as np

from .errors import FormatError
from .gmm import GaussianMixture
from .hmm1 import Hmm1Model
from .hmm2 import Hmm2Model

MODEL_FORMAT_VERSION = 1
_PARTS = ("weights", "means", "variances")   # the fields of each state in "mixtures"
# the initial vector and transition arrays of either order: pi and a are
# stored as psi and a2
_ARRAYS = ("psi", "a2", "a3")
_CLASSES = {cls.order: cls for cls in (Hmm1Model, Hmm2Model)}


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


def model_from_dict(doc: dict) -> Hmm1Model | Hmm2Model:
    try:
        version = doc["format_version"]
        if version != MODEL_FORMAT_VERSION:
            raise FormatError(f"unsupported model format version {version}")
        mixtures = GaussianMixture(*(np.array([m[part] for m in doc["mixtures"]])
                                     for part in _PARTS))
        cls = _CLASSES.get(doc["order"])
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


def save_model(model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_model(model))
        fh.write("\n")


def read_json(path):
    """The JSON document in a file; FormatError naming the file unless it
    holds one."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:   # not JSON, or not UTF-8 text
            raise FormatError(f"{path}: not valid JSON: {exc}") from exc


def load_model(path) -> Hmm1Model | Hmm2Model:
    return model_from_dict(read_json(path))
