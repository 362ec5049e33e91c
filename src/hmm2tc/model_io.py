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


def model_to_dict(model: Hmm1Model | Hmm2Model, metadata: dict | None = None) -> dict:
    order = 2 if isinstance(model, Hmm2Model) else 1
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "order": order,
        "N": model.n_states,
        "M": model.n_components,
        "D": model.dim,
        "topology": model.topology,
        "mixtures": [dict(zip(_PARTS, state)) for state in
                     zip(*(getattr(model.mixtures, part).tolist() for part in _PARTS))],
    }
    if order == 2:
        doc["psi"] = model.psi.tolist()
        doc["a2"] = model.a2.tolist()
        doc["a3"] = model.a3.tolist()
    else:
        doc["psi"] = model.pi.tolist()
        doc["a2"] = model.a.tolist()
    if metadata:
        doc["metadata"] = metadata
    return doc


def model_from_dict(doc: dict) -> Hmm1Model | Hmm2Model:
    try:
        version = doc["format_version"]
        if version != MODEL_FORMAT_VERSION:
            raise FormatError(f"unsupported model format version {version}")
        mixtures = GaussianMixture(*(np.array([m[part] for m in doc["mixtures"]])
                                     for part in _PARTS))
        topology = doc["topology"]
        if doc["order"] == 2:
            return Hmm2Model(np.array(doc["psi"]), np.array(doc["a2"]),
                             np.array(doc["a3"]), mixtures, topology)
        if doc["order"] == 1:
            return Hmm1Model(np.array(doc["psi"]), np.array(doc["a2"]),
                             mixtures, topology)
        raise FormatError(f"unsupported model order {doc['order']}")
    except KeyError as exc:
        raise FormatError(f"model document missing field {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise FormatError(f"malformed model document: {exc}") from exc


def dumps_model(model, metadata: dict | None = None) -> str:
    # sort_keys + fixed separators makes serialization canonical (byte-stable)
    return json.dumps(model_to_dict(model, metadata), sort_keys=True,
                      separators=(",", ":"))


def save_model(model, path, metadata: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_model(model, metadata))
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
