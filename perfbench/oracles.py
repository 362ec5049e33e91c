"""Independent computations and the output checks built on them.

Nothing here imports the program. Models are read from their JSON files, the
recursions are written in other forms than the program's (probability domain
with per-frame scaling over pair states for the forward pass, max-product over
a pair-state transition matrix for Viterbi), and the front end is recomputed
from the window formula, a Toeplitz solve and an FFT cepstrum.

Every check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.linalg import solve_toeplitz

import inputs

LOG_2PI = math.log(2.0 * math.pi)
SCORE_REL_TOL = 1e-9
LPCC_TOL = 1e-6
EM_REL_TOL = 1e-8
MIN_ACCURACY = 0.95


# ---------------------------------------------------------------- models

def load_model_doc(path: Path) -> dict:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return {"order": int(doc["order"]),
            "psi": np.asarray(doc["psi"], dtype=np.float64),
            "a2": np.asarray(doc["a2"], dtype=np.float64),
            "a3": np.asarray(doc["a3"], dtype=np.float64) if doc["order"] == 2 else None,
            "mixtures": [(np.asarray(m["weights"], dtype=np.float64),
                          np.asarray(m["means"], dtype=np.float64),
                          np.asarray(m["variances"], dtype=np.float64))
                         for m in doc["mixtures"]]}


def load_bank_docs(bank_dir: Path) -> tuple[list[str], dict[str, dict]]:
    bank = json.loads((Path(bank_dir) / "bank.json").read_text(encoding="utf-8"))
    scope = bank["scopes"][0]
    return list(scope["labels"]), {lab: load_model_doc(Path(bank_dir) / rel)
                                   for lab, rel in scope["models"].items()}


def gmm_log_density(frames: np.ndarray, mixtures) -> np.ndarray:
    """(T, N) log b_j(o_t) of diagonal-Gaussian mixtures, coded from the density."""
    frames = np.asarray(frames, dtype=np.float64)
    out = np.empty((frames.shape[0], len(mixtures)))
    for j, (weights, means, variances) in enumerate(mixtures):
        diff = frames[:, None, :] - means[None, :, :]
        with np.errstate(divide="ignore"):
            log_w = np.log(weights)
        comp = log_w[None, :] - 0.5 * (np.sum(diff * diff / variances[None], axis=2)
                                       + np.sum(np.log(variances), axis=1)[None, :]
                                       + frames.shape[1] * LOG_2PI)
        top = comp.max(axis=1)
        out[:, j] = top + np.log(np.sum(np.exp(comp - top[:, None]), axis=1))
    return out


def pair_transitions(a3: np.ndarray) -> np.ndarray:
    """(N^2, N^2) matrix P[(i, j), (j, k)] = a3[i, j, k] of the order-2 chain."""
    n = a3.shape[0]
    p = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            p[i * n + j, j * n:(j + 1) * n] = a3[i, j]
    return p


def scaled_forward(model: dict, frames: np.ndarray) -> float:
    """log P(O) by a probability-domain forward pass with per-frame scaling.

    Order 2 runs over pair states (j, k); order 1 over single states.
    Emissions are shifted by their per-frame maximum before exponentiation.
    """
    logb = gmm_log_density(frames, model["mixtures"])
    shift = logb.max(axis=1)
    b = np.exp(logb - shift[:, None])
    n = b.shape[1]
    if model["order"] == 2:
        alpha = ((model["psi"] * b[0])[:, None] * model["a2"] * b[1][None, :]).ravel()
        trans, first, log_l = pair_transitions(model["a3"]), 2, shift[0] + shift[1]
        emit = lambda t: np.tile(b[t], n)  # pair (j, k) emits b_k
    else:
        alpha = model["psi"] * b[0]
        trans, first, log_l = model["a2"], 1, shift[0]
        emit = lambda t: b[t]
    for t in range(first, b.shape[0] + 1):
        scale = alpha.sum()
        if not scale > 0.0:
            return -math.inf
        log_l += math.log(scale)
        if t == b.shape[0]:
            break
        alpha = (alpha / scale) @ trans * emit(t)
        log_l += shift[t]
    return float(log_l)


def log_viterbi(model: dict, frames: np.ndarray) -> float:
    """Best-path log score by max-product over the (pair-)state chain."""
    logb = gmm_log_density(frames, model["mixtures"])
    n = logb.shape[1]
    with np.errstate(divide="ignore"):
        log_psi, log_a2 = np.log(model["psi"]), np.log(model["a2"])
        if model["order"] == 2:
            log_trans = np.log(pair_transitions(model["a3"]))
    if model["order"] == 2:
        delta = ((log_psi + logb[0])[:, None] + log_a2 + logb[1][None, :]).ravel()
        first, emit = 2, lambda t: np.tile(logb[t], n)
    else:
        delta, log_trans = log_psi + logb[0], log_a2
        first, emit = 1, lambda t: logb[t]
    for t in range(first, logb.shape[0]):
        delta = np.max(delta[:, None] + log_trans, axis=0) + emit(t)
    return float(np.max(delta))


# ---------------------------------------------------------------- checks

def _close(value: float, ref: float, rel: float) -> bool:
    if math.isinf(ref) or math.isinf(value):
        return value == ref
    return abs(value - ref) <= rel * max(abs(ref), 1.0)


def parse_identify(stdout: str) -> tuple[str, dict[str, float]]:
    lines = stdout.splitlines()
    scores = {}
    for line in lines[1:]:
        label, value = line.split("\t")
        scores[label] = float(value)
    return lines[0].strip(), scores


def check_identify(stdout: str, labels: list[str], reference: dict[str, float],
                   forward: dict[str, float] | None = None) -> list[str]:
    """Printed label and scores of one `hmm2tc identify` call.

    reference holds the independent score of each label for the scoring mode
    used; forward, given for Viterbi scoring, holds the independent forward
    scores that every Viterbi score must not exceed.
    """
    try:
        label, printed = parse_identify(stdout)
    except (ValueError, IndexError) as exc:
        return [f"unreadable identify output: {exc}"]
    if list(printed) != labels:
        return [f"printed labels {list(printed)} != bank labels {labels}"]
    problems = [f"{lab}: printed {printed[lab]!r} vs independent {reference[lab]!r}"
                for lab in labels
                if not _close(printed[lab], reference[lab], SCORE_REL_TOL)]
    top = max(reference.values())
    best = next(lab for lab in labels
                if reference[lab] >= top - SCORE_REL_TOL * max(abs(top), 1.0))
    if label != best:
        problems.append(f"printed label {label!r} is not the first argmax {best!r}")
    if forward is not None:
        problems += [f"{lab}: Viterbi {printed[lab]!r} exceeds forward {forward[lab]!r}"
                     for lab in labels
                     if printed[lab] > forward[lab] + SCORE_REL_TOL * max(abs(forward[lab]), 1.0)]
    return problems


def lpcc_reference(samples: np.ndarray, t: int) -> np.ndarray | None:
    """LPCC row of frame t from the Hamming formula, a Toeplitz solve of the
    normal equations and the FFT log-spectrum cepstrum of 1/A(z).
    None for a frame with zero energy."""
    n = np.arange(inputs.WIN)
    window = 0.54 - 0.46 * np.cos(2.0 * np.pi * n / (inputs.WIN - 1))
    x = samples[t * inputs.SHIFT:t * inputs.SHIFT + inputs.WIN] / 32768.0 * window
    p = inputs.LPC_ORDER
    r = np.array([x[:inputs.WIN - k] @ x[k:] for k in range(p + 1)])
    if r[0] <= 0.0:
        return None
    a = solve_toeplitz(r[:p], -r[1:])
    n_fft = 4096
    spectrum = np.fft.rfft(np.concatenate(([1.0], a)), n_fft)
    return -2.0 * np.fft.irfft(np.log(np.abs(spectrum)), n_fft)[1:inputs.CEPSTRAL_ORDER + 1]


def check_features(frames: np.ndarray, silent: np.ndarray,
                   sampled: dict[int, np.ndarray]) -> list[str]:
    """One extracted feature matrix: shape, silent rows and sampled rows."""
    expected = (inputs.n_frames(inputs.CLIP_SAMPLES), inputs.CEPSTRAL_ORDER)
    if frames.shape != expected:
        return [f"feature shape {frames.shape} != {expected}"]
    problems = []
    if np.any(frames[silent] != 0.0):
        problems.append("a frame inside a silence is not an all-zero row")
    for t, ref in sampled.items():
        err = np.max(np.abs(frames[t] - ref) / (1.0 + np.abs(ref)))
        if not err <= LPCC_TOL:
            problems.append(f"frame {t}: LPCC differs from the reference by {err:.3g}")
    return problems


def check_extract_summary(stdout: str, n_files: int, frames: int,
                          degenerate: int) -> list[str]:
    want = (f"extracted {n_files}/{n_files} files, {frames} frames "
            f"({degenerate} degenerate)")
    got = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    return [] if got == want else [f"summary {got!r} != {want!r}"]


def check_em_trace(label: str, trace: list[float]) -> list[str]:
    if not trace or not all(math.isfinite(v) for v in trace):
        return [f"{label}: EM trace is empty or not finite: {trace}"]
    return [f"{label}: EM log-likelihood fell from {a!r} to {b!r}"
            for a, b in zip(trace, trace[1:]) if b < a - EM_REL_TOL * abs(a)]


def check_accuracy(report: dict, n_test: int) -> list[str]:
    counts = np.asarray(report["counts"])
    if counts.sum() != n_test:
        return [f"report scores {counts.sum()} test tokens, expected {n_test}"]
    accuracy = np.trace(counts) / counts.sum()
    if accuracy < MIN_ACCURACY:
        return [f"test accuracy {accuracy:.3f} < {MIN_ACCURACY}"]
    return []


def check_same_files(first: dict[str, bytes], now: dict[str, bytes]) -> list[str]:
    if set(first) != set(now):
        return [f"model files differ: {sorted(set(first) ^ set(now))}"]
    return [f"{name} differs from the first repetition's"
            for name in sorted(first) if first[name] != now[name]]
