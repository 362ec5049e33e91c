"""Seeded benchmark inputs and the file formats the benchmark reads and writes
itself: 16-bit PCM WAV, the LPCC feature file and TSV manifests.

The readers and writers here are coded from the format descriptions, not
taken from the program, so a format change in the program shows up as a
failed check instead of being read back by the same code that wrote it.
"""

from __future__ import annotations

import json
import struct
import wave
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

LABELS = ["neutral", "shouted", "loud", "angry", "happy", "fear"]

# Front-end geometry at the CLI defaults: 16 kHz, 30 ms window, 5 ms shift.
RATE = 16000
WIN = 480
SHIFT = 80
LPC_ORDER = 12
CEPSTRAL_ORDER = 16

# extract workload: 16 clips of 3 s, each with three 150 ms digital silences.
N_CLIPS = 16
CLIP_SAMPLES = 3 * RATE
N_SILENCES = 3
SILENCE_SAMPLES = 2400
N_RESONANCES = 4

FEATURE_MAGIC = b"LPCC"


def n_frames(n_samples: int) -> int:
    return (n_samples - WIN) // SHIFT + 1


def synth_clip(seed: int, index: int) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """AR-filtered Gaussian noise with inserted digital silences.

    Returns the int16 samples and the [start, stop) sample ranges of the
    silences. Silences start on multiples of SHIFT, so every analysis frame
    that is not wholly silent holds at least SHIFT nonzero-weighted samples.
    """
    rng = np.random.default_rng([seed, index])
    radius = rng.uniform(0.85, 0.97, N_RESONANCES)
    angle = rng.uniform(0.05, 0.95, N_RESONANCES) * np.pi
    poles = np.concatenate([radius * np.exp(1j * angle), radius * np.exp(-1j * angle)])
    a = np.poly(poles).real
    warm = 1000  # drop the filter's start-up transient
    x = lfilter([1.0], a, rng.standard_normal(CLIP_SAMPLES + warm))[warm:]
    samples = np.round(x * (0.5 * 32767 / np.max(np.abs(x)))).astype("<i2")
    silences = []
    third = CLIP_SAMPLES // N_SILENCES // SHIFT  # slots of SHIFT samples per third
    span = SILENCE_SAMPLES // SHIFT
    for k in range(N_SILENCES):
        slot = k * third + int(rng.integers(8, third - span - 8))
        start = slot * SHIFT
        samples[start:start + SILENCE_SAMPLES] = 0
        silences.append((start, start + SILENCE_SAMPLES))
    return samples, silences


def silent_frames(silences: list[tuple[int, int]], total: int) -> np.ndarray:
    """Indices of the analysis frames that lie wholly inside a silence."""
    starts = np.arange(total) * SHIFT
    inside = np.zeros(total, dtype=bool)
    for lo, hi in silences:
        inside |= (starts >= lo) & (starts + WIN <= hi)
    return np.flatnonzero(inside)


def write_wav(path: Path, samples: np.ndarray) -> None:
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(RATE)
        wf.writeframes(np.asarray(samples, dtype="<i2").tobytes())


def write_lpcc(path: Path, frames: np.ndarray) -> None:
    """Feature file: b"LPCC", version byte 1, u32 T, u32 D, row-major <f8."""
    frames = np.ascontiguousarray(frames, dtype="<f8")
    t_len, dim = frames.shape
    Path(path).write_bytes(FEATURE_MAGIC + struct.pack("<BII", 1, t_len, dim)
                           + frames.tobytes())


def read_lpcc(path: Path) -> np.ndarray:
    data = Path(path).read_bytes()
    if data[:4] != FEATURE_MAGIC or len(data) < 13 or data[4] != 1:
        raise ValueError(f"{path}: not a version-1 LPCC feature file")
    t_len, dim = struct.unpack("<II", data[5:13])
    if len(data) != 13 + 8 * t_len * dim:
        raise ValueError(f"{path}: payload does not match its header")
    return np.frombuffer(data, dtype="<f8", offset=13).reshape(t_len, dim)


def lpcc_length(path: Path) -> int:
    """T from a feature file's header."""
    with open(path, "rb") as fh:
        header = fh.read(13)
    return struct.unpack("<II", header[5:13])[0]


def write_manifest(path: Path, rows: list[dict]) -> None:
    cols = ["speaker", "sentence", "condition", "token", "split", "path"]
    lines = ["\t".join(cols)]
    lines += ["\t".join(str(row.get(c, "auto")) for c in cols) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_synth_spec(path: Path, seed: int, tokens: int, frames: list[int]) -> None:
    spec = {"labels": LABELS, "tokens_per_condition": tokens, "frames": frames,
            "n_states": 5, "n_components": 5, "dim": 16, "separation": 4.0,
            "seed": seed}
    Path(path).write_text(json.dumps(spec), encoding="utf-8")
