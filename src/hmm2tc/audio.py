"""LPCC speech front-end: WAV decoding, framing, LPC analysis, cepstra.

The pipeline is decode -> windowed autocorrelation -> Levinson-Durbin ->
cepstral recursion, one 16-dim LPCC row per 30 ms Hamming frame at a 5 ms
shift. Decoding reads a RIFF/WAVE file in one walk over its chunks, with
no stdlib `wave`, so the same rules hold on every Python: PCM (format tag
1) only, and the walk bounded by the file's length, not by the RIFF size
field. Decoding and autocorrelation run once per clip; the autocorrelation
is computed from the clip's samples without building its (frames, window)
stack (`clip_autocorrelation`), which `frame_and_window` still gives for
reference. Its rows agree with the stack's dot products to rounding, not
bit for bit. Levinson-Durbin and the cepstral recursion run once
per block of clips (`lpcc_sequences`) over their concatenated autocorrelation
rows, with their state held order-major, (order, frames): every frame of the
block advances through the same short loop over the order, each step one
contiguous row, so a frame's result does not depend on the block it is in.
Each sample and each feature row is written once: decoding converts the
data chunk in one pass, the recursions write into rows allocated once per
call, and each file's rows are made contiguous once, when they are written.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import DataError, FormatError, NumericError

FEATURE_MAGIC = b"LPCC"
FEATURE_VERSION = 1
# The bound on every size field of FrameParams and SynthSpec: that many
# float64s (2 PiB) are past any machine's memory, yet within numpy's array
# size, so a field at or below it runs or ends in MemoryError, and one above
# it is refused up front.
_SIZE_LIMIT = 2**48


@dataclass(frozen=True)
class FrameParams:
    window_ms: float = 30.0
    shift_ms: float = 5.0
    lpc_order: int = 12
    cepstral_order: int = 16
    pre_emphasis: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.window_ms < math.inf and 0.0 < self.shift_ms < math.inf):
            raise DataError("window_ms and shift_ms must be finite and positive")
        if self.shift_ms > self.window_ms:
            raise DataError("shift_ms must not exceed window_ms")
        if self.lpc_order < 1 or self.cepstral_order < 1:
            raise DataError("lpc_order and cepstral_order must be >= 1")
        if max(self.lpc_order, self.cepstral_order) > _SIZE_LIMIT:
            raise DataError(f"lpc_order and cepstral_order must be at most {_SIZE_LIMIT}")
        if not 0.0 <= self.pre_emphasis < 1.0:
            raise DataError("pre_emphasis must lie in [0, 1)")


@dataclass
class AudioClip:
    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise DataError("samples must be a nonempty 1-D sequence")
        peak = max(self.samples.max(), -self.samples.min())  # NaN and inf fail the test too
        if not peak <= 1.0:
            raise DataError("samples must lie in [-1, 1]" if np.isfinite(peak)
                            else "samples must be finite")
        if self.sample_rate_hz <= 0:
            raise DataError("sample_rate_hz must be positive")


@dataclass
class FeatureSequence:
    """T x D matrix of cepstral frames plus provenance metadata."""

    frames: np.ndarray
    source_id: str = ""
    degenerate_frames: int = 0

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[0] < 1 or self.frames.shape[1] < 1:
            raise DataError("frames must be a T x D matrix with T, D >= 1")
        if not np.all(np.isfinite(self.frames)):
            raise DataError("frames must be finite")

    @property
    def T(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


# Data-chunk sizes that a streaming writer leaves in place of the real one;
# the samples then run to the end of the file.
STREAMED_DATA_SIZES = (0, 0xFFFFFFFF)


def decode_pcm16_wav(data: bytes) -> AudioClip:
    """Decode a mono 16-bit PCM RIFF/WAVE file into [-1, 1] samples.

    One walk over the chunks, from byte 12 to the end of the file, reads
    each `fmt ` chunk of 16 bytes or more and stops at the first `data`
    chunk, which must come after one. The RIFF size field is not read: a
    streaming writer may leave it as a placeholder, as it may the data size.
    A chunk before the data chunk that runs past the file is malformed. Only
    format tag 1 (PCM) is read, and the sample width is (bits + 7) // 8
    bytes. A data chunk that holds fewer bytes than its header declares is a
    cut file and is rejected, unless the declared size is one of
    STREAMED_DATA_SIZES.
    """
    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise FormatError("malformed or non-PCM WAV file: not a RIFF file of form WAVE")
    tag, pos, chunk_id = None, 12, b""
    while chunk_id != b"data":
        if pos + 8 > len(data):
            raise FormatError("malformed or non-PCM WAV file: no data chunk")
        chunk_id, size = struct.unpack_from("<4sI", data, pos)
        start, pos = pos + 8, pos + 8 + size + (size & 1)   # odd sizes have a pad byte
        if chunk_id != b"data" and start + size > len(data):
            raise FormatError("malformed WAV file: a chunk size runs past the file")
        if chunk_id == b"fmt " and size >= 16:
            tag, n_channels, rate, bits = struct.unpack_from("<HHI6xH", data, start)
    if tag is None:
        raise FormatError("malformed or non-PCM WAV file: no fmt chunk of 16 bytes or more "
                          "before the data chunk")
    if tag != 1:
        raise FormatError(f"malformed or non-PCM WAV file: format tag {tag}, not 1 (PCM)")
    width = (bits + 7) // 8
    if width != 2:
        raise FormatError(f"expected 16-bit samples, got {8 * width}-bit")
    if n_channels != 1:
        raise FormatError(f"expected mono audio, got {n_channels} channels")
    streamed = size in STREAMED_DATA_SIZES
    raw = memoryview(data)[start:None if streamed else start + size]
    if len(raw) % 2:
        raise FormatError("WAV data ends in the middle of a sample")
    if len(raw) < size and not streamed:
        raise FormatError(f"WAV data chunk holds {len(raw)} of the {size} bytes "
                          "its header declares; the file is cut")
    # one pass; scaling by 2**-15 is exact, so the bits are those of v / 32768
    samples = np.multiply(np.frombuffer(raw, dtype="<i2"), 1 / 32768, dtype=np.float64)
    if samples.size == 0:
        raise FormatError("WAV file contains no samples")
    return AudioClip(samples, rate)


def _frame_geometry(n_samples: int, rate: int, params: FrameParams) -> tuple[int, int, int]:
    # ms * rate may overflow to inf; clamping first keeps it out of round(),
    # and a window longer than the clip is rejected below either way.
    win, shift = (int(round(min(ms * rate / 1000.0, n_samples + 1.0)))
                  for ms in (params.window_ms, params.shift_ms))
    if win < 2 or shift < 1:
        raise DataError(f"{params.window_ms:g} ms window and {params.shift_ms:g} ms shift "
                        f"give {win} and {shift} samples at {rate} Hz; the window needs "
                        ">= 2 samples and the shift >= 1")
    if n_samples < win:
        raise DataError(f"clip of {n_samples} samples is shorter than one "
                        f"{params.window_ms:g} ms window at {rate} Hz")
    n_frames = (n_samples - win) // shift + 1
    return win, shift, n_frames


def _framing(clip: AudioClip, params: FrameParams) -> tuple[np.ndarray, np.ndarray, int, int]:
    """The clip's samples after pre-emphasis, its Hamming window, shift and
    frame count: what framing and autocorrelation both start from."""
    x = clip.samples
    if params.pre_emphasis > 0.0:
        x = np.concatenate(([x[0]], x[1:] - params.pre_emphasis * x[:-1]))
    win, shift, n_frames = _frame_geometry(x.size, clip.sample_rate_hz, params)
    window = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(win) / (win - 1))
    return x, window, shift, n_frames


def frame_and_window(clip: AudioClip, params: FrameParams) -> np.ndarray:
    """Slice the clip into Hamming-windowed frames, one row per frame: the
    framing that `clip_autocorrelation` computes without building it."""
    x, window, shift, n_frames = _framing(clip, params)
    return sliding_window_view(x, window.size)[: shift * n_frames : shift] * window


def _lag_autocorrelation(x: np.ndarray, window: np.ndarray, shift: int, n_frames: int,
                         max_lag: int) -> np.ndarray:
    """Windowed autocorrelation of every frame straight from the signal:
    r_k[f] = sum_n w[n] w[n+k] x[f*shift+n] x[f*shift+n+k], as (n_frames,
    max_lag + 1) rows, with no (frames, window) stack.

    Per lag k, the lag products y[m] = x[m] x[m+k] fill one reused buffer,
    cut into blocks of `shift` samples (zero past the signal's end), and the
    window products w[n] w[n+k] are cut into per = ceil(win / shift) blocks
    (zero past the window's end), so any shift works, also one that does not
    divide the window. One matrix product of y's blocks with the window's
    gives Z[j, b], block j of y against block b of the window, and frame f
    is the diagonal sum of Z[f + b, b] over b: one reduce over a strided
    view of Z, whose buffer every lag reuses.

    Z holds at most min(per, n_frames) of the window's blocks, so that a
    window of many blocks over few frames does not make it quadratic in the
    window; the blocks are then taken in chunks of that many, and each
    frame's chunk sums are added in ascending order.
    """
    win = window.size
    if max_lag >= win:
        raise DataError(f"max_lag {max_lag} must be smaller than frame length {win}")
    per = -(-win // shift)
    width = min(per, max(n_frames, 1))       # window blocks per product
    chunks = -(-per // width)
    rows = n_frames - 1 + width              # signal blocks per product
    blocks = n_frames - 1 + chunks * width
    span = blocks * shift
    cut = np.zeros((max_lag + 1, chunks, width, shift))
    for k, row in enumerate(cut.reshape(max_lag + 1, -1)):
        np.multiply(window[: win - k], window[k:], out=row[: win - k])
    weights = np.ascontiguousarray(cut.transpose(0, 1, 3, 2))   # C order: BLAS runs it faster
    products = np.empty((blocks, shift))
    y = products.reshape(-1)
    z = np.empty((rows, width))
    diagonals = as_strided(z, (n_frames, width), (z.strides[0], z.strides[0] + z.strides[1]),
                           writeable=False)
    sums = np.empty((chunks, max_lag + 1, n_frames))
    for k in range(max_lag + 1):
        m = max(0, min(span, x.size - k))
        np.multiply(x[:m], x[k : k + m], out=y[:m])
        y[m:] = 0.0
        for c in range(chunks):
            np.matmul(products[c * width : c * width + rows], weights[k, c], out=z)
            np.add.reduce(diagonals, axis=1, out=sums[c, k])
    r = sums[0]
    for part in sums[1:]:
        r += part
    return r.T


def autocorrelate(frames: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased autocorrelation r_0 .. r_max_lag of one frame (n,) or of every
    row of a frame stack (..., n), by the same kernel as `clip_autocorrelation`:
    each row is one block of n samples under a window of ones. Rows must be
    finite: a non-finite sample among a row's first max_lag also makes the
    row before it non-finite."""
    frames = np.asarray(frames, dtype=np.float64)
    n = frames.shape[-1]
    rows = np.ascontiguousarray(frames).reshape(-1, n)
    r = _lag_autocorrelation(rows.reshape(-1), np.ones(n), n, rows.shape[0], max_lag)
    return r.reshape(frames.shape[:-1] + (max_lag + 1,))


def levinson_durbin(r: np.ndarray) -> tuple[np.ndarray, np.ndarray | float]:
    """Solve the Toeplitz normal equations for A(z) = 1 + sum a_k z^-k.

    ``r`` is one autocorrelation row (p + 1,) or a stack (F, p + 1); every
    row advances through the p steps together. Returns (a_1..a_p, residual
    energy E_p) in the same layout. A row fails when r_0 <= 0 or a
    reflection coefficient is non-finite or leaves the unit disc: a single
    row raises NumericError, while in a stack the failed rows come back as
    NaN in both a and E_p and the other rows are unaffected.

    The working state is order-major, lags (p + 1, F) and coefficients
    (p, F), so that each step reads and writes whole rows over every frame;
    the (F, p) result is a transposed view of it. A stack given as the
    transposed view of an order-major array is read without a copy. Every
    product goes into rows allocated once per call; the operations and their
    order are those of the step written out, and so are each row's bits.
    """
    r = np.asarray(r, dtype=np.float64)
    lags = np.ascontiguousarray(np.atleast_2d(r).T)
    p, n_rows = lags.shape[0] - 1, lags.shape[1]
    a = np.zeros((p, n_rows))
    energy = lags[0].copy()
    ok = energy > 0.0
    if r.ndim == 1 and not ok[0]:
        raise NumericError("zero-energy frame: r_0 must be positive")
    acc, k, term = np.empty((3, n_rows))
    failed, stable = np.empty((2, n_rows), dtype=bool)
    update = np.empty((max(p - 1, 0), n_rows))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(1, p + 1):
            acc.fill(0.0)                  # from 0, as written: 0 + (-0) is +0
            for j in range(i - 1):
                acc += np.multiply(a[j], lags[i - 1 - j], out=term)
            np.add(lags[i], acc, out=k)
            np.negative(k, out=k)
            k /= energy                    # k = -(r_i + acc) / E
            ok &= np.less(np.abs(k, out=term), 1.0, out=stable)   # NaN and inf fail too
            if r.ndim == 1 and not ok[0]:
                raise NumericError(f"unstable frame: |k_{i}| = {abs(k[0]):.6g} >= 1")
            # failed rows stay finite until masked
            np.copyto(k, 0.0, where=np.logical_not(ok, out=failed))
            head = a[: i - 1]
            head += np.multiply(k, head[::-1], out=update[: i - 1])
            a[i - 1] = k
            energy *= np.subtract(1.0, np.multiply(k, k, out=term), out=term)
    a[:, ~ok] = np.nan
    energy[~ok] = np.nan
    return (a[:, 0], float(energy[0])) if r.ndim == 1 else (a.T, energy)


def lpc_to_lpcc(lpc: np.ndarray, cepstral_order: int) -> np.ndarray:
    """Cepstrum c_1..c_Q of 1/A(z) via the standard recursion (gain term
    dropped), for one LPC row (p,) or a stack (F, p). The working state is
    order-major, (p, F) in and (Q, F) out, one whole row per step; the
    (F, Q) result is a transposed view of it. Each term goes into one row
    allocated once per call, with the recursion's operations and order. A
    (Q, F) state past numpy's array size raises MemoryError, as one that
    memory cannot hold does."""
    a = np.asarray(lpc, dtype=np.float64)
    if cepstral_order < 1:
        raise DataError("cepstral_order must be >= 1")
    rows = np.ascontiguousarray(np.atleast_2d(a).T)
    p, n_rows = rows.shape
    if cepstral_order * n_rows > np.iinfo(np.intp).max // 8:
        raise MemoryError(f"{cepstral_order} cepstral coefficients for each of {n_rows} frames")
    c = np.zeros((cepstral_order, n_rows))
    term = np.empty(n_rows)
    for m in range(1, cepstral_order + 1):
        acc = c[m - 1]                     # starts at 0, or at -a_m for m <= p
        if m <= p:
            np.negative(rows[m - 1], out=acc)
        for k in range(max(1, m - p), m):
            np.multiply(k / m, c[k - 1], out=term)
            acc -= np.multiply(term, rows[m - k - 1], out=term)
    return c[:, 0] if a.ndim == 1 else c.T


SILENCE_THRESHOLD = 1e-12


def clip_autocorrelation(clip: AudioClip, params: FrameParams) -> np.ndarray:
    """The per-clip stage of the front end: the (F, lpc_order + 1) windowed
    autocorrelation rows of the clip's frames, from its samples directly."""
    x, window, shift, n_frames = _framing(clip, params)
    return _lag_autocorrelation(x, window, shift, n_frames, params.lpc_order)


def lpcc_sequences(autocorrelations: list[np.ndarray], params: FrameParams,
                   source_ids: list[str]) -> list[FeatureSequence]:
    """The LPC and cepstrum stages, run once over the autocorrelation rows of
    a block of clips, then split back into one FeatureSequence per clip.

    A frame is degenerate when r_0 <= SILENCE_THRESHOLD or its Levinson-Durbin
    recursion fails; it becomes an all-zero row and is counted in its
    sequence's metadata instead of aborting the utterance. Each sequence's
    frames are a view of the block's order-major (Q, F) cepstra.
    """
    if not autocorrelations:
        return []
    # order-major (p + 1, F), the layout levinson_durbin works in: each clip's
    # rows are already the transposed view of such an array
    lags = np.concatenate([r.T for r in autocorrelations], axis=1)
    a, energy = levinson_durbin(lags.T)
    degenerate = (lags[0] <= SILENCE_THRESHOLD) | np.isnan(energy)
    out = lpc_to_lpcc(a, params.cepstral_order)
    out[degenerate] = 0.0
    bounds = np.cumsum([0] + [len(x) for x in autocorrelations]).tolist()
    return [FeatureSequence(out[start:stop], source_id=sid,
                            degenerate_frames=int(degenerate[start:stop].sum()))
            for start, stop, sid in zip(bounds, bounds[1:], source_ids)]


def extract_features(clip: AudioClip, params: FrameParams | None = None,
                     source_id: str = "") -> FeatureSequence:
    """Full front end for one clip: `lpcc_sequences` on a block of one."""
    params = params or FrameParams()
    return lpcc_sequences([clip_autocorrelation(clip, params)], params, [source_id])[0]


def save_features(seq: FeatureSequence, path) -> None:
    """Write the binary feature format: magic, version, T, D, row-major f64."""
    frames = np.ascontiguousarray(seq.frames, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<B", FEATURE_VERSION))
        fh.write(struct.pack("<II", seq.T, seq.dim))
        fh.write(frames.data)


def load_features(path, source_id: str | None = None) -> FeatureSequence:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic bytes")
    if len(data) < 13:
        raise FormatError(f"{path}: truncated header")
    version = data[4]
    if version != FEATURE_VERSION:
        raise FormatError(f"{path}: unsupported feature format version {version}")
    t, d = struct.unpack("<II", data[5:13])
    payload = data[13:]
    if len(payload) != 8 * t * d:
        raise FormatError(f"{path}: truncated payload")
    frames = np.frombuffer(payload, dtype="<f8").reshape(t, d).copy()
    return FeatureSequence(frames, source_id=source_id if source_id is not None else str(path))
