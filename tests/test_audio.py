import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmm2tc.audio import (SILENCE_THRESHOLD, AudioClip, FeatureSequence, FrameParams,
                          autocorrelate, clip_autocorrelation, decode_pcm16_wav,
                          extract_features, frame_and_window, levinson_durbin,
                          load_features, lpc_to_lpcc, lpcc_sequences, save_features)
from hmm2tc.errors import DataError, FormatError, NumericError

from conftest import fft_cepstrum_oracle, make_wav_bytes, toeplitz_lpc_oracle


# mono 16-bit PCM at 16 kHz: format tag, channels, rate, byte rate, block
# align, bits per sample
PCM_FMT = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)


def _riff(*chunks) -> bytes:
    """A RIFF/WAVE file of the given (id, payload) chunks, each odd-sized
    payload followed by its pad byte."""
    body = b"".join(cid + struct.pack("<I", len(payload)) + payload + bytes(len(payload) & 1)
                    for cid, payload in chunks)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


class TestDecode:
    def test_scaling_endpoints(self):
        data = make_wav_bytes(np.array([0, 16384, -32768]))
        clip = decode_pcm16_wav(data)
        assert np.allclose(clip.samples, [0.0, 0.5, -1.0])
        assert clip.sample_rate_hz == 16000

    def test_sample_count(self):
        clip = decode_pcm16_wav(make_wav_bytes(np.zeros(640, dtype=np.int16)))
        assert clip.samples.size == 640

    def test_rejects_8bit(self):
        data = make_wav_bytes(np.full(64, 128), sampwidth=1)
        with pytest.raises(FormatError, match="16-bit"):
            decode_pcm16_wav(data)

    def test_rejects_stereo(self):
        data = make_wav_bytes(np.zeros(64, dtype=np.int16), channels=2)
        with pytest.raises(FormatError, match="mono"):
            decode_pcm16_wav(data)

    def test_rejects_garbage(self):
        with pytest.raises(FormatError):
            decode_pcm16_wav(b"not a wav file at all")

    def test_rejects_cut_mid_sample(self):
        data = make_wav_bytes(np.arange(64, dtype=np.int16))
        with pytest.raises(FormatError, match="middle of a sample"):
            decode_pcm16_wav(data[:-1])

    def test_rejects_cut_data_chunk(self):
        data = make_wav_bytes(np.arange(4800, dtype=np.int16))
        with pytest.raises(FormatError, match="8600 of the 9600 bytes"):
            decode_pcm16_wav(data[:-1000])

    @pytest.mark.parametrize("size", [0, 0xFFFFFFFF])
    def test_streamed_data_size_reads_to_the_end(self, size):
        samples = np.arange(-2400, 2400, dtype=np.int16)
        data = make_wav_bytes(samples)
        at = data.index(b"data") + 4
        streamed = data[:at] + struct.pack("<I", size) + data[at + 4:]
        clip = decode_pcm16_wav(streamed)
        assert np.array_equal(clip.samples, samples / 32768.0)

    def test_every_int16_value_decodes_to_v_over_32768(self):
        values = np.arange(-32768, 32768, dtype=np.int16)
        clip = decode_pcm16_wav(make_wav_bytes(values))
        assert clip.samples.dtype == np.float64
        assert clip.samples.tobytes() == (values.astype(np.float64) / 32768.0).tobytes()

    def test_riff_and_data_sizes_both_0_decode_the_samples(self):
        # a streaming writer may leave both sizes as placeholders
        samples = np.arange(-2400, 2400, dtype=np.int16)
        data = bytearray(make_wav_bytes(samples))
        at = data.index(b"data") + 4
        data[4:8] = data[at:at + 4] = bytes(4)
        clip = decode_pcm16_wav(bytes(data))
        assert np.array_equal(clip.samples, samples / 32768.0)

    def test_extensible_format_is_refused_naming_its_tag(self):
        # WAVE_FORMAT_EXTENSIBLE around mono 16-bit PCM (cbSize 22, valid bits,
        # channel mask, the PCM sub-format GUID): only tag 1 is read
        guid = bytes.fromhex("0100000000001000800000aa00389b71")
        fmt = struct.pack("<HHIIHHHHI", 0xFFFE, 1, 16000, 32000, 2, 16, 22, 16, 4) + guid
        with pytest.raises(FormatError, match="format tag 65534"):
            decode_pcm16_wav(_riff((b"fmt ", fmt), (b"data", bytes(640))))

    def test_list_chunk_before_fmt_decodes(self):
        samples = np.arange(-320, 320, dtype=np.int16)
        clip = decode_pcm16_wav(_riff((b"LIST", b"INFOISFT\x04\x00\x00\x00hmm\x00"),
                                      (b"fmt ", PCM_FMT), (b"data", samples.tobytes())))
        assert np.array_equal(clip.samples, samples / 32768.0)

    def test_odd_sized_chunk_and_its_pad_byte_decode(self):
        samples = np.arange(-320, 320, dtype=np.int16)
        data = _riff((b"fmt ", PCM_FMT), (b"junk", b"odd"), (b"data", samples.tobytes()))
        assert data.index(b"data") == 12 + 24 + 8 + 3 + 1    # past the pad byte
        clip = decode_pcm16_wav(data)
        assert np.array_equal(clip.samples, samples / 32768.0)

    def test_data_before_fmt_is_refused(self):
        with pytest.raises(FormatError, match="no fmt chunk .* before the data chunk"):
            decode_pcm16_wav(_riff((b"data", bytes(640)), (b"fmt ", PCM_FMT)))

    @pytest.mark.parametrize("bad, message", [
        (np.nan, "finite"), (np.inf, "finite"), (-np.inf, "finite"),
        (1.5, r"\[-1, 1\]"), (-1.5, r"\[-1, 1\]"),
    ])
    def test_clip_names_what_is_wrong_with_a_sample(self, bad, message):
        samples = np.linspace(-1.0, 1.0, 64)
        samples[40] = bad
        with pytest.raises(DataError, match=message):
            AudioClip(samples, 16000)


class TestFraming:
    def test_frame_count_640(self):
        clip = AudioClip(np.zeros(640), 16000)
        frames = frame_and_window(clip, FrameParams())
        assert frames.shape == (3, 480)

    def test_hamming_endpoints(self):
        clip = AudioClip(np.ones(480), 16000)
        frames = frame_and_window(clip, FrameParams())
        assert frames[0, 0] == pytest.approx(0.08)
        mid = (480 - 1) // 2
        assert frames[0, mid] == pytest.approx(1.0, abs=1e-4)

    def test_too_short(self):
        with pytest.raises(DataError):
            frame_and_window(AudioClip(np.zeros(479), 16000), FrameParams())

    @given(extra=st.integers(0, 2000))
    @settings(max_examples=40, deadline=None)
    def test_frame_count_formula(self, extra):
        n = 480 + extra
        frames = frame_and_window(AudioClip(np.zeros(n), 16000), FrameParams())
        assert frames.shape[0] == (n - 480) // 80 + 1

    @pytest.mark.parametrize("window_ms, shift_ms", [
        (np.nan, 5.0), (30.0, np.nan), (np.inf, 5.0), (30.0, np.inf), (0.0, 5.0)])
    def test_rejects_sizes_not_finite_and_positive(self, window_ms, shift_ms):
        with pytest.raises(DataError, match="finite and positive"):
            FrameParams(window_ms=window_ms, shift_ms=shift_ms)

    @pytest.mark.parametrize("params, message", [
        (FrameParams(shift_ms=0.01), "shift >= 1"),                   # 0 samples
        (FrameParams(window_ms=0.07, shift_ms=0.05), "window needs"),  # 1 sample
        (FrameParams(window_ms=1e306), "shorter than"),                # inf samples
    ])
    def test_rejects_sizes_the_rate_cannot_hold(self, params, message):
        with pytest.raises(DataError, match=message):
            frame_and_window(AudioClip(np.zeros(4800), 16000), params)

    def test_pre_emphasis(self):
        x = np.linspace(-0.5, 0.5, 480)
        plain = frame_and_window(AudioClip(x, 16000), FrameParams())
        emph = frame_and_window(AudioClip(x, 16000), FrameParams(pre_emphasis=0.97))
        assert not np.allclose(plain, emph)


class TestAutocorrelate:
    def test_impulse(self):
        frame = np.zeros(16)
        frame[0] = 1.0
        r = autocorrelate(frame, 4)
        assert np.allclose(r, [1, 0, 0, 0, 0])

    def test_constant_ones(self):
        assert np.allclose(autocorrelate(np.ones(4), 2), [4, 3, 2])

    def test_r0_is_energy(self):
        rng = np.random.default_rng(1)
        frame = rng.normal(size=64)
        r = autocorrelate(frame, 8)
        assert r[0] == pytest.approx(np.sum(frame**2))

    @given(st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_r0_dominates(self, seed):
        frame = np.random.default_rng(seed).normal(size=32)
        r = autocorrelate(frame, 8)
        assert np.all(np.abs(r[1:]) <= r[0] + 1e-12)

    def test_lag_too_large(self):
        with pytest.raises(DataError):
            autocorrelate(np.ones(4), 4)


class TestLevinsonDurbin:
    def test_white(self):
        a, energy = levinson_durbin(np.array([1.0, 0, 0, 0]))
        assert np.allclose(a, 0)
        assert energy == pytest.approx(1.0)

    def test_ar1_autocorrelation(self):
        rho = 0.9
        r = rho ** np.arange(4)
        a, energy = levinson_durbin(r)
        assert np.allclose(a, [-rho, 0, 0], atol=1e-12)
        assert energy == pytest.approx(1 - rho**2)
        # cross-check against the dense normal-equation solve
        assert np.allclose(a, toeplitz_lpc_oracle(r), atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_dense_solve(self, seed):
        rng = np.random.default_rng(seed)
        frame = rng.normal(size=240) * np.hamming(240)
        r = autocorrelate(frame, 12)
        a, energy = levinson_durbin(r)
        expected = toeplitz_lpc_oracle(r)
        assert np.allclose(a, expected, rtol=1e-8, atol=1e-10)
        assert energy >= 0

    @pytest.mark.parametrize("seed", range(10))
    def test_minimum_phase(self, seed):
        rng = np.random.default_rng(100 + seed)
        frame = rng.normal(size=240) * np.hamming(240)
        a, _ = levinson_durbin(autocorrelate(frame, 12))
        roots = np.roots(np.concatenate(([1.0], a)))
        assert np.all(np.abs(roots) < 1 + 1e-9)

    def test_zero_energy(self):
        with pytest.raises(NumericError):
            levinson_durbin(np.zeros(4))

    def test_unstable(self):
        with pytest.raises(NumericError, match="unstable"):
            levinson_durbin(np.array([1.0, 1.0]))  # k_1 = -1


class TestLpcc:
    def test_all_zero(self):
        assert np.allclose(lpc_to_lpcc(np.zeros(12), 16), 0)

    def test_one_pole_closed_form(self):
        rho = 0.9
        c = lpc_to_lpcc(np.array([-rho]), 16)
        n = np.arange(1, 17)
        assert np.allclose(c, rho**n / n, atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_fft_cepstrum(self, seed):
        rng = np.random.default_rng(seed)
        frame = rng.normal(size=240) * np.hamming(240)
        a, _ = levinson_durbin(autocorrelate(frame, 12))
        c = lpc_to_lpcc(a, 16)
        assert np.allclose(c, fft_cepstrum_oracle(a, 16), atol=1e-6)

    def test_cepstra_past_numpy_array_size_raise_memory_error(self):
        # 2**48 coefficients (the size bound) for the 9,520 frames of 16 clips
        # of 3 s: numpy would refuse the array with a ValueError
        with pytest.raises(MemoryError, match="281474976710656 cepstral coefficients"):
            lpc_to_lpcc(np.zeros((9520, 12)), 2 ** 48)


class TestExtract:
    def test_shape_one_second(self):
        rng = np.random.default_rng(0)
        clip = AudioClip(np.clip(rng.normal(0, 0.1, 16000), -1, 1), 16000)
        seq = extract_features(clip)
        assert seq.frames.shape == (195, 16)
        assert seq.degenerate_frames == 0

    def test_silence(self):
        seq = extract_features(AudioClip(np.zeros(1600), 16000))
        assert np.all(seq.frames == 0)
        assert seq.degenerate_frames == seq.T

    def test_ar2_signal_bounded(self):
        rng = np.random.default_rng(3)
        e = rng.normal(0, 0.05, 16000)
        x = np.zeros_like(e)
        for t in range(2, len(e)):
            x[t] = 1.2 * x[t - 1] - 0.7 * x[t - 2] + e[t]
        clip = AudioClip(np.clip(x / (np.max(np.abs(x)) + 1e-9), -1, 1), 16000)
        seq = extract_features(clip)
        assert np.all(np.isfinite(seq.frames))
        assert np.max(np.abs(seq.frames)) < 50

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        samples = np.clip(rng.normal(0, 0.1, 4800), -1, 1)
        a = extract_features(AudioClip(samples, 16000))
        b = extract_features(AudioClip(samples.copy(), 16000))
        assert np.array_equal(a.frames, b.frames)


FRAME_KINDS = ("noise", "zero", "constant", "tone", "impulse", "near_silence")


def _frame(kind: str, n: int, seed) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros(n)
    if kind == "constant":
        return np.full(n, rng.uniform(-1.0, 1.0))
    if kind == "tone":
        return rng.uniform(0.1, 1.0) * np.sin(rng.uniform(0.05, 3.0) * np.arange(n)
                                              + rng.uniform(0.0, 2.0 * np.pi))
    if kind == "impulse":
        frame = np.zeros(n)
        frame[rng.integers(n)] = rng.uniform(-1.0, 1.0)
        return frame
    frame = np.clip(rng.normal(0.0, 0.3, n), -1.0, 1.0)
    if kind == "near_silence":
        # energy at, just below or just above the silence threshold
        factor = rng.choice([0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0])
        frame *= np.sqrt(factor * SILENCE_THRESHOLD / np.sum(frame ** 2))
    return frame


@st.composite
def frame_stacks(draw):
    """(F, n) stacks mixing every frame kind, and an LPC order p < n."""
    p = draw(st.integers(1, 12))
    n = draw(st.integers(p + 1, 64))
    kinds = draw(st.lists(st.sampled_from(FRAME_KINDS), min_size=1, max_size=10))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.stack([_frame(kind, n, [seed, i]) for i, kind in enumerate(kinds)]), p


@st.composite
def lpc_inputs(draw):
    """Levinson-Durbin input stacks: the autocorrelations of a frame stack
    interleaved with arbitrary rows, which reach the failures no real frame
    does (|k| >= 1, an overflowing k, r_0 <= 0)."""
    frames, p = draw(frame_stacks())
    value = st.floats(-2.0, 2.0) | st.sampled_from([0.0, 1e-300, 1e300])
    raw = draw(st.lists(st.lists(value, min_size=p + 1, max_size=p + 1), max_size=6))
    r = np.concatenate([autocorrelate(frames, p), np.reshape(raw, (-1, p + 1))])
    return r[draw(st.permutations(range(r.shape[0])))]


@st.composite
def mixed_clips(draw):
    """Clips spliced from segments of every frame kind, with frame settings."""
    params = draw(st.sampled_from([
        FrameParams(),
        FrameParams(window_ms=3.0, shift_ms=1.0, lpc_order=4, cepstral_order=6,
                    pre_emphasis=0.97),
        FrameParams(window_ms=25.0, shift_ms=10.0),        # a shift that does not divide
        FrameParams(window_ms=3.0, shift_ms=0.0625, lpc_order=4, cepstral_order=6),
        FrameParams(pre_emphasis=0.97)]))
    kinds = draw(st.lists(st.sampled_from(FRAME_KINDS), min_size=1, max_size=6))
    lengths = draw(st.lists(st.integers(40, 700), min_size=len(kinds), max_size=len(kinds)))
    seed = draw(st.integers(0, 2**32 - 1))
    samples = np.concatenate([_frame(kind, n, [seed, i])
                              for i, (kind, n) in enumerate(zip(kinds, lengths))])
    win = int(round(params.window_ms * 16))
    samples = np.concatenate([samples, np.zeros(max(0, win - samples.size))])
    return AudioClip(samples, 16000), params


def correlate_rows(clip: AudioClip, params: FrameParams) -> np.ndarray:
    """The clip's autocorrelation rows, one frame at a time with numpy's own
    correlation."""
    frames = frame_and_window(clip, params)
    n = frames.shape[1]
    return np.array([np.correlate(f, f, mode="full")[n - 1 : n + params.lpc_order]
                     for f in frames]).reshape(-1, params.lpc_order + 1)


def per_frame_lpcc(rows: np.ndarray, params: FrameParams):
    """The LPC and cepstrum stages one autocorrelation row at a time: the
    LPCC rows and the degenerate count."""
    out = np.zeros((rows.shape[0], params.cepstral_order))
    degenerate = 0
    for t, r in enumerate(rows):
        if r[0] <= SILENCE_THRESHOLD:
            degenerate += 1
            continue
        try:
            a, _ = levinson_durbin(r)
        except NumericError:
            degenerate += 1
            continue
        out[t] = lpc_to_lpcc(a, params.cepstral_order)
    return out, degenerate


class TestStackedFrontEnd:
    """Each stage runs once over a frame stack; every row must come out as the
    single-frame call (or the per-frame reference) gives it."""

    @settings(max_examples=200, deadline=None)
    @given(frame_stacks())
    def test_autocorrelation_matches_correlate(self, case):
        frames, p = case
        n = frames.shape[1]
        r = autocorrelate(frames, p)
        ref = np.array([np.correlate(f, f, mode="full")[n - 1 : n + p] for f in frames])
        # |r_k| <= r_0, so each row's energy sets its scale
        assert np.all(np.abs(r - ref) <= 1e-12 * ref[:, :1])

    @settings(max_examples=200, deadline=None)
    @given(lpc_inputs(), st.integers(1, 20))
    def test_rows_match_single_frame_calls(self, r, cepstral_order):
        a, energy = levinson_durbin(r)
        for t, row in enumerate(r):
            try:
                a1, e1 = levinson_durbin(row)
            except NumericError:
                assert np.all(np.isnan(a[t])) and np.isnan(energy[t])
                continue
            assert a[t].tobytes() == a1.tobytes()
            assert energy[t] == e1
        lpc = np.where(np.isnan(a), 0.0, a)
        c = lpc_to_lpcc(lpc, cepstral_order)
        for t in range(lpc.shape[0]):
            assert c[t].tobytes() == lpc_to_lpcc(lpc[t], cepstral_order).tobytes()

    # pure tones, whose near-singular Levinson-Durbin recursions magnify the
    # rounding of r past 1e-9 in the LPCC: the block path must still give,
    # bit for bit, what the per-frame stages give on its own rows
    @example((AudioClip(_frame("tone", 1443, [7, 0]), 16000), FrameParams()))
    @example((AudioClip(_frame("tone", 1422, [143, 0]), 16000), FrameParams(pre_emphasis=0.97)))
    @settings(max_examples=100, deadline=None)
    @given(mixed_clips())
    def test_extract_matches_per_frame_reference(self, case):
        clip, params = case
        seq = extract_features(clip, params)
        r, ref = clip_autocorrelation(clip, params), correlate_rows(clip, params)
        assert np.all(np.abs(r - ref) <= 1e-12 * ref[:, :1])
        lpcc, degenerate = per_frame_lpcc(r, params)
        assert seq.degenerate_frames == degenerate
        assert seq.frames.tobytes() == lpcc.tobytes()

    def test_failed_rows_leave_the_others_alone(self):
        rho = 0.9
        r = np.stack([rho ** np.arange(4), np.zeros(4), [1.0, 1.0, 1.0, 1.0]])
        a, energy = levinson_durbin(r)
        assert np.allclose(a[0], [-rho, 0, 0], atol=1e-12)
        assert energy[0] == pytest.approx(1 - rho**2)
        assert np.all(np.isnan(a[1:])) and np.all(np.isnan(energy[1:]))


class TestAutocorrelationMemory:
    """clip_autocorrelation builds no (frames, window) stack: its peak traced
    allocation stays below half that stack's bytes at the default geometry,
    and within 1.2 times them at a 1-sample shift, also when the window
    spans nearly the whole clip (few frames, many window blocks)."""

    @pytest.mark.parametrize("n_samples, params, share", [
        (48000, FrameParams(), 0.5),
        (4800, FrameParams(shift_ms=0.0625), 1.2),
        (4800, FrameParams(window_ms=290.0, shift_ms=0.0625), 1.2),
    ])
    def test_peak_stays_below_the_frame_stack(self, n_samples, params, share):
        samples = np.clip(np.random.default_rng(9).normal(0.0, 0.1, n_samples), -1.0, 1.0)
        clip = AudioClip(samples, 16000)
        win = int(round(params.window_ms * 16))
        shift = int(round(params.shift_ms * 16))
        stack_bytes = ((n_samples - win) // shift + 1) * win * 8
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            clip_autocorrelation(clip, params)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= share * stack_bytes, (peak, stack_bytes)


class TestLpccMemory:
    """lpcc_sequences on a block of 16 three-second clips (9,520 frames)
    holds little more than the arrays the recursions must hold at once: the
    order-major lags (p + 1, F), the coefficients (p, F) and the cepstra
    (Q, F). A second copy of the block's cepstra, such as a contiguous copy
    of the (F, Q) result, breaks the bound."""

    def test_peak_stays_near_the_working_arrays(self):
        params = FrameParams()
        rows = []
        for i in range(16):
            noise = np.random.default_rng([13, i]).normal(0.0, 0.05, 48000)
            samples = np.clip(np.convolve(noise, [1.0, 0.9, 0.5], mode="same"), -1.0, 1.0)
            samples[8000:12000] = 0.0
            rows.append(clip_autocorrelation(AudioClip(samples, 16000), params))
        n_frames = sum(len(r) for r in rows)
        assert n_frames == 9520
        p, q = params.lpc_order, params.cepstral_order
        working_bytes = (p + 1 + p + q) * n_frames * 8
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            seqs = lpcc_sequences(rows, params, [""] * len(rows))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert sum(seq.degenerate_frames for seq in seqs) > 0
        assert peak <= 1.2 * working_bytes, (peak, working_bytes)


class TestFeatureIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        seq = FeatureSequence(rng.normal(size=(7, 16)))
        path = tmp_path / "x.lpcc"
        save_features(seq, path)
        loaded = load_features(path)
        assert np.array_equal(seq.frames, loaded.frames)
        save_features(loaded, tmp_path / "y.lpcc")
        assert (tmp_path / "x.lpcc").read_bytes() == (tmp_path / "y.lpcc").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.lpcc"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(FormatError, match="magic"):
            load_features(path)

    def test_truncated(self, tmp_path):
        rng = np.random.default_rng(6)
        seq = FeatureSequence(rng.normal(size=(3, 4)))
        path = tmp_path / "t.lpcc"
        save_features(seq, path)
        (tmp_path / "cut.lpcc").write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="truncated"):
            load_features(tmp_path / "cut.lpcc")
