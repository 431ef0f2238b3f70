import numpy as np
import pytest

from syllascore import dsp
from syllascore.audio import SampleBuffer
from syllascore.dsp import (DspConfig, Spectrogram, gate_silence, log_compress,
                            pipeline, slice_fragments, stft_magnitude)
from syllascore.errors import TooShort

FS = 16000
RECT = DspConfig(window="rect")


def _buf(x):
    return SampleBuffer(np.asarray(x, dtype=np.float64), FS)


class TestConfig:
    def test_frame_len_is_fixed(self):
        with pytest.raises(ValueError):
            DspConfig(frame_len=512)

    @pytest.mark.parametrize("kwargs", [
        {"hop": 0}, {"hop": 2048}, {"window": "hamming"},
        {"gate_ratio": 0.0}, {"gate_ratio": 1.0}, {"log_floor": 0.0},
        {"fragment_hop": 0},
    ])
    def test_invalid_values(self, kwargs):
        with pytest.raises(ValueError):
            DspConfig(**kwargs)

    def test_dict_round_trip(self):
        cfg = DspConfig(hop=128, window="rect", use_log=False)
        assert DspConfig.from_dict(cfg.to_dict()) == cfg


class TestStft:
    def test_frame_count_formula(self):
        rng = np.random.default_rng(0)
        for hop in (64, 256, 1024):
            cfg = DspConfig(hop=hop)
            for n in (1024, 1025, 5000, 16000):
                spec = stft_magnitude(_buf(rng.normal(0, 0.1, n)), cfg)
                assert spec.n_frames == (n - 1024) // hop + 1

    def test_too_short(self):
        with pytest.raises(TooShort):
            stft_magnitude(_buf(np.zeros(1023)), DspConfig())

    def test_all_zero_frame(self):
        spec = stft_magnitude(_buf(np.zeros(1024)), DspConfig())
        assert spec.n_frames == 1
        assert np.all(spec.frames == 0.0)

    def test_impulse_has_flat_spectrum(self):
        x = np.zeros(1024)
        x[0] = 1.0
        spec = stft_magnitude(_buf(x), RECT)
        np.testing.assert_allclose(spec.frames[0], 1.0, rtol=1e-12)

    @pytest.mark.parametrize("k", [1, 64, 256, 511])
    def test_sine_at_bin_center(self, k):
        t = np.arange(4096)
        x = np.sin(2 * np.pi * k * t / 1024)
        spec = stft_magnitude(_buf(x), RECT)
        assert np.all(np.argmax(spec.frames, axis=1) == k)

    def test_parseval_rect(self):
        rng = np.random.default_rng(7)
        x = rng.normal(0, 0.3, 4000)
        cfg = DspConfig(window="rect", hop=256)
        spec = stft_magnitude(_buf(x), cfg)
        for t in range(spec.n_frames):
            seg = x[t * 256 : t * 256 + 1024]
            m = spec.frames[t]
            lhs = np.sum(seg * seg)
            rhs = (m[0] ** 2 + 2.0 * np.sum(m[1:512] ** 2) + m[512] ** 2) / 1024.0
            assert abs(lhs - rhs) / lhs < 1e-6

    def test_hann_matches_direct_fft(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0, 0.2, 1024)
        spec = stft_magnitude(_buf(x), DspConfig())
        expected = np.abs(np.fft.rfft(x * np.hanning(1024)))
        np.testing.assert_array_equal(spec.frames[0], expected)

    def test_windows_are_built_once_and_read_only(self):
        assert np.array_equal(dsp._WINDOWS[dsp.WINDOW_HANN], np.hanning(dsp.FRAME_LEN))
        assert np.array_equal(dsp._WINDOWS[dsp.WINDOW_RECT], np.ones(dsp.FRAME_LEN))
        for window in dsp._WINDOWS.values():
            with pytest.raises(ValueError, match="read-only"):
                window[0] = 0.5


class TestGate:
    def test_equal_energy_keeps_all(self):
        frames = np.full((5, 513), 0.3)
        out = gate_silence(Spectrogram(frames), DspConfig())
        assert np.array_equal(out.frames, frames)

    def test_zero_frame_dropped(self):
        frames = np.zeros((2, 513))
        frames[0] = 1.0
        out = gate_silence(Spectrogram(frames), DspConfig())
        assert out.n_frames == 1
        assert np.all(out.frames == 1.0)

    def test_all_zero_gates_to_empty(self):
        out = gate_silence(Spectrogram(np.zeros((4, 513))), DspConfig())
        assert out.n_frames == 0

    def test_order_preserved_and_idempotent(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            frames = rng.uniform(0, 1, (12, 513))
            frames[rng.integers(0, 12, 3)] *= 1e-4  # some quiet frames
            cfg = DspConfig(gate_ratio=1e-2)
            once = gate_silence(Spectrogram(frames), cfg)
            # surviving frames appear in original order
            energies = np.sum(frames**2, axis=1)
            kept = energies >= cfg.gate_ratio * energies.max()
            assert np.array_equal(once.frames, frames[kept])
            twice = gate_silence(once, cfg)
            assert np.array_equal(twice.frames, once.frames)


class TestLogCompress:
    def test_floor_and_unit(self):
        cfg = DspConfig()
        frames = np.array([[0.0] * 513, [1.0 - 1e-10] * 513])
        out = log_compress(Spectrogram(frames), cfg)
        np.testing.assert_allclose(out.frames[0], -10.0, atol=1e-12)
        np.testing.assert_allclose(out.frames[1], 0.0, atol=1e-12)

    def test_monotonic(self):
        rng = np.random.default_rng(2)
        a, b = np.sort(rng.uniform(0, 5, (2, 513)), axis=0)
        out = log_compress(Spectrogram(np.vstack([a, b])), DspConfig())
        assert np.all(out.frames[0] <= out.frames[1])
        strict = a < b
        assert np.all(out.frames[0][strict] < out.frames[1][strict])


class TestSliceFragments:
    def _spec(self, t):
        return Spectrogram(np.arange(t)[:, None] * np.ones((1, 513)))

    def test_two_non_overlapping(self):
        frags = slice_fragments(self._spec(16), DspConfig())
        assert len(frags) == 2
        np.testing.assert_array_equal(frags[0].values[:, 0], np.arange(8))
        np.testing.assert_array_equal(frags[1].values[:, 0], np.arange(8, 16))

    def test_below_minimum(self):
        assert slice_fragments(self._spec(7), DspConfig()) == []

    def test_overlapping_starts(self):
        frags = slice_fragments(self._spec(20), DspConfig(fragment_hop=4))
        assert len(frags) == 4
        assert [f.values[0, 0] for f in frags] == [0, 4, 8, 12]

    def test_count_formula_exhaustive(self):
        for hop in range(1, 11):
            cfg = DspConfig(fragment_hop=hop)
            for t in range(0, 101):
                expected = max(0, (t - 8) // hop + 1) if t >= 8 else 0
                assert len(slice_fragments(self._spec(t), cfg)) == expected


class TestPipeline:
    def test_one_second_vowel(self):
        # 16000 samples, hop 256: T = (16000 - 1024) // 256 + 1 = 59 frames;
        # non-overlapping slicing gives (59 - 8) // 8 + 1 = 7 fragments
        t = np.arange(FS) / FS
        x = 0.5 * np.sin(2 * np.pi * 220 * t) + 0.2 * np.sin(2 * np.pi * 700 * t)
        frags = pipeline(_buf(x), DspConfig())
        assert len(frags) == 7
        for f in frags:
            assert f.values.shape == (8, 513)
            assert np.all(np.isfinite(f.values))

    def test_silence_yields_nothing(self):
        assert pipeline(_buf(np.zeros(FS)), DspConfig()) == []

    def test_too_short_propagates(self):
        with pytest.raises(TooShort):
            pipeline(_buf(np.zeros(512)), DspConfig())

    def test_amplitude_scaling_shifts_log_entries(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 0.2, FS)
        cfg = DspConfig()
        base = pipeline(_buf(x), cfg)
        scaled = pipeline(_buf(0.25 * x), cfg)
        assert len(base) == len(scaled)
        for a, b in zip(base, scaled):
            # compare only entries well above the floor on both sides
            mask = (a.values > -6.0) & (b.values > -6.0)
            assert mask.any()
            np.testing.assert_allclose(b.values[mask] - a.values[mask],
                                       np.log10(0.25), atol=1e-6)

    def test_fuzzed_buffers_yield_valid_fragments(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(1024, 30000))
            x = rng.normal(0, rng.uniform(0.01, 0.5), n)
            for frag in pipeline(_buf(x), DspConfig()):
                assert frag.values.shape == (8, 513)
                assert np.all(np.isfinite(frag.values))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 0.2, 9000)
        a = pipeline(_buf(x), DspConfig())
        b = pipeline(_buf(x.copy()), DspConfig())
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.values, fb.values)
