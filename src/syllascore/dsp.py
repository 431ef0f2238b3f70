"""Spectrogram front end: turn a syllable recording into 8x513 fragments.

The classifier consumes fixed-size windows of a one-sided magnitude
spectrogram. The chain is

    stft_magnitude -> gate_silence -> log_compress -> slice_fragments

and `pipeline` composes the four stages. The 1024-sample frame is fixed
because it yields exactly 513 frequency bins; every other knob lives in
DspConfig and is stored inside trained model files so that scoring always
replays the training-time preprocessing.
"""

from dataclasses import asdict, dataclass, fields

import numpy as np

from .audio import SampleBuffer
from .errors import TooShort

FRAME_LEN = 1024
N_BINS = FRAME_LEN // 2 + 1  # 513
FRAGMENT_FRAMES = 8

WINDOW_HANN = "hann"
WINDOW_RECT = "rect"


@dataclass(frozen=True)
class DspConfig:
    """Preprocessing knobs. frame_len is fixed; the rest are configurable.

    gate_ratio is relative: a spectral frame survives when its energy is at
    least gate_ratio times the loudest frame's energy. log_floor is added
    before the log10 so silence maps to log10(log_floor). use_log=False
    keeps raw magnitudes (for ablation runs).
    """

    frame_len: int = FRAME_LEN
    hop: int = 256
    window: str = WINDOW_HANN
    gate_ratio: float = 1e-4
    log_floor: float = 1e-10
    fragment_hop: int = FRAGMENT_FRAMES
    use_log: bool = True

    def __post_init__(self):
        mistyped = [f.name for f in fields(self) if type(getattr(self, f.name)) is not f.type]
        if mistyped:  # a model file's 256.0 or "no" must not pass for 256 or False
            raise ValueError(f"mistyped DspConfig fields: {', '.join(mistyped)}")
        if self.frame_len != FRAME_LEN:
            raise ValueError(f"frame_len is fixed at {FRAME_LEN} (gives {N_BINS} bins)")
        if not 0 < self.hop <= self.frame_len:
            raise ValueError("hop must be in (0, frame_len]")
        if self.window not in (WINDOW_HANN, WINDOW_RECT):
            raise ValueError(f"unknown window {self.window!r}")
        if not 0.0 < self.gate_ratio < 1.0:
            raise ValueError("gate_ratio must be in (0, 1)")
        if not 0.0 < self.log_floor < np.inf:
            raise ValueError("log_floor must be positive and finite")
        if self.fragment_hop < 1:
            raise ValueError("fragment_hop must be >= 1")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


@dataclass(frozen=True)
class Spectrogram:
    """Time-frequency matrix, shape (T, 513). Magnitudes or log-magnitudes."""

    frames: np.ndarray

    def __post_init__(self):
        if self.frames.ndim != 2 or self.frames.shape[1] != N_BINS:
            raise ValueError(f"spectrogram must have {N_BINS} columns")

    @property
    def n_frames(self):
        return self.frames.shape[0]


@dataclass(frozen=True)
class Fragment:
    """One 8x513 network input."""

    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (FRAGMENT_FRAMES, N_BINS):
            raise ValueError(f"fragment must be {FRAGMENT_FRAMES}x{N_BINS}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("fragment contains non-finite values")


def _read_only(a):
    a.flags.writeable = False
    return a


_WINDOWS = {WINDOW_HANN: _read_only(np.hanning(FRAME_LEN)), WINDOW_RECT: _read_only(np.ones(FRAME_LEN))}  # built once


def stft_magnitude(buf: SampleBuffer, cfg: DspConfig) -> Spectrogram:
    """One-sided magnitude spectrogram with frames every cfg.hop samples.

    Frame t covers samples [t*hop, t*hop + 1024); a trailing partial frame
    is dropped, so T = floor((len - 1024) / hop) + 1.
    """
    x = np.asarray(buf.samples, dtype=np.float64)
    if x.size < cfg.frame_len:
        raise TooShort(f"signal of {x.size} samples is shorter than one {cfg.frame_len}-sample frame")
    frames = np.lib.stride_tricks.sliding_window_view(x, cfg.frame_len)[:: cfg.hop]
    mags = np.abs(np.fft.rfft(frames * _WINDOWS[cfg.window], axis=1))
    return Spectrogram(mags)


def gate_silence(spec: Spectrogram, cfg: DspConfig) -> Spectrogram:
    """Drop frames whose energy falls below gate_ratio times the loudest frame.

    An all-zero spectrogram gates to empty: with a peak energy of zero there
    is no signal anywhere, so every frame counts as below threshold.
    """
    if spec.n_frames == 0:
        raise ValueError("cannot gate an empty spectrogram")
    energy = np.sum(spec.frames**2, axis=1)
    peak = energy.max()
    if peak <= 0.0:
        keep = np.zeros(spec.n_frames, dtype=bool)
    else:
        keep = energy >= cfg.gate_ratio * peak
    return Spectrogram(spec.frames[keep])


def log_compress(spec: Spectrogram, cfg: DspConfig) -> Spectrogram:
    """Map each magnitude x to log10(x + log_floor)."""
    return Spectrogram(np.log10(spec.frames + cfg.log_floor))


def slice_fragments(spec: Spectrogram, cfg: DspConfig) -> list:
    """Cut 8-frame windows every fragment_hop frames; a short tail is dropped.

    Yields max(0, floor((T - 8) / fragment_hop) + 1) fragments for T >= 8,
    none otherwise.
    """
    return [Fragment(np.array(spec.frames[start : start + FRAGMENT_FRAMES], copy=True))
            for start in range(0, spec.n_frames - FRAGMENT_FRAMES + 1, cfg.fragment_hop)]


def pipeline(buf: SampleBuffer, cfg: DspConfig) -> list:
    """Full front end: STFT, silence gate, optional log compression, slicing.

    Returns an empty list when gating removes everything (pure silence) or
    too few frames remain for a single fragment; raises TooShort only when
    the raw signal cannot fill one analysis frame.
    """
    spec = gate_silence(stft_magnitude(buf, cfg), cfg)
    if cfg.use_log:
        spec = log_compress(spec, cfg)
    return slice_fragments(spec, cfg)
