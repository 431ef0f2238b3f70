"""WAV file I/O and the in-memory sample buffer.

Only one encoding is accepted: RIFF/WAVE, PCM 16-bit signed little-endian,
mono. Anything else raises AudioFormatError -- there is no silent resampling
or channel mixing anywhere in the pipeline.
"""

import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AudioFormatError

# 16-bit PCM full scale; reads divide by 32768, writes multiply by 32767 so
# that a [-1, 1] buffer can never overflow the sample width.
_READ_SCALE = 32768.0
_WRITE_SCALE = 32767.0


@dataclass(frozen=True)
class SampleBuffer:
    """Mono audio samples in [-1, 1] plus their sample rate."""

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise AudioFormatError("sample buffer must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.samples)):
            raise AudioFormatError("sample buffer contains non-finite values")
        if self.sample_rate_hz <= 0:
            raise AudioFormatError("sample rate must be positive")

    def __len__(self):
        return self.samples.size


def read_wav(path, expected_rate_hz=None):
    """Read a 16-bit PCM mono WAV file into a SampleBuffer.

    If expected_rate_hz is given, a differing file rate is an error rather
    than a resample.
    """
    path = Path(path)
    try:
        with wave.open(str(path), "rb") as wav:
            n_channels = wav.getnchannels()
            samp_width = wav.getsampwidth()
            rate = wav.getframerate()
            n_frames = wav.getnframes()
            raw = wav.readframes(n_frames)
    except (wave.Error, EOFError) as exc:
        raise AudioFormatError(f"{path}: not a readable PCM WAV file ({exc})") from exc
    except RuntimeError as exc:  # wave's seek past the end of the chunk that holds it
        raise AudioFormatError(f"{path}: a chunk size overstates the file") from exc
    if n_channels != 1:
        raise AudioFormatError(f"{path}: expected mono, got {n_channels} channels")
    if samp_width != 2:
        raise AudioFormatError(f"{path}: expected 16-bit samples, got {8 * samp_width}-bit")
    if expected_rate_hz is not None and rate != expected_rate_hz:
        raise AudioFormatError(
            f"{path}: sample rate {rate} Hz does not match declared {expected_rate_hz} Hz"
        )
    if n_frames == 0:
        raise AudioFormatError(f"{path}: file contains no samples")
    if len(raw) % samp_width:
        raise AudioFormatError(f"{path}: data chunk is truncated mid-sample ({len(raw)} bytes)")
    pcm = np.frombuffer(raw, dtype="<i2")
    return SampleBuffer(pcm.astype(np.float64) / _READ_SCALE, rate)


def write_wav(path, buf):
    """Write a SampleBuffer as 16-bit PCM mono WAV (deterministic bytes)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    pcm = np.clip(buf.samples, -1.0, 1.0) * _WRITE_SCALE
    pcm = np.round(pcm).astype("<i2")
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(buf.sample_rate_hz)
        wav.writeframes(pcm.tobytes())
