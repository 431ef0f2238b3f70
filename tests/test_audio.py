import struct
import wave

import numpy as np
import pytest

from syllascore.audio import SampleBuffer, read_wav, write_wav
from syllascore.errors import AudioFormatError


def test_round_trip_preserves_samples(tmp_path):
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.8, 0.8, 4000)
    path = tmp_path / "t.wav"
    write_wav(path, SampleBuffer(x, 16000))
    back = read_wav(path)
    assert back.sample_rate_hz == 16000
    # 16-bit quantization plus the 32767/32768 write/read scale convention
    assert np.max(np.abs(back.samples - x)) < 2.0 / 32768


def test_write_is_deterministic(tmp_path):
    x = np.sin(np.linspace(0, 20, 3000))
    write_wav(tmp_path / "a.wav", SampleBuffer(x, 8000))
    write_wav(tmp_path / "b.wav", SampleBuffer(x, 8000))
    assert (tmp_path / "a.wav").read_bytes() == (tmp_path / "b.wav").read_bytes()


def test_rejects_stereo(tmp_path):
    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as w:
        w.setnchannels(2)
        w.setsampwidth(2)
        w.setframerate(16000)
        w.writeframes(b"\x00\x00" * 200)
    with pytest.raises(AudioFormatError, match="mono"):
        read_wav(path)


def test_rejects_8_bit(tmp_path):
    path = tmp_path / "8bit.wav"
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(1)
        w.setframerate(16000)
        w.writeframes(b"\x00" * 100)
    with pytest.raises(AudioFormatError, match="16-bit"):
        read_wav(path)


def test_rejects_rate_mismatch_instead_of_resampling(tmp_path):
    path = tmp_path / "r.wav"
    write_wav(path, SampleBuffer(np.zeros(100) + 0.1, 8000))
    with pytest.raises(AudioFormatError, match="8000"):
        read_wav(path, expected_rate_hz=16000)


def test_rejects_garbage(tmp_path):
    path = tmp_path / "x.wav"
    path.write_bytes(b"not a wav at all")
    with pytest.raises(AudioFormatError):
        read_wav(path)


def test_buffer_validation():
    with pytest.raises(AudioFormatError):
        SampleBuffer(np.array([]), 16000)
    with pytest.raises(AudioFormatError):
        SampleBuffer(np.array([0.0, np.nan]), 16000)
    with pytest.raises(AudioFormatError):
        SampleBuffer(np.zeros(10) + 0.5, 0)


def test_rejects_data_chunk_truncated_mid_sample(tmp_path):
    # hand-built RIFF: the data chunk declares 5 samples, the file ends 5 bytes in
    fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", 10) + b"\x01\x00\x02\x00\x03")
    path = tmp_path / "truncated.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises(AudioFormatError, match="truncated"):
        read_wav(path)
