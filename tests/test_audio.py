import struct
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_chunk_size_overstating_the_file(tmp_path):
    path = tmp_path / "t.wav"
    write_wav(path, SampleBuffer(np.zeros(100) + 0.1, 16000))
    data = bytearray(path.read_bytes())
    data[16:20] = struct.pack("<I", 0xFFFFFFF0)  # the fmt chunk's size field
    path.write_bytes(bytes(data))
    with pytest.raises(AudioFormatError, match="overstates"):
        read_wav(path)


@pytest.fixture(scope="module")
def wav_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("wav")


# A 444-byte canonical file: offsets of its chunk ids and of its 32-bit size fields.
CHUNK_IDS = (0, 8, 12, 36)  # RIFF, WAVE, fmt , data
CHUNK_SIZES = (4, 16, 40)  # RIFF, fmt , data
IDS = (st.sampled_from([b"RIFF", b"WAVE", b"fmt ", b"data", b"LIST", b"RIFX"])
       | st.binary(min_size=4, max_size=4))
SIZES = (st.sampled_from([0, 1, 2, 15, 16, 17, 399, 400, 401, 0x7FFFFFFF, 0xFFFFFFF0])
         | st.integers(0, 2**32 - 1))
MUTATIONS = st.lists(st.tuples(st.sampled_from(CHUNK_IDS), IDS)
                     | st.tuples(st.sampled_from(CHUNK_SIZES), SIZES.map(lambda n: struct.pack("<I", n))),
                     min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(mutations=MUTATIONS)
def test_mutated_chunk_headers_raise_only_audio_format_error(wav_dir, mutations):
    path = wav_dir / "t.wav"
    write_wav(path, SampleBuffer(np.sin(np.arange(200) / 5.0) / 2, 16000))
    data = bytearray(path.read_bytes())
    for offset, field in mutations:
        data[offset:offset + 4] = field
    path.write_bytes(bytes(data))
    try:
        read_wav(path)
    except AudioFormatError:
        pass
