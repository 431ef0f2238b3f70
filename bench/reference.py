"""Independent reference computations for the benchmark's output checks.

Nothing here imports syllascore. The front end is computed directly from
the preprocessing contract in the project README (a windowed DFT written
as a matrix product instead of an FFT, the energy gate, log10, 8-frame
slicing), and the classifier forward from the architecture description in
the docstring of syllascore/nn.py (two LSTM layers with gates in the order
input, forget, cell candidate, output; tanh, logistic and hard-sigmoid
dense layers). Model files are parsed straight from their JSON document.

Tolerances (see README.md):

    FRONT_END_ATOL  largest difference allowed between a reference and a
                    program fragment value, in log10 units
    FORWARD_ATOL    largest difference allowed between a reference and a
                    program class-1 probability
"""

import json
import wave

import numpy as np

FRAME_LEN = 1024
N_BINS = FRAME_LEN // 2 + 1
FRAGMENT_FRAMES = 8

FRONT_END_ATOL = 1e-6
FORWARD_ATOL = 1e-5

_DFT = {}


def read_pcm16(path):
    """Samples of a 16-bit PCM mono WAV file, scaled by 1/32768."""
    with wave.open(str(path), "rb") as wav:
        if wav.getnchannels() != 1 or wav.getsampwidth() != 2:
            raise ValueError(f"{path}: not 16-bit mono PCM")
        raw = wav.readframes(wav.getnframes())
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0


def _dft_basis():
    if "basis" not in _DFT:
        n = np.arange(FRAME_LEN)[:, None]
        k = np.arange(N_BINS)[None, :]
        angle = 2.0 * np.pi * n * k / FRAME_LEN
        _DFT["basis"] = (np.cos(angle), np.sin(angle))
    return _DFT["basis"]


def _window(kind):
    n = np.arange(FRAME_LEN)
    if kind == "hann":
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / (FRAME_LEN - 1))
    if kind == "rect":
        return np.ones(FRAME_LEN)
    raise ValueError(f"unknown window {kind!r}")


def front_end(samples, dsp):
    """Fragments (K, 8, 513) of one recording under a model file's dsp settings."""
    hop = dsp["hop"]
    n_frames = (samples.size - FRAME_LEN) // hop + 1
    frames = np.stack([samples[t * hop : t * hop + FRAME_LEN] for t in range(n_frames)])
    frames = frames * _window(dsp["window"])
    cos, sin = _dft_basis()
    mags = np.sqrt((frames @ cos) ** 2 + (frames @ sin) ** 2)
    energy = np.sum(mags * mags, axis=1)
    if energy.max() > 0.0:
        mags = mags[energy >= dsp["gate_ratio"] * energy.max()]
    else:
        mags = mags[:0]
    if dsp["use_log"]:
        mags = np.log10(mags + dsp["log_floor"])
    starts = range(0, mags.shape[0] - FRAGMENT_FRAMES + 1, dsp["fragment_hop"])
    return np.array([mags[s : s + FRAGMENT_FRAMES] for s in starts]).reshape(-1, FRAGMENT_FRAMES, N_BINS)


def parse_model(path):
    """Named parameter arrays, standardization stats, dsp settings and meta."""
    doc = json.loads(open(path, encoding="utf-8").read())
    flat = np.frombuffer(bytes.fromhex(doc["parameters_hex"]), dtype="<f4").astype(np.float64)
    params = {}
    pos = 0
    for entry in doc["parameter_layout"]:
        name, dims = entry.split(":")
        shape = tuple(int(d) for d in dims.split("x"))
        size = int(np.prod(shape))
        params[name] = flat[pos : pos + size].reshape(shape)
        pos += size
    if pos != flat.size:
        raise ValueError(f"{path}: layout covers {pos} of {flat.size} parameters")
    stats = doc["standardize"]
    mean = std = None
    if stats is not None:
        mean, std = np.asarray(stats["mean"]), np.asarray(stats["std"])
    return {"params": params, "mean": mean, "std": std, "dsp": doc["dsp"], "meta": doc["train_meta"]}


def standardize(model, X):
    if model["mean"] is None:
        return X
    return (X - model["mean"]) / model["std"]


def _logistic(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _lstm(X, W, U, b):
    """Hidden-state sequence (B, T, H) of one LSTM layer."""
    batch, steps, _ = X.shape
    units = U.shape[0]
    gate = [slice(k * units, (k + 1) * units) for k in range(4)]
    h = np.zeros((batch, units))
    c = np.zeros((batch, units))
    out = np.zeros((batch, steps, units))
    for t in range(steps):
        x = X[:, t]
        i = _logistic(x @ W[:, gate[0]] + h @ U[:, gate[0]] + b[gate[0]])
        f = _logistic(x @ W[:, gate[1]] + h @ U[:, gate[1]] + b[gate[1]])
        g = np.tanh(x @ W[:, gate[2]] + h @ U[:, gate[2]] + b[gate[2]])
        o = _logistic(x @ W[:, gate[3]] + h @ U[:, gate[3]] + b[gate[3]])
        c = f * c + i * g
        h = o * np.tanh(c)
        out[:, t] = h
    return out


def forward(params, X):
    """Class-1 probability per fragment of a (B, steps, bins) stack."""
    p = params
    seq = _lstm(np.asarray(X, dtype=np.float64), p["lstm1.W"], p["lstm1.U"], p["lstm1.b"])
    last = _lstm(seq, p["lstm2.W"], p["lstm2.U"], p["lstm2.b"])[:, -1]
    a1 = np.tanh(last @ p["dense1.W"] + p["dense1.b"])
    a2 = _logistic(a1 @ p["dense2.W"] + p["dense2.b"])
    z = (a2 @ p["dense3.W"] + p["dense3.b"])[:, 0]
    return np.minimum(1.0, np.maximum(0.0, 0.2 * z + 0.5))


def compare(what, expected, actual, atol):
    """'' when the arrays agree within atol, else a one-line failure."""
    expected = np.asarray(expected, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if expected.shape != actual.shape:
        return f"{what}: shape {actual.shape} != reference {expected.shape}"
    if expected.size == 0:
        return ""
    worst = float(np.max(np.abs(expected - actual)))
    if not worst <= atol:
        return f"{what}: differs from the reference by {worst:.3g} (tolerance {atol:g})"
    return ""
