"""The classifier: two stacked LSTM layers feeding three dense layers.

Everything is implemented directly on numpy arrays: forward pass,
backpropagation through time, binary cross-entropy, and Adam. No ML runtime
is involved, which keeps training bit-deterministic for a fixed seed and
BLAS thread count and makes the analytic gradients checkable against finite
differences.

Training keeps float64 master parameters and runs Adam in float64; each
step's gradient is computed in single precision over the float32 rounding of
the parameters and widened to float64 for the norm, the clip and Adam
(mixed precision, Micikevicius et al., arXiv:1710.03740). The public
backward runs in double precision. Every forward that reports probabilities
(training metrics, eval, score) runs in single precision over
the float32 rounding of the parameters, which is exactly what a model file
stores, so a trained model and its reloaded file give the same probabilities
bit for bit. train casts its two splits to float32 once and runs each
epoch's metrics through overlap, beside the next epoch's steps.

The LSTM routines are time-major, (steps, batch, .), so a step works on
contiguous blocks; forward_batch transposes each chunk inside its float32
cast, and train keeps its float32 splits as time-major blocks. The logistic
sigmoid is 0.5 tanh(z / 2) + 0.5, so one np.tanh activates a step's four
gates. Adam runs in Kingma & Ba's efficient form (adam_step).

All trainable parameters live in one flat float64 vector. Layout, in order:

    lstm1.W (input_dim, 4*H1)   lstm1.U (H1, 4*H1)   lstm1.b (4*H1,)
    lstm2.W (H1, 4*H2)          lstm2.U (H2, 4*H2)   lstm2.b (4*H2,)
    dense1.W (H2, D1)  dense1.b (D1,)
    dense2.W (D1, D2)  dense2.b (D2,)
    dense3.W (D2, 1)   dense3.b (1,)

LSTM kernels hold the four gates side by side along the last axis in the
order input, forget, cell candidate, output. The first LSTM layer emits its
full hidden-state sequence; the second only its last hidden state. Dense
activations are tanh, logistic sigmoid, and a hard sigmoid
min(1, max(0, 0.2 x + 0.5)) whose output is the class-membership
probability (1 = pre-operation reference class).
"""

import hashlib
import json
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial
from pathlib import Path
from typing import Optional

import numpy as np

from .dsp import DspConfig, FRAGMENT_FRAMES, N_BINS
from .errors import CorruptFile, DegenerateInput, EmptySplit, ShapeMismatch, VersionMismatch

BCE_EPS = 1e-7
PREDICT_THRESHOLD = 0.5  # p >= 0.5 predicts class 1
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults
F32_MAX = float(np.finfo(np.float32).max)  # parameters are stored in single precision
FORWARD_CHUNK = 512  # fragments per network pass inside forward_batch; bounds the LSTM state
# arrays of train's metrics and of an eval or score session over 512 fragments, and the
# float64 rows train converts to float32 at a time, the rows of each block of its splits
ADAM_BLOCK = 16384  # elements per adam_step pass: a block of each operand and work vector stays in cache
MODEL_FORMAT = "syllascore-model"
MODEL_FORMAT_VERSION = 1

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Architecture:
    """Layer dimensions of the LSTM -> dense stack."""

    input_steps: int = FRAGMENT_FRAMES
    input_dim: int = N_BINS
    lstm1_units: int = 128
    lstm2_units: int = 64
    dense1_units: int = 64
    dense2_units: int = 16
    output_units: int = 1

    def __post_init__(self):
        dims = (self.input_steps, self.input_dim, self.lstm1_units,
                self.lstm2_units, self.dense1_units, self.dense2_units, self.output_units)
        if any(type(d) is not int or d < 1 for d in dims):
            raise ValueError("all architecture dimensions must be integers >= 1")
        if self.output_units != 1:
            raise ValueError("the classifier has a single output unit")

    def layout(self):
        """Ordered (name, shape) pairs of every parameter block."""
        h1, h2 = self.lstm1_units, self.lstm2_units
        return [
            ("lstm1.W", (self.input_dim, 4 * h1)),
            ("lstm1.U", (h1, 4 * h1)),
            ("lstm1.b", (4 * h1,)),
            ("lstm2.W", (h1, 4 * h2)),
            ("lstm2.U", (h2, 4 * h2)),
            ("lstm2.b", (4 * h2,)),
            ("dense1.W", (h2, self.dense1_units)),
            ("dense1.b", (self.dense1_units,)),
            ("dense2.W", (self.dense1_units, self.dense2_units)),
            ("dense2.b", (self.dense2_units,)),
            ("dense3.W", (self.dense2_units, self.output_units)),
            ("dense3.b", (self.output_units,)),
        ]

    @cached_property
    def blocks(self):
        """(name, shape, span) of every parameter block in the flat vector, computed once."""
        blocks, pos = [], 0
        for name, shape in self.layout():
            blocks.append((name, shape, slice(pos, pos := pos + math.prod(shape))))
        return blocks

    @cached_property
    def param_count(self):
        return self.blocks[-1][2].stop


def _views(arch, flat):
    """Named array views into a flat parameter (or gradient) vector."""
    if flat.size != arch.param_count:
        raise ShapeMismatch(f"parameter vector has {flat.size} entries, layout needs {arch.param_count}")
    return {name: flat[span].reshape(shape) for name, shape, span in arch.blocks}


def init_params(arch, rng):
    """Glorot-uniform weight matrices, zero biases, LSTM forget-gate bias 1."""
    flat = np.zeros(arch.param_count)
    views = _views(arch, flat)
    for name, shape in arch.layout():
        if name.endswith(".b"):
            continue
        fan_in, fan_out = shape
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        views[name][...] = rng.uniform(-bound, bound, size=shape)
    for name, units in (("lstm1.b", arch.lstm1_units), ("lstm2.b", arch.lstm2_units)):
        views[name][units : 2 * units] = 1.0
    return flat


def hard_sigmoid(x):
    return np.clip(0.2 * np.asarray(x) + 0.5, 0.0, 1.0)


def _hard_sigmoid_grad(x):
    # derivative is 0.2 strictly inside the linear region, 0 at and beyond it; x's dtype
    return np.where((x > -2.5) & (x < 2.5), x.dtype.type(0.2), 0)


def _sigmoid(z):
    """Logistic sigmoid in its tanh form, 0.5 tanh(z / 2) + 0.5, in z's dtype."""
    return 0.5 * np.tanh(0.5 * z) + 0.5


def _lstm_forward(x_seq, W, U, b):
    """Run one LSTM layer over time-major (T, B, D) inputs; returns the (T, B, H) states and
    the cache (gates, cells): activated i/f/g/o gates (T, B, 4H), cell states (T, B, H).
    One np.tanh activates a step's gates: the sigmoid gates' pre-activations are halved
    (exactly), so scale * tanh + 1 - scale is _sigmoid on i, f, o and tanh on g."""
    T, B, D = x_seq.shape
    H = U.shape[0]
    scale = np.where(np.arange(4 * H) // H == 2, 1, 0.5).astype(x_seq.dtype)  # 1 on g only
    shift, U = 1 - scale, U * scale
    gates = (x_seq.reshape(T * B, D) @ W).reshape(T, B, 4 * H)  # every step's input projection
    gates += b
    gates *= scale
    states, cells = np.empty((T, B, H), x_seq.dtype), np.empty((T, B, H), x_seq.dtype)
    for t in range(T):
        z = gates[t]
        if t:
            z += states[t - 1] @ U
        np.tanh(z, out=z)
        z *= scale
        z += shift
        i, f, g, o = (z[:, k * H : (k + 1) * H] for k in range(4))
        c = np.multiply(i, g, out=cells[t])
        if t:
            c += f * cells[t - 1]
        np.tanh(c, out=states[t])
        states[t] *= o
    return states, (gates, cells)


def _lstm_backward(x_seq, states, cache, U, d_states, dW, dU, db):
    """Backpropagate through time over time-major arrays; accumulates into dW/dU/db and
    returns the (T, B, 4H) gradient dz at the gate pre-activations (the layer's input
    gradient is dz @ W.T). dz = [dc g i(1-i), dc c_prev f(1-f), dc i (1-g^2), dh tanh(c)
    o(1-o)]: every factor but dc and dh is computed once, so a step's dz is two products."""
    gates, cells = cache
    T, B, D = x_seq.shape
    H = U.shape[0]
    a = gates.reshape(T, B, 4, H)
    tc = np.tanh(cells)
    coef = (1 - a) * (a + (np.arange(4) == 2)[:, None])  # i(1-i), f(1-f), (1-g)(1+g), o(1-o)
    coef[:, :, 0] *= a[:, :, 2]
    coef[1:, :, 1] *= cells[:-1]
    coef[0, :, 1] = 0  # c_prev is 0 at the first step
    coef[:, :, 2] *= a[:, :, 0]
    coef[:, :, 3] *= tc
    o_dtanh = a[:, :, 3] * (1 - tc * tc)  # dc picks up dh o (1 - tanh(c)^2)
    dz = np.empty_like(gates)
    dz4 = dz.reshape(T, B, 4, H)
    dh, dc = d_states[T - 1], np.zeros((B, H), gates.dtype)
    for t in range(T - 1, -1, -1):
        dc += dh * o_dtanh[t]
        np.multiply(dc[:, None], coef[t, :, :3], out=dz4[t, :, :3])
        np.multiply(dh, coef[t, :, 3], out=dz4[t, :, 3])
        if t:
            dh = d_states[t - 1] + dz[t] @ U.T
            dc *= a[t, :, 1]
    dW += x_seq.reshape(T * B, D).T @ dz.reshape(T * B, 4 * H)
    dU += states[:-1].reshape((T - 1) * B, H).T @ dz[1:].reshape((T - 1) * B, 4 * H)
    db += dz.reshape(T * B, 4 * H).sum(axis=0)
    return dz


def _head(views, h_last):
    """The dense stack over LSTM-2's last hidden states: probabilities, plus the
    activations (a1, a2, z3) that backprop reads."""
    a1 = np.tanh(h_last @ views["dense1.W"] + views["dense1.b"])
    a2 = _sigmoid(a1 @ views["dense2.W"] + views["dense2.b"])
    z3 = (a2 @ views["dense3.W"] + views["dense3.b"])[:, 0]
    return hard_sigmoid(z3), (a1, a2, z3)


def _forward_full(views, X):
    """Probability head over a time-major (steps, B, input_dim) batch, plus what backprop reads."""
    states1, cache1 = _lstm_forward(X, views["lstm1.W"], views["lstm1.U"], views["lstm1.b"])
    states2, cache2 = _lstm_forward(states1, views["lstm2.W"], views["lstm2.U"], views["lstm2.b"])
    p, (a1, a2, z3) = _head(views, states2[-1])
    return p, (states1, cache1, states2, cache2, a1, a2, z3)


def _check_batch(arch, X, dtype=None):
    """X as an array (of dtype, if given) stacking (steps, input_dim) fragments."""
    X = np.asarray(X, dtype)
    if X.ndim != 3 or X.shape[1:] != (arch.input_steps, arch.input_dim):
        raise ShapeMismatch(
            f"expected fragments of shape ({arch.input_steps}, {arch.input_dim}), got {X.shape[1:]}"
        )
    return X


@dataclass
class Model:
    """Architecture plus trained parameters and the preprocessing they expect."""

    arch: Architecture
    params: np.ndarray
    dsp_config: DspConfig = field(default_factory=DspConfig)
    input_mean: Optional[np.ndarray] = None  # per-bin standardization, frozen at training
    input_std: Optional[np.ndarray] = None
    train_meta: Optional[dict] = None

    def __post_init__(self):
        if self.params.shape != (self.arch.param_count,):
            raise ShapeMismatch(
                f"parameter vector length {self.params.size} != {self.arch.param_count}"
            )
        if not np.all(np.isfinite(self.params)):
            raise ValueError("parameters contain non-finite values")
        if (self.input_mean is None) != (self.input_std is None):
            raise ValueError("input_mean and input_std must be given together")
        if self.input_mean is not None and not (
                all(s.shape == (self.arch.input_dim,) and np.all(np.isfinite(s))
                    for s in (self.input_mean, self.input_std))
                and np.all(self.input_std > 0)):
            raise ValueError(f"standardization needs {self.arch.input_dim} finite means and stds > 0")

    def standardize(self, X):
        """Apply the frozen training-time per-bin statistics, if any."""
        if self.input_mean is None:
            return X
        return (X - self.input_mean) / self.input_std


def forward_batch(model, X):
    """Vector of probabilities for a (N, steps, input_dim) fragment stack.

    The network runs in float32 over the float32 rounding of the parameters,
    the values a model file stores; the probabilities come back as float64.
    Float32 parameters are used as they are, not copied. Each chunk of
    FORWARD_CHUNK fragments is transposed to time-major inside its float32
    cast. Raises DegenerateInput if any probability is not finite.
    """
    X = _check_batch(model.arch, X)
    chunks = (X[start : start + FORWARD_CHUNK].transpose(1, 0, 2).astype(np.float32, order="C")
              for start in range(0, X.shape[0], FORWARD_CHUNK))
    return _forward_blocks(model, chunks)


@np.errstate(over="ignore", invalid="ignore")  # an overflow is caught by the explicit check below
def _forward_blocks(model, blocks):
    """Probabilities of the fragments of time-major float32 (steps, rows, input_dim)
    blocks, one network pass each, read as they are. Only each layer's states are kept,
    so a block's LSTM-1 cache is freed before LSTM-2 runs."""
    views = _views(model.arch, model.params.astype(np.float32, copy=False))
    out = [np.empty(0)]  # float64, so the concatenation widens the float32 probabilities
    for states in blocks:
        for layer in ("lstm1", "lstm2"):
            states = _lstm_forward(states, views[f"{layer}.W"], views[f"{layer}.U"], views[f"{layer}.b"])[0]
        out.append(_head(views, states[-1])[0])
    out = np.concatenate(out)
    bad = np.count_nonzero(~np.isfinite(out))
    if bad:
        raise DegenerateInput(f"{bad} of {out.size} probabilities are not finite: "
                              "the forward overflowed single precision (float32)")
    return out


def overlap(jobs):
    """Yield job() for each callable drawn from jobs, in order.

    Each job runs on one worker thread while the next job is drawn on the
    calling thread; BLAS and numpy's large loops release the GIL, so a
    generator that reads recordings or runs training steps overlaps the
    network. At most one job runs while one is drawn. Results and errors
    come out in the order of running in line: a job's exception comes out
    where its result would, and if drawing the next job raises, the job in
    flight is yielded first (or raises its own exception), then the draw's
    exception propagates. A job may run after the next one is drawn, so bind
    its arguments when it is created (functools.partial). No thread outlives
    the call.
    """
    jobs, running = iter(jobs), None
    with ThreadPoolExecutor(max_workers=1) as worker:
        while True:
            try:
                job = next(jobs)
            except StopIteration:
                break
            except Exception:
                if running is not None:
                    yield running.result()  # in line, it ran before the draw that failed
                raise
            done, running = running, worker.submit(job)
            if done is not None:
                yield done.result()
        if running is not None:
            yield running.result()


def bce_loss(p, y):
    """Elementwise binary cross-entropy, probabilities clamped to [1e-7, 1 - 1e-7].

    The clamp's edges are rounded to p's dtype: for float32 p (train's
    gradient step) the upper edge is float32(1 - 1e-7) = 1 - 2**-23.
    """
    pt = np.clip(p, BCE_EPS, 1.0 - BCE_EPS)
    return -(y * np.log(pt) + (1.0 - y) * np.log(1.0 - pt))


def _grad(arch, params, X, y):
    """Gradient of the mean batch loss w.r.t. every parameter, plus the loss.

    X is a time-major (steps, B, input_dim) batch. Runs in the dtype of params
    and X (float32 in train, float64 in backward), which the labels y must
    share. The backward always runs, so a step costs the same whatever the
    data: a batch in which no row reaches the loss (each has |z3| >= 2.5 or a
    clamped p) gets an exactly zero gradient from it.
    """
    B = X.shape[1]
    views = _views(arch, params)
    p, (states1, cache1, states2, cache2, a1, a2, z3) = _forward_full(views, X)
    loss = float(np.mean(bce_loss(p, y)))

    pt = np.clip(p, BCE_EPS, 1.0 - BCE_EPS)
    inside_clamp = (p > BCE_EPS) & (p < 1.0 - BCE_EPS)
    dp = np.where(inside_clamp, (pt - y) / (pt * (1.0 - pt)), 0) / B
    dz3 = dp * _hard_sigmoid_grad(z3)

    grad = np.zeros(arch.param_count, params.dtype)
    g = _views(arch, grad)

    g["dense3.W"] += a2.T @ dz3[:, None]
    g["dense3.b"] += dz3.sum(keepdims=True)
    da2 = dz3[:, None] @ views["dense3.W"].T
    dz2 = da2 * a2 * (1.0 - a2)
    g["dense2.W"] += a1.T @ dz2
    g["dense2.b"] += dz2.sum(axis=0)
    da1 = dz2 @ views["dense2.W"].T
    dz1 = da1 * (1.0 - a1 * a1)
    g["dense1.W"] += states2[-1].T @ dz1
    g["dense1.b"] += dz1.sum(axis=0)
    dh_last = dz1 @ views["dense1.W"].T

    d_states2 = np.zeros((arch.input_steps, B, arch.lstm2_units), params.dtype)
    d_states2[-1] = dh_last
    dz2 = _lstm_backward(states1, states2, cache2, views["lstm2.U"],
                         d_states2, g["lstm2.W"], g["lstm2.U"], g["lstm2.b"])
    d_states1 = (dz2.reshape(arch.input_steps * B, -1) @ views["lstm2.W"].T).reshape(states1.shape)
    _lstm_backward(X, states1, cache1, views["lstm1.U"],
                   d_states1, g["lstm1.W"], g["lstm1.U"], g["lstm1.b"])
    return grad, loss


def backward(model, X, y):
    """Gradient of the mean binary cross-entropy over a fragment batch."""
    X = _check_batch(model.arch, X, np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (X.shape[0],):
        raise ShapeMismatch("labels must be one per fragment")
    if X.shape[0] == 0:
        raise ShapeMismatch("batch must be non-empty")
    return _grad(model.arch, model.params, np.ascontiguousarray(X.transpose(1, 0, 2)), y)


@dataclass
class AdamState:
    """Step counter and moments, kept divided by (1 - beta1) and (1 - beta2):
    m <- beta1 m + g and v <- beta2 v + g^2."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adam_step(params, grads, state, lr=1e-3):
    """One Adam update with bias correction; mutates params and state.

    Kingma & Ba's efficient form (arXiv:1412.6980, section 2): params -= lr_t m /
    (sqrt(v) + eps_t), lr_t = lr sqrt(1 - beta2^t) / (1 - beta1^t), eps_t = eps
    sqrt(1 - beta2^t); over AdamState's scaled moments, lr_t takes a factor
    (1 - beta1) / sqrt(1 - beta2) and eps_t 1 / sqrt(1 - beta2). In place,
    ADAM_BLOCK elements at a time. Vectors are flat.
    """
    state.t += 1
    root = math.sqrt(1.0 - ADAM_BETA2**state.t)
    step = lr * root / (1.0 - ADAM_BETA1**state.t) * (1.0 - ADAM_BETA1) / math.sqrt(1.0 - ADAM_BETA2)
    eps = ADAM_EPS * root / math.sqrt(1.0 - ADAM_BETA2)
    work = np.empty(min(ADAM_BLOCK, params.size), params.dtype)
    for start in range(0, params.size, ADAM_BLOCK):
        span = slice(start, start + ADAM_BLOCK)
        p, g, m, v = params[span], grads[span], state.m[span], state.v[span]
        a = work[: p.size]
        m *= ADAM_BETA1
        m += g
        v *= ADAM_BETA2
        np.multiply(g, g, out=a)
        v += a
        np.sqrt(v, out=a)
        a += eps
        np.divide(m, a, out=a)
        a *= step
        p -= a
    return params, state


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 30
    seed: int = 0
    clip_norm: Optional[float] = 5.0  # None disables gradient clipping

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.clip_norm is not None and not 0 < self.clip_norm < np.inf:
            raise ValueError("clip_norm must be positive and finite, or None")


@dataclass
class TrainTrace:
    """Per-epoch loss and accuracy on the train and test splits."""

    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    test_loss: list[float] = field(default_factory=list)
    test_accuracy: list[float] = field(default_factory=list)

    def rows(self):
        return list(zip(self.train_loss, self.train_accuracy, self.test_loss, self.test_accuracy))


def accuracy(p, y):
    """Share of rows whose thresholded probability (p >= 0.5 -> class 1) is the label y."""
    return float(np.mean((p >= PREDICT_THRESHOLD) == (y == 1)))


def _epoch_metrics(epoch, snapshot, X_train, y_train, X_test, y_test):
    """An epoch's trace row, from _forward_blocks over each split at its parameters;
    a forward that overflows float32 raises DegenerateInput naming the epoch."""
    try:  # the forward refuses non-finite probabilities, so the losses are finite
        p_train, p_test = _forward_blocks(snapshot, X_train), _forward_blocks(snapshot, X_test)
    except DegenerateInput as exc:
        raise DegenerateInput(f"training diverged in epoch {epoch}: {exc}") from None
    return (float(bce_loss(p_train, y_train).mean()), accuracy(p_train, y_train),
            float(bce_loss(p_test, y_test).mean()), accuracy(p_test, y_test))


def _float32_blocks(X, rows, mean=None, std=None):
    """X's rows as time-major float32 (steps, rows, input_dim) blocks of FORWARD_CHUNK
    rows, the blocks _forward_blocks reads; standardized first in float64 if mean and
    std are given. One block at a time, so no float64 copy of all the rows exists."""
    blocks = []
    for start in range(0, len(rows), FORWARD_CHUNK):
        Z = X[rows[start : start + FORWARD_CHUNK]]
        if mean is not None:
            Z -= mean
            Z /= std
        blocks.append(Z.transpose(1, 0, 2).astype(np.float32, order="C"))
    return blocks


def _take(blocks, rows):
    """The given rows of a split's _float32_blocks, in order, as one time-major batch."""
    out = np.empty((blocks[0].shape[0], len(rows), blocks[0].shape[2]), np.float32)
    for k, block in enumerate(blocks):
        hit = np.flatnonzero(rows // FORWARD_CHUNK == k)
        out[:, hit] = block[:, rows[hit] - k * FORWARD_CHUNK]
    return out


@np.errstate(all="ignore")  # divergence is caught by the explicit checks below, not by warnings
def train(X, y, split, config, arch=None, dsp_config=None, standardize=False, extra_meta=None):
    """Train the classifier on the given split; fully seeded and deterministic.

    X is the raw fragment stack (N, steps, input_dim); y the binary labels.
    With standardize=True, per-bin mean/std are computed over the training
    fragments, applied everywhere, and frozen into the returned model.
    A non-finite batch loss or gradient norm, a parameter beyond float32
    range, or an epoch's metrics forward that overflows float32 raises
    DegenerateInput naming the epoch (and step). Each step's gradient is
    computed in float32 (see the module docstring). Logs one INFO line per
    epoch: its metrics and how many steps had an exactly zero gradient.

    The splits are cast to time-major float32 blocks once. An epoch's metrics
    are one job for overlap, _forward_blocks over each split at a float32
    snapshot of that epoch's final parameters, which runs while the next
    epoch's steps run.
    """
    arch = arch or Architecture()
    X = _check_batch(arch, X, np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (X.shape[0],):
        raise ShapeMismatch("labels must be one per fragment")
    dsp_config = dsp_config or DspConfig()

    train_idx = np.asarray(split.train_indices)
    test_idx = np.asarray(split.test_indices)
    y_train = y[train_idx]
    if np.unique(y_train).size < 2:
        raise DegenerateInput("training split must contain both classes")
    if test_idx.size == 0:
        raise EmptySplit("test split is empty")

    mean = std = None
    if standardize:
        flat = X[train_idx].reshape(-1, arch.input_dim)
        mean, std = flat.mean(axis=0), np.maximum(flat.std(axis=0), 1e-8)
        del flat
    X_train, X_test = (_float32_blocks(X, rows, mean, std) for rows in (train_idx, test_idx))
    del X  # only the float32 splits stay alive across the epochs
    y_test = y[test_idx]

    rng = np.random.default_rng(config.seed)
    params = init_params(arch, rng)
    state = AdamState(np.zeros_like(params), np.zeros_like(params))
    n_train = train_idx.size
    starts = range(0, n_train, config.batch_size)
    zero_steps = []  # per epoch; an epoch's steps run before the previous epoch's metrics are read

    def epochs():
        for epoch in range(1, config.epochs + 1):
            order = rng.permutation(n_train)
            zero_steps.append(0)
            for step, start in enumerate(starts, start=1):
                sel = order[start : start + config.batch_size]
                grad, loss = _grad(arch, params.astype(np.float32), _take(X_train, sel),
                                   y_train[sel].astype(np.float32))
                grad = grad.astype(np.float64)
                norm = float(np.linalg.norm(grad))
                if not (np.isfinite(loss) and np.isfinite(norm)):
                    raise DegenerateInput(f"training diverged at epoch {epoch}, step {step}: "
                                          f"batch loss {loss}, gradient norm {norm}")
                zero_steps[-1] += norm == 0.0
                if config.clip_norm is not None and norm > config.clip_norm:
                    grad *= config.clip_norm / norm
                adam_step(params, grad, state, lr=config.learning_rate)
            largest = float(max(params.max(), -params.min()))  # nan if any parameter is
            if not largest <= F32_MAX:
                raise DegenerateInput(f"training diverged in epoch {epoch}: largest parameter "
                                      f"{largest:.3g} (a model file holds at most {F32_MAX:.3g})")
            snapshot = Model(arch, params.astype(np.float32))  # the next adam_step mutates params in place
            yield partial(_epoch_metrics, epoch, snapshot, X_train, y_train, X_test, y_test)

    trace = TrainTrace()
    for epoch, row in enumerate(overlap(epochs()), start=1):
        for column, value in zip(vars(trace).values(), row):
            column.append(value)
        logger.info("epoch %d/%d: train loss %.6g accuracy %.3f, test loss %.6g accuracy %.3f, "
                    "%d of %d steps with a zero gradient", epoch, config.epochs, *row,
                    zero_steps[epoch - 1], len(starts))

    meta = {**asdict(config), "standardized": bool(standardize), "split_seed": int(split.seed),
            "n_train": int(n_train), "n_test": int(test_idx.size),
            **{f"final_{name}": values[-1] for name, values in vars(trace).items()}, **(extra_meta or {})}
    model = Model(arch, params, dsp_config, input_mean=mean, input_std=std, train_meta=meta)
    return model, trace


def _checksum(doc):
    payload = {k: v for k, v in doc.items() if k != "checksum_sha256"}
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def save_model(model, path):
    """Write the model as a self-describing JSON document.

    Parameters are stored in single precision as base-16 of the raw
    little-endian float32 bytes; loading returns exactly those float32
    values widened back to float64.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "architecture": asdict(model.arch),
        "parameter_layout": [f"{name}:{'x'.join(map(str, shape))}" for name, shape in model.arch.layout()],
        "parameters_hex": model.params.astype("<f4").tobytes().hex(),
        "dsp": model.dsp_config.to_dict(),
        "standardize": None
        if model.input_mean is None
        else {"mean": model.input_mean.tolist(), "std": model.input_std.tolist()},
        "train_meta": model.train_meta,
    }
    doc["checksum_sha256"] = _checksum(doc)
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


# The train_meta fields that eval reads back, with the values it can use.
_META_CHECKS = {
    "split_ratio": lambda v: type(v) is float and 0.0 < v < 1.0,
    "split_seed": lambda v: type(v) is int and v >= 0,
    "split_by": lambda v: v in ("fragment", "syllable"),
    "cohort": lambda v: type(v) is str,
}


def load_model(path):
    """Read a model file back; checksum and version are verified."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptFile(f"{path}: not a valid model document ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise CorruptFile(f"{path}: not a {MODEL_FORMAT} document")
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise VersionMismatch(
            f"{path}: format version {doc.get('format_version')} "
            f"(this build reads version {MODEL_FORMAT_VERSION})"
        )
    if doc.get("checksum_sha256") != _checksum(doc):
        raise CorruptFile(f"{path}: checksum mismatch")
    try:
        arch = Architecture(**doc["architecture"])
        params = np.frombuffer(bytes.fromhex(doc["parameters_hex"]), dtype="<f4").astype(np.float64)
        dsp_config = DspConfig.from_dict(doc["dsp"])
        stats = doc["standardize"]
        mean = std = None
        if stats is not None:
            if not all(type(v) in (int, float) for v in [*stats["mean"], *stats["std"]]):  # no bool, no str
                raise ValueError("standardization stats must be lists of json numbers")
            mean = np.asarray(stats["mean"], dtype=np.float64)
            std = np.asarray(stats["std"], dtype=np.float64)
        meta = doc["train_meta"]
        if meta is not None and not (isinstance(meta, dict) and
                                     all(ok(meta[k]) for k, ok in _META_CHECKS.items() if k in meta)):
            raise ValueError("train_meta is not an object of valid split settings")
        return Model(arch, params, dsp_config, input_mean=mean, input_std=std, train_meta=meta)
    except (KeyError, TypeError, ValueError, OverflowError, ShapeMismatch) as exc:
        raise CorruptFile(f"{path}: malformed field ({exc})") from exc
