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
(forward_batch: training metrics, eval, score) runs in single precision over
the float32 rounding of the parameters, which is exactly what a model file
stores, so a trained model and its reloaded file give the same probabilities
bit for bit. train casts its two splits to float32 once, and runs each
epoch's metrics on one worker thread while the next epoch's steps run; each
is the forward_batch call it would be in line, so the bytes out are the same.

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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.special import expit

from .dsp import DspConfig, FRAGMENT_FRAMES, N_BINS
from .errors import CorruptFile, DegenerateInput, EmptySplit, ShapeMismatch, VersionMismatch

BCE_EPS = 1e-7
PREDICT_THRESHOLD = 0.5  # p >= 0.5 predicts class 1
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults
F32_MAX = float(np.finfo(np.float32).max)  # parameters are stored in single precision
FORWARD_CHUNK = 512  # fragments per network pass inside forward_batch; bounds the LSTM state
# arrays of train's metrics and of an eval or score session over 512 fragments, and the
# float64 rows train converts to float32 at a time
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

    @property
    def param_count(self):
        return sum(int(np.prod(shape)) for _, shape in self.layout())


def _views(arch, flat):
    """Named array views into a flat parameter (or gradient) vector."""
    out = {}
    pos = 0
    for name, shape in arch.layout():
        size = int(np.prod(shape))
        out[name] = flat[pos : pos + size].reshape(shape)
        pos += size
    if pos != flat.size:
        raise ShapeMismatch(f"parameter vector has {flat.size} entries, layout needs {pos}")
    return out


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


def _lstm_forward(x_seq, W, U, b):
    """Run one LSTM layer over (B, T, D) inputs; returns the (B, T, H) states and
    the cache (gates, cells): activated i/f/g/o gates (B, T, 4H), cell states (B, T, H)."""
    B, T, D = x_seq.shape
    H = U.shape[0]
    gates = (x_seq.reshape(B * T, D) @ W).reshape(B, T, 4 * H)  # every step's input projection
    states, cells = np.empty((B, T, H), x_seq.dtype), np.empty((B, T, H), x_seq.dtype)
    h = c = np.zeros((B, H), x_seq.dtype)
    for t in range(T):
        z = gates[:, t]
        z += h @ U
        z += b
        i, f, g, o = (z[:, k * H : (k + 1) * H] for k in range(4))
        expit(z[:, : 2 * H], out=z[:, : 2 * H])  # i and f
        np.tanh(g, out=g)
        expit(o, out=o)
        c = f * c + i * g
        cells[:, t] = c
        h = o * np.tanh(c)
        states[:, t] = h
    return states, (gates, cells)


def _lstm_backward(x_seq, states, cache, U, d_states, dW, dU, db):
    """Backpropagate through time; accumulates into dW/dU/db and returns the (B, T, 4H)
    gradient dz at the gate pre-activations. The layer's input gradient is dz @ W.T."""
    gates, cells = cache
    B, T, D = x_seq.shape
    H = U.shape[0]
    dz = np.empty_like(gates)
    dh_rec = dc = np.zeros((B, H), gates.dtype)
    for t in range(T - 1, -1, -1):
        i, f, g, o = (gates[:, t, k * H : (k + 1) * H] for k in range(4))
        c_prev = cells[:, t - 1] if t else 0.0
        tc = np.tanh(cells[:, t])
        dh = d_states[:, t] + dh_rec
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        dz[:, t, :H] = (dc * g) * i * (1.0 - i)
        dz[:, t, H : 2 * H] = (dc * c_prev) * f * (1.0 - f)
        dz[:, t, 2 * H : 3 * H] = (dc * i) * (1.0 - g * g)
        dz[:, t, 3 * H :] = do * o * (1.0 - o)
        dh_rec = dz[:, t] @ U.T
        dc = dc * f
    dW += x_seq.reshape(B * T, D).T @ dz.reshape(B * T, 4 * H)
    dU += states[:, :-1].reshape(B * (T - 1), H).T @ dz[:, 1:].reshape(B * (T - 1), 4 * H)
    db += dz.sum(axis=(0, 1))
    return dz


def _head(views, h_last):
    """The dense stack over LSTM-2's last hidden states: probabilities, plus the
    activations (a1, a2, z3) that backprop reads."""
    a1 = np.tanh(h_last @ views["dense1.W"] + views["dense1.b"])
    a2 = expit(a1 @ views["dense2.W"] + views["dense2.b"])
    z3 = (a2 @ views["dense3.W"] + views["dense3.b"])[:, 0]
    return hard_sigmoid(z3), (a1, a2, z3)


def _forward_full(views, X):
    """Probability head over a (B, steps, input_dim) batch, plus what backprop reads."""
    states1, cache1 = _lstm_forward(X, views["lstm1.W"], views["lstm1.U"], views["lstm1.b"])
    states2, cache2 = _lstm_forward(states1, views["lstm2.W"], views["lstm2.U"], views["lstm2.b"])
    p, (a1, a2, z3) = _head(views, states2[:, -1])
    return p, (states1, cache1, states2, cache2, a1, a2, z3)


def _check_batch(arch, X, keep_float32=False):
    """X as a C-contiguous float64 stack of (steps, input_dim) fragments; with
    keep_float32, a float32 X stays float32."""
    X = np.asarray(X)
    X = np.ascontiguousarray(X, np.float32 if keep_float32 and X.dtype == np.float32 else np.float64)
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


@np.errstate(over="ignore", invalid="ignore")  # an overflow is caught by the explicit check below
def forward_batch(model, X):
    """Vector of probabilities for a (N, steps, input_dim) fragment stack.

    The network runs in float32 over the float32 rounding of the parameters,
    the values a model file stores; the probabilities come back as float64.
    A float32 X, or float32 parameters, are used as they are, not copied.
    Only each layer's states are kept, so a chunk's input and LSTM-1's cache
    are freed before LSTM-2 runs. Raises DegenerateInput if any probability
    is not finite.
    """
    X = _check_batch(model.arch, X, keep_float32=True)
    views = _views(model.arch, model.params.astype(np.float32, copy=False))
    out = np.empty(X.shape[0])
    for start in range(0, X.shape[0], FORWARD_CHUNK):
        states = X[start : start + FORWARD_CHUNK].astype(np.float32, copy=False)
        for layer in ("lstm1", "lstm2"):
            states = _lstm_forward(states, views[f"{layer}.W"], views[f"{layer}.U"], views[f"{layer}.b"])[0]
        out[start : start + FORWARD_CHUNK], _ = _head(views, states[:, -1])
    bad = np.count_nonzero(~np.isfinite(out))
    if bad:
        raise DegenerateInput(f"{bad} of {out.size} probabilities are not finite: "
                              "the forward overflowed single precision (float32)")
    return out


def forward_stream(model, batches):
    """Yield forward_batch(model, X) for each array X of batches, in order.

    Each forward runs on one worker thread while the next X is drawn from
    batches on the calling thread; BLAS and numpy's large loops release the
    GIL, so a generator that reads and cuts recordings overlaps the network.
    At most one forward runs while one batch is drawn. If batches raises,
    the forward in flight finishes first and that exception propagates; a
    forward's own exception comes out where its result would. No thread
    outlives the call.
    """
    with ThreadPoolExecutor(max_workers=1) as worker:
        pending = None
        for X in batches:
            running = worker.submit(forward_batch, model, X)  # looked up now: wrappers and patches apply
            if pending is not None:
                yield pending.result()
            pending = running
        if pending is not None:
            yield pending.result()


def bce_loss(p, y):
    """Elementwise binary cross-entropy, probabilities clamped to [1e-7, 1 - 1e-7].

    The clamp's edges are rounded to p's dtype: for float32 p (train's
    gradient step) the upper edge is float32(1 - 1e-7) = 1 - 2**-23.
    """
    pt = np.clip(p, BCE_EPS, 1.0 - BCE_EPS)
    return -(y * np.log(pt) + (1.0 - y) * np.log(1.0 - pt))


def _grad(arch, params, X, y):
    """Gradient of the mean batch loss w.r.t. every parameter, plus the loss.

    Runs in the dtype of params and X (float32 in train, float64 in
    backward), which the labels y must share. The backward always runs, so a
    step costs the same whatever the data: a batch in which no row reaches
    the loss (each has |z3| >= 2.5 or a clamped p) gets an exactly zero
    gradient from it.
    """
    B = X.shape[0]
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
    g["dense1.W"] += states2[:, -1].T @ dz1
    g["dense1.b"] += dz1.sum(axis=0)
    dh_last = dz1 @ views["dense1.W"].T

    d_states2 = np.zeros((B, arch.input_steps, arch.lstm2_units), params.dtype)
    d_states2[:, -1] = dh_last
    dz2 = _lstm_backward(states1, states2, cache2, views["lstm2.U"],
                         d_states2, g["lstm2.W"], g["lstm2.U"], g["lstm2.b"])
    d_states1 = (dz2.reshape(B * arch.input_steps, -1) @ views["lstm2.W"].T).reshape(states1.shape)
    _lstm_backward(X, states1, cache1, views["lstm1.U"],
                   d_states1, g["lstm1.W"], g["lstm1.U"], g["lstm1.b"])
    return grad, loss


def backward(model, X, y):
    """Gradient of the mean binary cross-entropy over a fragment batch."""
    X = _check_batch(model.arch, X)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (X.shape[0],):
        raise ShapeMismatch("labels must be one per fragment")
    if X.shape[0] == 0:
        raise ShapeMismatch("batch must be non-empty")
    return _grad(model.arch, model.params, X, y)


@dataclass
class AdamState:
    """First/second moment accumulators plus the step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adam_step(params, grads, state, lr=1e-3):
    """One Adam update with bias correction; mutates params and state.

    params -= lr * m_hat / (sqrt(v_hat) + eps), with m_hat = m / (1 - beta1^t)
    and v_hat = v / (1 - beta2^t), computed in place, ADAM_BLOCK elements at a
    time, in two block-sized work vectors: each operation takes the same
    operands in the same order as that formula. Vectors are flat.
    """
    state.t += 1
    m_scale, v_scale = 1.0 - ADAM_BETA1**state.t, 1.0 - ADAM_BETA2**state.t
    work_a, work_b = np.empty((2, min(ADAM_BLOCK, params.size)), params.dtype)
    for start in range(0, params.size, ADAM_BLOCK):
        span = slice(start, start + ADAM_BLOCK)
        p, g, m, v = params[span], grads[span], state.m[span], state.v[span]
        a, b = work_a[: p.size], work_b[: p.size]
        np.multiply(g, 1.0 - ADAM_BETA1, out=a)
        m *= ADAM_BETA1
        m += a
        np.multiply(g, 1.0 - ADAM_BETA2, out=a)
        a *= g
        v *= ADAM_BETA2
        v += a
        np.divide(v, v_scale, out=a)  # v_hat
        np.sqrt(a, out=a)
        a += ADAM_EPS
        np.divide(m, m_scale, out=b)  # m_hat
        b *= lr
        b /= a
        p -= b
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


def _metrics(p, y):
    return float(bce_loss(p, y).mean()), accuracy(p, y)


def _float32_rows(X, rows, mean=None, std=None):
    """X's rows as one float32 stack, standardized first in float64 if mean and std
    are given. FORWARD_CHUNK rows at a time, so no float64 copy of all the rows exists."""
    out = np.empty((len(rows), *X.shape[1:]), np.float32)
    for start in range(0, len(rows), FORWARD_CHUNK):
        Z = X[rows[start : start + FORWARD_CHUNK]]
        if mean is not None:
            Z -= mean
            Z /= std
        out[start : start + FORWARD_CHUNK] = Z
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

    The splits are cast to float32 once. An epoch's metrics are forward_batch
    over each split at a float32 snapshot of that epoch's final parameters;
    they run on one worker thread, which lives only for the call, while the
    next epoch's steps run. They are collected in epoch order, each before the
    next epoch's are submitted and before a later epoch's divergence is
    raised, so the trace, the log lines and the error are those of running
    them in line.
    """
    arch = arch or Architecture()
    X = _check_batch(arch, X)
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
    X_train, X_test = (_float32_rows(X, rows, mean, std) for rows in (train_idx, test_idx))
    del X  # only the float32 splits stay alive across the epochs
    y_test = y[test_idx]

    rng = np.random.default_rng(config.seed)
    params = init_params(arch, rng)
    state = AdamState(np.zeros_like(params), np.zeros_like(params))
    trace = TrainTrace()

    def collect(epoch, zero_steps, steps, train_forward, test_forward):
        try:  # forward_batch refuses non-finite probabilities, so the losses are finite
            p_train, p_test = train_forward.result(), test_forward.result()
        except DegenerateInput as exc:
            raise DegenerateInput(f"training diverged in epoch {epoch}: {exc}") from None
        train_loss, train_acc = _metrics(p_train, y_train)
        test_loss, test_acc = _metrics(p_test, y_test)
        trace.train_loss.append(train_loss)
        trace.train_accuracy.append(train_acc)
        trace.test_loss.append(test_loss)
        trace.test_accuracy.append(test_acc)
        logger.info("epoch %d/%d: train loss %.6g accuracy %.3f, test loss %.6g accuracy %.3f, "
                    "%d of %d steps with a zero gradient", epoch, config.epochs, train_loss, train_acc,
                    test_loss, test_acc, zero_steps, steps)

    n_train = X_train.shape[0]
    pending = None  # the previous epoch's collect arguments, its forwards in flight
    with ThreadPoolExecutor(max_workers=1) as worker:
        for epoch in range(1, config.epochs + 1):
            order = rng.permutation(n_train)
            zero_steps = 0
            try:
                for step, start in enumerate(range(0, n_train, config.batch_size), start=1):
                    sel = order[start : start + config.batch_size]
                    grad, loss = _grad(arch, params.astype(np.float32), X_train[sel],
                                       y_train[sel].astype(np.float32))
                    grad = grad.astype(np.float64)
                    norm = float(np.linalg.norm(grad))
                    if not (np.isfinite(loss) and np.isfinite(norm)):
                        raise DegenerateInput(f"training diverged at epoch {epoch}, step {step}: "
                                              f"batch loss {loss}, gradient norm {norm}")
                    zero_steps += norm == 0.0
                    if config.clip_norm is not None and norm > config.clip_norm:
                        grad *= config.clip_norm / norm
                    adam_step(params, grad, state, lr=config.learning_rate)
                largest = float(max(params.max(), -params.min()))  # nan if any parameter is
                if not largest <= F32_MAX:
                    raise DegenerateInput(f"training diverged in epoch {epoch}: largest parameter "
                                          f"{largest:.3g} (a model file holds at most {F32_MAX:.3g})")
            except DegenerateInput:
                if pending is not None:  # in line, the previous epoch's metrics ran before this epoch
                    collect(*pending)
                raise
            snapshot = Model(arch, params.astype(np.float32))  # the next adam_step mutates params in place
            if pending is not None:
                collect(*pending)
            pending = (epoch, zero_steps, step, worker.submit(forward_batch, snapshot, X_train),
                       worker.submit(forward_batch, snapshot, X_test))  # looked up now: wrappers apply
        collect(*pending)

    meta = {**asdict(config), "standardized": bool(standardize), "split_seed": int(split.seed),
            "n_train": int(n_train), "n_test": int(X_test.shape[0]),
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
