import json
import math
import threading
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from syllascore import corpus, dsp, nn, synth
from syllascore.audio import SampleBuffer
from syllascore.dataset import SplitAssignment, split_fragments
from syllascore.errors import (CorruptFile, DegenerateInput, ShapeMismatch,
                               SyllascoreError, VersionMismatch)
from test_cli import JSON_VALUES

TINY = nn.Architecture(input_steps=4, input_dim=2, lstm1_units=3, lstm2_units=3,
                       dense1_units=2, dense2_units=2, output_units=1)


def _random_model(arch, seed, jitter=0.0):
    rng = np.random.default_rng(seed)
    params = nn.init_params(arch, rng)
    if jitter:
        params += rng.normal(0.0, jitter, params.size)
    return nn.Model(arch, params)


# |forward_batch - float64 forward| over the same parameters, the bench's
# reference tolerance. Measured: 4.1e-8 on random inputs; on the acceptance
# corpus 7.5e-7 for its model and 1.9e-7 for a --standardize one.
F32_AGREEMENT = 1e-5


def _loss_of(arch, params, X, y):
    """The float64 loss that _grad differentiates (forward_batch runs in float32)."""
    p, _ = nn._forward_full(nn._views(arch, params), X.transpose(1, 0, 2))
    return float(np.mean([nn.bce_loss(pi, yi) for pi, yi in zip(p, y)]))


def fd_gradient(arch, params, X, y, step=1e-5, indices=None):
    """Central finite differences over the given parameter indices (default: all)."""
    indices = range(params.size) if indices is None else indices
    num = np.zeros(len(indices))
    for n, i in enumerate(indices):
        up = params.copy()
        up[i] += step
        down = params.copy()
        down[i] -= step
        num[n] = (_loss_of(arch, up, X, y) - _loss_of(arch, down, X, y)) / (2 * step)
    return num


def max_rel_error(analytic, numeric, abs_floor=1e-9):
    """Worst per-parameter relative disagreement.

    Differences below abs_floor count as exact agreement: a central
    difference with step 1e-5 bottoms out around 1e-11 absolute, so for
    near-zero gradients the relative error is pure round-off.
    """
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    rel = np.where(diff <= abs_floor, 0.0, diff / scale)
    return float(np.max(rel))


class TestArchitecture:
    def test_parameter_count_closed_form(self):
        arch = nn.Architecture()
        assert arch.param_count == 383_329
        # per-block closed forms
        sizes = dict((name, int(np.prod(shape))) for name, shape in arch.layout())
        assert sizes["lstm1.W"] + sizes["lstm1.U"] + sizes["lstm1.b"] == 4 * (513 + 128 + 1) * 128
        assert sizes["lstm2.W"] + sizes["lstm2.U"] + sizes["lstm2.b"] == 4 * (128 + 64 + 1) * 64
        dense = sum(sizes[k] for k in sizes if k.startswith("dense"))
        assert dense == (64 + 1) * 64 + (64 + 1) * 16 + (16 + 1) * 1

    def test_dims_validated(self):
        with pytest.raises(ValueError):
            nn.Architecture(lstm1_units=0)
        with pytest.raises(ValueError):
            nn.Architecture(output_units=2)

    def test_model_rejects_wrong_vector(self):
        with pytest.raises(ShapeMismatch):
            nn.Model(TINY, np.zeros(TINY.param_count + 1))
        bad = np.zeros(TINY.param_count)
        bad[0] = np.inf
        with pytest.raises(ValueError):
            nn.Model(TINY, bad)


class TestForward:
    def test_zero_parameters_fixed_point(self):
        # every gate sigmoid(0) = 0.5 but the candidate tanh(0) = 0 keeps
        # c = h = 0; dense stack stays 0; hard_sigmoid(0) = 0.5
        model = nn.Model(TINY, np.zeros(TINY.param_count))
        rng = np.random.default_rng(0)
        for _ in range(5):
            frag = rng.normal(0, 3, (4, 2))
            assert nn.forward_batch(model, frag[None])[0] == 0.5

    def test_scalar_chain_hand_computed(self):
        arch = nn.Architecture(input_steps=1, input_dim=1, lstm1_units=1,
                               lstm2_units=1, dense1_units=1, dense2_units=1)
        params, X = np.ones(arch.param_count), np.array([[[1.0]]])
        got = nn._forward_full(nn._views(arch, params), X)[0][0]

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        # lstm1: all gate pre-activations are 1 (weight 1, h0 = c0 = 0, bias 1)
        z = 1.0 + 1.0  # Wx + b
        c1 = sig(z) * math.tanh(z)
        h1 = sig(z) * math.tanh(c1)
        # lstm2 consumes h1, bias 1 again
        z2 = h1 + 1.0
        c2 = sig(z2) * math.tanh(z2)
        h2 = sig(z2) * math.tanh(c2)
        d1 = math.tanh(h2 + 1.0)
        d2 = sig(d1 + 1.0)
        expected = min(1.0, max(0.0, 0.2 * (d2 + 1.0) + 0.5))
        assert got == pytest.approx(expected, rel=1e-12)
        assert nn.forward_batch(nn.Model(arch, params), X)[0] == pytest.approx(expected, abs=F32_AGREEMENT)

    def test_scalar_chain_zero_bias(self):
        arch = nn.Architecture(input_steps=1, input_dim=1, lstm1_units=1,
                               lstm2_units=1, dense1_units=1, dense2_units=1)
        params = np.ones(arch.param_count)
        views = nn._views(arch, params)
        for name in ("lstm1.b", "lstm2.b", "dense1.b", "dense2.b", "dense3.b"):
            views[name][...] = 0.0
        X = np.array([[[1.0]]])
        got = nn._forward_full(views, X)[0][0]

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        h1 = sig(1.0) * math.tanh(sig(1.0) * math.tanh(1.0))
        h2 = sig(h1) * math.tanh(sig(h1) * math.tanh(h1))
        expected = 0.2 * sig(math.tanh(h2)) + 0.5
        assert got == pytest.approx(expected, rel=1e-12)
        assert nn.forward_batch(nn.Model(arch, params), X)[0] == pytest.approx(expected, abs=F32_AGREEMENT)

    def test_output_range_fuzz(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            model = _random_model(TINY, trial, jitter=rng.uniform(0, 2))
            X = rng.normal(0, rng.uniform(0.1, 10), (25, 4, 2))
            p = nn.forward_batch(model, X)
            assert np.all(p >= 0.0) and np.all(p <= 1.0)
            assert np.all(np.isfinite(p))

    def test_shape_mismatch(self):
        model = nn.Model(TINY, np.zeros(TINY.param_count))
        with pytest.raises(ShapeMismatch):
            nn.forward_batch(model, np.zeros((5, 2))[None])
        with pytest.raises(ShapeMismatch):
            nn.forward_batch(model, np.zeros((3, 4, 3)))


class TestSigmoid:
    def test_tanh_form_is_the_logistic_sigmoid(self):
        # measured: 2.2e-16 in float64, 1.19e-7 (one float32 step near 1) in float32
        x = np.linspace(-40.0, 40.0, 200_001)
        assert np.max(np.abs(nn._sigmoid(x) - expit(x))) <= 2.3e-16
        x32 = x.astype(np.float32)
        assert nn._sigmoid(x32).dtype == np.float32
        assert np.max(np.abs(nn._sigmoid(x32).astype(np.float64) - expit(x32))) <= 1.2e-7

    def test_lstm_gates_are_the_sigmoid_and_tanh_of_their_preactivations(self):
        # halving the sigmoid gates' pre-activations before the one tanh is exact
        rng = np.random.default_rng(23)
        T, B, D, H = 3, 5, 4, 2
        X, W, U, b = (rng.normal(0.0, 2.0, shape).astype(np.float32)
                      for shape in ((T, B, D), (D, 4 * H), (H, 4 * H), (4 * H,)))
        states, (gates, cells) = nn._lstm_forward(X, W, U, b)
        h = c = np.zeros((B, H), np.float32)
        for t in range(T):
            z = X[t] @ W + b + h @ U
            act = np.concatenate([nn._sigmoid(z[:, : 2 * H]), np.tanh(z[:, 2 * H : 3 * H]),
                                  nn._sigmoid(z[:, 3 * H :])], axis=1)
            i, f, g, o = np.split(act, 4, axis=1)
            c = i * g + f * c
            h = np.tanh(c) * o
            assert np.array_equal(gates[t], act) and np.array_equal(cells[t], c) and np.array_equal(states[t], h)


class TestSinglePrecisionForward:
    def test_agrees_with_the_float64_forward_on_random_inputs(self):
        arch = nn.Architecture()
        rng = np.random.default_rng(15)
        params = nn.init_params(arch, rng) + rng.normal(0.0, 0.05, arch.param_count)
        X = rng.normal(0.0, 1.0, (64, arch.input_steps, arch.input_dim))
        exact, _ = nn._forward_full(nn._views(arch, params), X.transpose(1, 0, 2))
        assert np.max(np.abs(nn.forward_batch(nn.Model(arch, params), X) - exact)) <= F32_AGREEMENT

    def test_lstm_layer_keeps_float32(self):
        # a default-dtype allocation would promote the whole recurrence to float64
        rng = np.random.default_rng(16)
        H, D = 3, 2
        X, W, U, b = (rng.normal(0.0, 0.5, shape).astype(np.float32)
                      for shape in ((4, 2, D), (D, 4 * H), (H, 4 * H), (4 * H,)))
        states, (gates, cells) = nn._lstm_forward(X, W, U, b)
        assert states.dtype == gates.dtype == cells.dtype == np.float32

    def test_forward_batch_hands_the_network_float32(self, monkeypatch):
        lstm, head, seen = nn._lstm_forward, nn._head, []

        def recorded_lstm(x_seq, W, U, b):
            assert x_seq.flags.c_contiguous
            seen.append(("lstm", x_seq.shape[1], {a.dtype for a in (x_seq, W, U, b)}))
            return lstm(x_seq, W, U, b)

        def recorded_head(views, h_last):
            seen.append(("head", len(h_last), {h_last.dtype, *(v.dtype for v in views.values())}))
            return head(views, h_last)

        monkeypatch.setattr(nn, "_lstm_forward", recorded_lstm)
        monkeypatch.setattr(nn, "_head", recorded_head)
        model = _random_model(TINY, 17, jitter=0.3)
        p = nn.forward_batch(model, np.zeros((nn.FORWARD_CHUNK + 3, 4, 2)))  # batch-major in, time-major on
        single = {np.dtype(np.float32)}
        assert seen == [(kind, rows, single) for rows in (nn.FORWARD_CHUNK, 3)  # a full chunk, then the tail
                        for kind in ("lstm", "lstm", "head")]
        assert p.dtype == np.float64

    def test_forward_batch_is_the_full_forward_bit_for_bit(self):
        # forward_batch keeps only each layer's states; _forward_full keeps every cache
        arch = nn.Architecture()
        rng = np.random.default_rng(19)
        model = _random_model(arch, 19, jitter=0.05)
        X = rng.normal(0.0, 1.0, (40, arch.input_steps, arch.input_dim))
        full, _ = nn._forward_full(nn._views(arch, model.params.astype(np.float32)),
                                   X.transpose(1, 0, 2).astype(np.float32))
        assert np.array_equal(nn.forward_batch(model, X), full.astype(np.float64))

    def test_float32_stack_is_taken_as_it_is(self, monkeypatch):
        # train hands the forward its time-major float32 split blocks: same probabilities, no copy
        lstm, inputs = nn._lstm_forward, []

        def recorded_lstm(x_seq, W, U, b):
            inputs.append(x_seq)
            return lstm(x_seq, W, U, b)

        model = _random_model(TINY, 20, jitter=0.3)
        X = np.random.default_rng(20).normal(0.0, 1.0, (nn.FORWARD_CHUNK + 3, 4, 2))
        blocks = nn._float32_blocks(X, np.arange(len(X)))
        expected = nn.forward_batch(model, X)
        monkeypatch.setattr(nn, "_lstm_forward", recorded_lstm)
        assert np.array_equal(nn._forward_blocks(model, blocks), expected)
        assert [x_seq.shape[1] for x_seq in inputs[::2]] == [nn.FORWARD_CHUNK, 3]
        assert all(x_seq is block for x_seq, block in zip(inputs[::2], blocks, strict=True))  # each LSTM-1 input
        with pytest.raises(ShapeMismatch):
            nn.forward_batch(model, np.zeros((3, 4, 3), np.float32))

    @pytest.mark.filterwarnings("error")
    def test_single_precision_overflow_raises_degenerate_input(self):
        # parameters this large are storable, but the float32 forward overflows
        arch = nn.Architecture()  # sums over 513 inputs: TINY's two never overflow
        rng = np.random.default_rng(18)
        model = nn.Model(arch, rng.uniform(-1.0, 1.0, arch.param_count) * 1e37)
        X = rng.normal(0.0, 1.0, (5, arch.input_steps, arch.input_dim)) * 3
        exact, _ = nn._forward_full(nn._views(arch, model.params), X.transpose(1, 0, 2))
        assert np.all(np.isfinite(exact))
        with pytest.raises(DegenerateInput, match="single precision"):
            nn.forward_batch(model, X)


@pytest.fixture(scope="module")
def hard_training(tmp_path_factory):
    """A trained model and its reloaded file, on a small cut of the hard corpus
    (formants 20 Hz apart, 0.5 dB/octave tilt, SNR 12-15 dB), standardized."""
    root = tmp_path_factory.mktemp("hard")
    spec = synth.SynthSpec(n_patients=1, syllables_per_set=6, duration_s=0.5, formant_shift_hz=20.0,
                           tilt_db_per_octave=0.5, snr_clean_db=15.0, snr_worst_db=12.0,
                           articulation_spread=0.4, seed=3)
    X, y, _ = corpus.collect_training_fragments(synth.generate_corpus(spec, root), dsp.DspConfig())
    split = split_fragments(len(y), y, ratio=0.8, seed=1)
    trained, _ = nn.train(X, y, split, nn.TrainConfig(epochs=3, seed=1), standardize=True)
    nn.save_model(trained, root / "model.json")
    return X, y, split, trained, nn.load_model(root / "model.json")


class TestTrainedModelIsItsFile:
    def test_same_probabilities_bit_for_bit(self, hard_training):
        X, _, _, trained, loaded = hard_training
        assert np.array_equal(nn.forward_batch(trained, trained.standardize(X)),
                              nn.forward_batch(loaded, loaded.standardize(X)))

    def test_train_meta_holds_the_saved_models_metrics(self, hard_training):
        X, y, split, _, loaded = hard_training
        for side, indices in (("train", split.train_indices), ("test", split.test_indices)):
            p = nn.forward_batch(loaded, loaded.standardize(X[indices]))
            assert loaded.train_meta[f"final_{side}_loss"] == float(nn.bce_loss(p, y[indices]).mean())
            correct = (p >= nn.PREDICT_THRESHOLD) == (y[indices] == 1.0)
            assert loaded.train_meta[f"final_{side}_accuracy"] == float(correct.mean())


class TestBceLoss:
    def test_values(self):
        assert nn.bce_loss(1.0, 1) == pytest.approx(-math.log(1 - 1e-7), rel=1e-12)
        assert nn.bce_loss(0.5, 1) == pytest.approx(math.log(2), rel=1e-12)
        assert nn.bce_loss(0.0, 1) == pytest.approx(-math.log(1e-7), rel=1e-12)
        assert nn.bce_loss(0.0, 1) == pytest.approx(16.118, abs=5e-3)
        assert nn.bce_loss(0.0, 0) == pytest.approx(-math.log(1 - 1e-7), rel=1e-12)
        np.testing.assert_array_equal(nn.bce_loss(np.array([1.0, 0.5, 0.0]), np.array([1, 1, 0])),
                                      [nn.bce_loss(1.0, 1), nn.bce_loss(0.5, 1), nn.bce_loss(0.0, 0)])


class TestAdam:
    def test_first_step_hand_value(self):
        params = np.array([0.0])
        state = nn.AdamState(np.zeros(1), np.zeros(1))
        nn.adam_step(params, np.array([1.0]), state)
        assert params[0] == pytest.approx(-1e-3 / (1.0 + 1e-8), rel=1e-12)
        assert state.t == 1

    def test_zero_gradient_moves_nothing(self):
        params = np.array([1.5])
        state = nn.AdamState(np.zeros(1), np.zeros(1))
        nn.adam_step(params, np.array([0.0]), state)
        assert params[0] == 1.5

    def test_matches_scalar_reference(self):
        # independent plain-float re-implementation of the recurrence
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        theta, m, v = 0.3, 0.0, 0.0
        g = 0.7
        for t in range(1, 6):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
        params = np.array([0.3])
        state = nn.AdamState(np.zeros(1), np.zeros(1))
        for _ in range(5):
            nn.adam_step(params, np.array([g]), state)
        assert params[0] == pytest.approx(theta, abs=1e-12)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])  # train's operands, and float64 callers'
    def test_in_place_step_is_the_formula_bit_for_bit(self, dtype):
        def formula(params, grads, state, lr):
            # Kingma & Ba's efficient form over the moments scaled by 1 / (1 - beta)
            state.t += 1
            state.m *= nn.ADAM_BETA1
            state.m += grads
            state.v *= nn.ADAM_BETA2
            state.v += grads * grads
            root = math.sqrt(1.0 - nn.ADAM_BETA2**state.t)
            step = lr * root / (1.0 - nn.ADAM_BETA1**state.t) * (1.0 - nn.ADAM_BETA1) / math.sqrt(1.0 - nn.ADAM_BETA2)
            eps = nn.ADAM_EPS * root / math.sqrt(1.0 - nn.ADAM_BETA2)
            params -= state.m / (np.sqrt(state.v) + eps) * step

        rng = np.random.default_rng(21)
        # within one block, exactly one block, and three blocks with a ragged tail
        for n in (10_000, nn.ADAM_BLOCK, 3 * nn.ADAM_BLOCK + 7):
            params = rng.normal(0.0, 0.1, n).astype(dtype)
            expected = params.copy()
            state, expected_state = (nn.AdamState(np.zeros(n, dtype), np.zeros(n, dtype)) for _ in range(2))
            for _ in range(50):
                grads = (rng.normal(0.0, 1.0, n) * rng.uniform(1e-4, 1.0)).astype(dtype)
                grads *= min(1.0, nn.TrainConfig.clip_norm / np.linalg.norm(grads))  # as train clips them
                kept = grads.copy()
                formula(expected, grads, expected_state, 1e-3)
                nn.adam_step(params, grads, state, lr=1e-3)
                assert np.array_equal(grads, kept)
            assert state.t == expected_state.t == 50
            for actual, wanted in ((params, expected), (state.m, expected_state.m), (state.v, expected_state.v)):
                assert actual.dtype == dtype and np.array_equal(actual, wanted)


def _planned_job(k, fails):
    if fails:
        raise KeyError(f"job {k}")
    return k


class TestOverlap:
    def test_same_results_in_order_through_the_module_global(self, monkeypatch):
        model = _random_model(TINY, 3, jitter=0.3)
        rng = np.random.default_rng(4)
        batches = [rng.normal(0.0, 1.0, (k, 4, 2)) for k in (5, 1, 7, 3)]
        forward, calls = nn.forward_batch, []
        monkeypatch.setattr(nn, "forward_batch",
                            lambda m, X: calls.append((len(X), threading.current_thread())) or forward(m, X))
        before = threading.active_count()
        results = list(nn.overlap(partial(nn.forward_batch, model, X) for X in batches))
        assert threading.active_count() == before
        assert [n for n, _ in calls] == [5, 1, 7, 3]
        assert threading.main_thread() not in {thread for _, thread in calls}  # each ran on the worker
        assert all(np.array_equal(p, forward(model, X)) for p, X in zip(results, batches, strict=True))
        assert list(nn.overlap(iter([]))) == []

    def test_the_next_job_is_drawn_while_a_job_runs(self):
        drawn = threading.Event()

        def jobs():
            yield partial(drawn.wait, 10)  # True only if the next draw happens while it waits
            drawn.set()
            yield partial(str, "second")

        assert list(nn.overlap(jobs())) == [True, "second"]

    def test_the_job_in_flight_is_yielded_before_the_draws_exception(self):
        model = _random_model(TINY, 3)
        good = np.zeros((2, 4, 2))

        def jobs():
            yield partial(nn.forward_batch, model, good)
            raise ValueError("second draw")

        seen = []
        before = threading.active_count()
        with pytest.raises(ValueError, match="second draw"):
            for p in nn.overlap(jobs()):
                seen.append(p)
        assert threading.active_count() == before
        assert len(seen) == 1 and np.array_equal(seen[0], nn.forward_batch(model, good))

    def test_a_failing_job_in_flight_raises_its_own_exception_before_the_draws(self):
        model = _random_model(TINY, 3)
        good = np.zeros((2, 4, 2))

        def jobs():
            yield partial(nn.forward_batch, model, good)
            yield partial(nn.forward_batch, model, np.zeros((2, 4, 3)))  # raises ShapeMismatch
            raise ValueError("third draw")

        seen = []
        before = threading.active_count()
        with pytest.raises(ShapeMismatch):
            for p in nn.overlap(jobs()):
                seen.append(p)
        assert threading.active_count() == before
        assert len(seen) == 1

    def test_a_jobs_exception_comes_out_at_its_result(self):
        model = _random_model(TINY, 3)
        good, bad = np.zeros((2, 4, 2)), np.zeros((2, 4, 3))
        seen = []
        before = threading.active_count()
        with pytest.raises(ShapeMismatch):
            for p in nn.overlap(partial(nn.forward_batch, model, X) for X in (good, bad, good)):
                seen.append(p)
        assert threading.active_count() == before
        assert len(seen) == 1

    @settings(max_examples=60, deadline=None)
    @given(plan=st.lists(st.sampled_from(["ok", "job fails", "draw fails"]), max_size=6))
    def test_results_and_exceptions_are_those_of_running_in_line(self, plan):
        def jobs():
            for k, step in enumerate(plan):
                if step == "draw fails":
                    raise ValueError(f"draw {k}")
                yield partial(_planned_job, k, step == "job fails")

        def outcome(results):
            seen = []
            try:
                for result in results:
                    seen.append(result)
            except (KeyError, ValueError) as exc:
                return seen, repr(exc)
            return seen, None

        before = threading.active_count()
        assert outcome(nn.overlap(jobs())) == outcome(job() for job in jobs())
        assert threading.active_count() == before

    def test_abandoned_overlap_leaves_no_thread(self):
        model = _random_model(TINY, 3)
        before = threading.active_count()
        stream = nn.overlap(partial(nn.forward_batch, model, np.zeros((1, 4, 2))) for _ in range(5))
        next(stream)
        stream.close()
        assert threading.active_count() == before


class TestBackward:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        model = _random_model(TINY, 11, jitter=0.05)
        X = rng.normal(0, 1, (3, 4, 2))
        y = np.array([1.0, 0.0, 1.0])
        grad, loss = nn.backward(model, X, y)
        assert loss > 0
        numeric = fd_gradient(TINY, model.params, X, y)
        assert max_rel_error(grad, numeric) < 1e-4

    def test_single_lstm_layer_gradient(self):
        # isolate one LSTM layer: loss = sum of all emitted hidden states
        rng = np.random.default_rng(12)
        H, D, T, B = 3, 2, 4, 2
        W = rng.normal(0, 0.4, (D, 4 * H))
        U = rng.normal(0, 0.4, (H, 4 * H))
        b = rng.normal(0, 0.2, 4 * H)
        X = rng.normal(0, 1, (T, B, D))  # time-major, as every LSTM routine

        states, cache = nn._lstm_forward(X, W, U, b)
        dW, dU, db = np.zeros_like(W), np.zeros_like(U), np.zeros_like(b)
        dz = nn._lstm_backward(X, states, cache, U, np.ones_like(states), dW, dU, db)
        dX = dz @ W.T  # the input gradient _grad hands from LSTM-2 down to LSTM-1

        def loss(Wv, Uv, bv):
            s, _ = nn._lstm_forward(X, Wv, Uv, bv)
            return float(s.sum())

        step = 1e-6
        for target, grad in ((W, dW), (U, dU), (b, db), (X, dX)):
            it = np.nditer(target, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = target[idx]
                target[idx] = orig + step
                up = loss(W, U, b)
                target[idx] = orig - step
                down = loss(W, U, b)
                target[idx] = orig
                numeric = (up - down) / (2 * step)
                assert abs(grad[idx] - numeric) <= 1e-4 * max(1.0, abs(numeric))

    def test_spot_gradients_at_default_architecture(self):
        # TINY never exercises the T*B reshapes or the states[:-1] / dz[1:]
        # pairing at real sizes: check a few entries of every block at 8x513
        arch = nn.Architecture()
        rng = np.random.default_rng(14)
        model = _random_model(arch, 14, jitter=0.05)
        X = rng.normal(0, 1, (2, arch.input_steps, arch.input_dim))
        y = np.array([1.0, 0.0])
        grad, _ = nn.backward(model, X, y)
        picks, pos = [], 0
        for _, shape in arch.layout():
            size = int(np.prod(shape))
            picks.extend(pos + rng.choice(size, min(3, size), replace=False))
            pos += size
        numeric = fd_gradient(arch, model.params, X, y, indices=picks)
        assert max_rel_error(grad[picks], numeric) < 1e-4

    def test_zero_model_balanced_batch_symmetry(self):
        model = nn.Model(TINY, np.zeros(TINY.param_count))
        rng = np.random.default_rng(2)
        X = rng.normal(0, 1, (2, 4, 2))
        y = np.array([0.0, 1.0])
        bias_slice = slice(TINY.param_count - 1, TINY.param_count)  # dense3.b is last
        g0, _ = nn.backward(model, X[:1], y[:1])
        g1, _ = nn.backward(model, X[1:], y[1:])
        assert g0[bias_slice] == pytest.approx(-g1[bias_slice], rel=1e-12)
        g, _ = nn.backward(model, X, y)
        assert g[bias_slice] == pytest.approx(0.0, abs=1e-15)

    def test_saturated_output_has_zero_gradient(self):
        params = np.zeros(TINY.param_count)
        views = nn._views(TINY, params)
        views["dense3.b"][...] = 50.0  # pins hard_sigmoid at 1
        model = nn.Model(TINY, params)
        X = np.random.default_rng(3).normal(0, 1, (2, 4, 2))
        assert nn.forward_batch(model, X[:1])[0] == 1.0
        grad, loss = nn.backward(model, X, np.array([1.0, 0.0]))
        assert np.all(grad == 0.0)
        assert loss > 0

    def test_empty_batch_rejected(self):
        model = nn.Model(TINY, np.zeros(TINY.param_count))
        with pytest.raises(ShapeMismatch):
            nn.backward(model, np.zeros((0, 4, 2)), np.zeros(0))


# ||float32 _grad - float64 _grad|| / ||float64 _grad|| at one float32-rounded
# point. Measured: 1.8e-7 to 4.5e-7 on random default-architecture batches.
F32_GRADIENT_AGREEMENT = 1e-5


class TestSinglePrecisionGradient:
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 32))
    def test_agrees_with_the_float64_gradient(self, seed, batch):
        arch = nn.Architecture()
        rng = np.random.default_rng(seed)
        params = (nn.init_params(arch, rng) + rng.normal(0.0, 0.05, arch.param_count)).astype(np.float32)
        X = rng.normal(0.0, 1.0, (arch.input_steps, batch, arch.input_dim)).astype(np.float32)  # time-major
        y = rng.integers(0, 2, batch).astype(np.float32)
        single, _ = nn._grad(arch, params, X, y)
        double, _ = nn._grad(arch, params.astype(np.float64), X.astype(np.float64), y.astype(np.float64))
        assert single.dtype == np.float32
        assert np.linalg.norm(double) > 0
        rel = np.linalg.norm(single.astype(np.float64) - double) / np.linalg.norm(double)
        assert rel <= F32_GRADIENT_AGREEMENT

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_all_saturated_batch_runs_the_backward_to_a_zero_gradient(self, monkeypatch, dtype):
        # the backward runs on every batch, so a training step's cost does not depend on the data
        backward, calls = nn._lstm_backward, []

        def counted(*args):
            calls.append(args[0].dtype)
            return backward(*args)

        monkeypatch.setattr(nn, "_lstm_backward", counted)
        rng = np.random.default_rng(22)
        X = rng.normal(0, 1, (4, 3, 2)).astype(dtype)  # time-major: 3 rows of 4 steps
        y = np.array([1.0, 0.0, 1.0], dtype)
        params = _random_model(TINY, 22, jitter=0.3).params.astype(dtype)
        live, _ = nn._grad(TINY, params, X, y)
        assert calls == [dtype, dtype] and np.any(live != 0.0)  # LSTM-2, then LSTM-1
        calls.clear()
        nn._views(TINY, params)["dense3.b"][...] = 50.0  # every row's hard sigmoid pinned at 1
        grad, loss = nn._grad(TINY, params, X, y)
        assert calls == [dtype, dtype]
        assert grad.dtype == dtype and grad.shape == (TINY.param_count,) and not np.any(grad)
        assert loss > 0


def _toy_corpus(rng, n=60):
    """Linearly separable fragments: class means +-1 on bin 0, tiny noise."""
    X = rng.normal(0, 0.05, (n, 8, 513))
    y = np.zeros(n)
    y[: n // 2] = 1.0
    X[: n // 2, :, 0] += 1.0
    X[n // 2 :, :, 0] -= 1.0
    perm = rng.permutation(n)
    return X[perm], y[perm]


class TestTrain:
    def test_learns_separable_toy_data(self):
        rng = np.random.default_rng(4)
        X, y = _toy_corpus(rng)
        split = split_fragments(len(y), y, ratio=0.8, seed=4)
        config = nn.TrainConfig(epochs=10, seed=4)
        model, trace = nn.train(X, y, split, config)
        assert len(trace.train_loss) == 10
        assert max(trace.test_accuracy) >= 0.95
        assert trace.train_loss[-1] < trace.train_loss[0]

    def test_same_seed_bit_identical(self):
        rng = np.random.default_rng(5)
        X, y = _toy_corpus(rng, n=24)
        split = split_fragments(len(y), y, ratio=0.8, seed=5)
        config = nn.TrainConfig(epochs=2, seed=5)
        m1, t1 = nn.train(X, y, split, config)
        m2, t2 = nn.train(X, y, split, config)
        assert np.array_equal(m1.params, m2.params)
        assert t1.rows() == t2.rows()

    @pytest.mark.parametrize("standardize", [False, True])
    def test_each_trace_row_is_a_shorter_runs_final_forward(self, standardize):
        # epochs 1..k of a 3-epoch run are a k-epoch run at the same seed, so row k
        # must be the metrics of forward_batch over the k-epoch model, computed here
        # in line on the calling thread
        rng = np.random.default_rng(12)
        X, y = _toy_corpus(rng, n=40)
        split = split_fragments(len(y), y, ratio=0.8, seed=12)
        before = threading.active_count()
        _, trace = nn.train(X, y, split, nn.TrainConfig(epochs=3, batch_size=8, seed=12), standardize=standardize)
        assert threading.active_count() == before
        for k in (1, 2, 3):
            model, shorter = nn.train(X, y, split, nn.TrainConfig(epochs=k, batch_size=8, seed=12),
                                      standardize=standardize)
            assert shorter.rows() == trace.rows()[:k]
            row = []
            for rows in (split.train_indices, split.test_indices):
                p = nn.forward_batch(model, model.standardize(X[rows]))
                row += [float(nn.bce_loss(p, y[rows]).mean()), nn.accuracy(p, y[rows])]
            assert trace.rows()[k - 1] == tuple(row)

    def test_float32_splits_are_the_standardized_rows_cast_once(self, monkeypatch):
        monkeypatch.setattr(nn, "FORWARD_CHUNK", 3)  # several blocks and a ragged tail
        rng = np.random.default_rng(14)
        X = rng.normal(0.0, 2.0, (11, 4, 2))
        rows = rng.permutation(11)[:8]
        mean, std = rng.normal(0.0, 1.0, 2), rng.uniform(0.5, 2.0, 2)
        for stats, expected in (((), X[rows]), ((mean, std), (X[rows] - mean) / std)):
            blocks = nn._float32_blocks(X, rows, *stats)
            assert [block.shape[1] for block in blocks] == [3, 3, 2]
            assert all(block.dtype == np.float32 and block.flags.c_contiguous for block in blocks)
            split = np.concatenate(blocks, axis=1)
            assert np.array_equal(split, expected.transpose(1, 0, 2).astype(np.float32))
            batch = rng.permutation(8)[:5]
            assert np.array_equal(nn._take(blocks, batch), split[:, batch])

    @pytest.mark.parametrize("metrics_fail", [True, False])
    @pytest.mark.filterwarnings("error")
    def test_an_epochs_metrics_fail_before_a_later_epochs_step(self, monkeypatch, caplog, metrics_fail):
        # epoch 2's first step runs while epoch 1's metrics are in flight; without
        # the overlap epoch 1's metrics would have stopped training first
        forward, grad, grads = nn._forward_blocks, nn._grad, []

        def failing_forward(model, blocks):
            if metrics_fail:
                raise DegenerateInput("3 of 19 probabilities are not finite")
            return forward(model, blocks)

        def diverging_grad(arch, params, X, y):
            grads.append(len(X))
            g, loss = grad(arch, params, X, y)
            return g, (np.inf if len(grads) == 2 else loss)  # 19 rows: one step per epoch

        monkeypatch.setattr(nn, "_forward_blocks", failing_forward)
        monkeypatch.setattr(nn, "_grad", diverging_grad)
        rng = np.random.default_rng(13)
        X, y = _toy_corpus(rng, n=24)
        split = split_fragments(len(y), y, ratio=0.8, seed=13)
        before = threading.active_count()
        wanted = "in epoch 1: 3 of 19" if metrics_fail else "at epoch 2, step 1: batch loss inf"
        with caplog.at_level("INFO", logger="syllascore.nn"), pytest.raises(DegenerateInput, match=wanted):
            nn.train(X, y, split, nn.TrainConfig(epochs=3, seed=13))
        assert threading.active_count() == before
        assert len(grads) == 2
        lines = [r.getMessage().split(":")[0] for r in caplog.records if r.name == "syllascore.nn"]
        assert lines == ([] if metrics_fail else ["epoch 1/3"])

    def test_one_class_training_split_rejected(self):
        rng = np.random.default_rng(6)
        X, y = _toy_corpus(rng, n=20)
        ones = np.flatnonzero(y == 1)
        zeros = np.flatnonzero(y == 0)
        split = SplitAssignment(ones, zeros, seed=0)
        with pytest.raises(DegenerateInput):
            nn.train(X, y, split, nn.TrainConfig(epochs=1, seed=0))

    def test_standardization_stats_frozen(self):
        rng = np.random.default_rng(7)
        X, y = _toy_corpus(rng, n=24)
        split = split_fragments(len(y), y, ratio=0.8, seed=7)
        model, _ = nn.train(X, y, split, nn.TrainConfig(epochs=1, seed=7), standardize=True)
        assert model.input_mean.shape == (513,)
        assert model.input_std.shape == (513,)
        flat = X[split.train_indices].reshape(-1, 513)
        np.testing.assert_allclose(model.input_mean, flat.mean(axis=0), rtol=1e-12)
        frag = X[0]
        np.testing.assert_allclose(model.standardize(frag),
                                   (frag - model.input_mean) / model.input_std, rtol=1e-12)

    def test_gradient_step_and_adam_are_single_precision(self, monkeypatch):
        grad, adam, seen = nn._grad, nn.adam_step, []

        def recorded_grad(arch, params, X, y):
            seen.append(("grad", {params.dtype, X.dtype, y.dtype}))
            g, loss = grad(arch, params, X, y)
            seen.append(("gradient", {g.dtype}))
            return g, loss

        def recorded_adam(params, grads, state, lr):
            seen.append(("adam", {params.dtype, grads.dtype, state.m.dtype, state.v.dtype}))
            return adam(params, grads, state, lr=lr)

        monkeypatch.setattr(nn, "_grad", recorded_grad)
        monkeypatch.setattr(nn, "adam_step", recorded_adam)
        rng = np.random.default_rng(9)
        X, y = _toy_corpus(rng, n=24)
        model, _ = nn.train(X, y, split_fragments(len(y), y, ratio=0.8, seed=9), nn.TrainConfig(epochs=1, seed=9))
        single = {np.dtype(np.float32)}
        assert seen == [("grad", single), ("gradient", single), ("adam", single)]  # 19 rows: one step
        assert model.params.dtype == np.float64  # widened from float32, as load_model returns a file's
        assert np.array_equal(model.params, model.params.astype(np.float32))

    @pytest.mark.filterwarnings("error")
    def test_gradient_whose_float32_norm_overflows_is_clipped(self, monkeypatch, caplog):
        # every entry is 1e20: the float32 dot overflows, the float64 norm is 1e20 sqrt(n)
        grad, adam, seen = nn._grad, nn.adam_step, []

        def huge_grad(arch, params, X, y):
            g, loss = grad(arch, params, X, y)
            g[:] = 1e20
            return g, loss

        def recorded_adam(params, grads, state, lr):
            seen.append(grads.copy())
            return adam(params, grads, state, lr=lr)

        monkeypatch.setattr(nn, "_grad", huge_grad)
        monkeypatch.setattr(nn, "adam_step", recorded_adam)
        rng = np.random.default_rng(15)
        X, y = _toy_corpus(rng, n=24)
        config = nn.TrainConfig(epochs=1, seed=15)
        with caplog.at_level("INFO", logger="syllascore.nn"):
            model, _ = nn.train(X, y, split_fragments(len(y), y, ratio=0.8, seed=15), config)
        n = model.arch.param_count
        assert len(seen) == 1 and seen[0].dtype == np.float32  # 19 rows: one step
        assert np.linalg.norm(seen[0].astype(np.float64)) == pytest.approx(config.clip_norm, rel=1e-6)
        assert np.all(seen[0] == seen[0][0])
        [line] = [r.getMessage() for r in caplog.records if r.name == "syllascore.nn"]
        assert f", 1 of 1 steps clipped, largest gradient norm {1e20 * math.sqrt(n):.6g}, " in line

    def test_zero_gradient_steps_are_logged_per_epoch(self, monkeypatch, caplog):
        grad, zero = nn._grad, []

        def recorded(arch, params, X, y):
            g, loss = grad(arch, params, X, y)
            zero.append(not g.any())
            return g, loss

        monkeypatch.setattr(nn, "_grad", recorded)
        rng = np.random.default_rng(10)
        X, y = _toy_corpus(rng, n=24)
        split = split_fragments(len(y), y, ratio=0.8, seed=10)
        config = nn.TrainConfig(epochs=3, batch_size=4, learning_rate=0.05, seed=10)
        with caplog.at_level("INFO", logger="syllascore.nn"):
            nn.train(X, y, split, config)
        steps = len(zero) // 3
        lines = [r.getMessage() for r in caplog.records if r.name == "syllascore.nn"]
        assert [line.split(":")[0] for line in lines] == ["epoch 1/3", "epoch 2/3", "epoch 3/3"]
        assert [line.split(", ")[-1] for line in lines] == [
            f"{sum(zero[k * steps : (k + 1) * steps])} of {steps} steps with a zero gradient" for k in range(3)]
        assert 0 < sum(zero) < len(zero)  # the count is not a constant

    def test_clipped_steps_and_largest_gradient_norm_are_logged_per_epoch(self, monkeypatch, caplog):
        grad, norms = nn._grad, []

        def recorded(arch, params, X, y):
            g, loss = grad(arch, params, X, y)
            norms.append(np.linalg.norm(g.astype(np.float64)))
            return g, loss

        monkeypatch.setattr(nn, "_grad", recorded)
        rng = np.random.default_rng(10)
        X, y = _toy_corpus(rng, n=24)
        split = split_fragments(len(y), y, ratio=0.8, seed=10)
        config = nn.TrainConfig(epochs=3, batch_size=4, learning_rate=0.05, seed=10)
        with caplog.at_level("INFO", logger="syllascore.nn"):
            nn.train(X, y, split, config)
        steps = len(norms) // 3
        lines = [r.getMessage() for r in caplog.records if r.name == "syllascore.nn"]
        assert len(lines) == 3
        for k, line in enumerate(lines):
            epoch = norms[k * steps : (k + 1) * steps]
            clipped, largest = line.split(", ")[-3:-1]
            assert clipped == f"{sum(n > config.clip_norm for n in epoch)} of {steps} steps clipped"
            # train's norm is a float32 dot: within float32 rounding of the float64 norm
            assert float(largest.removeprefix("largest gradient norm ")) == pytest.approx(max(epoch), rel=1e-5)
        assert 0 < sum(n > config.clip_norm for n in norms) < len(norms)  # the count is not a constant

    def test_trace_metadata(self):
        rng = np.random.default_rng(8)
        X, y = _toy_corpus(rng, n=24)
        split = split_fragments(len(y), y, ratio=0.8, seed=8)
        model, trace = nn.train(X, y, split, nn.TrainConfig(epochs=3, seed=8))
        assert model.train_meta["epochs"] == 3
        assert model.train_meta["final_test_accuracy"] == trace.test_accuracy[-1]
        assert model.train_meta["split_seed"] == 8


class TestModelFile:
    def _trained_tiny(self, seed=9):
        model = _random_model(TINY, seed, jitter=0.1)
        return nn.Model(TINY, model.params, train_meta={"seed": seed})

    def test_round_trip_exact_at_stored_precision(self, tmp_path):
        model = self._trained_tiny()
        path = tmp_path / "m.json"
        nn.save_model(model, path)
        loaded = nn.load_model(path)
        # stored single precision: loaded params are the float32 cast exactly
        np.testing.assert_array_equal(loaded.params,
                                      model.params.astype(np.float32).astype(np.float64))
        rng = np.random.default_rng(0)
        frag = rng.normal(0, 1, (4, 2))
        p1 = nn.forward_batch(loaded, frag[None])[0]
        nn.save_model(loaded, tmp_path / "m2.json")
        again = nn.load_model(tmp_path / "m2.json")
        assert nn.forward_batch(again, frag[None])[0] == p1  # zero-ulp reproduction
        nn.save_model(again, tmp_path / "m3.json")
        assert (tmp_path / "m3.json").read_bytes() == (tmp_path / "m2.json").read_bytes()
        assert loaded.train_meta == model.train_meta

    def test_truncated_file(self, tmp_path):
        model = self._trained_tiny()
        path = tmp_path / "m.json"
        nn.save_model(model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CorruptFile):
            nn.load_model(path)

    def test_checksum_detects_tampering(self, tmp_path):
        model = self._trained_tiny()
        path = tmp_path / "m.json"
        nn.save_model(model, path)
        doc = json.loads(path.read_text())
        blob = doc["parameters_hex"]
        doc["parameters_hex"] = ("0" if blob[0] != "0" else "1") + blob[1:]
        path.write_text(json.dumps(doc, sort_keys=True))
        with pytest.raises(CorruptFile, match="checksum"):
            nn.load_model(path)

    def test_future_version_rejected(self, tmp_path):
        model = self._trained_tiny()
        path = tmp_path / "m.json"
        nn.save_model(model, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc, sort_keys=True))
        with pytest.raises(VersionMismatch):
            nn.load_model(path)

    def test_preserves_dsp_and_stats(self, tmp_path):
        from syllascore.dsp import DspConfig

        rng = np.random.default_rng(10)
        model = nn.Model(TINY, rng.normal(0, 0.1, TINY.param_count),
                         dsp_config=DspConfig(hop=128, use_log=False),
                         input_mean=rng.normal(0, 1, 2), input_std=rng.uniform(0.5, 2, 2))
        path = tmp_path / "m.json"
        nn.save_model(model, path)
        loaded = nn.load_model(path)
        assert loaded.dsp_config == model.dsp_config
        np.testing.assert_allclose(loaded.input_mean, model.input_mean, rtol=1e-7)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_leaf_value_raises_only_package_errors(self, tiny_model_file, data):
        """A checksummed file with one setting replaced loads, preprocesses and
        runs, or fails with a SyllascoreError (which the CLI maps to an exit code)."""
        doc = json.loads(tiny_model_file.read_text())
        paths = [p for p in _leaves(doc) if p[0] in ("architecture", "dsp", "standardize", "train_meta")]
        *parents, last = data.draw(st.sampled_from(paths))
        node = doc
        for key in parents:
            node = node[key]
        original = node[last]  # also try the same setting in another json type: 256 as 256.0 or "256"
        retyped = [float(original), str(original)] if type(original) in (int, float) else [str(original)]
        node[last] = data.draw(JSON_VALUES | st.sampled_from(retyped))
        doc["checksum_sha256"] = nn._checksum(doc)
        path = tiny_model_file.with_name("mutated.json")
        path.write_text(json.dumps(doc, sort_keys=True))
        try:
            model = nn.load_model(path)
            dsp.pipeline(HALF_SECOND, model.dsp_config)
            steps, dim = model.arch.input_steps, model.arch.input_dim
            if steps * dim <= TINY.input_steps * TINY.input_dim:  # a larger input could exhaust memory
                nn.forward_batch(model, np.zeros((1, steps, dim)))
        except SyllascoreError:
            pass


HALF_SECOND = SampleBuffer(np.random.default_rng(0).normal(0.0, 0.1, 8000), 16000)


@pytest.fixture(scope="module")
def tiny_model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("tiny") / "model.json"
    meta = {"cohort": "all", "split_ratio": 0.8, "split_seed": 0, "split_by": "fragment", "n_train": 4}
    nn.save_model(nn.Model(TINY, _random_model(TINY, 3).params, input_mean=np.zeros(2),
                           input_std=np.ones(2), train_meta=meta), path)
    return path


def _leaves(node, path=()):
    """The key path of every scalar in a json document."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return [path]
    return [leaf for key, child in children for leaf in _leaves(child, path + (key,))]
