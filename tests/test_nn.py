import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syllascore import dsp, nn
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


def _loss_of(arch, params, X, y):
    model = nn.Model(arch, params)
    p = nn.forward_batch(model, X)
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
        model = nn.Model(arch, np.ones(arch.param_count))
        got = nn.forward_batch(model, np.array([[[1.0]]]))[0]

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

    def test_scalar_chain_zero_bias(self):
        arch = nn.Architecture(input_steps=1, input_dim=1, lstm1_units=1,
                               lstm2_units=1, dense1_units=1, dense2_units=1)
        params = np.ones(arch.param_count)
        views = nn._views(arch, params)
        for name in ("lstm1.b", "lstm2.b", "dense1.b", "dense2.b", "dense3.b"):
            views[name][...] = 0.0
        model = nn.Model(arch, params)
        got = nn.forward_batch(model, np.array([[[1.0]]]))[0]

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        h1 = sig(1.0) * math.tanh(sig(1.0) * math.tanh(1.0))
        h2 = sig(h1) * math.tanh(sig(h1) * math.tanh(h1))
        expected = 0.2 * sig(math.tanh(h2)) + 0.5
        assert got == pytest.approx(expected, rel=1e-12)

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


    def test_in_place_step_is_the_formula_bit_for_bit(self):
        def formula(params, grads, state, lr):
            state.t += 1
            state.m *= nn.ADAM_BETA1
            state.m += (1.0 - nn.ADAM_BETA1) * grads
            state.v *= nn.ADAM_BETA2
            state.v += (1.0 - nn.ADAM_BETA2) * grads * grads
            m_hat = state.m / (1.0 - nn.ADAM_BETA1**state.t)
            v_hat = state.v / (1.0 - nn.ADAM_BETA2**state.t)
            params -= lr * m_hat / (np.sqrt(v_hat) + nn.ADAM_EPS)

        rng = np.random.default_rng(21)
        n = 10_000
        params = rng.normal(0.0, 0.1, n)
        expected = params.copy()
        state, expected_state = (nn.AdamState(np.zeros(n), np.zeros(n)) for _ in range(2))
        for _ in range(50):
            grads = rng.normal(0.0, 1.0, n) * rng.uniform(1e-4, 1.0)
            grads *= min(1.0, nn.TrainConfig.clip_norm / np.linalg.norm(grads))  # as train clips them
            kept = grads.copy()
            formula(expected, grads, expected_state, 1e-3)
            nn.adam_step(params, grads, state, lr=1e-3)
            assert np.array_equal(grads, kept)
        assert state.t == expected_state.t == 50
        for actual, wanted in ((params, expected), (state.m, expected_state.m), (state.v, expected_state.v)):
            assert np.array_equal(actual, wanted)


class TestForwardStream:
    def test_same_results_in_order_through_the_module_global(self, monkeypatch):
        model = _random_model(TINY, 3, jitter=0.3)
        rng = np.random.default_rng(4)
        batches = [rng.normal(0.0, 1.0, (k, 4, 2)) for k in (5, 1, 7, 3)]
        forward, calls = nn.forward_batch, []
        monkeypatch.setattr(nn, "forward_batch", lambda m, X: calls.append(len(X)) or forward(m, X))
        before = threading.active_count()
        results = list(nn.forward_stream(model, iter(batches)))
        assert threading.active_count() == before
        assert calls == [5, 1, 7, 3]
        assert all(np.array_equal(p, forward(model, X)) for p, X in zip(results, batches, strict=True))
        assert list(nn.forward_stream(model, iter([]))) == []

    def test_producer_exception_wins_over_the_forward_in_flight(self):
        model = _random_model(TINY, 3)
        good = np.zeros((2, 4, 2))

        def batches():
            yield good
            yield np.zeros((2, 4, 3))  # its forward raises ShapeMismatch while the third item is drawn
            raise ValueError("third item")

        seen = []
        before = threading.active_count()
        with pytest.raises(ValueError, match="third item"):
            for p in nn.forward_stream(model, batches()):
                seen.append(p)
        assert threading.active_count() == before
        assert len(seen) == 1 and np.array_equal(seen[0], nn.forward_batch(model, good))

    def test_forward_exception_comes_out_at_its_result(self):
        model = _random_model(TINY, 3)
        good, bad = np.zeros((2, 4, 2)), np.zeros((2, 4, 3))
        seen = []
        before = threading.active_count()
        with pytest.raises(ShapeMismatch):
            for p in nn.forward_stream(model, iter([good, bad, good])):
                seen.append(p)
        assert threading.active_count() == before
        assert len(seen) == 1

    def test_abandoned_stream_leaves_no_thread(self):
        model = _random_model(TINY, 3)
        before = threading.active_count()
        stream = nn.forward_stream(model, (np.zeros((1, 4, 2)) for _ in range(5)))
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
        X = rng.normal(0, 1, (B, T, D))

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
        # TINY never exercises the B*T reshapes or the states[:, :-1] / dz[:, 1:]
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
