"""Acceptance suite: one test per release criterion, one printed verdict each.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines live;
without -s they still appear in captured output for failures.
"""

import time

import numpy as np
import pytest
from scipy import stats

from syllascore import corpus, nn, scoring
from syllascore.audio import SampleBuffer
from syllascore.cli import main as cli_main
from syllascore.dataset import load_manifest, save_manifest, split_fragments
from syllascore.dsp import DspConfig, slice_fragments, stft_magnitude, Spectrogram

from test_nn import F32_AGREEMENT, fd_gradient, max_rel_error


def _verdict(num, name, ok, detail=""):
    print(f"[acceptance] criterion {num} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def accept_run(tmp_path_factory):
    """Shared synth -> train -> score run (corpus seed 1) for criteria 4, 5, 7, 8."""
    root = tmp_path_factory.mktemp("accept")
    corpus_dir = root / "corpus"
    timings = {}

    t0 = time.monotonic()
    assert cli_main(["synth", "--out", str(corpus_dir), "--patients", "1",
                     "--syllables", "20", "--seed", "1",
                     "--severities", "0.9,0.7,0.5,0.3,0.1", "--expert-marks"]) == 0
    timings["synth"] = time.monotonic() - t0

    model_path = root / "model.json"
    trace_path = root / "trace.csv"
    t0 = time.monotonic()
    assert cli_main(["train", "--manifest", str(corpus_dir / "manifest.txt"),
                     "--cohort", "individual:P001", "--model-out", str(model_path),
                     "--trace-out", str(trace_path), "--epochs", "30",
                     "--seed", "1"]) == 0
    timings["train"] = time.monotonic() - t0

    scores_path = root / "scores.json"
    t0 = time.monotonic()
    assert cli_main(["score", "--model", str(model_path),
                     "--manifest", str(corpus_dir / "manifest.txt"),
                     "--expert-marks", "--format", "json",
                     "--out", str(scores_path)]) == 0
    timings["score"] = time.monotonic() - t0

    return {"root": root, "corpus": corpus_dir, "model": model_path,
            "trace": trace_path, "scores": scores_path, "timings": timings}


def _trace_rows(trace_path):
    import csv as csv_mod

    return [
        {k: float(v) for k, v in row.items()}
        for row in csv_mod.DictReader(trace_path.read_text().splitlines())
    ]


def test_criterion_1_gradient_correctness():
    """Analytic backward vs central finite differences on a reduced model."""
    t0 = time.monotonic()
    arch = nn.Architecture(input_steps=4, input_dim=2, lstm1_units=3, lstm2_units=3,
                           dense1_units=2, dense2_units=2, output_units=1)
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        params = nn.init_params(arch, rng) + rng.normal(0.0, 0.05, arch.param_count)
        model = nn.Model(arch, params)
        X = rng.normal(0.0, 1.0, (3, 4, 2))
        y = rng.integers(0, 2, 3).astype(np.float64)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        analytic, _ = nn.backward(model, X, y)
        numeric = fd_gradient(arch, params, X, y, step=1e-5)
        worst = max(worst, max_rel_error(analytic, numeric))
    elapsed = time.monotonic() - t0
    _verdict(1, "gradient correctness", worst < 1e-4 and elapsed < 10.0,
             f"(max rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_architecture_fidelity():
    """Exact parameter count; probability output over fuzzed fragments."""
    arch = nn.Architecture()
    count_ok = arch.param_count == 383_329
    rng = np.random.default_rng(2)
    params = nn.init_params(arch, rng) + rng.normal(0.0, 0.2, arch.param_count)
    model = nn.Model(arch, params)
    X = rng.normal(0.0, rng.uniform(0.5, 4.0), (1000, 8, 513))
    p = nn.forward_batch(model, X)
    range_ok = bool(np.all(np.isfinite(p)) and np.all(p >= 0.0) and np.all(p <= 1.0))
    _verdict(2, "architecture fidelity", count_ok and range_ok,
             f"(params {arch.param_count}, outputs in [{p.min():.3f}, {p.max():.3f}])")


def test_criterion_3_dsp_oracles():
    t0 = time.monotonic()
    rect = DspConfig(window="rect")
    fs = 16000

    rng = np.random.default_rng(3)
    x = rng.normal(0.0, 0.3, 5000)
    spec = stft_magnitude(SampleBuffer(x, fs), rect)
    parseval_ok = True
    for t in range(spec.n_frames):
        seg = x[t * 256 : t * 256 + 1024]
        m = spec.frames[t]
        lhs = float(np.sum(seg * seg))
        rhs = (m[0] ** 2 + 2.0 * np.sum(m[1:512] ** 2) + m[512] ** 2) / 1024.0
        parseval_ok &= abs(lhs - rhs) / lhs < 1e-6

    argmax_ok = True
    for k in (1, 64, 256, 511):
        sine = np.sin(2 * np.pi * k * np.arange(4096) / 1024)
        sp = stft_magnitude(SampleBuffer(sine, fs), rect)
        argmax_ok &= bool(np.all(np.argmax(sp.frames, axis=1) == k))

    formula_ok = True
    cfg = DspConfig()
    for t in range(0, 101):
        frames = np.ones((t, 513))
        expected = max(0, (t - 8) // 8 + 1) if t >= 8 else 0
        formula_ok &= len(slice_fragments(Spectrogram(frames), cfg)) == expected

    elapsed = time.monotonic() - t0
    _verdict(3, "dsp oracles",
             parseval_ok and argmax_ok and formula_ok and elapsed < 5.0,
             f"({elapsed:.1f}s)")


def test_criterion_4_learning_on_separable_data(accept_run):
    """Individual synthetic corpus: high train/test accuracy within 30 epochs,
    chance-level accuracy once the labels are shuffled away."""
    t0 = time.monotonic()
    rows = _trace_rows(accept_run["trace"])
    learned = any(r["train_accuracy"] >= 0.98 and r["test_accuracy"] >= 0.95 for r in rows)

    manifest = load_manifest(accept_run["corpus"] / "manifest.txt")
    X, y, _ = corpus.collect_training_fragments(
        _sessions_1_2_only(manifest), DspConfig())
    null_split = split_fragments(len(y), y, ratio=0.5, seed=1)
    y_null = np.random.default_rng(21).permutation(y)
    _, null_trace = nn.train(X, y_null, null_split, nn.TrainConfig(epochs=30, seed=1))
    null_acc = null_trace.test_accuracy[-1]
    null_ok = 0.4 <= null_acc <= 0.6

    elapsed = accept_run["timings"]["synth"] + accept_run["timings"]["train"] + (time.monotonic() - t0)
    _verdict(4, "learning on separable data",
             learned and null_ok and elapsed < 300.0,
             f"(best train {max(r['train_accuracy'] for r in rows):.3f}, "
             f"best test {max(r['test_accuracy'] for r in rows):.3f}, "
             f"null {null_acc:.3f}, {elapsed:.0f}s)")


def _sessions_1_2_only(manifest):
    from syllascore.dataset import Manifest

    records = tuple(r for r in manifest.records if r.session_index in (1, 2))
    return Manifest(records, manifest.sample_rate_hz, manifest.patient_sex, manifest.root)


def test_criterion_5_rehabilitation_monotonicity(accept_run):
    """Session score Q rises as the synthetic degradation severity falls."""
    severities = {3: 0.9, 4: 0.7, 5: 0.5, 6: 0.3, 7: 0.1}
    grid = scoring.from_json(accept_run["scores"].read_text())
    qs = {r.session_index: r.session_score for r in grid.reports}
    assert sorted(qs) == sorted(severities)
    pairs = [(severities[s], qs[s]) for s in sorted(qs)]
    rho = stats.spearmanr([a for a, _ in pairs], [b for _, b in pairs]).statistic
    elapsed = accept_run["timings"]["score"]
    _verdict(5, "rehabilitation monotonicity", rho <= -0.9 and elapsed < 300.0,
             f"(spearman {rho:.3f}, Q {['%.3f' % q for _, q in pairs]}, {elapsed:.0f}s)")


def test_criterion_6_determinism(tmp_path):
    """Two identical synth -> train -> score runs are byte-identical."""
    outputs = []
    for sub in ("run_a", "run_b"):
        base = tmp_path / sub
        corpus_dir = base / "corpus"
        assert cli_main(["synth", "--out", str(corpus_dir), "--patients", "1",
                         "--syllables", "10", "--seed", "3",
                         "--severities", "0.8,0.4", "--expert-marks"]) == 0
        model = base / "model.json"
        assert cli_main(["train", "--manifest", str(corpus_dir / "manifest.txt"),
                         "--model-out", str(model), "--epochs", "8",
                         "--seed", "3"]) == 0
        scores = base / "scores.json"
        assert cli_main(["score", "--model", str(model),
                         "--manifest", str(corpus_dir / "manifest.txt"),
                         "--expert-marks", "--format", "json",
                         "--out", str(scores)]) == 0
        wavs = b"".join(w.read_bytes() for w in sorted((corpus_dir / "audio").glob("*.wav")))
        outputs.append((wavs, (corpus_dir / "manifest.txt").read_bytes(),
                        model.read_bytes(), scores.read_bytes()))
    same = [a == b for a, b in zip(outputs[0], outputs[1])]
    _verdict(6, "determinism", all(same),
             f"(wav/manifest/model/scores identical: {same})")


def test_criterion_7_correlation_machinery(accept_run):
    rng = np.random.default_rng(7)
    closed_form_ok = True
    for _ in range(100):
        n = int(rng.integers(3, 30))
        xs = rng.normal(0.0, rng.uniform(0.2, 3.0), n)
        ys = rng.normal(0.0, rng.uniform(0.2, 3.0), n)
        dx, dy = xs - xs.mean(), ys - ys.mean()
        reference = float(dx @ dy / np.sqrt((dx @ dx) * (dy @ dy)))
        closed_form_ok &= abs(scoring.pearson(xs, ys) - reference) <= 1e-12

    affine_ok = True
    xs = rng.normal(0.0, 1.0, 50)
    ys = rng.normal(0.0, 1.0, 50)
    base = scoring.pearson(xs, ys)
    for _ in range(25):
        a, b = rng.uniform(0.05, 20.0), rng.uniform(-50.0, 50.0)
        affine_ok &= abs(scoring.pearson(a * xs + b, ys) - base) <= 1e-12

    grid = scoring.from_json(accept_run["scores"].read_text())
    r = grid.expert_correlation
    expert_ok = r is not None and -1.0 <= r <= 1.0 and r >= 0.8
    _verdict(7, "correlation machinery", closed_form_ok and affine_ok and expert_ok,
             f"(expert-mark correlation {r:.3f})")


def test_criterion_8_round_trips(accept_run, tmp_path):
    # model file: single-precision storage reproduces forward outputs exactly
    model = nn.load_model(accept_run["model"])
    rng = np.random.default_rng(8)
    frag = rng.normal(0.0, 1.0, (8, 513))
    p0 = nn.forward_batch(model, frag[None])[0]
    nn.save_model(model, tmp_path / "again.json")
    reloaded = nn.load_model(tmp_path / "again.json")
    model_ok = nn.forward_batch(reloaded, frag[None])[0] == p0
    nn.save_model(reloaded, tmp_path / "again2.json")
    model_ok &= (tmp_path / "again2.json").read_bytes() == (tmp_path / "again.json").read_bytes()

    manifest = load_manifest(accept_run["corpus"] / "manifest.txt")
    save_manifest(manifest, tmp_path / "manifest.txt")
    for rel in {r.audio_path for r in manifest.records}:
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(b"")
    manifest_ok = load_manifest(tmp_path / "manifest.txt").records == manifest.records

    text = accept_run["scores"].read_text()
    grid = scoring.from_json(text)
    report_ok = scoring.from_json(scoring.to_json(grid)) == grid
    trace = nn.TrainTrace(train_loss=[1 / 3], train_accuracy=[2 / 3],
                          test_loss=[0.1234567890123456789], test_accuracy=[1.0])
    report_ok &= scoring.from_json(scoring.to_json(trace)) == trace

    _verdict(8, "round trips", model_ok and manifest_ok and report_ok,
             f"(model {model_ok}, manifest {manifest_ok}, reports {report_ok})")


def test_single_precision_scores_agree_with_double_precision(accept_run):
    """The float32 forward that eval and score run against the float64 forward
    over the same stored parameters, on every fragment of the corpus."""
    model = nn.load_model(accept_run["model"])
    views = nn._views(model.arch, model.params)
    manifest = load_manifest(accept_run["corpus"] / "manifest.txt")
    stacks = [corpus.collect_training_fragments(manifest, model.dsp_config)[0]]
    stacks += [corpus.collect_session_fragments(manifest, patient, session, model.dsp_config)[0]
               for patient, session in corpus.scoreable_sessions(manifest)]
    worst = 0.0
    for X in map(model.standardize, stacks):
        exact, _ = nn._forward_full(views, X.transpose(1, 0, 2))  # the internal forward is time-major
        worst = max(worst, float(np.max(np.abs(nn.forward_batch(model, X) - exact))))
    assert worst <= F32_AGREEMENT, f"max |float32 - float64| {worst:.2e}"
