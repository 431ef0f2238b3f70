"""eval runs the network once per labeled session, as score does.

Each (patient, session 1|2) stack goes through one forward_batch, so
nn.FORWARD_CHUNK must not show in any output, each recording is read once,
several cohorts at once give each cohort's one-cohort probabilities bit for
bit, the line order of the manifest does not matter, and memory does not
grow with the number of recordings. Train and eval split and score the
same rows, so eval of the training cohort gives the accuracies train stored.
"""

import contextlib
import shutil
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syllascore import corpus, nn, scoring, synth
from syllascore.audio import SampleBuffer, read_wav, write_wav
from syllascore.cli import main
from syllascore.dataset import Cohort, filter_cohort, load_manifest
from syllascore.errors import EmptySession

SMALL = nn.Architecture(lstm1_units=2, lstm2_units=2, dense1_units=2, dense2_units=2)
COHORTS = ["all", "sex:m", "sex:f", "individual:P001", "individual:P002", "individual:P003"]
SILENT = "P002_1_s02.wav"  # gates away entirely


def _small_model(seed, **kwargs):
    rng = np.random.default_rng(seed)
    return nn.Model(SMALL, nn.init_params(SMALL, rng) + rng.normal(0.0, 0.3, SMALL.param_count), **kwargs)


@pytest.fixture(scope="module")
def eval_corpus(tmp_path_factory):
    """Three patients of both sexes, one silent recording, and two small models.

    The "plain" model has no train_meta (cohort all, fragment split); the
    "standardized" one carries per-bin statistics and a syllable split.
    """
    root = tmp_path_factory.mktemp("eval_corpus")
    manifest = synth.generate_corpus(synth.SynthSpec(n_patients=3, syllables_per_set=3, duration_s=0.5,
                                                     seed=0), root / "corpus")
    assert set(manifest.patient_sex.values()) == {"m", "f"}
    write_wav(root / "corpus" / "audio" / SILENT, SampleBuffer(np.zeros(8000), 16000))
    rng = np.random.default_rng(7)
    models = {
        "plain": _small_model(1),
        "standardized": _small_model(2, input_mean=rng.normal(-5.0, 1.0, 513),
                                     input_std=rng.uniform(0.5, 3.0, 513),
                                     train_meta={"split_by": "syllable", "split_ratio": 0.7,
                                                 "split_seed": 3, "cohort": "all"}),
    }
    paths = {}
    for name, model in models.items():
        paths[name] = root / f"{name}.json"
        nn.save_model(model, paths[name])
    return root, root / "corpus" / "manifest.txt", paths


def _eval(model, manifest, cohorts, fmt, out):
    argv = ["eval", "--model", str(model), "--manifest", str(manifest), "--format", fmt, "--out", str(out)]
    code = main(argv + [arg for c in cohorts for arg in ("--cohort", c)])
    return code, out.read_bytes() if code == 0 else None


@contextlib.contextmanager
def _evaluated():
    """The p of each scoring.evaluate call made inside the block, in call order."""
    seen, evaluate = [], scoring.evaluate

    def capture(p, *args, **kwargs):
        seen.append(p)
        return evaluate(p, *args, **kwargs)

    scoring.evaluate = capture
    try:
        yield seen
    finally:
        scoring.evaluate = evaluate


def _session_forwards(model, manifest):
    """{(patient, session): forward_batch over that labeled session's standardized stack}, for every
    session 1 or 2 that has fragments."""
    out = {}
    for pair in sorted({(r.patient_id, r.session_index) for r in manifest.records if r.session_index <= 2}):
        try:
            X, _, _ = corpus.collect_session_fragments(manifest, *pair, model.dsp_config)
        except EmptySession:
            continue
        out[pair] = nn.forward_batch(model, model.standardize(X))
    return out


@pytest.mark.parametrize("chunk", ["1", "3", "7", "N-1", "N", "N+1"])
@pytest.mark.parametrize("which", ["plain", "standardized"])
def test_chunk_size_does_not_show(eval_corpus, monkeypatch, caplog, which, chunk):
    root, manifest_path, models = eval_corpus
    model = nn.load_model(models[which])
    X, _, _ = corpus.collect_training_fragments(load_manifest(manifest_path), model.dsp_config)
    n = X.shape[0]
    before = {fmt: _eval(models[which], manifest_path, COHORTS[:3], fmt, root / f"before.{fmt}")[1]
              for fmt in ("json", "csv", "text")}

    size = {"N-1": n - 1, "N": n, "N+1": n + 1}.get(chunk) or int(chunk)
    monkeypatch.setattr(nn, "FORWARD_CHUNK", size)
    expected = np.concatenate(list(_session_forwards(model, load_manifest(manifest_path)).values()))
    reads = Counter()

    def counted_read(path, **kwargs):
        reads[path] += 1
        return read_wav(path, **kwargs)

    monkeypatch.setattr(corpus, "read_wav", counted_read)
    caplog.clear()
    with _evaluated() as seen:
        for fmt in ("json", "csv", "text"):
            reads.clear()
            assert _eval(models[which], manifest_path, COHORTS[:3], fmt, root / f"after.{fmt}") == (0, before[fmt])
            assert sorted(reads.values()) == [1] * 18  # 3 patients x 3 syllables x 2 sessions, each read once
    assert len(seen) == 9 and all(np.array_equal(p, expected) for p in seen[::3])  # "all" sees every row
    gated = [(r.getMessage(), r.threadName) for r in caplog.records if "produced no fragments" in r.getMessage()]
    assert gated == [("recording ('P002', 1, 's02') produced no fragments (gated or too short)", "MainThread")] * 3


def test_corrupt_recording_after_the_first_chunk_exits_four(eval_corpus, tmp_path, monkeypatch, capsys):
    """The read error surfaces as it did before the forwards overlapped the reads: exit 4,
    one error line, no traceback, no output, and no thread left behind."""
    _, manifest_path, models = eval_corpus
    corpus_dir = tmp_path / "corpus"
    shutil.copytree(manifest_path.parent, corpus_dir)
    bad = corpus_dir / "audio" / "P003_2_s03.wav"  # the last recording in canonical order
    bad.write_bytes(b"not a wav file")
    monkeypatch.setattr(nn, "FORWARD_CHUNK", 3)
    forward, calls = nn.forward_batch, []
    monkeypatch.setattr(nn, "forward_batch", lambda model, X: calls.append(len(X)) or forward(model, X))
    before = threading.active_count()
    code, _ = _eval(models["plain"], corpus_dir / "manifest.txt", ["all"], "json", tmp_path / "e.json")
    assert code == 4 and threading.active_count() == before
    assert len(calls) > 1 and not (tmp_path / "e.json").exists()  # several sessions ran before the bad read
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"error: {bad}: not a readable PCM WAV file (file does not start with RIFF id)"
    assert "Traceback" not in err

    calls.clear()
    assert _eval(models["plain"], manifest_path, ["all"], "json", tmp_path / "e.json")[0] == 0
    assert threading.active_count() == before and calls


def test_union_that_gates_away_exits_five(eval_corpus, tmp_path, capsys):
    root, manifest_path, models = eval_corpus
    manifest = load_manifest(manifest_path)
    audio_dir = tmp_path / "audio"
    audio_dir.mkdir()
    for rec in manifest.records:
        write_wav(audio_dir / rec.audio_path.split("/")[-1], SampleBuffer(np.zeros(8000), 16000))
    (tmp_path / "manifest.txt").write_text(manifest_path.read_text(encoding="utf-8"), encoding="utf-8")
    assert _eval(models["plain"], tmp_path / "manifest.txt", ["sex:f"], "json", tmp_path / "e.json")[0] == 5
    err = capsys.readouterr().err
    assert "no fragments survived preprocessing" in err and "Traceback" not in err


@pytest.fixture(scope="module")
def one_cohort_evals():
    """Memo of (model, cohort) -> (report, p) of that cohort's one-cohort eval."""
    return {}


@settings(max_examples=15, deadline=None)
@given(which=st.sampled_from(["plain", "standardized"]),
       cohorts=st.lists(st.sampled_from(COHORTS), min_size=1, max_size=4),
       fmt=st.sampled_from(["json", "csv", "text"]),
       data=st.data())
def test_several_cohorts_and_permuted_manifest(eval_corpus, one_cohort_evals, which, cohorts, fmt, data):
    root, manifest_path, models = eval_corpus
    lines = manifest_path.read_text(encoding="utf-8").splitlines()
    permuted = root / "corpus" / "manifest_permuted.txt"
    permuted.write_text("\n".join(data.draw(st.permutations(lines))) + "\n", encoding="utf-8")
    with _evaluated() as seen:
        code, out = _eval(models[which], manifest_path, cohorts, fmt, root / "grid.out")
    assert code == 0 and len(seen) == len(cohorts)
    assert _eval(models[which], permuted, cohorts, fmt, root / "permuted.out") == (0, out)
    code, grid = (0, out) if fmt == "json" else _eval(models[which], manifest_path, cohorts, "json",
                                                       root / "grid.json")
    assert code == 0
    rows = scoring.from_json(grid.decode())
    rows = rows.reports if len(cohorts) > 1 else [rows]
    for cohort, row, p in zip(cohorts, rows, seen, strict=True):
        if (which, cohort) not in one_cohort_evals:
            with _evaluated() as one_p:
                code, one = _eval(models[which], manifest_path, [cohort], "json", root / "one.json")
            assert code == 0
            one_cohort_evals[which, cohort] = scoring.from_json(one.decode()), one_p[0]
        report, one_p = one_cohort_evals[which, cohort]
        assert row == report
        assert p.dtype == one_p.dtype and p.tobytes() == one_p.tobytes()  # the cohort's rows, bit for bit


def test_each_labeled_session_is_one_forward(eval_corpus, tmp_path, monkeypatch, caplog):
    """Whatever nn.FORWARD_CHUNK is, eval runs forward_batch once per labeled session over all of its
    fragments, each cohort's p is its sessions' forwards bit for bit, and a session that gates away
    entirely is logged as skipped on the main thread."""
    _, manifest_path, models = eval_corpus
    corpus_dir = tmp_path / "corpus"
    shutil.copytree(manifest_path.parent, corpus_dir)
    for wav in (corpus_dir / "audio").glob("P003_1_*.wav"):  # a middle session, silent throughout
        write_wav(wav, SampleBuffer(np.zeros(8000), 16000))
    manifest = load_manifest(corpus_dir / "manifest.txt")
    model = nn.load_model(models["standardized"])
    monkeypatch.setattr(nn, "FORWARD_CHUNK", 2)
    expected = _session_forwards(model, manifest)
    assert ("P003", 1) not in expected and len(expected) == 5
    forward, calls = nn.forward_batch, []
    monkeypatch.setattr(nn, "forward_batch", lambda model, X: calls.append(len(X)) or forward(model, X))
    caplog.clear()
    with _evaluated() as seen:
        code, _ = _eval(models["standardized"], corpus_dir / "manifest.txt", COHORTS[:3], "json",
                        tmp_path / "e.json")
    assert code == 0
    assert calls == [len(p) for p in expected.values()]
    for cohort, p in zip(COHORTS[:3], seen, strict=True):
        patients = {r.patient_id for r in filter_cohort(manifest, Cohort.parse(cohort)).records}
        want = np.concatenate([q for (patient, _), q in expected.items() if patient in patients])
        assert p.tobytes() == want.tobytes()
    skips = [(r.getMessage(), r.threadName) for r in caplog.records if "skipped" in r.getMessage()]
    assert skips == [("session 1 of patient P003 has no fragments; skipped", "MainThread")]


def test_a_gated_recording_is_logged_once_by_each_command(tmp_path, caplog):
    """train, eval and score each log a recording that gates away once, on the main thread that reads it."""
    corpus_dir = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus_dir), "--patients", "1", "--syllables", "3",
                 "--duration", "0.5", "--seed", "4", "--severities", "0.9"]) == 0
    for name in ("P001_1_s02.wav", "P001_3_s02.wav"):
        write_wav(corpus_dir / "audio" / name, SampleBuffer(np.zeros(8000), 16000))
    manifest, model = str(corpus_dir / "manifest.txt"), str(tmp_path / "model.json")
    commands = [("train", 1, ["--model-out", model, "--epochs", "1"]),
                ("eval", 1, ["--model", model, "--out", str(tmp_path / "eval.txt")]),
                ("score", 3, ["--model", model, "--out", str(tmp_path / "score.txt")])]
    for command, session, argv in commands:
        caplog.clear()
        assert main([command, "--manifest", manifest, *argv]) == 0
        gated = [(r.getMessage(), r.threadName) for r in caplog.records if "no fragments (gated" in r.getMessage()]
        assert gated == [(f"recording ('P001', {session}, 's02') produced no fragments (gated or too short)",
                          "MainThread")], command


def test_memory_does_not_grow_with_the_corpus(eval_corpus, tmp_path, monkeypatch):
    """Four times the recordings add less than one fragment stack of the smaller corpus."""
    _, _, models = eval_corpus
    monkeypatch.setattr(nn, "FORWARD_CHUNK", 4)
    peaks, manifests = [], {}
    for patients in (1, 1, 4):  # the first run warms caches up and is not counted
        spec = synth.SynthSpec(n_patients=patients, syllables_per_set=3, duration_s=0.5, seed=0)
        manifests[patients] = synth.generate_corpus(spec, tmp_path / f"c{patients}")
        tracemalloc.start()
        try:
            code, _ = _eval(models["plain"], tmp_path / f"c{patients}" / "manifest.txt", ["all"], "json",
                            tmp_path / "e.json")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert code == 0
    stack, _, _ = corpus.collect_training_fragments(manifests[1], nn.load_model(models["plain"]).dsp_config)
    assert peaks[2] - peaks[1] < stack.nbytes


@pytest.fixture(scope="module")
def tiny_manifest(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    assert main(["synth", "--out", str(root), "--patients", "2", "--syllables", "4", "--duration", "0.5"]) == 0
    return str(root / "manifest.txt")


@pytest.mark.parametrize("standardize", [[], ["--standardize"]], ids=["raw", "standardized"])
@pytest.mark.parametrize("split_by", ["fragment", "syllable"])
def test_eval_reproduces_the_accuracies_train_stored(tiny_manifest, tmp_path, split_by, standardize):
    """eval of the training cohort rebuilds train's split over the same rows and gives train_meta's
    final accuracies exactly: train runs the network over each split side, eval once per session."""
    model, out = tmp_path / "model.json", tmp_path / "eval.json"
    assert main(["train", "--manifest", tiny_manifest, "--model-out", str(model), "--epochs", "2",
                 "--split-by", split_by, *standardize]) == 0
    assert main(["eval", "--model", str(model), "--manifest", tiny_manifest, "--format", "json",
                 "--out", str(out)]) == 0
    meta = nn.load_model(model).train_meta
    report = scoring.from_json(out.read_text(encoding="utf-8"))
    assert (report.n_train, report.n_test) == (meta["n_train"], meta["n_test"])
    assert report.train_accuracy == meta["final_train_accuracy"]
    assert report.test_accuracy == meta["final_test_accuracy"]
