"""eval streams its fragments through the network in nn.FORWARD_CHUNK pieces.

The chunk size must not show in any output, each recording is read once,
several cohorts at once give each cohort's one-cohort numbers, the line
order of the manifest does not matter, and memory does not grow with the
number of recordings.
"""

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
from syllascore.dataset import load_manifest

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
    expected = nn.forward_batch(model, model.standardize(X))
    seen, reads = [], Counter()
    evaluate = scoring.evaluate

    def capture(p, *args, **kwargs):
        seen.append(p)
        return evaluate(p, *args, **kwargs)

    def counted_read(path, **kwargs):
        reads[path] += 1
        return read_wav(path, **kwargs)

    monkeypatch.setattr(scoring, "evaluate", capture)
    monkeypatch.setattr(corpus, "read_wav", counted_read)
    caplog.clear()
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
    assert len(calls) > 1 and not (tmp_path / "e.json").exists()  # several chunks ran before the bad read
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
    """Memo of (model, cohort) -> the report of that cohort's one-cohort eval."""
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
    code, out = _eval(models[which], manifest_path, cohorts, fmt, root / "grid.out")
    assert code == 0
    assert _eval(models[which], permuted, cohorts, fmt, root / "permuted.out") == (0, out)
    code, grid = (0, out) if fmt == "json" else _eval(models[which], manifest_path, cohorts, "json",
                                                       root / "grid.json")
    assert code == 0
    rows = scoring.from_json(grid.decode())
    rows = rows.reports if len(cohorts) > 1 else [rows]
    for cohort, row in zip(cohorts, rows, strict=True):
        if (which, cohort) not in one_cohort_evals:
            code, one = _eval(models[which], manifest_path, [cohort], "json", root / "one.json")
            assert code == 0
            one_cohort_evals[which, cohort] = scoring.from_json(one.decode())
        assert row == one_cohort_evals[which, cohort]


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
