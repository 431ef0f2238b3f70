import argparse
import contextlib
import copy
import csv
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syllascore import cli, corpus, nn, scoring, synth
from syllascore.audio import SampleBuffer, read_wav, write_wav
from syllascore.cli import build_parser, main
from syllascore.dataset import load_manifest
from syllascore.dsp import DspConfig
from test_scoring import _sample_eval_report, _sample_score_report


def _subparsers():
    """build_parser()'s subcommand parsers by name."""
    return next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


def _silence_files(corpus_dir, session_index):
    for wav in (Path(corpus_dir) / "audio").glob(f"P001_{session_index}_*.wav"):
        write_wav(wav, SampleBuffer(np.zeros(8000), 16000))


def _session_log(caplog):
    """scoring's INFO lines, each with the name of the thread that logged it."""
    return [(r.getMessage(), r.threadName) for r in caplog.records
            if r.name == "syllascore.scoring" and r.levelname == "INFO"]


def _expected_session_log(corpus_dir, model_path, pairs):
    manifest, model = load_manifest(corpus_dir / "manifest.txt"), nn.load_model(model_path)
    lines = []
    for patient, session in pairs:
        X, records, counts = corpus.collect_session_fragments(manifest, patient, session, model.dsp_config)
        lines.append((f"session {session} of patient {patient}: {len(records)} recordings read, "
                      f"{counts.count(0)} gated away, {len(X)} fragments", "MainThread"))
    return lines


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """One synth + train + trajectory run shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus_dir = root / "corpus"
    assert main(["synth", "--out", str(corpus_dir), "--patients", "1",
                 "--syllables", "5", "--duration", "0.5", "--seed", "9",
                 "--severities", "0.9,0.1", "--expert-marks"]) == 0
    model_path = root / "model.json"
    trace_path = root / "trace.csv"
    assert main(["train", "--manifest", str(corpus_dir / "manifest.txt"),
                 "--cohort", "individual:P001",
                 "--model-out", str(model_path), "--trace-out", str(trace_path),
                 "--epochs", "3", "--seed", "9"]) == 0
    return corpus_dir, model_path, trace_path


class TestParsing:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["synth", "--out", "x", "--frobnicate"])
        assert err.value.code == 2

    def test_missing_subcommand_exits_two(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
        cfg = tmp_path / "c.json"  # with a config, this once exited 2 without a word
        cfg.write_text("{}")
        with pytest.raises(SystemExit) as err:
            main(["--config", str(cfg)])
        assert err.value.code == 2 and "required: command" in capsys.readouterr().err

    def test_bad_severity_names_the_flag(self, tmp_path, capsys):
        code = main(["synth", "--out", str(tmp_path), "--severities", "0.5,1.5"])
        assert code == 2
        assert "--severities" in capsys.readouterr().err
        for text in (",", "0.5,,0.7", "0.5,x"):
            assert main(["synth", "--out", str(tmp_path), "--severities", text]) == 2
            assert capsys.readouterr().err == "error: --severities must be a comma-separated list of numbers\n"

    def test_bad_cohort_exits_two(self, tmp_path, capsys):
        code = main(["train", "--manifest", str(tmp_path / "m.txt"),
                     "--model-out", str(tmp_path / "m.json"), "--cohort", "men"])
        assert code == 2


BAD_VALUES = [
    ["synth", "--articulation-spread", "0.5"],
    ["synth", "--patients", "0"],
    ["synth", "--duration", "nan"],
    ["synth", "--duration", "1e300"],  # finite, but far beyond memory: refused before any allocation
    ["synth", "--sample-rate", "4294967296"],  # would not fit a WAV header
    ["synth", "--snr-clean", "1e6"],  # 10 ** (snr / 20) once overflowed with a traceback
    ["synth", "--snr-worst", "-6254"],  # the noise gain once overflowed to inf after session 1 was written
    ["train", "--hop", "0"],
    ["train", "--gate-ratio", "2"],
    ["train", "--split-ratio", "1.5"],
    ["train", "--split-ratio", "nan"],
    ["train", "--epochs", "0"],
    ["train", "--learning-rate", "nan"],
    ["train", "--log-floor", "inf"],
    ["train", "--seed", "-1"],
    ["synth", "--severities", "0.5,,0.7"],  # every comma list refuses an empty item
    ["synth", "--severities", "0.5,0.7,"],
    ["synth", "--severities", ","],
    ["synth", "--severities", ""],
    ["score", "--sessions", "3,,4"],
    ["score", "--sessions", "3,"],
    ["score", "--sessions", ""],
    ["score", "--sessions", "3.0"],
]


@pytest.mark.parametrize("argv", BAD_VALUES, ids=[f"{c}{flag}={v}" for c, flag, v in BAD_VALUES])
def test_bad_flag_value_exits_two(cli_run, tmp_path, capsys, argv):
    corpus_dir, model_path, _ = cli_run
    if argv[0] == "synth":
        base = ["synth", "--out", str(tmp_path / "c"), "--syllables", "2", "--duration", "0.5"]
    elif argv[0] == "train":
        base = ["train", "--manifest", str(corpus_dir / "manifest.txt"),
                "--model-out", str(tmp_path / "m.json"), "--epochs", "1"]
    else:
        base = ["score", "--model", str(model_path), "--manifest", str(corpus_dir / "manifest.txt"),
                "--out", str(tmp_path / "m.json")]
    assert main(base + argv[1:]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "c").exists() and not (tmp_path / "m.json").exists()


class TestSynthCommand:
    def test_seed_reproduces_identical_tree(self, tmp_path):
        for sub in ("a", "b"):
            assert main(["synth", "--out", str(tmp_path / sub), "--patients", "1",
                         "--syllables", "2", "--duration", "0.5", "--seed", "7"]) == 0
        a, b = tmp_path / "a", tmp_path / "b"
        assert (a / "manifest.txt").read_bytes() == (b / "manifest.txt").read_bytes()
        wavs_a = sorted((a / "audio").glob("*.wav"))
        assert wavs_a
        for wav in wavs_a:
            assert wav.read_bytes() == (b / "audio" / wav.name).read_bytes()


def _order_outputs(manifest, out):
    """The bytes of train's model and trace, then of score --expert-marks --format json
    without and with --fragment-mean."""
    out.mkdir(exist_ok=True)
    assert main(["train", "--manifest", str(manifest), "--model-out", str(out / "model.json"),
                 "--trace-out", str(out / "trace.csv"), "--epochs", "2", "--seed", "6"]) == 0
    files = [out / "model.json", out / "trace.csv"]
    for extra in ([], ["--fragment-mean"]):
        files.append(out / f"scores{len(files)}.json")
        assert main(["score", "--model", str(out / "model.json"), "--manifest", str(manifest),
                     "--expert-marks", *extra, "--format", "json", "--out", str(files[-1])]) == 0
    return [path.read_bytes() for path in files]


@pytest.fixture(scope="module")
def order_corpus(tmp_path_factory):
    """A tiny corpus with one marked rehabilitation session, and its outputs in manifest order."""
    corpus_dir = tmp_path_factory.mktemp("order") / "corpus"
    assert main(["synth", "--out", str(corpus_dir), "--syllables", "3", "--duration", "0.5", "--seed", "6",
                 "--severities", "0.5", "--expert-marks"]) == 0
    return corpus_dir, _order_outputs(corpus_dir / "manifest.txt", corpus_dir.parent / "in_order")


class TestTrainCommand:
    def test_trace_has_one_row_per_epoch(self, cli_run):
        _, _, trace_path = cli_run
        rows = list(csv.DictReader(trace_path.read_text().splitlines()))
        assert len(rows) == 3
        assert rows[-1]["epoch"] == "3"

    def test_single_epoch_trace(self, tmp_path):
        corpus_dir = tmp_path / "c"
        main(["synth", "--out", str(corpus_dir), "--syllables", "3",
              "--duration", "0.5", "--seed", "4"])
        trace = tmp_path / "trace.csv"
        assert main(["train", "--manifest", str(corpus_dir / "manifest.txt"),
                     "--model-out", str(tmp_path / "m.json"),
                     "--trace-out", str(trace), "--epochs", "1", "--seed", "4"]) == 0
        rows = list(csv.DictReader(trace.read_text().splitlines()))
        assert len(rows) == 1

    def test_trace_written_next_to_model_by_default(self, tmp_path):
        corpus_dir = tmp_path / "c"
        main(["synth", "--out", str(corpus_dir), "--syllables", "3",
              "--duration", "0.5", "--seed", "4"])
        assert main(["train", "--manifest", str(corpus_dir / "manifest.txt"),
                     "--model-out", str(tmp_path / "m.json"),
                     "--epochs", "1", "--seed", "4"]) == 0
        assert (tmp_path / "m.trace.csv").is_file()

    def test_one_class_cohort_exits_five(self, tmp_path):
        corpus_dir = tmp_path / "c"
        main(["synth", "--out", str(corpus_dir), "--syllables", "3",
              "--duration", "0.5", "--seed", "4"])
        _silence_files(corpus_dir, 2)  # class 0 gates away entirely
        code = main(["train", "--manifest", str(corpus_dir / "manifest.txt"),
                     "--model-out", str(tmp_path / "m.json"), "--epochs", "1"])
        assert code == 5

    def test_empty_test_split_exits_five(self, tmp_path, capsys):
        corpus_dir = tmp_path / "c"
        main(["synth", "--out", str(corpus_dir), "--syllables", "3",
              "--duration", "0.5", "--seed", "4"])
        model = tmp_path / "m.json"
        code = main(["train", "--manifest", str(corpus_dir / "manifest.txt"),
                     "--model-out", str(model), "--epochs", "1", "--split-ratio", "0.97"])
        assert code == 5
        assert "test split is empty" in capsys.readouterr().err
        assert not model.exists()

    def test_syllable_split_with_no_test_recording_exits_five(self, tmp_path, capsys):
        corpus_dir = tmp_path / "c"  # 3 syllables per class at 0.875 put every recording in train
        main(["synth", "--out", str(corpus_dir), "--syllables", "3", "--duration", "0.5"])
        capsys.readouterr()
        assert main(["train", "--manifest", str(corpus_dir / "manifest.txt"), "--model-out", str(tmp_path / "m.json"),
                     "--epochs", "1", "--split-by", "syllable", "--split-ratio", "0.875"]) == 5
        assert capsys.readouterr().err == "error: test split is empty\n"
        assert list(tmp_path.iterdir()) == [corpus_dir]

    @pytest.mark.parametrize("extra, where", [
        ([], "in epoch 1:"),  # the epoch's metrics are the first non-finite values
        (["--no-clip"], "in epoch 1:"),
        (["--batch-size", "1"], "at epoch 1, step 2:"),  # a batch loss is
        (["--epochs", "1"], "in epoch 1:"),  # the last epoch too: nothing non-finite is written
    ])
    @pytest.mark.filterwarnings("error")  # the explicit checks stop divergence, not a numpy warning
    def test_diverging_training_exits_five(self, tmp_path, capsys, extra, where):
        corpus_dir = tmp_path / "c"
        main(["synth", "--out", str(corpus_dir), "--syllables", "3",
              "--duration", "0.5", "--seed", "4"])
        capsys.readouterr()
        model = tmp_path / "m.json"
        code = main(["train", "--manifest", str(corpus_dir / "manifest.txt"), "--model-out", str(model),
                     "--epochs", "2", "--learning-rate", "1e308", *extra])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith(f"error: training diverged {where}") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [corpus_dir]  # no model, no trace

    @pytest.mark.filterwarnings("error")
    def test_single_precision_overflow_stops_training(self, tmp_path, capsys):
        # one step of 1e37 leaves every parameter inside float32's range, but
        # the epoch's float32 metrics forward overflows
        corpus_dir = tmp_path / "c"
        main(["synth", "--out", str(corpus_dir), "--syllables", "3",
              "--duration", "0.5", "--seed", "4"])
        capsys.readouterr()
        code = main(["train", "--manifest", str(corpus_dir / "manifest.txt"),
                     "--model-out", str(tmp_path / "m.json"), "--epochs", "2", "--learning-rate", "1e37"])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged in epoch 1:") and "single precision" in err
        assert list(tmp_path.iterdir()) == [corpus_dir]  # no model, no trace

    @pytest.mark.filterwarnings("error")
    def test_unclipped_gradient_overflowing_adams_second_moment_exits_five(self, tmp_path, capsys, monkeypatch):
        # 1e20 has a finite norm, so the step runs; its float32 square does not fit Adam's v,
        # which leaves the parameter unmoved (1e20 / inf) instead of diverging it
        grad = nn._grad

        def huge_grad(arch, params, X, y):
            g, loss = grad(arch, params, X, y)
            g[0] = 1e20
            return g, loss

        monkeypatch.setattr(nn, "_grad", huge_grad)
        corpus_dir = tmp_path / "c"
        main(["synth", "--out", str(corpus_dir), "--syllables", "3", "--duration", "0.5", "--seed", "4"])
        capsys.readouterr()
        code = main(["train", "--manifest", str(corpus_dir / "manifest.txt"),
                     "--model-out", str(tmp_path / "m.json"), "--epochs", "2", "--no-clip"])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged in epoch 1:") and "Adam second moment" in err
        assert list(tmp_path.iterdir()) == [corpus_dir]  # no model, no trace

    def test_missing_audio_exits_four(self, tmp_path):
        corpus_dir = tmp_path / "c"
        main(["synth", "--out", str(corpus_dir), "--syllables", "2",
              "--duration", "0.5", "--seed", "4"])
        next((corpus_dir / "audio").glob("*.wav")).unlink()
        code = main(["train", "--manifest", str(corpus_dir / "manifest.txt"),
                     "--model-out", str(tmp_path / "m.json"), "--epochs", "1"])
        assert code == 4

    def test_manifest_not_utf8_exits_four(self, cli_run, tmp_path, capsys):
        corpus_dir, _, _ = cli_run
        manifest = tmp_path / "manifest.txt"
        manifest.write_bytes((corpus_dir / "manifest.txt").read_bytes() + b"# caf\xe9\n")
        assert main(["train", "--manifest", str(manifest), "--model-out", str(tmp_path / "m.json"),
                     "--epochs", "1"]) == 4
        err = capsys.readouterr().err
        assert "UTF-8" in err and "Traceback" not in err

    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_record_order_does_not_matter(self, order_corpus, data):
        """Any order of the manifest's records gives the bytes of train's model and trace and
        of score --expert-marks, with and without --fragment-mean."""
        corpus_dir, expected = order_corpus
        lines = (corpus_dir / "manifest.txt").read_text().splitlines()
        header = [line for line in lines if line.startswith("#")]
        records = data.draw(st.permutations([line for line in lines if not line.startswith("#")]))
        shuffled = corpus_dir / "manifest_shuffled.txt"
        shuffled.write_text("\n".join(header + records) + "\n")
        assert _order_outputs(shuffled, corpus_dir.parent / "shuffled") == expected


class TestEvalCommand:
    def test_reproduces_final_trace_accuracy(self, cli_run, tmp_path):
        corpus_dir, model_path, trace_path = cli_run
        rows = list(csv.DictReader(trace_path.read_text().splitlines()))
        expected = float(rows[-1]["test_accuracy"])
        out = tmp_path / "eval.json"
        assert main(["eval", "--model", str(model_path),
                     "--manifest", str(corpus_dir / "manifest.txt"),
                     "--format", "json", "--out", str(out)]) == 0
        report = scoring.from_json(out.read_text())
        assert report.test_accuracy == expected
        assert report.cohort == "individual:P001"

    def test_multi_cohort_grid_four_rows(self, tmp_path, monkeypatch):
        # patients P001/P002 draw sexes m/f at seed 0, so all four cohort
        # rows of the text grid are populated
        corpus_dir = tmp_path / "c"
        assert main(["synth", "--out", str(corpus_dir), "--patients", "2",
                     "--syllables", "3", "--duration", "0.5", "--seed", "0"]) == 0
        model = tmp_path / "m.json"
        assert main(["train", "--manifest", str(corpus_dir / "manifest.txt"),
                     "--model-out", str(model), "--epochs", "1", "--seed", "0"]) == 0
        reads = []

        def counted_read(path, **kwargs):
            reads.append(path)
            return read_wav(path, **kwargs)

        monkeypatch.setattr(corpus, "read_wav", counted_read)

        def run_eval(cohorts, fmt, out):
            reads.clear()
            code = main(["eval", "--model", str(model), "--manifest", str(corpus_dir / "manifest.txt"),
                         *[arg for c in cohorts for arg in ("--cohort", c)],
                         "--format", fmt, "--out", str(out)])
            return code, len(reads)

        cohorts = ["individual:P001", "sex:m", "sex:f", "all"]
        out = tmp_path / "grid.txt"
        # each session-1/2 recording is read once: 2 patients x 3 syllables x 2 sessions
        assert run_eval(cohorts, "text", out) == (0, 12)
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 4
        assert lines[1].startswith("individual:P001")
        assert lines[4].startswith("all")
        assert run_eval(cohorts, "json", tmp_path / "grid.json") == (0, 12)
        grid = scoring.from_json((tmp_path / "grid.json").read_text())
        for cohort, row in zip(cohorts, grid.reports):
            assert run_eval([cohort], "json", tmp_path / "one.json")[0] == 0
            assert scoring.from_json((tmp_path / "one.json").read_text()) == row
        # an empty cohort exits 5 before any audio is read
        assert run_eval(["all", "individual:P999"], "json", tmp_path / "none.json") == (5, 0)

    def test_verbose_logs_each_session_in_order_on_the_main_thread(self, cli_run, tmp_path, caplog):
        corpus_dir, model_path, _ = cli_run
        with caplog.at_level("INFO", logger="syllascore.scoring"):
            assert main(["-v", "eval", "--model", str(model_path), "--manifest", str(corpus_dir / "manifest.txt"),
                         "--out", str(tmp_path / "eval.txt")]) == 0
        assert _session_log(caplog) == _expected_session_log(corpus_dir, model_path, [("P001", 1), ("P001", 2)])

    def test_missing_model_exits_three(self, cli_run):
        corpus_dir, _, _ = cli_run
        code = main(["eval", "--model", str(corpus_dir / "nope.json"),
                     "--manifest", str(corpus_dir / "manifest.txt")])
        assert code == 3


def test_importing_the_cli_imports_no_scipy():
    # scipy.signal is most of the CLI's start-up; only synth's rendering imports it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, syllascore, syllascore.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


class TestDeterminism:
    def test_fresh_runs_at_two_blas_threads_write_identical_bytes(self, tmp_path):
        """Outputs are identical for a fixed seed and BLAS thread count: two fresh
        synth -> train -> score processes at OPENBLAS_NUM_THREADS=2 write the same bytes."""
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2"}
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        commands = [["synth", "--out", "corpus", "--patients", "1", "--syllables", "4", "--duration", "0.5",
                     "--severities", "0.9,0.1"],
                    ["train", "--manifest", "corpus/manifest.txt", "--model-out", "model.json", "--epochs", "2"],
                    ["score", "--model", "model.json", "--manifest", "corpus/manifest.txt", "--format", "json",
                     "--out", "score.json"]]
        outputs = []
        for run in ("first", "second"):
            (tmp_path / run).mkdir()
            for argv in commands:
                done = subprocess.run([sys.executable, "-m", "syllascore.cli", *argv], cwd=tmp_path / run,
                                      env=env, capture_output=True, text=True, timeout=300)
                assert done.returncode == 0, done.stderr
            outputs.append({name: (tmp_path / run / name).read_bytes()
                            for name in ("model.json", "model.trace.csv", "score.json")})
        assert outputs[0] == outputs[1]

    def test_verbose_logs_each_epoch_and_writes_identical_bytes(self, cli_run, tmp_path):
        corpus_dir, _, _ = cli_run
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        outputs, errs = [], []
        for flags in ([], ["-v"]):
            out = tmp_path / ("verbose" if flags else "quiet")
            argv = [*flags, "train", "--manifest", str(corpus_dir / "manifest.txt"), "--cohort", "individual:P001",
                    "--model-out", str(out / "model.json"), "--trace-out", str(out / "trace.csv"),
                    "--epochs", "3", "--seed", "9"]
            done = subprocess.run([sys.executable, "-m", "syllascore.cli", *argv], env=env,
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            outputs.append([(out / name).read_bytes() for name in ("model.json", "trace.csv")])
            errs.append([line for line in done.stderr.splitlines() if "zero gradient" in line])
        assert outputs[0] == outputs[1]
        assert errs[0] == []
        assert [line.split(":")[0] for line in errs[1]] == [f"INFO epoch {k}/3" for k in (1, 2, 3)]


class TestScoreCommand:
    def test_scores_trajectory_sessions(self, cli_run, tmp_path):
        corpus_dir, model_path, _ = cli_run
        out = tmp_path / "scores.json"
        assert main(["score", "--model", str(model_path),
                     "--manifest", str(corpus_dir / "manifest.txt"),
                     "--format", "json", "--out", str(out)]) == 0
        grid = scoring.from_json(out.read_text())
        assert [r.session_index for r in grid.reports] == [3, 4]
        assert all(0.0 <= r.session_score <= 1.0 for r in grid.reports)

    def test_expert_marks_add_correlation(self, cli_run, tmp_path):
        corpus_dir, model_path, _ = cli_run
        out = tmp_path / "scores.json"
        assert main(["score", "--model", str(model_path),
                     "--manifest", str(corpus_dir / "manifest.txt"),
                     "--expert-marks", "--format", "json", "--out", str(out)]) == 0
        grid = scoring.from_json(out.read_text())
        assert grid.expert_correlation is not None
        assert -1.0 <= grid.expert_correlation <= 1.0
        text = scoring.to_text(grid)
        assert "expert" in text

    def test_silent_session_skipped_with_exit_zero(self, tmp_path):
        corpus_dir = tmp_path / "c"
        main(["synth", "--out", str(corpus_dir), "--syllables", "3",
              "--duration", "0.5", "--seed", "9", "--severities", "0.6,0.2"])
        main(["train", "--manifest", str(corpus_dir / "manifest.txt"),
              "--model-out", str(tmp_path / "m.json"), "--epochs", "1", "--seed", "9"])
        _silence_files(corpus_dir, 4)
        out = tmp_path / "scores.json"
        code = main(["score", "--model", str(tmp_path / "m.json"),
                     "--manifest", str(corpus_dir / "manifest.txt"),
                     "--format", "json", "--out", str(out)])
        assert code == 0
        grid = scoring.from_json(out.read_text())
        assert [r.session_index for r in grid.reports] == [3]
        assert grid.skipped_sessions == [("P001", 4)]

    def test_no_rehab_sessions_exits_five(self, tmp_path):
        corpus_dir = tmp_path / "c"
        main(["synth", "--out", str(corpus_dir), "--syllables", "2",
              "--duration", "0.5", "--seed", "3"])
        main(["train", "--manifest", str(corpus_dir / "manifest.txt"),
              "--model-out", str(tmp_path / "m.json"), "--epochs", "1", "--seed", "3"])
        code = main(["score", "--model", str(tmp_path / "m.json"),
                     "--manifest", str(corpus_dir / "manifest.txt")])
        assert code == 5

    @pytest.mark.parametrize("stats", [
        {"std": [1.0] * 513},  # no mean
        {"mean": [0.0] * 5, "std": [1.0] * 5},  # 5 bins for a 513-bin model
        {"mean": [0.0] * 513, "std": [0.0] * 513},  # would divide by zero
        {"mean": [10**400] * 513, "std": [1.0] * 513},  # no float holds it
        {"mean": ["0.5"] * 513, "std": [1.0] * 513},  # strings, not numbers
        {"mean": [0.0] * 513, "std": [True] * 513},  # booleans, not numbers
    ], ids=["no_mean", "five_bins", "zero_std", "huge_int_mean", "string_mean", "bool_std"])
    def test_bad_standardization_stats_exit_three(self, cli_run, tmp_path, stats):
        corpus_dir, model_path, _ = cli_run
        doc = json.loads(model_path.read_text())
        doc["standardize"] = stats
        doc["checksum_sha256"] = nn._checksum(doc)  # a well-formed file, only the stats are bad
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc, sort_keys=True))
        assert main(["score", "--model", str(bad),
                     "--manifest", str(corpus_dir / "manifest.txt")]) == 3


class TestModelFile:
    @pytest.mark.parametrize("meta", [
        [1], "all",
        {"split_ratio": "0.8"}, {"split_ratio": 1.5}, {"split_seed": 0.5}, {"split_seed": -1},
        {"split_by": "recording"}, {"cohort": 3},
    ], ids=["list", "string", "ratio_string", "ratio_above_one", "seed_float", "seed_negative",
            "unknown_split_by", "cohort_number"])
    def test_malformed_train_meta_exits_three(self, cli_run, tmp_path, meta):
        corpus_dir, model_path, _ = cli_run
        doc = json.loads(model_path.read_text())
        doc["train_meta"] = {**doc["train_meta"], **meta} if isinstance(meta, dict) else meta
        doc["checksum_sha256"] = nn._checksum(doc)  # a well-formed file, only train_meta is bad
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc, sort_keys=True))
        assert main(["eval", "--model", str(bad),
                     "--manifest", str(corpus_dir / "manifest.txt")]) == 3

    @pytest.mark.parametrize("section, field, value", [
        ("dsp", "hop", 256.0), ("dsp", "fragment_hop", 8.0), ("dsp", "use_log", "no"),
        ("dsp", "log_floor", 10**400), ("architecture", "lstm1_units", 128.0),
    ], ids=["float_hop", "float_fragment_hop", "string_use_log", "huge_int_log_floor", "float_units"])
    def test_mistyped_field_exits_three(self, cli_run, tmp_path, section, field, value):
        corpus_dir, model_path, _ = cli_run
        doc = json.loads(model_path.read_text())
        doc[section][field] = value
        doc["checksum_sha256"] = nn._checksum(doc)  # a well-formed file, only one field is mistyped
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc, sort_keys=True))
        assert main(["eval", "--model", str(bad),
                     "--manifest", str(corpus_dir / "manifest.txt")]) == 3

    @pytest.mark.parametrize("command", ["eval", "score"])
    def test_model_for_other_inputs_exits_three(self, cli_run, tmp_path, capsys, command):
        corpus_dir, _, _ = cli_run
        path = tmp_path / "wide.json"
        arch = nn.Architecture(input_dim=100)
        nn.save_model(nn.Model(arch, np.zeros(arch.param_count)), path)
        assert main([command, "--model", str(path),
                     "--manifest", str(corpus_dir / "manifest.txt")]) == 3
        assert "8x513" in capsys.readouterr().err

    @staticmethod
    def _overflowing_model(model_path, path):
        """A copy of the model that loads, but whose float32 forward overflows."""
        model = nn.load_model(model_path)
        rng = np.random.default_rng(0)
        nn.save_model(dataclasses.replace(model, params=rng.uniform(-1.0, 1.0, model.params.size) * 1e38), path)
        return path

    @pytest.mark.parametrize("command", ["eval", "score"])  # score's forward runs on its worker thread
    def test_single_precision_overflow_exits_five(self, cli_run, tmp_path, capsys, command):
        corpus_dir, model_path, _ = cli_run
        path = self._overflowing_model(model_path, tmp_path / "huge.json")
        out = tmp_path / "out.json"
        assert main([command, "--model", str(path), "--manifest", str(corpus_dir / "manifest.txt"),
                     "--format", "json", "--out", str(out)]) == 5
        err = capsys.readouterr().err
        assert "single precision" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, corrupt", [("eval", "P001_2_s03.wav"), ("score", "P001_4_s03.wav")])
    def test_overflow_before_a_corrupt_recording_exits_five(self, cli_run, tmp_path, capsys, command, corrupt):
        """The first session's forward overflows and the next session's recording is corrupt. In line
        the forward runs before the next read, so the overflow is the error (exit 5), not the read (4)."""
        corpus_dir, model_path, _ = cli_run
        copied = tmp_path / "corpus"
        shutil.copytree(corpus_dir, copied)
        (copied / "audio" / corrupt).write_bytes(b"not a wav file")
        path = self._overflowing_model(model_path, tmp_path / "huge.json")
        before = threading.active_count()
        out = tmp_path / "out.json"
        assert main([command, "--model", str(path), "--manifest", str(copied / "manifest.txt"),
                     "--format", "json", "--out", str(out)]) == 5
        assert threading.active_count() == before
        err = capsys.readouterr().err
        assert "single precision" in err.splitlines()[-1] and "Traceback" not in err
        assert not out.exists()


class TestScoreSessions:
    def test_same_grid_as_the_score_command(self, cli_run, tmp_path, monkeypatch):
        corpus_dir, model_path, _ = cli_run
        forward, calls = nn.forward_batch, []
        monkeypatch.setattr(scoring.nn, "forward_batch",
                            lambda model, X: calls.append(len(X)) or forward(model, X))
        out = tmp_path / "scores.json"
        assert main(["score", "--model", str(model_path),
                     "--manifest", str(corpus_dir / "manifest.txt"),
                     "--expert-marks", "--format", "json", "--out", str(out)]) == 0
        manifest = load_manifest(corpus_dir / "manifest.txt")
        grid = scoring.score_sessions(nn.load_model(model_path), manifest,
                                      corpus.scoreable_sessions(manifest), expert_marks=True)
        assert grid.expert_correlation is not None
        assert scoring.to_json(grid) + "\n" == out.read_text()
        # the network runs once per scored session, over all of its fragments
        assert calls == [r.n_fragments for r in grid.reports] * 2

    def test_marks_pair_with_their_syllables_when_one_gates_away(self, cli_run, monkeypatch):
        corpus_dir, model_path, _ = cli_run
        manifest = load_manifest(corpus_dir / "manifest.txt")
        # marks that vary within a session, so a pairing shifted past the gap changes the correlation
        marks = {"s01": 1, "s02": 0, "s03": 1, "s04": 1, "s05": 0}
        records = tuple(dataclasses.replace(r, expert_mark=marks[r.syllable_id])
                        if r.session_index >= 3 else r for r in manifest.records)
        manifest = dataclasses.replace(manifest, records=records)
        silent = corpus_dir / "audio" / "P001_3_s03.wav"

        def read_gating_one(path, **kwargs):
            buf = read_wav(path, **kwargs)
            return SampleBuffer(np.zeros(len(buf)), buf.sample_rate_hz) if Path(path) == silent else buf

        monkeypatch.setattr(corpus, "read_wav", read_gating_one)
        grid = scoring.score_sessions(nn.load_model(model_path), manifest,
                                      [("P001", 3), ("P001", 4)], expert_marks=True)
        assert [r.missing_syllables for r in grid.reports] == [["s03"], []]
        assert [r.n_syllables for r in grid.reports] == [4, 5]
        pairs = [(r.syllable_scores[s], marks[s]) for r in grid.reports for s in sorted(r.syllable_scores)]
        assert grid.expert_correlation == pytest.approx(scoring.pearson(*zip(*pairs)), rel=1e-12)

    def test_verbose_logs_each_session_in_order_on_the_main_thread(self, cli_run, tmp_path, caplog):
        corpus_dir, model_path, _ = cli_run
        copied = tmp_path / "corpus"
        shutil.copytree(corpus_dir, copied)
        write_wav(copied / "audio" / "P001_4_s02.wav", SampleBuffer(np.zeros(8000), 16000))  # gates away
        with caplog.at_level("INFO", logger="syllascore.scoring"):
            assert main(["-v", "score", "--model", str(model_path), "--manifest", str(copied / "manifest.txt"),
                         "--out", str(tmp_path / "scores.txt")]) == 0
        lines = _expected_session_log(copied, model_path, [("P001", 3), ("P001", 4)])
        assert _session_log(caplog) == lines
        assert ", 1 gated away, " in lines[1][0]

    def test_fragment_scores_are_each_sessions_forward(self, tmp_path, caplog):
        """Through the overlapped forwards, every fragment score is the forward of its own session's
        stack, bit for bit, with a silent middle session listed as skipped between the others."""
        corpus_dir = tmp_path / "corpus"
        assert main(["synth", "--out", str(corpus_dir), "--patients", "1", "--syllables", "3",
                     "--duration", "0.5", "--seed", "4", "--severities", "0.9,0.5,0.1"]) == 0
        _silence_files(corpus_dir, 4)
        arch = nn.Architecture(lstm1_units=3, lstm2_units=2, dense1_units=2, dense2_units=2)
        rng = np.random.default_rng(8)
        model = nn.Model(arch, nn.init_params(arch, rng) + rng.normal(0.0, 0.3, arch.param_count),
                         input_mean=rng.normal(-5.0, 1.0, 513), input_std=rng.uniform(0.5, 3.0, 513))
        nn.save_model(model, tmp_path / "model.json")
        model = nn.load_model(tmp_path / "model.json")
        before = threading.active_count()
        out = tmp_path / "scores.json"
        assert main(["score", "--model", str(tmp_path / "model.json"),
                     "--manifest", str(corpus_dir / "manifest.txt"), "--format", "json", "--out", str(out)]) == 0
        assert threading.active_count() == before
        skips = [(r.getMessage(), r.threadName) for r in caplog.records if "skipped" in r.getMessage()]
        assert skips == [("session 4 of patient P001 has no fragments; skipped", "MainThread")]
        grid = scoring.from_json(out.read_text())
        assert grid.skipped_sessions == [("P001", 4)]
        assert [r.session_index for r in grid.reports] == [3, 5]
        manifest = load_manifest(corpus_dir / "manifest.txt")
        for report in grid.reports:
            X, records, counts = corpus.collect_session_fragments(manifest, "P001", report.session_index,
                                                                  model.dsp_config)
            p = np.split(nn.forward_batch(model, model.standardize(X)), np.cumsum(counts)[:-1])
            assert report.fragment_scores == {rec.syllable_id: list(s) for rec, s in zip(records, p)}

    def test_corrupt_recording_in_a_later_session_exits_four(self, cli_run, tmp_path, monkeypatch, capsys):
        corpus_dir, model_path, _ = cli_run
        copied = tmp_path / "corpus"
        shutil.copytree(corpus_dir, copied)
        bad = copied / "audio" / "P001_4_s03.wav"
        bad.write_bytes(b"not a wav file")
        forward, calls = nn.forward_batch, []
        monkeypatch.setattr(scoring.nn, "forward_batch",
                            lambda model, X: calls.append(len(X)) or forward(model, X))
        before = threading.active_count()
        out = tmp_path / "scores.json"
        assert main(["score", "--model", str(model_path), "--manifest", str(copied / "manifest.txt"),
                     "--format", "json", "--out", str(out)]) == 4
        assert threading.active_count() == before
        assert len(calls) == 1 and not out.exists()  # session 3 went through the network first
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"error: {bad}: not a readable PCM WAV file (file does not start with RIFF id)"
        assert "Traceback" not in err

    def test_fewer_than_three_marks_give_no_correlation(self, cli_run):
        corpus_dir, model_path, _ = cli_run
        manifest = load_manifest(corpus_dir / "manifest.txt")
        marked = [r for r in manifest.records if r.session_index == 3][:2]
        records = tuple(r if r in marked else dataclasses.replace(r, expert_mark=None)
                        for r in manifest.records)
        grid = scoring.score_sessions(nn.load_model(model_path),
                                      dataclasses.replace(manifest, records=records),
                                      [("P001", 3), ("P001", 4)], expert_marks=True)
        assert [r.session_index for r in grid.reports] == [3, 4]
        assert grid.expert_correlation is None


def _sample_documents():
    """One json document of every report kind, as to_json writes them."""
    score = _sample_score_report()
    evals = scoring.EvalGrid([_sample_eval_report("all"), _sample_eval_report("sex:m")])
    trace = nn.TrainTrace(train_loss=[0.5], train_accuracy=[1.0],
                          test_loss=[0.75], test_accuracy=[0.5])
    grid = scoring.ScoreGrid(reports=[score], expert_correlation=0.5, skipped_sessions=[("P", 5)])
    return [json.loads(scoring.to_json(r)) for r in (score, evals.reports[0], evals, trace, grid)]


def _dicts(node):
    """Every json object in a document, the document itself first."""
    if isinstance(node, dict):
        yield node
        node = list(node.values())
    for child in node if isinstance(node, list) else ():
        yield from _dicts(child)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=12,
)


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("report")


def _report_exit_code(report_dir, doc, fmt):
    path = report_dir / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return main(["report", "--in", str(path), "--format", fmt, "--out", str(report_dir / "out")])


# a valid eval_report document; its 0.75 is replaced by numbers that are not finite
_EVAL_DOC = ('{"kind": "eval_report", "cohort": "all", "n_train": 4, "n_test": 1, "train_accuracy": 0.75,'
             ' "test_accuracy": 1.0, "train_per_class": {"0": 0.5, "1": 1.0}, "test_per_class": {"0": null, "1": 1.0}}')


class TestReportCommand:
    def test_rerenders_json_document(self, cli_run, tmp_path):
        corpus_dir, model_path, _ = cli_run
        doc = tmp_path / "scores.json"
        main(["score", "--model", str(model_path),
              "--manifest", str(corpus_dir / "manifest.txt"),
              "--format", "json", "--out", str(doc)])
        out = tmp_path / "scores.csv"
        assert main(["report", "--in", str(doc), "--format", "csv",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("patient_id,session_index")
        assert len(lines) == 1 + 2

    def test_finite_eval_document_renders(self, tmp_path):
        doc = tmp_path / "eval.json"
        doc.write_text(_EVAL_DOC)
        assert main(["report", "--in", str(doc), "--format", "json", "--out", str(tmp_path / "out.json")]) == 0
        assert json.loads((tmp_path / "out.json").read_text()) == json.loads(_EVAL_DOC)

    def test_not_a_report_exits_four(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "mystery"}))
        assert main(["report", "--in", str(bad)]) == 4

    @pytest.mark.parametrize("text", [
        "[1, 2]",
        '{"kind": "score_report", "bogus": 1}',
        '{"kind": "eval_grid"}',
        '{"kind": "eval_grid", "reports": []}',
        '{"kind": ["score_report"]}',
        '{"kind": "score_grid", "reports": [], "expert_correlation": "high", "skipped_sessions": []}',
        '{"kind": "score_grid", "reports": [], "expert_correlation": null,'
        ' "skipped_sessions": [["\\ud800", 3]]}',
        "[" * 100000,
        *(_EVAL_DOC.replace("0.75", number) for number in ("NaN", "Infinity", "-Infinity", "1e999")),
    ], ids=["list", "unknown_field", "no_reports", "empty_grid", "list_kind", "mistyped_field",
            "lone_surrogate", "deep_nesting", "nan", "infinity", "minus_infinity", "overflowing_float"])
    def test_malformed_document_exits_four(self, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert main(["report", "--in", str(bad), "--out", str(tmp_path / "out.txt")]) == 4

    @settings(max_examples=150, deadline=None)
    @given(doc=JSON_VALUES | st.builds(lambda kind, rest: {**rest, "kind": kind},
                                       st.sampled_from(["score_report", "eval_report", "eval_grid",
                                                        "train_trace", "score_grid"]),
                                       st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=5)),
           fmt=st.sampled_from(["text", "csv", "json"]))
    def test_any_json_value_exits_zero_or_four(self, report_dir, doc, fmt):
        assert _report_exit_code(report_dir, doc, fmt) in (0, 4)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), fmt=st.sampled_from(["text", "csv", "json"]))
    def test_valid_document_with_a_key_dropped_or_added(self, report_dir, data, fmt):
        doc = copy.deepcopy(data.draw(st.sampled_from(_sample_documents())))
        assert _report_exit_code(report_dir, doc, fmt) == 0
        target = data.draw(st.sampled_from(list(_dicts(doc))))
        if target and data.draw(st.booleans()):
            del target[data.draw(st.sampled_from(sorted(target)))]
        else:  # an existing name replaces that field's value
            target[data.draw(st.text(max_size=6) | st.sampled_from(sorted(target) or ["kind"]))] = \
                data.draw(JSON_VALUES)
        assert _report_exit_code(report_dir, doc, fmt) in (0, 4)

    def test_missing_input_exits_three(self, tmp_path):
        assert main(["report", "--in", str(tmp_path / "nope.json")]) == 3


class TestRelations:
    """What one output says must equal what another says about the same thing."""

    @pytest.mark.parametrize("extra", [[], ["--fragment-mean"]], ids=["syllable_mean", "fragment_mean"])
    def test_one_session_scores_as_in_the_full_run(self, cli_run, tmp_path, extra):
        corpus_dir, model_path, _ = cli_run
        out = tmp_path / "scores.json"

        def reports(*sessions):
            assert main(["score", "--model", str(model_path), "--manifest", str(corpus_dir / "manifest.txt"),
                         *extra, *sessions, "--format", "json", "--out", str(out)]) == 0
            return json.loads(out.read_text())["reports"]

        full = reports()
        assert [r["session_index"] for r in full] == [3, 4]
        for report in full:
            assert reports("--sessions", str(report["session_index"])) == [report]

    @pytest.mark.parametrize("command", [
        ["eval"],
        ["eval", "--cohort", "all", "--cohort", "individual:P001"],
        ["score", "--expert-marks"],
    ], ids=["eval_report", "eval_grid", "score_grid"])
    def test_report_renders_the_bytes_of_the_direct_run(self, cli_run, tmp_path, command):
        corpus_dir, model_path, _ = cli_run
        argv = [*command, "--model", str(model_path), "--manifest", str(corpus_dir / "manifest.txt")]
        doc = tmp_path / "doc.json"
        assert main(argv + ["--format", "json", "--out", str(doc)]) == 0
        for fmt in ("text", "csv", "json"):
            direct, again = tmp_path / f"direct.{fmt}", tmp_path / f"again.{fmt}"
            assert main(argv + ["--format", fmt, "--out", str(direct)]) == 0
            assert main(["report", "--in", str(doc), "--format", fmt, "--out", str(again)]) == 0
            assert again.read_bytes() == direct.read_bytes()


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        corpus_dir = tmp_path / "c"
        main(["synth", "--out", str(corpus_dir), "--syllables", "3",
              "--duration", "0.5", "--seed", "2"])
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"epochs": 1, "seed": 2, "standardize": True}))
        base = ["train", "--manifest", str(corpus_dir / "manifest.txt"),
                "--config", str(cfg)]
        trace_a = tmp_path / "a.csv"
        assert main(base + ["--model-out", str(tmp_path / "a.json"),
                            "--trace-out", str(trace_a)]) == 0
        assert len(list(csv.DictReader(trace_a.read_text().splitlines()))) == 1
        trace_b = tmp_path / "b.csv"
        assert main(base + ["--model-out", str(tmp_path / "b.json"),
                            "--trace-out", str(trace_b), "--epochs", "2"]) == 0
        assert len(list(csv.DictReader(trace_b.read_text().splitlines()))) == 2

    def test_negative_config_value_is_not_read_as_a_flag(self, tmp_path):
        cfg = tmp_path / "neg.json"  # -1e-05 once reached argparse as a flag of its own, and exited 2
        cfg.write_text(json.dumps({"tilt": -1e-05, "syllables": 1, "duration": 0.5}))
        assert main(["synth", "--out", str(tmp_path / "a"), "--config", str(cfg)]) == 0
        assert main(["synth", "--out", str(tmp_path / "b"), "--tilt=-1e-05", "--syllables", "1", "--duration", "0.5"]) == 0
        assert _tree(tmp_path / "a") == _tree(tmp_path / "b")

    def test_missing_config_exits_three(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "x"),
                     "--config", str(tmp_path / "nope.json")]) == 3

    def test_malformed_config_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["synth", "--out", str(tmp_path / "x"),
                     "--config", str(bad)]) == 2
        bad.write_bytes(b'{"epochs": 1, "seed": "\xff"}')  # not UTF-8
        assert main(["synth", "--out", str(tmp_path / "x"),
                     "--config", str(bad)]) == 2
        capsys.readouterr()
        for command, key, value in [("train", "trace-out", None),  # once passed on as the path "None"
                                    ("train", "trace-out", {"path": "t.csv"}),
                                    ("train", "cohort", ["all", "sex:m"]),  # train takes one cohort
                                    ("eval", "cohort", [["all"]]),
                                    ("eval", "cohort", ["all", None])]:
            bad.write_text(json.dumps({"epochs": 1, key: value}))
            assert main([command, "--config", str(bad)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: config {bad}: key '{key}' takes") and err.count("\n") == 1
        inner = tmp_path / "inner.json"  # a config key naming another config was once dropped
        inner.write_text(json.dumps({"patients": 3}))
        for key, value in [("config", str(inner)), ("conf", str(inner)), ("config", True)]:
            bad.write_text(json.dumps({key: value, "syllables": 1, "duration": 0.5}))
            assert main(["synth", "--out", str(tmp_path / "c"), "--config", str(bad)]) == 2
            assert capsys.readouterr().err == (f"error: config {bad}: key {key!r} would be a second --config; "
                                               "only one may be given\n")
            assert not (tmp_path / "c").exists()
        for spelling in (["--conf", str(inner)], [f"--confi={inner}"]):  # argparse reads these as --config
            assert main(["synth", "--out", str(tmp_path / "c"), "--syllables", "1", *spelling]) == 2
            assert capsys.readouterr().err == f"error: --config must be spelled out in full; {inner} was not read\n"
            assert not (tmp_path / "c").exists()
        first, second = tmp_path / "a.json", tmp_path / "b.json"  # a later config was once ignored
        first.write_text("{}")
        second.write_text(json.dumps({"patients": 3}))
        for spelling in ([f"--config={second}"], ["--config", str(second)]):
            assert main(["synth", "--out", str(tmp_path / "c"), "--config", str(first), *spelling]) == 2
            assert capsys.readouterr().err == f"error: only one --config may be given, not also {' '.join(spelling)}\n"
            assert not (tmp_path / "c").exists()
        assert main(["synth", "--out", str(tmp_path / "c"), "--config"]) == 2
        assert capsys.readouterr().err == "error: --config needs a file\n"

    def test_config_list_repeats_a_repeatable_flag(self, cli_run, tmp_path):
        corpus_dir, model_path, _ = cli_run
        cfg = tmp_path / "eval.json"
        cfg.write_text(json.dumps({"cohort": ["all", "individual:P001"], "format": "csv"}))
        out = tmp_path / "grid.csv"
        assert main(["eval", "--model", str(model_path), "--manifest", str(corpus_dir / "manifest.txt"),
                     "--config", str(cfg), "--out", str(out)]) == 0
        assert [row["cohort"] for row in csv.DictReader(out.read_text().splitlines())] == ["all", "individual:P001"]
        # an explicit repeatable flag, in any spelling argparse reads as it, replaces the config's list
        for spelling, cohorts in [(["--cohort", "sex:m"], ["sex:m"]), (["--cohort=sex:m"], ["sex:m"]),
                                  (["--coh", "sex:m"], ["sex:m"]),
                                  (["--cohort", "sex:m", "--cohort", "all"], ["sex:m", "all"])]:
            assert main(["eval", "--model", str(model_path), "--manifest", str(corpus_dir / "manifest.txt"),
                         "--config", str(cfg), "--out", str(out), *spelling]) == 0
            assert [row["cohort"] for row in csv.DictReader(out.read_text().splitlines())] == cohorts
        # the flags that take a list are the ones the parser declares repeatable
        appended = {name: {a.option_strings[0][2:] for a in sub._actions if isinstance(a, argparse._AppendAction)}
                    for name, sub in _subparsers().items()}
        assert {name: flags for name, flags in appended.items() if flags} == cli._REPEATABLE


# The numeric flags whose values the program bounds from above. Only these draw huge values:
# a huge value that passes every bound (--patients, --epochs) would ask for memory or time.
UPPER_BOUNDED = {"--sample-rate", "--duration", "--articulation-spread", "--snr-clean", "--snr-worst",
                 "--split-ratio", "--hop", "--gate-ratio"}
NUMERIC_FLAGS = [(name, action.option_strings[0], action.type) for name, sub in _subparsers().items()
                 for action in sub._actions if action.type in (int, float)]
EDGE_KINDS = ["zero", "negative", "nan", "inf", "huge"]

# A valid value for every flag of synth and train but the output paths and --config; a
# switch draws whether it is given. --syllables and --epochs are always drawn, to keep each
# run small.
SYNTH_DRAWS = {
    "--patients": st.integers(1, 2),
    "--sample-rate": st.sampled_from([8000, 16000]), "--duration": st.sampled_from([0.4, 0.5]),
    "--formant-shift": st.floats(0, 400), "--tilt": st.floats(-12, 12),
    "--snr-clean": st.floats(20, 50), "--snr-worst": st.floats(0, 20),
    "--articulation-spread": st.floats(0, 0.4), "--seed": st.integers(0, 99),
    "--severities": st.sampled_from(["0.9,0.1", "0.5"]), "--expert-marks": st.booleans(),
}
TRAIN_DRAWS = {
    "--cohort": st.sampled_from(["all", "individual:P001", "sex:m"]), "--batch-size": st.integers(8, 64),
    "--learning-rate": st.floats(1e-4, 1e-2), "--seed": st.integers(0, 99), "--no-clip": st.booleans(),
    "--split-ratio": st.floats(0.5, 0.9), "--split-by": st.sampled_from(["fragment", "syllable"]),
    "--standardize": st.booleans(), "--drop-incomplete": st.booleans(),
    "--hop": st.sampled_from([256, 512]), "--window": st.sampled_from(["hann", "rect"]),
    "--gate-ratio": st.floats(1e-5, 1e-2), "--log-floor": st.floats(1e-12, 1e-6),
    "--fragment-hop": st.integers(4, 8), "--no-log": st.booleans(),
}
ALWAYS_DRAWN = {"synth": {"--syllables": st.integers(1, 3)}, "train": {"--epochs": st.integers(1, 2)}}


def _quiet_main(argv):
    """main's exit code, argparse's SystemExit included, and what it wrote to stderr."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def _tree(root):
    return {path.relative_to(root): path.read_bytes() for path in sorted(Path(root).rglob("*")) if path.is_file()}


class TestParserContract:
    """What build_parser() declares: a flag for every config field, and a clean exit for any
    value of a numeric flag."""

    @pytest.mark.parametrize("command, classes, argv", [
        ("synth", [synth.SynthSpec], ["--out", "c"]),
        ("train", [nn.TrainConfig, DspConfig], ["--manifest", "m.txt", "--model-out", "m.json"]),
    ])
    def test_every_config_field_has_exactly_one_flag(self, command, classes, argv):
        dests = [action.dest for action in _subparsers()[command]._actions if action.option_strings]
        args = build_parser().parse_args([command, *argv])
        for cls in classes:
            for f in dataclasses.fields(cls):  # frame_len is fixed at 1024, so no flag sets it
                assert dests.count(f.name) == (f.name != "frame_len"), f"{cls.__name__}.{f.name}"
            assert cli._config(cls, args) == cls()

    def test_draws_cover_every_flag(self):
        assert UPPER_BOUNDED <= {flag for _, flag, _ in NUMERIC_FLAGS}
        skipped = {"-h", "--out", "--manifest", "--model-out", "--trace-out", "--config"}
        for command, draws in [("synth", SYNTH_DRAWS), ("train", TRAIN_DRAWS)]:
            flags = {action.option_strings[0] for action in _subparsers()[command]._actions}
            assert flags - skipped == set(draws) | set(ALWAYS_DRAWN[command])

    @pytest.mark.parametrize("command, flag, kind, edge", [
        (command, flag, kind, edge) for command, flag, kind in NUMERIC_FLAGS
        for edge in EDGE_KINDS if edge != "huge" or flag in UPPER_BOUNDED
    ], ids=lambda v: getattr(v, "__name__", v))
    @settings(max_examples=3, deadline=None)
    @given(data=st.data())
    def test_numeric_flag_edge_value_exits_cleanly(self, cli_run, command, flag, kind, edge, data):
        """0, a negative, nan, inf and (for a bounded flag) a huge value each give an exit code
        in {0, 2, 3, 4, 5}; an uncaught exception fails the test with its traceback."""
        negative = st.integers(-10**6, -1).map(str) | (st.floats(-1e6, -1e-6).map(repr) if kind is float else st.nothing())
        value = data.draw({"zero": st.just("0"), "negative": negative,
                           "nan": st.sampled_from(["nan", "-nan"]), "inf": st.sampled_from(["inf", "-inf"]),
                           "huge": st.sampled_from(["1e300", str(2**64)])}[edge], label=flag)
        corpus_dir, _, _ = cli_run
        with tempfile.TemporaryDirectory() as tmp:
            base = {"synth": ["synth", "--out", f"{tmp}/c", "--syllables", "1", "--duration", "0.5"],
                    "train": ["train", "--manifest", str(corpus_dir / "manifest.txt"),
                              "--model-out", f"{tmp}/m.json", "--epochs", "1"]}[command]
            code, err = _quiet_main([*base, f"{flag}={value}"])
        assert code in (0, 2, 3, 4, 5) and "Traceback" not in err

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_config_file_writes_the_bytes_of_the_same_flags(self, data):
        """A --config file holding a drawn flag set gives the exit code and the files that the
        same flags on the command line give, for synth and for a train on its corpus. A
        negative value such as --tilt=-1e-05 once read as a flag when it came from a config."""
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            for command, draws in [("synth", SYNTH_DRAWS), ("train", TRAIN_DRAWS)]:
                flags = data.draw(st.fixed_dictionaries(ALWAYS_DRAWN[command], optional=draws), label=command)
                (tmp / f"{command}.json").write_text(json.dumps({flag[2:]: value for flag, value in flags.items()}))
                argv = [flag if value is True else f"{flag}={value}" for flag, value in flags.items() if value is not False]
                outputs = []
                for side, extra in [("flags", argv), ("config", ["--config", str(tmp / f"{command}.json")])]:
                    out = tmp / command / side
                    where = (["--out", str(out)] if command == "synth" else
                             ["--manifest", str(tmp / "synth" / "flags" / "manifest.txt"),
                              "--model-out", str(out / "m.json")])
                    code, _ = _quiet_main([command, *where, *extra])
                    outputs.append((code, _tree(out) if out.exists() else None))
                assert outputs[0] == outputs[1]
                if outputs[0][0] != 0:
                    break
