"""Tests of the benchmark itself: its reference checks, smoke mode and schema.

    PYTHONPATH=src python -m pytest bench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import workload  # noqa: E402
from syllascore import audio, dsp, nn, synth  # noqa: E402


@pytest.fixture(scope="module")
def recording_and_model(tmp_path_factory):
    """One synthetic recording plus a randomly initialised full-size model file."""
    root = tmp_path_factory.mktemp("bench_ref")
    spec = synth.SynthSpec(seed=4)
    wav = root / "rec.wav"
    audio.write_wav(wav, synth.synth_syllable(spec, "P001", 3, "s01", 0.4))
    rng = np.random.default_rng(4)
    arch = nn.Architecture()
    params = nn.init_params(arch, rng) + rng.normal(0.0, 0.05, arch.param_count)
    path = root / "model.json"
    nn.save_model(nn.Model(arch, params), path)
    return wav, path


def test_check_passes_on_the_program_as_it_is(recording_and_model):
    wav, path = recording_and_model
    assert workload.check_recording(wav, path, program_model=nn.load_model(path)) == []


@pytest.mark.parametrize("block", ["lstm1.W", "lstm1.b", "lstm2.W", "lstm2.b", "dense1.W", "dense2.b", "dense3.b"])
def test_perturbed_model_parameter_fails_the_check(recording_and_model, block):
    wav, path = recording_and_model
    model = nn.load_model(path)
    offset = 0
    for name, shape in model.arch.layout():
        if name == block:
            break
        offset += int(np.prod(shape))
    model.params[offset] += 0.5
    failures = workload.check_recording(wav, path, program_model=model)
    assert any("scores" in f for f in failures), failures


def test_reference_front_end_rejects_a_wrong_setting(recording_and_model):
    wav, path = recording_and_model
    samples = ref.read_pcm16(wav)
    program = np.stack([f.values for f in dsp.pipeline(audio.read_wav(wav), dsp.DspConfig())])
    right = ref.front_end(samples, dsp.DspConfig().to_dict())
    wrong = ref.front_end(samples, dsp.DspConfig(window="rect").to_dict())
    assert ref.compare("fragments", right, program, ref.FRONT_END_ATOL) == ""
    assert ref.compare("fragments", wrong, program, ref.FRONT_END_ATOL) != ""


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workload.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workload.PER_LAYER


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "score_sessions",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_smoke_mode_passes_every_check():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr[-3000:]
    assert proc.stdout.count(": ok") == 2 * len(workload.WORKLOADS)
