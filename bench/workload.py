"""One benchmark run of one workload, in a process of its own.

run.py starts this script with the BLAS thread count fixed in the child's
environment and `src/` on PYTHONPATH. It builds the workload's inputs from
the seed, times the set-up several times, drops one warm-up operation,
then repeats the operation through `syllascore.cli.main` until the timed
operations add up to --seconds (and at least MIN_OPS of them ran). Outputs
are checked after each operation, outside the timed region. The last line
on stdout is the result object.

With --trace 1 the set-up, every second operation and a closing probe of
the layers neither reaches run under the span tracer (spans.py), and the
per-layer metrics are printed instead.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np
from scipy import stats

import reference as ref
from spans import Tracer

from syllascore import cli, corpus, dsp, nn, scoring, synth
from syllascore.audio import read_wav

MIN_OPS = {"full": 3, "smoke": 1}
ACCURACY_FLOOR = 0.9
SPLIT_RATIO = 0.8
MEAN_ATOL = 1e-12  # Q and syllable scores against the mean of their parts
CORRELATION_ATOL = 1e-9
SAMPLED_RECORDINGS = 3
BACKWARD_REPEATS = 9

# Inputs per workload and scale. The smoke scale runs every check on tiny
# inputs; it is not a workload.
SCALES = {
    "train_individual": {
        "full": {"patients": 1, "syllables": 20, "epochs": 30},
        "smoke": {"patients": 1, "syllables": 4, "epochs": 20},
    },
    "score_sessions": {
        "full": {"patients": 1, "syllables": 20, "sessions": 40, "epochs": 5},
        "smoke": {"patients": 1, "syllables": 4, "sessions": 5, "epochs": 5},
    },
    "cohort_eval": {
        "full": {"patients": 8, "syllables": 100, "epochs": 1},
        "smoke": {"patients": 2, "syllables": 4, "epochs": 10},
    },
}

END_TO_END = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "nn.backward.step_ms": "ms",
    "nn.adam_step.busy_s": "s",
    "nn.adam_step.calls": "count",
    "nn.train.busy_s": "s",
    "nn.train.metrics_s": "s",
    "nn.forward_batch.calls": "count",
    "nn.forward_batch.busy_s": "s",
    "nn.forward_batch.fragments_per_call": "count",
    "nn.load_model.busy_s": "s",
    "nn.save_model.busy_s": "s",
    "nn.model_file_kb": "kB",
    "audio.read_wav.calls": "count",
    "audio.read_wav.busy_s": "s",
    "audio.read_wav.mb": "MB",
    "dsp.stft_magnitude.busy_s": "s",
    "dsp.gate_silence.busy_s": "s",
    "dsp.log_compress.busy_s": "s",
    "dsp.slice_fragments.busy_s": "s",
    "dsp.fragments": "count",
    "dsp.gate_silence.frames_kept_ratio": "ratio",
    "corpus.collect_training_fragments.self_s": "s",
    "corpus.collect_training_fragments.calls": "count",
    "corpus.fragment_stack_mb": "MB",
    "corpus.recordings_unique_ratio": "ratio",
    "corpus.collect_session_fragments.self_s": "s",
    "scoring.score_session.self_s": "s",
    "scoring.render.busy_s": "s",
    "dataset.load_manifest.busy_s": "s",
    "scoring.evaluate.self_s": "s",
    "synth.generate_corpus.busy_s": "s",
    "synth.generate_trajectory.busy_s": "s",
    "audio.write_wav.busy_s": "s",
    "process.cpu_per_wall": "ratio",
    "trace.overhead_ratio": "ratio",
}


def run_cli(argv):
    """syllascore.cli.main in-process, its stdout kept off ours."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def read_manifest(path):
    """(patient, session, syllable, audio path, expert mark) per record."""
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        mark = int(fields[6]) if len(fields) > 6 and fields[6] != "" else None
        rows.append((fields[0], int(fields[1]), fields[2], Path(path).parent / fields[4], mark))
    return rows


def pearson(xs, ys):
    xs = np.asarray(xs, dtype=np.float64) - np.mean(xs)
    ys = np.asarray(ys, dtype=np.float64) - np.mean(ys)
    return float(np.sum(xs * ys) / np.sqrt(np.sum(xs * xs) * np.sum(ys * ys)))


def check_recording(path, model_file, program_scores=None, program_model=None):
    """Failures of one recording against the reference front end and forward.

    The program's fragments come from its public dsp chain; its scores
    either from a report (program_scores) or from nn.forward_batch on a
    loaded model (program_model).
    """
    model = ref.parse_model(model_file)
    expected = ref.front_end(ref.read_pcm16(path), model["dsp"])
    cfg = dsp.DspConfig.from_dict(model["dsp"])
    frags = dsp.pipeline(read_wav(path), cfg)
    actual = np.stack([f.values for f in frags]) if frags else np.empty((0, 8, 513))
    failures = [ref.compare(f"{path.name} fragments", expected, actual, ref.FRONT_END_ATOL)]
    p_ref = ref.forward(model["params"], ref.standardize(model, expected))
    if program_scores is None:
        program_scores = nn.forward_batch(program_model, program_model.standardize(actual))
    failures.append(ref.compare(f"{path.name} scores", p_ref, program_scores, ref.FORWARD_ATOL))
    return [f for f in failures if f]


class Workload:
    """Inputs, set-up, operation and output checks of one workload."""

    n_setups = 3

    def __init__(self, work, seed, scale):
        self.work = Path(work)
        self.seed = seed
        self.scale = scale
        self.corpus = self.work / "corpus"
        self.manifest = self.corpus / "manifest.txt"
        self.model = self.work / "model" / "model.json"
        self.out = self.work / "out"
        self.corpus_seed = seed

    def setup(self):
        """Build the corpus (and model) from scratch; returns seconds spent."""
        shutil.rmtree(self.corpus, ignore_errors=True)
        shutil.rmtree(self.model.parent, ignore_errors=True)
        elapsed = 0.0
        for argv in self.setup_commands():
            t0 = time.perf_counter()
            rc = run_cli(argv)
            elapsed += time.perf_counter() - t0
            if rc != 0:
                raise RuntimeError(f"set-up command {argv[0]} exited {rc}")
        return elapsed

    def synth_argv(self, *extra):
        return ["synth", "--out", self.corpus, "--patients", self.scale["patients"],
                "--syllables", self.scale["syllables"], "--seed", self.corpus_seed, *extra]

    def train_argv(self, out, trace, *extra):
        return ["train", "--manifest", self.manifest, "--cohort", "individual:P001",
                "--model-out", out, "--trace-out", trace, "--epochs", self.scale["epochs"],
                "--batch-size", 32, "--seed", self.seed, *extra]

    def setup_commands(self):
        raise NotImplementedError

    def argv(self):
        raise NotImplementedError

    def units(self):
        raise NotImplementedError

    def check(self, op_index):
        """Failure messages for the outputs of the operation just run."""
        raise NotImplementedError

    def trained_model(self):
        return self.model

    def probe(self):
        """Reach every layer once on this corpus; failure messages.

        Appends one rehabilitation session for P001, then runs `eval` of the
        model's training cohort and `score` of the new session.
        """
        spec = synth.SynthSpec(n_patients=self.scale["patients"],
                               syllables_per_set=self.scale["syllables"], seed=self.corpus_seed)
        _, added = synth.generate_trajectory(spec, self.corpus, "P001", [0.5])
        out = self.work / "probe"
        commands = [
            ["eval", "--model", self.trained_model(), "--manifest", self.manifest,
             "--out", out / "eval.txt"],
            ["score", "--model", self.trained_model(), "--manifest", self.manifest,
             "--patient", "P001", "--sessions", min(added), "--out", out / "score.txt"],
        ]
        return [f"probe {argv[0]} exited {rc}" for argv in commands if (rc := run_cli(argv)) != 0]


class TrainIndividual(Workload):
    """The clinician's model build at the acceptance scale."""

    n_setups = 9

    def setup_commands(self):
        return [self.synth_argv()]

    def argv(self):
        return self.train_argv(self.out / "model.json", self.out / "trace.csv")

    def trained_model(self):
        return self.out / "model.json"

    def units(self):
        meta = ref.parse_model(self.out / "model.json")["meta"]
        return meta["n_train"] * meta["epochs"]

    def check(self, op_index):
        files = (self.out / "model.json").read_bytes(), (self.out / "trace.csv").read_bytes()
        if op_index == 0:
            self.first_files = files
        failures = []
        if files != self.first_files:
            failures.append("model or trace file differs from the run's first operation")
        rows = [line.split(",") for line in files[1].decode().splitlines()[1:]]
        if len(rows) != self.scale["epochs"]:
            failures.append(f"trace has {len(rows)} rows for {self.scale['epochs']} epochs")
        if not any(float(r[2]) >= 0.98 and float(r[4]) >= 0.95 for r in rows):
            failures.append("no epoch reaches train accuracy 0.98 and test accuracy 0.95")
        if op_index == 0:
            loaded = nn.load_model(self.out / "model.json")
            records = [r for r in read_manifest(self.manifest) if r[1] in (1, 2)]
            rng = np.random.default_rng([self.seed, op_index])
            for k in rng.choice(len(records), SAMPLED_RECORDINGS, replace=False):
                failures += check_recording(records[k][3], self.out / "model.json",
                                            program_model=loaded)
        return failures


class ScoreSessions(Workload):
    """The clinic's repeated scoring of a rehabilitation ladder."""

    def severities(self):
        return [round(float(s), 4) for s in np.linspace(0.95, 0.05, self.scale["sessions"])]

    def setup_commands(self):
        ladder = ",".join(str(s) for s in self.severities())
        return [self.synth_argv("--severities", ladder, "--expert-marks"),
                self.train_argv(self.model, self.model.with_suffix(".csv"), "--standardize")]

    def argv(self):
        return ["score", "--model", self.model, "--manifest", self.manifest,
                "--expert-marks", "--format", "json", "--out", self.out / "scores.json"]

    def units(self):
        return self.scale["sessions"] * self.scale["syllables"] * self.scale["patients"]

    def check(self, op_index):
        grid = json.loads((self.out / "scores.json").read_text(encoding="utf-8"))
        reports = {r["session_index"]: r for r in grid["reports"]}
        severity = dict(enumerate(self.severities(), start=3))
        if sorted(reports) != sorted(severity) or grid["skipped_sessions"]:
            return [f"sessions scored {sorted(reports)}, expected {sorted(severity)}"]
        failures = []
        for r in reports.values():
            parts = [r["session_score"], *r["syllable_scores"].values()]
            parts += [p for ps in r["fragment_scores"].values() for p in ps]
            if not all(np.isfinite(parts)) or min(parts) < 0.0 or max(parts) > 1.0:
                failures.append(f"session {r['session_index']}: a score is not finite or outside [0, 1]")
            syllables = r["syllable_scores"]
            if abs(r["session_score"] - np.mean(list(syllables.values()))) > MEAN_ATOL:
                failures.append(f"session {r['session_index']}: Q is not the mean of its syllables")
            for syl, ps in r["fragment_scores"].items():
                if abs(syllables[syl] - np.mean(ps)) > MEAN_ATOL:
                    failures.append(f"session {r['session_index']} {syl}: "
                                    "syllable score is not the mean of its fragments")
        rho = stats.spearmanr([severity[s] for s in sorted(reports)],
                              [reports[s]["session_score"] for s in sorted(reports)]).statistic
        if not rho <= -0.9:
            failures.append(f"Spearman(severity, Q) = {rho:.3f} > -0.9")
        records = read_manifest(self.manifest)
        marked = [(reports[s]["syllable_scores"][syl], mark)
                  for _, s, syl, _, mark in records if s >= 3 and mark is not None]
        r_expert = pearson([x for x, _ in marked], [m for _, m in marked])
        if not r_expert >= 0.8:
            failures.append(f"expert-mark correlation {r_expert:.3f} < 0.8")
        if grid["expert_correlation"] is None or abs(grid["expert_correlation"] - r_expert) > CORRELATION_ATOL:
            failures.append(f"reported expert correlation {grid['expert_correlation']} != {r_expert}")
        rehab = [r for r in records if r[1] >= 3]
        rng = np.random.default_rng([self.seed, op_index])
        for k in rng.choice(len(rehab), SAMPLED_RECORDINGS, replace=False):
            _, s, syl, path, _ = rehab[k]
            failures += check_recording(path, self.model,
                                        program_scores=reports[s]["fragment_scores"][syl])
        return failures


class CohortEval(Workload):
    """The researcher's cohort view: all, sex:m and sex:f over a larger corpus."""

    COHORTS = ("all", "sex:m", "sex:f")

    def __init__(self, work, seed, scale):
        super().__init__(work, seed, scale)
        self.corpus_seed = self.seed_with_both_sexes()

    def seed_with_both_sexes(self):
        """First corpus seed from the run's seed on whose patients both sexes occur.

        Sex is drawn per patient from the corpus seed; a one-sex corpus has
        an empty sex cohort, on which eval rightly exits 5.
        """
        probe = self.work / "sex_probe"
        for k in range(64):
            seed = self.seed + 1_000_000 * k
            spec = synth.SynthSpec(n_patients=self.scale["patients"], syllables_per_set=1,
                                   duration_s=0.2, seed=seed)
            sexes = set(synth.generate_corpus(spec, probe).patient_sex.values())
            shutil.rmtree(probe)
            if sexes == {"m", "f"}:
                return seed
        raise RuntimeError("no corpus seed with both sexes")

    def setup_commands(self):
        return [self.synth_argv(), self.train_argv(self.model, self.model.with_suffix(".csv"))]

    def argv(self):
        cohorts = [arg for c in self.COHORTS for arg in ("--cohort", c)]
        return ["eval", "--model", self.model, "--manifest", self.manifest, *cohorts,
                "--format", "json", "--out", self.out / "eval.json"]

    def units(self):
        return 2 * 2 * self.scale["patients"] * self.scale["syllables"]

    def check(self, op_index):
        grid = json.loads((self.out / "eval.json").read_text(encoding="utf-8"))
        reports = {r["cohort"]: r for r in grid["reports"]}
        if sorted(reports) != sorted(self.COHORTS):
            return [f"cohorts reported {sorted(reports)}, expected {sorted(self.COHORTS)}"]
        failures = []
        size = {c: r["n_train"] + r["n_test"] for c, r in reports.items()}
        if size["all"] != size["sex:m"] + size["sex:f"]:
            failures.append(f"fragments: all {size['all']} != sex:m {size['sex:m']} + sex:f {size['sex:f']}")
        for c, r in reports.items():
            if abs(r["n_train"] - SPLIT_RATIO * size[c]) > 1.0:
                failures.append(f"{c}: {r['n_test']} of {size[c]} fragments held out, ratio {SPLIT_RATIO}")
            for side in ("train_accuracy", "test_accuracy"):
                if not (np.isfinite(r[side]) and r[side] >= ACCURACY_FLOOR):
                    failures.append(f"{c}: {side} {r[side]} below the floor {ACCURACY_FLOOR}")
        if op_index == 0:
            out = self.out / "eval_training_cohort.json"
            rc = run_cli(["eval", "--model", self.model, "--manifest", self.manifest,
                          "--format", "json", "--out", out])
            stored = ref.parse_model(self.model)["meta"]["final_test_accuracy"]
            own = json.loads(out.read_text(encoding="utf-8")) if rc == 0 else {}
            if own.get("test_accuracy") != stored:
                failures.append(f"training-cohort eval gives test accuracy {own.get('test_accuracy')}, "
                                f"model stores {stored}")
        return failures


WORKLOADS = {
    "train_individual": TrainIndividual,
    "score_sessions": ScoreSessions,
    "cohort_eval": CohortEval,
}


class Runner:
    """Times operations, counts failures and collects check results."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.check_failures = []
        self.n_ops = 0

    def operation(self, count=True, tracer=None):
        """Run one operation; returns its wall and CPU seconds.

        With a tracer, only the CLI call is traced, not the checks.
        """
        self.workload.out.mkdir(parents=True, exist_ok=True)
        if tracer is not None:
            tracer.install("op", self.n_ops)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            rc = run_cli(self.workload.argv())
        except Exception as exc:  # an operation that raises counts as failed
            rc = repr(exc)
        finally:
            elapsed = time.perf_counter() - t0
            cpu = time.process_time() - c0
            if tracer is not None:
                tracer.uninstall()
        self.attempted += count
        if rc != 0:
            self.failed += count
            print(f"operation failed: {rc}", file=sys.stderr)
        else:
            try:
                failures = self.workload.check(self.n_ops)
            except Exception as exc:  # a malformed output fails its check
                failures = [f"check raised {exc!r}"]
            for failure in failures:
                self.check_failures.append(failure)
                print(f"check failed: {failure}", file=sys.stderr)
        self.n_ops += 1
        return elapsed, cpu


def machine():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "cpu": model,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure(workload, runner, seconds, min_ops):
    setup_times = [workload.setup() for _ in range(workload.n_setups)]
    runner.operation(count=False)  # warm-up
    op_times = []
    while len(op_times) < min_ops or sum(op_times) < seconds:
        op_times.append(runner.operation()[0])
    units = workload.units() * len(op_times)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "latency_p50_s": statistics.median(op_times),
        "work_per_s": units / sum(op_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"setup_s": setup_times, "op_s": op_times, "units_per_op": workload.units()}


def replay_train(tracer, phase):
    """Public stand-ins for what nn.train does privately, on its own inputs.

    The gradient step is replayed as nn.backward at the training batch size,
    the per-epoch metrics as nn.forward_batch over both splits (times the
    epoch count).
    """
    (X, y, split, config), kwargs, (model, _) = tracer.train_calls[phase]
    Xs = model.standardize(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    batch = split.train_indices[: config.batch_size]
    steps = []
    for _ in range(BACKWARD_REPEATS):
        t0 = time.perf_counter()
        nn.backward(model, Xs[batch], y[batch])
        steps.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    nn.forward_batch(model, Xs[split.train_indices])
    nn.forward_batch(model, Xs[split.test_indices])
    metrics_s = (time.perf_counter() - t0) * config.epochs
    return statistics.median(steps) * 1e3, metrics_s


def layer_metrics(tracer, n_traced):
    """Per-layer values per traced operation.

    A layer the operation does not reach is reported from the traced
    set-up instead (nn.train on score_sessions is the set-up's training),
    and one that neither reaches from the probe.
    """
    phases = {"op": (tracer.totals("op"), n_traced), "setup": (tracer.totals("setup"), 1),
              "probe": (tracer.totals("probe"), 1)}

    def phase_of(span):
        return next((ph for ph in ("op", "setup", "probe") if span in phases[ph][0]), "op")

    def span_value(span, field):
        totals, n = phases[phase_of(span)]
        return totals[span][field] / n if span in totals else 0.0

    def count(span, key):
        ph = phase_of(span)
        return tracer.counts.get((ph, key), 0.0) / phases[ph][1]

    def ratio(a, b):
        return a / b if b else 0.0

    step_ms, metrics_s = replay_train(tracer, "op" if "op" in tracer.train_calls else "setup")
    model_phase = next(ph for ph in ("op", "setup", "probe") if (ph, "nn.model_file_kb") in tracer.counts)
    out = {
        "nn.backward.step_ms": step_ms,
        "nn.train.metrics_s": metrics_s,
        "nn.forward_batch.fragments_per_call": ratio(count("nn.forward_batch", "nn.forward_batch.fragments"),
                                                     span_value("nn.forward_batch", 0)),
        "nn.model_file_kb": tracer.counts.get((model_phase, "nn.model_file_kb"), 0.0),
        "audio.read_wav.mb": count("audio.read_wav", "audio.read_wav.mb"),
        "dsp.fragments": count("dsp.slice_fragments", "dsp.fragments"),
        "dsp.gate_silence.frames_kept_ratio": ratio(count("dsp.gate_silence", "dsp.frames_kept"),
                                                    count("dsp.gate_silence", "dsp.frames_in")),
        "corpus.fragment_stack_mb": count("corpus.collect_training_fragments", "corpus.fragment_stack_mb"),
        "corpus.recordings_unique_ratio": ratio(count("audio.read_wav", "audio.read_wav.unique"),
                                                span_value("audio.read_wav", 0)),
    }
    fields = {"calls": 0, "busy_s": 1, "self_s": 2}
    for name in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if name not in out and kind in fields:
            out[name] = span_value(span, fields[kind])
    return out


def trace(workload, runner, seconds, tracer):
    tracer.install("setup")
    try:
        workload.setup()
    finally:
        tracer.uninstall()
    runner.operation(count=False)  # warm-up
    plain, traced, cpu = [], [], 0.0
    while not traced or sum(plain) + sum(traced) < seconds:
        plain.append(runner.operation()[0])
        wall_s, cpu_s = runner.operation(tracer=tracer)
        traced.append(wall_s)
        cpu += cpu_s
    tracer.install("probe")
    try:
        failures = workload.probe()
    finally:
        tracer.uninstall()
    runner.check_failures += failures
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    metrics = layer_metrics(tracer, len(traced))
    metrics["process.cpu_per_wall"] = cpu / sum(traced)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    return metrics, {"untraced_op_s": plain, "traced_op_s": traced}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--work", required=True, help="scratch directory, removed by the caller")
    parser.add_argument("--record", required=True, help="directory for the run record and spans")
    args = parser.parse_args(argv)

    scale = SCALES[args.workload][args.scale]
    workload = WORKLOADS[args.workload](args.work, args.seed, scale)
    runner = Runner(workload)
    if args.trace:
        tracer = Tracer({"cli": cli, "corpus": corpus, "dsp": dsp, "nn": nn,
                         "scoring": scoring, "synth": synth})
        values, raw = trace(workload, runner, args.seconds, tracer)
        units = PER_LAYER
    else:
        values, raw = measure(workload, runner, args.seconds, MIN_OPS[args.scale])
        units = END_TO_END
    result = {
        "correct": not runner.check_failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = Path(args.record)
    record.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    doc = {"workload": args.workload, "scale": scale, "seed": args.seed,
           "corpus_seed": workload.corpus_seed, "seconds": args.seconds, "machine": machine(),
           "raw": raw, "check_failures": runner.check_failures, "result": result}
    (record / f"{stem}.json").write_text(json.dumps(doc, indent=1), encoding="utf-8")
    if args.trace:
        tracer.write(record / f"{stem}.spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
