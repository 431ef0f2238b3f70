"""Command-line pipeline: synth, train, eval, score, report.

Exit codes: 0 success, 2 bad flags, 3 I/O failure, 4 input validation
failure, 5 degenerate data (empty cohort, one-class corpus, nothing to
score). All randomness funnels through --seed (default 0) and no command
consults the wall clock, so identical invocations at the same BLAS thread
count produce identical bytes. A different thread count can move a trace
value or a fragment score in its last float32 bits (see the README).

A subcommand may take --config <file>: a json object whose keys are the
subcommand's flag names without the leading dashes ({"epochs": 10,
"standardize": true}). Explicit flags win over config values. A second
--config exits 2.
"""

import argparse
import json
import logging
import sys
from pathlib import Path

from . import corpus, nn, scoring, synth
from .dataset import Cohort, filter_cohort, load_manifest, split_rows
from .dsp import FRAGMENT_FRAMES, N_BINS, DspConfig
from .errors import (AudioFormatError, CorruptFile, DegenerateInput, EmptyCohort,
                     EmptySession, EmptySplit, ParseError, TooShort,
                     ValidationError, VersionMismatch)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_VALIDATION = 4
EXIT_DEGENERATE = 5


def _fail_usage(message):
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _emit(text, out_path):
    if out_path:
        Path(out_path).parent.mkdir(parents=True, exist_ok=True)
        Path(out_path).write_text(text + ("\n" if not text.endswith("\n") else ""), encoding="utf-8")
    else:
        print(text)


def _parse_float_list(text):
    return [float(part) for part in text.split(",") if part.strip() != ""]


def _dsp_from_args(args):
    return DspConfig(
        hop=args.hop,
        window=args.window,
        gate_ratio=args.gate_ratio,
        log_floor=args.log_floor,
        fragment_hop=args.fragment_hop,
        use_log=not args.no_log,
    )


def _add_dsp_flags(sub):
    sub.add_argument("--hop", type=int, default=DspConfig.hop, help="STFT hop in samples")
    sub.add_argument("--window", choices=["hann", "rect"], default=DspConfig.window)
    sub.add_argument("--gate-ratio", type=float, default=DspConfig.gate_ratio,
                     help="frame energy threshold relative to the loudest frame")
    sub.add_argument("--log-floor", type=float, default=DspConfig.log_floor)
    sub.add_argument("--fragment-hop", type=int, default=DspConfig.fragment_hop,
                     help="frames between fragment starts (8 = non-overlapping)")
    sub.add_argument("--no-log", action="store_true", help="keep raw magnitudes (ablation)")


def cmd_synth(args):
    if args.severities is not None:
        try:
            severities = _parse_float_list(args.severities)
        except ValueError:
            return _fail_usage("--severities must be a comma-separated list of numbers")
        if not severities or any(not 0.0 <= s <= 1.0 for s in severities):
            return _fail_usage("--severities values must lie in [0, 1]")
    else:
        severities = None
    if args.expert_marks and severities is None:
        return _fail_usage("--expert-marks requires --severities")
    try:
        spec = synth.SynthSpec(
            n_patients=args.patients,
            syllables_per_set=args.syllables,
            sample_rate_hz=args.sample_rate,
            duration_s=args.duration,
            formant_shift_hz=args.formant_shift,
            tilt_db_per_octave=args.tilt,
            snr_clean_db=args.snr_clean,
            snr_worst_db=args.snr_worst,
            articulation_spread=args.articulation_spread,
            seed=args.seed,
        )
    except ValueError as exc:
        return _fail_usage(exc)
    manifest = synth.generate_corpus(spec, args.out)
    n_files = len(manifest.records)
    if severities is not None:
        for patient_id in spec.patient_ids():
            manifest, _ = synth.generate_trajectory(spec, args.out, patient_id, severities,
                                                    expert_marks=args.expert_marks)
        n_files = len(manifest.records)
    print(f"wrote {n_files} recordings and {Path(args.out) / 'manifest.txt'}")
    return EXIT_OK


def cmd_train(args):
    if not 0.0 < args.split_ratio < 1.0:
        return _fail_usage("--split-ratio must be in (0, 1)")
    try:
        cohort = Cohort.parse(args.cohort)
        cfg = _dsp_from_args(args)
        config = nn.TrainConfig(
            learning_rate=args.learning_rate,
            batch_size=args.batch_size,
            epochs=args.epochs,
            seed=args.seed,
            clip_norm=None if args.no_clip else nn.TrainConfig.clip_norm,
        )
    except ValueError as exc:
        return _fail_usage(exc)
    manifest = filter_cohort(load_manifest(args.manifest, drop_incomplete=args.drop_incomplete), cohort)
    X, y, groups = corpus.collect_training_fragments(manifest, cfg)
    settings = {"split_by": args.split_by, "split_ratio": args.split_ratio, "split_seed": args.seed}
    model, trace = nn.train(X, y, split_rows(groups, y, settings), config, dsp_config=cfg,
                            standardize=args.standardize, extra_meta={"cohort": str(cohort), **settings})
    nn.save_model(model, args.model_out)
    trace_out = args.trace_out or str(Path(args.model_out).with_suffix("")) + ".trace.csv"
    _emit(scoring.to_csv(trace), trace_out)
    meta = model.train_meta
    print(f"trained on {meta['n_train']} fragments ({meta['n_test']} held out): "
          f"train accuracy {meta['final_train_accuracy']:.3f}, "
          f"test accuracy {meta['final_test_accuracy']:.3f}")
    print(f"model written to {args.model_out}")
    return EXIT_OK


def _load_model(path):
    """A model file whose network reads the fragments the front end cuts."""
    model = nn.load_model(path)
    shape = (model.arch.input_steps, model.arch.input_dim)
    if shape != (FRAGMENT_FRAMES, N_BINS):
        raise CorruptFile(f"{path}: the model reads {shape[0]}x{shape[1]} inputs, "
                          f"not {FRAGMENT_FRAMES}x{N_BINS} fragments")
    return model


def cmd_eval(args):
    model = _load_model(args.model)
    manifest = load_manifest(args.manifest, drop_incomplete=args.drop_incomplete)
    try:
        cohorts = [Cohort.parse(text) for text in args.cohort or [(model.train_meta or {}).get("cohort", "all")]]
    except ValueError as exc:
        return _fail_usage(exc)
    _emit(scoring.render(scoring.evaluate_cohorts(model, manifest, cohorts), args.format), args.out)
    return EXIT_OK


def cmd_score(args):
    model = _load_model(args.model)
    manifest = load_manifest(args.manifest, drop_incomplete=args.drop_incomplete)
    pairs = corpus.scoreable_sessions(manifest, args.patient)
    if args.sessions:
        try:
            wanted = {int(s) for s in args.sessions.split(",")}
        except ValueError:
            return _fail_usage("--sessions must be a comma-separated list of integers")
        pairs = [p for p in pairs if p[1] in wanted]
    grid = scoring.score_sessions(model, manifest, pairs, fragment_mean=args.fragment_mean,
                                  expert_marks=args.expert_marks)
    _emit(scoring.render(grid, args.format), args.out)
    return EXIT_OK


def cmd_report(args):
    try:
        report = scoring.from_json(Path(args.input).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # json.loads refuses deep nesting
        raise ParseError(f"{args.input}: not a report document ({exc})") from exc
    _emit(scoring.render(report, args.format), args.out)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="syllascore",
        description="Train a per-patient syllable classifier and score rehabilitation sessions.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress details")
    commands = parser.add_subparsers(dest="command", required=True)

    def add_config_flag(sub):
        sub.add_argument("--config", metavar="FILE",
                         help="json object of flag defaults; explicit flags win")

    p = commands.add_parser("synth", help="generate a deterministic synthetic corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--patients", type=int, default=synth.SynthSpec.n_patients)
    p.add_argument("--syllables", type=int, default=synth.SynthSpec.syllables_per_set)
    p.add_argument("--sample-rate", type=int, default=synth.SynthSpec.sample_rate_hz)
    p.add_argument("--duration", type=float, default=synth.SynthSpec.duration_s, help="seconds per syllable")
    p.add_argument("--formant-shift", type=float, default=synth.SynthSpec.formant_shift_hz,
                   help="formant displacement in Hz at severity 1")
    p.add_argument("--tilt", type=float, default=synth.SynthSpec.tilt_db_per_octave,
                   help="spectral tilt in dB/octave at severity 1")
    p.add_argument("--snr-clean", type=float, default=synth.SynthSpec.snr_clean_db)
    p.add_argument("--snr-worst", type=float, default=synth.SynthSpec.snr_worst_db)
    p.add_argument("--articulation-spread", type=float, default=synth.SynthSpec.articulation_spread,
                   help="per-recording severity jitter half-width")
    p.add_argument("--severities", default=None,
                   help="comma-separated severities for rehabilitation sessions 3..k")
    p.add_argument("--expert-marks", action="store_true",
                   help="attach rule-based expert marks (1 when severity < 0.5)")
    p.add_argument("--seed", type=int, default=synth.SynthSpec.seed)
    add_config_flag(p)
    p.set_defaults(func=cmd_synth)

    p = commands.add_parser("train", help="train the classifier on sessions 1 and 2")
    p.add_argument("--manifest", required=True)
    p.add_argument("--cohort", default="all", help="all, individual:<id>, or sex:<m|f>")
    p.add_argument("--model-out", required=True)
    p.add_argument("--trace-out", default=None,
                   help="per-epoch trace csv (default: <model-out>.trace.csv)")
    p.add_argument("--epochs", type=int, default=nn.TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=nn.TrainConfig.batch_size)
    p.add_argument("--learning-rate", type=float, default=nn.TrainConfig.learning_rate)
    p.add_argument("--seed", type=int, default=nn.TrainConfig.seed)
    p.add_argument("--no-clip", action="store_true", help="disable gradient norm clipping")
    p.add_argument("--split-ratio", type=float, default=0.8)
    p.add_argument("--split-by", choices=["fragment", "syllable"], default="fragment",
                   help="split granularity; 'syllable' keeps one recording's fragments together")
    p.add_argument("--standardize", action="store_true",
                   help="standardize inputs per bin with training-set statistics")
    p.add_argument("--drop-incomplete", action="store_true",
                   help="drop patients with unpaired session 1/2 syllables instead of failing")
    _add_dsp_flags(p)
    add_config_flag(p)
    p.set_defaults(func=cmd_train)

    p = commands.add_parser("eval", help="recompute split accuracy for one or more cohorts")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--cohort", action="append", default=None,
                   help="repeatable; default is the cohort the model was trained on")
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.add_argument("--out", default=None)
    p.add_argument("--drop-incomplete", action="store_true")
    add_config_flag(p)
    p.set_defaults(func=cmd_eval)

    p = commands.add_parser("score", help="score rehabilitation sessions against a model")
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--patient", default=None, help="restrict to one patient")
    p.add_argument("--sessions", default=None, help="comma-separated session indices (default: all >= 3)")
    p.add_argument("--fragment-mean", action="store_true",
                   help="average over fragments instead of unweighted syllable means")
    p.add_argument("--expert-marks", action="store_true",
                   help="correlate syllable scores against the manifest's expert marks")
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.add_argument("--out", default=None)
    p.add_argument("--drop-incomplete", action="store_true")
    add_config_flag(p)
    p.set_defaults(func=cmd_score)

    p = commands.add_parser("report", help="re-render a saved json report")
    p.add_argument("--in", dest="input", required=True, help="json report document")
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.add_argument("--out", default=None)
    add_config_flag(p)
    p.set_defaults(func=cmd_report)

    return parser


_REPEATABLE = {"eval": {"cohort"}}  # per subcommand, the flags declared with action="append"


def _config_to_args(cfg, command):
    """The flags a config object stands for; a value that no flag of command
    takes (null, an object, a list for a flag given once) raises ValueError."""
    out = []
    for key, value in cfg.items():
        flag = f"--{key}"
        if isinstance(value, bool):
            if value:
                out.append(flag)
            continue
        repeatable = key in _REPEATABLE.get(command, ())
        items = value if repeatable and isinstance(value, list) else [value]
        if not all(isinstance(item, (str, int, float)) and not isinstance(item, bool) for item in items):
            takes = "a string or a number" + (", or a list of them" if repeatable else "")
            raise ValueError(f"key {key!r} takes {takes}, not {json.dumps(value):.40}")
        for item in items:
            out.extend([flag, str(item)])
    return out


def _expand_config(argv):
    """Splice one config file's values in ahead of explicit flags (flags win); a second
    --config is refused."""
    argv = list(argv)
    at = [i for i, token in enumerate(argv) if token == "--config" or token.startswith("--config=")]
    if not at:
        return argv, None
    if len(at) > 1:
        second = " ".join(argv[at[1] : at[1] + 2]) if argv[at[1]] == "--config" else argv[at[1]]
        print(f"error: only one --config may be given, not also {second}", file=sys.stderr)
        return argv, EXIT_USAGE
    if argv[at[0]] == "--config":
        if at[0] + 1 >= len(argv):
            print("error: --config needs a file", file=sys.stderr)
            return argv, EXIT_USAGE
        path = argv.pop(at[0] + 1)
    else:
        path = argv[at[0]].split("=", 1)[1]
    del argv[at[0]]
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"error: cannot read config {path}: {exc}", file=sys.stderr)
        return argv, EXIT_IO
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: config {path} is not valid json: {exc}", file=sys.stderr)
        return argv, EXIT_USAGE
    if not isinstance(cfg, dict):
        print(f"error: config {path} must hold a json object", file=sys.stderr)
        return argv, EXIT_USAGE
    sub_at = next((i for i, tok in enumerate(argv) if not tok.startswith("-")), None)
    if sub_at is None:
        return argv, EXIT_USAGE
    try:
        flags = _config_to_args(cfg, argv[sub_at])
    except ValueError as exc:
        print(f"error: config {path}: {exc}", file=sys.stderr)
        return argv, EXIT_USAGE
    return argv[: sub_at + 1] + flags + argv[sub_at + 1 :], None


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    argv, config_error = _expand_config(argv)
    if config_error is not None:
        return config_error
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                        format="%(levelname)s %(message)s")
    try:
        return args.func(args)
    except (ParseError, ValidationError, AudioFormatError, TooShort) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (EmptyCohort, DegenerateInput, EmptySession, EmptySplit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except (CorruptFile, VersionMismatch, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
