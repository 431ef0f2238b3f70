"""Benchmark of the syllascore CLI: train, score and cohort eval.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --smoke

Run from the root of a source checkout. Each run starts workload.py in a
fresh process whose environment fixes the BLAS thread count and puts the
checkout's `src/` first on PYTHONPATH, and prints that process's result
object as the last line. --smoke runs every workload, untraced and traced,
on tiny inputs with every check, and exits 0 only when all pass. Scratch
corpora live under .bench_work/ and are removed after each run; the run
records and span files stay in .bench_work/records/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
RECORDS = WORK / "records"
WORKLOADS = ("train_individual", "score_sessions", "cohort_eval")
BLAS_THREADS = "1"
TIMEOUT_S = 170


def child_env():
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "OMP_NUM_THREADS": BLAS_THREADS,
        "MKL_NUM_THREADS": BLAS_THREADS,
    })
    return env


def run_workload(workload, seed, seconds, trace, scale="full"):
    """Run one workload in a child process; returns (exit code, stdout)."""
    WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    cmd = [sys.executable, str(BENCH / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--scale", scale, "--work", work, "--record", str(RECORDS)]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S)
        return proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        print(f"error: {workload} did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    finally:
        shutil.rmtree(work, ignore_errors=True)


def result_of(stdout):
    """The result object on the last stdout line, or None."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def smoke():
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            rc, out = run_workload(workload, seed=1, seconds=0, trace=trace, scale="smoke")
            result = result_of(out) if rc == 0 else None
            passed = bool(result and result["correct"] and result["failed"] == 0
                          and result["attempted"] >= 1)
            ok &= passed
            print(f"smoke {workload} trace={trace}: {'ok' if passed else 'FAILED'}"
                  + (f" {json.dumps(result['metrics'])}" if result else ""))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description="syllascore CLI benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, every check, all workloads")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "syllascore" / "cli.py").is_file():
        print(f"error: no syllascore sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    rc, out = run_workload(args.workload, args.seed, args.seconds, args.trace)
    result = result_of(out)
    if rc != 0 or result is None:
        print(f"error: {args.workload} run produced no result (exit {rc})", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
