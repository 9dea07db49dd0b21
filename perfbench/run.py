#!/usr/bin/env python3
"""Builds the uvpu benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload ckks-eval --seed 1 --seconds 30 --trace 0

The benchmark is the Cargo package in this directory; it is built with
`cargo build --release --offline` into `$CARGO_TARGET_DIR` (default
`.bench_build`). The workload runs in its own process, and its output is
passed through: the last line is the JSON result. Each run leaves a
run-context record (and, for `--trace 1`, a span list) in
`<target dir>/perfbench-runs/`; host speed probes taken in separate
processes just before and after the run are added to the record.

Extra flags after the four above (`--smoke`, `--threads N`,
`--corrupt`) are handed to the benchmark binary; the
benchmark's own tests use them.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ckks-eval", "ckks-client", "serve-mixed")
# A run must end within 180 s; the window is capped well below that.
RUN_TIMEOUT_S = 175


def target_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build(target: Path) -> Path:
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, check=False)
    if done.returncode != 0:
        sys.exit(f"run.py: building the benchmark failed ({done.returncode})")
    return target / "release" / "uvpu-perfbench"


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or "unknown"


def probe(binary: Path) -> dict:
    done = subprocess.run([str(binary), "--probe"], capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args, extra = parser.parse_known_args()

    target = target_dir()
    binary = build(target)
    records = target / "perfbench-runs"
    records.mkdir(parents=True, exist_ok=True)
    record = records / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--record", str(record), "--commit", commit(), *extra]
    probe_start = probe(binary)
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    try:
        rec = json.loads(record.read_text())
        rec.update(probe_start=probe_start, probe_end=probe(binary))
        record.write_text(json.dumps(rec) + "\n")
    except (OSError, ValueError) as e:
        print(f"run.py: run record not updated: {e}", file=sys.stderr)
    sys.stderr.write(done.stderr)
    sys.stdout.write(done.stdout)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
