#!/usr/bin/env python3
"""The benchmark's own tests, on the smoke shape (N = 2^10).

Usage, from the root of the repository:

    python3 perfbench/selftest.py

It asserts that:

- every metric named in BENCHMARK.json is emitted, with its unit, on
  every workload (end-to-end with --trace 0, per-layer with --trace 1);
- all correctness checks pass;
- the exact figures (`model_*`, `precision_bits`, `ok_frac`) are
  identical at 1 and 2 worker threads;
- the checks bite: one changed result word (ckks-eval, ckks-client) or
  one flipped response byte (serve-mixed) fails the run and lowers
  `ok_frac`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (this directory's run.py)

SEED = 7


def bench(workload: str, trace: int, *extra: str) -> tuple:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "0.5", "--trace", str(trace), "--smoke", *extra]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    assert lines, f"{workload}: no output\n{done.stderr}"
    result = json.loads(lines[-1])
    exact = [l for l in lines if l.endswith("(exact)") and " calls, " not in l]
    return done.returncode, result, exact


def check_metrics(workload: str, result: dict, wanted: list) -> None:
    for m in wanted:
        got = result["metrics"].get(m["name"])
        assert got is not None, f"{workload}: metric {m['name']} missing"
        assert got["unit"] == m["unit"], f"{workload}: {m['name']} unit {got['unit']} != {m['unit']}"
        assert isinstance(got["value"], (int, float)), f"{workload}: {m['name']} is not a number"


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    target = run.target_dir()
    unit_tests = subprocess.run(
        ["cargo", "test", "--release", "--offline", "--quiet", "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=run.ROOT, env=dict(os.environ, CARGO_TARGET_DIR=str(target)), check=False)
    assert unit_tests.returncode == 0, "the benchmark's unit tests failed"
    run.build(target)
    for w in run.WORKLOADS:
        by_threads = {}
        for threads in (1, 2):
            code, result, exact = bench(w, 0, "--threads", str(threads))
            assert code == 0 and result["correct"], f"{w} at {threads} thread(s) failed: {result}"
            check_metrics(w, result, spec["end_to_end"])
            by_threads[threads] = (exact, result["metrics"]["ok_frac"]["value"])
        assert by_threads[1] == by_threads[2], f"{w}: exact figures differ by thread count: {by_threads}"
        assert by_threads[1][0], f"{w}: no exact figures reported"

        code, result, _ = bench(w, 1)
        assert code == 0 and result["correct"], f"{w} traced run failed: {result}"
        check_metrics(w, result, spec["per_layer"])

        code, result, _ = bench(w, 0, "--corrupt")
        ok_frac = result["metrics"]["ok_frac"]["value"]
        assert code != 0 and not result["correct"], f"{w}: corruption went unnoticed"
        assert ok_frac < by_threads[2][1], f"{w}: ok_frac {ok_frac} did not drop under corruption"
        print(f"selftest {w}: ok ({len(by_threads[1][0])} exact figures, corruption caught)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
