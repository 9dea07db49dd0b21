#!/usr/bin/env python3
"""Repeats benchmark runs and reports how steady each metric is.

Usage, from the root of the repository:

    python3 perfbench/steadiness.py --runs 10 --seconds 30 [--workloads ckks-eval ...]
        [--first-seed 101] [--traced] [--markdown OUT.md] [--against EARLIER.json]

Each workload runs `--runs` times, each with its own seed. For every
end-to-end metric the script prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them), min/max, and the spread:
the distance between the quartiles as a share of the median, next to the
metric's bound in BENCHMARK.json. With `--traced` it also makes one
traced run per workload and reports the tracing overhead. Raw results go
to `<target dir>/perfbench-runs/steadiness-<workloads>-seed<first>.json`.

`--against` takes such a raw file from an earlier set and compares the
two sets, metric by metric: how far this set's median is worse than the
earlier one, as a share of the earlier median, against the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (this directory's run.py)


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=False)
    wall = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"steadiness.py: {workload} seed {seed} failed:\n{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    # The host ALU probe from the run-context record, taken before and
    # after the run: it tells a slow host apart from a slow program.
    records = (run.target_dir() / "perfbench-runs").glob(f"{workload}-seed{seed}-trace{trace}-*.json")
    newest = max(records, key=lambda p: p.stat().st_mtime, default=None)
    rec = json.loads(newest.read_text()) if newest else {}
    result["alu_ms"] = [rec[k]["alu_ms"] for k in ("probe_start", "probe_end") if k in rec]
    result["exact"] = [l for l in lines if l.endswith("(exact)")]
    return result


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values),
            "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else 0.0}


def worse_by(better: str, earlier: float, later: float) -> float:
    """How much `later` is worse than `earlier`, as a share of `earlier`."""
    if earlier == 0:
        return 0.0
    change = (later - earlier) / earlier
    return change if better == "lower" else -change


def compare(earlier: dict, later: dict, spec: dict) -> list:
    lines = ["\n### Between sets: earlier median → this median\n",
             "| workload | metric | earlier | this | worse by | bound | within |",
             "|---|---|---|---|---|---|---|"]
    for w, runs in later.items():
        if w.endswith(":traced") or w not in earlier:
            continue
        for m in spec["end_to_end"]:
            a = statistics.median(r["metrics"][m["name"]]["value"] for r in earlier[w])
            b = statistics.median(r["metrics"][m["name"]]["value"] for r in runs)
            worse = worse_by(m["better"], a, b)
            lines.append(f"| {w} | {m['name']} | {a:.6g} | {b:.6g} | {100 * worse:+.2f}% "
                         f"| {100 * m['bound']:.0f}% | {'yes' if worse <= m['bound'] else 'NO'} |")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workloads", nargs="+", default=list(run.WORKLOADS))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--markdown")
    parser.add_argument("--against")
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    run.build(run.target_dir())
    raw = {}
    out = []
    for w in args.workloads:
        runs = [one_run(w, args.first_seed + i, args.seconds, 0) for i in range(args.runs)]
        raw[w] = runs
        block = []
        block.append(f"\n### {w}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}\n")
        block.append("| metric | unit | median | q1 | q3 | min | max | spread (IQR/median) | bound |")
        block.append("|---|---|---|---|---|---|---|---|---|")
        for name, first in runs[0]["metrics"].items():
            s = summary([r["metrics"][name]["value"] for r in runs])
            block.append(f"| {name} | {first['unit']} | {s['median']:.6g} | {s['q1']:.6g} | {s['q3']:.6g} "
                       f"| {s['min']:.6g} | {s['max']:.6g} | {100 * s['spread']:.2f}% | {100 * bounds[name]:.0f}% |")
        walls = [r["wall_s"] for r in runs]
        block.append(f"\nRequests per run: {min(r['attempted'] for r in runs)}–{max(r['attempted'] for r in runs)}; "
                   f"wall per run {min(walls):.1f}–{max(walls):.1f} s.")
        alu = [v for r in runs for v in r["alu_ms"]]
        if alu:
            block.append(f"Host ALU probe before and after each run: median {statistics.median(alu):.2f} ms, "
                         f"{min(alu):.2f}–{max(alu):.2f} ms.")
        if args.traced:
            t = one_run(w, args.first_seed, args.seconds, 1)
            raw[w + ":traced"] = t
            m = t["metrics"]
            block.append(f"Traced run (seed {args.first_seed}, {t['wall_s']:.1f} s wall): overhead "
                       f"{m['trace.overhead_p50_pct']['value']:+.2f}% on latency p50, "
                       f"{m['trace.overhead_throughput_pct']['value']:+.2f}% on throughput.")
        print("\n".join(block), flush=True)
        out.extend(block)

    if args.against:
        block = compare(json.loads(Path(args.against).read_text()), raw, spec)
        print("\n".join(block), flush=True)
        out.extend(block)

    records = run.target_dir() / "perfbench-runs"
    records.mkdir(parents=True, exist_ok=True)
    name = f"steadiness-{'-'.join(args.workloads)}-seed{args.first_seed}.json"
    (records / name).write_text(json.dumps(raw, indent=1))
    if args.markdown:
        Path(args.markdown).write_text("\n".join(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
