"""Repeat bench/run.py over seeds and summarise the run-to-run spread.

    python3 bench/collect.py --seeds 1-10 [--workloads ngram-stream,...]
                             [--traced] [--tier1] [--out bench/results/x.json]

Each workload runs once per seed, one run at a time, with the seconds from
BENCHMARK.json. Per end-to-end metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
and whether that spread is within the metric's bound and within a third of
it. The first seed is run twice: equal seeds must give equal output digests,
and the exit code is 1 when they do not or when any run was incorrect.
``--traced`` adds one ``--trace 1`` run per workload; ``--tier1`` times the
repository's test suite once with its three slowest tests.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "--durations=3", "-p", "no:cacheprovider"]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed ({proc.returncode}):\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    report = next(json.loads(l[len("report "):]) for l in lines if l.startswith("report "))
    return {"wall_s": time.perf_counter() - start, "result": json.loads(lines[-1]),
            "report": report}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def tier1() -> dict:
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, capture_output=True, text=True, check=False,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    wall = time.perf_counter() - start
    slowest = [l.strip() for l in proc.stdout.splitlines() if re.match(r"^\d+\.\d+s (call|setup)", l)]
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {"command": " ".join(["PYTHONPATH=src", "python", *TIER1[1:]]), "wall_s": wall,
            "summary": summary, "slowest": slowest[:3]}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--tier1", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        repeat = run_once(workload, seeds[0], seconds, 0)
        summary = {}
        for name in bounds:
            s = spread([r["result"]["metrics"][name]["value"] for r in runs])
            s["bound"] = bounds[name]
            s["within_bound"] = s["spread"] <= bounds[name]
            s["within_third"] = s["spread"] <= bounds[name] / 3
            summary[name] = s
        entry = {
            "correct": all(r["result"]["correct"] for r in runs + [repeat]),
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "same_seed_same_digests": runs[0]["report"]["digests"] == repeat["report"]["digests"],
            "digests_seed_%d" % seeds[0]: runs[0]["report"]["digests"],
            "run_wall_s": spread([r["wall_s"] for r in runs]),
            "host_kernel_ms": [r["report"]["host_kernel_ms"] for r in runs],
            "machine": runs[0]["report"]["machine"],
            "metrics": summary,
        }
        if args.traced:
            traced = run_once(workload, seeds[0], seconds, 1)
            entry["traced"] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
            entry["traced_absent_spans"] = traced["report"].get("absent_spans", [])
        out["workloads"][workload] = entry
        worst = max(summary.items(), key=lambda kv: kv[1]["spread"])
        print(f"{workload}: correct={entry['correct']} digests_equal="
              f"{entry['same_seed_same_digests']} worst spread {worst[0]}="
              f"{worst[1]['spread']:.3f} (bound {worst[1]['bound']})", flush=True)
        for name, s in summary.items():
            print(f"    {name:<28} median {s['median']:<12.6g} spread {s['spread']:.3f} "
                  f"bound {s['bound']}{'' if s['within_third'] else '  > bound/3'}", flush=True)
    if args.tier1:
        out["tier1"] = tier1()
        print(f"tier1: {out['tier1']['summary']} in {out['tier1']['wall_s']:.1f} s", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    bad = [w for w, e in out["workloads"].items()
           if not (e["correct"] and e["same_seed_same_digests"])]
    if bad:
        print(f"error: incorrect output or unequal digests for the same seed on "
              f"{', '.join(bad)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
