"""Fast self-test of the benchmark harness (about a minute).

    python3 bench/selftest.py

Runs every workload at a tiny size, in this process, and checks that:

* every metric named in BENCHMARK.json is produced, untraced and traced, and
  prints with the unit BENCHMARK.json gives it;
* the same seed gives the same inputs and output digests, and another seed
  gives other inputs;
* a deliberately corrupted token stream is caught: roundtrip_fail_frac > 0
  and ``correct`` false;
* the tracer reports a missing hook as absent and restores what it wrapped;
* run.py exits non-zero without a result where only BENCHMARK.json and
  bench/ exist.

Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

TINY_SECONDS = 0.2


def check(ok: bool, label: str, failures: list[str]) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}", flush=True)
    if not ok:
        failures.append(label)


def printed_metrics(spec, workload, seed, trace, result) -> tuple[dict, str]:
    args = run.parse_args(["--workload", workload, "--seed", str(seed),
                           "--seconds", str(TINY_SECONDS), "--trace", str(int(trace))])
    lines = run.output_lines(spec, args, result)
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def check_workload(workloads, spec, workload: str, tiny, failures: list[str]) -> None:
    def go(seed, trace=False, scale=tiny):
        return workloads.run(workload, seed, TINY_SECONDS, trace, run.ROOT, scale)

    first, again, other = go(1), go(1), go(2)
    for trace, result in ((False, first), (True, go(1, trace=True))):
        table = run.metric_table(spec, trace)
        out, text = printed_metrics(spec, workload, 1, trace, result)
        units_ok = all(out["metrics"][m["name"]]["unit"] == m["unit"]
                       and f"{m['name']} " in text for m in table)
        check(set(out["metrics"]) == {m["name"] for m in table} and units_ok,
              f"{workload} trace={int(trace)}: every metric prints with its unit", failures)
        check(result.correct, f"{workload} trace={int(trace)}: outputs correct "
              f"({result.failed}/{result.attempted} failed, {result.problems})", failures)
        if trace:
            check(result.values["codec.allowed_size_mean"] > 0,
                  f"{workload} trace=1: constrained_select calls were counted", failures)
    check(first.info["digests"] == again.info["digests"],
          f"{workload}: same seed, same digests", failures)
    check(first.info["digests"]["inputs"] != other.info["digests"]["inputs"]
          and first.info["digests"]["tokens"] != other.info["digests"]["tokens"],
          f"{workload}: another seed, other inputs and tokens", failures)
    bad = go(1, scale=dataclasses.replace(tiny, corrupt=True))
    check(bad.failed > 0 and not bad.correct,
          f"{workload}: corrupted tokens give roundtrip_fail_frac "
          f"{bad.failed / bad.attempted:.2f} > 0", failures)


def check_tracer(failures: list[str]) -> None:
    import tracer
    from stegolm import codec

    original = codec.encode
    spans = {layer: list(items) for layer, items in tracer.SPANS.items()}
    tracer.SPANS["codec"].append(("folded_away", "stegolm.codec", "no_such_function"))
    tracer.SPANS["gone"] = [("module", "stegolm.no_such_module", "f")]
    try:
        t = tracer.Tracer()
        t.install()
        wrapped = codec.encode is not original
        t.uninstall()
    finally:
        tracer.SPANS.clear()
        tracer.SPANS.update(spans)
    check(sorted(t.absent) == ["codec.folded_away", "gone.module"] and wrapped
          and codec.encode is original,
          "tracer: missing hooks reported absent, wrapped functions restored", failures)


def check_bare_checkout(failures: list[str]) -> None:
    base = run.ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=base))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "ngram-stream", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"bare checkout: exit {proc.returncode}, no result printed", failures)


def main() -> int:
    os.environ.update(run.PINNED_THREADS)
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    spec = run.load_spec(run.ROOT)
    tiny = workloads.Scale(messages=4, min_passes=2, lstm_train_tokens=1500,
                           eval_tokens=400, eval_chunk=100, decode_tokens=0,
                           cli_messages=1)
    failures: list[str] = []
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json names the workloads the harness runs", failures)
    for workload in workloads.WORKLOADS:
        check_workload(workloads, spec, workload, tiny, failures)
    check_tracer(failures)
    check_bare_checkout(failures)
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
