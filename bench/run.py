"""Run one stegolm benchmark workload and print its metrics.

    python3 bench/run.py --workload ngram-stream --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout, never from an installed copy. Every metric prints on its own
line with unit and direction, then a ``report`` line (machine, digests,
sample counts, problems), and last one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones. The
exit code is 0 only when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The workload is one thread; with numpy's 64-thread OpenBLAS on a small
#: machine, extra BLAS threads only measure the scheduler. Children inherit.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "threads": {k: os.environ[k] for k in PINNED_THREADS},
        "cpus": sorted(os.sched_getaffinity(0)),
    }


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def metric_table(spec: dict, trace: bool) -> list[dict]:
    return spec["per_layer" if trace else "end_to_end"]


def output_lines(spec: dict, args: argparse.Namespace, result) -> list[str]:
    """Metric lines, the report line, and last the JSON result object."""
    table = metric_table(spec, bool(args.trace))
    missing = sorted({m["name"] for m in table} - set(result.values))
    if missing:
        raise ValueError(f"workload did not produce {missing}")
    lines = [f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}"]
    lines += [f"  {m['name']:<48} {result.values[m['name']]:>14.6g} {m['unit']:<8} "
              f"({m['better']} is better)" for m in table]
    report = {
        "machine": machine(),
        "roundtrip_fail_frac": result.failed / result.attempted,
        "problems": result.problems,
        **result.info,
    }
    lines.append("report " + json.dumps(report, sort_keys=True))
    lines.append(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {m["name"]: {"value": result.values[m["name"]], "unit": m["unit"]}
                    for m in table},
    }))
    return lines


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Unwind on SIGTERM too, so child stages are killed and waited for and
    # the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "stegolm" / "__init__.py").is_file():
        print(f"error: no stegolm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_THREADS)  # before numpy is first imported
    # The run and its CLI children stay on one CPU, so that the reference
    # kernel (hostspeed.py) reads the speed of the CPU the work runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: --workload must be one of {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    try:
        lines = output_lines(load_spec(ROOT), args, result)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
