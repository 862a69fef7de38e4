"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload core-scaling --seed 1 --seconds 45 --trace 0

Runs one workload (see ``perfbench/README.md``), checks every answer
independently, and prints one JSON object as the last line of stdout:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer
metrics and writes ``perfbench/out/spans-<workload>.jsonl``.  A human
readable report goes to stderr.  Exits non-zero, printing no result,
when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT, bench_env, import_repro, median, python_argv  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
IMPORT_SAMPLES = 3


def import_metrics() -> dict[str, float]:
    """Median of the ``-X importtime`` metrics over fresh interpreters."""
    from tracing import parse_importtime

    runs = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            python_argv("-X", "importtime", "-c", "import repro"),
            env=bench_env(), capture_output=True, text=True, timeout=120, check=True,
        )
        runs.append(parse_importtime(proc.stderr))
    return {k: median([r[k] for r in runs]) for k in runs[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        repro = import_repro()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    if args.workload == "serve-mixed":
        import serve_load as runner
    else:
        import solve_loop as runner
    if args.trace:
        span_path = OUT / f"spans-{args.workload}.jsonl"
        summary = runner.run_traced(repro, args.workload, args.seed, args.seconds, span_path)
        summary.update(import_metrics())
        names = [m["name"] for m in BENCHMARK["per_layer"]]
    else:
        summary = runner.run(repro, args.workload, args.seed, args.seconds)
        names = [m["name"] for m in BENCHMARK["end_to_end"]]

    metrics = {
        name: {"value": float(summary[name]), "unit": UNITS[name]}
        for name in names
    }
    invalid = summary.get("invalid", [])
    correct = bool(summary["honest"]) and not invalid
    for name, metric in metrics.items():
        print(f"{args.workload:>13}  {name:<34} {metric['value']:>14.6g} {metric['unit']}",
              file=sys.stderr)
    print(f"{args.workload:>13}  attempted {summary['attempted']}, failed "
          f"{summary['failed']}, correct {correct}", file=sys.stderr)
    for name in sorted(k for k in summary if k.startswith("generator.")):
        print(f"{args.workload:>13}  {name:<34} {summary[name]:>14.6g} ms", file=sys.stderr)
    if "passes" in summary:
        print(f"{args.workload:>13}  {summary['passes']} passes, best sweep "
              f"{summary['sweep_s']:.3f} s", file=sys.stderr)
    for line in summary.get("failures", []) + invalid:
        print(f"{args.workload:>13}  {line}", file=sys.stderr)
    if args.trace:
        print(f"{args.workload:>13}  spans written to {span_path}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": int(summary["attempted"]),
        "failed": int(summary["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
