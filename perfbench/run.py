"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch-interactive --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced pass.  ``--short`` runs a tiny version of the
workload and writes only to a fresh temporary directory (the benchmark's
own tests use it).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is the full record: environment fingerprint, load parameters and metrics.
A failed correctness check prints ``"correct": false`` with no metrics and
exits with code 1.  A run that cannot start (no program source next to the
benchmark, bad arguments) exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("batch-interactive", "serve-mixed", "cdc-follow")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="length of the timed part")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true", help="tiny inputs, temporary output directory")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds < 1:
        print("perfbench: --seconds must be at least 1", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    # Run as a script, the benchmark's own directory heads sys.path; its
    # modules are imported as the ``perfbench`` package instead.
    if sys.path and Path(sys.path[0] or ".").resolve() == ROOT / "perfbench":
        del sys.path[0]
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)

    from perfbench import batch, cdc, common, serve
    from perfbench.tracer import Tracer

    if args.short:
        outdir = Path(tempfile.mkdtemp(prefix="perfbench-short-"))
    else:
        outdir = ROOT / ".perfbench"
    outdir.mkdir(parents=True, exist_ok=True)
    label = f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    workdir = outdir / "work" / label
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = common.RunContext(
        workload=args.workload,
        seed=args.seed,
        seconds=float(args.seconds),
        trace=bool(args.trace),
        short=args.short,
        workdir=workdir,
        outdir=outdir,
        label=label,
        tracer=Tracer() if args.trace else None,
    )
    module = {"batch-interactive": batch, "serve-mixed": serve, "cdc-follow": cdc}[args.workload]
    cpu_before = common.cpu_times()
    try:
        outcome = module.run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Time a hypervisor gave to other machines explains noisy figures.
    outcome.load["cpu_steal_share"] = common.steal_share(cpu_before, common.cpu_times())

    units = common.PER_LAYER_UNITS if args.trace else common.END_TO_END_UNITS
    missing = sorted(set(units) - set(outcome.metrics))
    if missing:
        outcome.problems.append(f"metrics not measured: {missing}")
    metrics = {
        name: {"value": float(outcome.metrics[name]), "unit": unit}
        for name, unit in units.items()
        if name in outcome.metrics
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "short": args.short,
        "environment": common.environment(ROOT),
        "load": outcome.load,
        "correct": outcome.correct,
        "problems": outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics if outcome.correct else {},
    }
    records = outdir / "records"
    records.mkdir(exist_ok=True)
    record_path = records / f"{label}.json"
    if ctx.tracer is not None and outcome.correct:
        spans_path = records / f"{label}.spans.jsonl"
        record["spans_file"] = str(spans_path)
        record["spans_written"] = ctx.tracer.write_spans(str(spans_path), outcome.trace_since)
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True, default=str) + "\n")

    for problem in outcome.problems:
        print(f"CORRECTNESS: {problem}", file=sys.stderr)
    if outcome.correct:
        for name, entry in metrics.items():
            print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"record": record}, sort_keys=True, default=str))
    result = {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics if outcome.correct else {},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
