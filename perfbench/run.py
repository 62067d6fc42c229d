#!/usr/bin/env python3
"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload toy-ngram --seed 1 --seconds 15 --trace 0

Run from the repository root.  The workloads, metrics and bounds are listed
in ``BENCHMARK.json``; ``perfbench/README.md`` says why each exists.  The
report lines name every end-to-end figure of the workload with its unit,
then the output checks, the output digest and the run metadata.  The last
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  A full record, and with ``--trace 1`` every
span, is written under ``.perfbench/runs/``.

Exit status: 0 when every output check passes, 1 when one fails (the JSON
line still says which), 2 when the run cannot be made at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

# Layer predicted to dominate each workload (see README.md), as the share
# metric that measures it.
PREDICTED = {
    "toy-ngram": ("decoder self time", "share.decoder_self_pct"),
    "toy-transformer": ("prover prefix + targets (hooked path)", "share.prover_hooked_pct"),
    "scale-50k": ("decision + lm vector work", "share.vector_pct"),
    "service-50k": ("service.handle vs service.wire", "share.service_handle_pct"),
}


def metadata(args, outcome) -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        rev = "unknown"
    import numpy
    src_lines = sum(len(p.read_text("utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": rev,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "platform": platform.platform(), "src_lines": src_lines,
        "phases": outcome.phases,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    ap = argparse.ArgumentParser(description="logicdec benchmark: one workload run")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for needed in (ROOT / "src" / "logicdec", ROOT / "data" / "toy"):
        if not needed.is_dir():
            print(f"perfbench: {needed.relative_to(ROOT)} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    run_args = workloads.Args(args.workload, args.seed, args.seconds, bool(args.trace), WORK)
    outcome = workloads.WORKLOADS[args.workload](run_args)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        value = outcome.metrics.get(m["name"])
        if value is None:
            if not args.trace:
                raise RuntimeError(f"workload did not measure {m['name']}")
            value = (0.0, m["unit"])     # a layer this workload never calls
        metrics[m["name"]] = {"value": float(value[0]), "unit": m["unit"]}

    meta = metadata(args, outcome)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, (value, unit) in (outcome.report.items() if not args.trace else
                                ((k, (v["value"], v["unit"])) for k, v in metrics.items())):
        print(f"  {name:<34} {value:>14.6g} {unit}")
    for key, extra in outcome.info.items():
        print(f"  {key}: {json.dumps(extra)}")
    if args.trace:
        label, share = PREDICTED[args.workload]
        shares = {k: v["value"] for k, v in metrics.items() if k.startswith("share.")}
        largest = max(shares, key=shares.get)
        print(f"  predicted dominant layer: {label} = {shares[share]:.1f}% "
              f"(largest share: {largest} = {shares[largest]:.1f}%)")
    for name, ok, detail in outcome.checks:
        print(f"  check {'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    print(f"  output digest: {outcome.digest}")
    print(f"  metadata: {json.dumps(meta)}")

    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    record = {"metadata": meta, "correct": outcome.correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics,
              "all_metrics": {k: v[0] for k, v in outcome.metrics.items()},
              "report": {k: v[0] for k, v in outcome.report.items()},
              "checks": outcome.checks, "digest": outcome.digest, "info": outcome.info,
              "latencies": outcome.latencies}
    if outcome.tracer is not None:
        outcome.tracer.write(runs / f"{stem}.spans.npz")
        record["spans"] = outcome.tracer.summary()
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
