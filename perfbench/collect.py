"""Run the benchmark over several seeds and summarise the spread of each figure.

Usage:
    python3 perfbench/collect.py --workloads pointwise-sweep,batch-profile \
        --seeds 1-10 --seconds 20 [--trace-seed N] [--out FILE]

Each run is a fresh ``run.py`` process.  For every end-to-end figure of the
detail line (the gated ones and the per-command ones) it prints the median,
the quartiles from ``statistics.quantiles(values, n=4)`` and the spread
``(q3 - q1) / median``.  ``--trace-seed`` adds one traced run per workload and
keeps its per-layer figures.  ``--out`` writes everything as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900,
                          cwd=HERE.parent)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", type=_seeds, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    report = {}
    for workload in args.workloads.split(","):
        figures, failed, provenance = {}, 0, None
        for seed in args.seeds:
            detail, result = run_once(workload, seed, args.seconds, 0)
            failed += result["failed"]
            provenance = provenance or detail["provenance"]
            for name, fig in detail["end_to_end"].items():
                figures.setdefault(name, {"unit": fig["unit"], "values": []})
                figures[name]["values"].append(fig["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        entry = {"seeds": args.seeds, "seconds": args.seconds, "failed": failed,
                 "provenance": provenance, "end_to_end": {}}
        for name, fig in figures.items():
            if len(fig["values"]) >= 2 and statistics.median(fig["values"]):
                entry["end_to_end"][name] = {"unit": fig["unit"], **spread(fig["values"])}
            else:
                entry["end_to_end"][name] = {"unit": fig["unit"], "values": fig["values"]}
        if args.trace_seed is not None:
            detail, result = run_once(workload, args.trace_seed, args.seconds, 1)
            entry["traced"] = {"seed": args.trace_seed, "spans": detail["spans"],
                               "per_layer": result["metrics"]}
        report[workload] = entry
        print(f"\n{workload}: failed {failed}")
        for name, st in entry["end_to_end"].items():
            if "spread" in st:
                print(f"  {name:<18} median {st['median']:<12.6g} q1 {st['q1']:<12.6g} "
                      f"q3 {st['q3']:<12.6g} spread {st['spread']:.4f} {st['unit']}")
        print(flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
