"""killing3 benchmark: one workload, one seed, one process.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; killing3 is imported from ``src/``.
Workloads are defined in ``workloads.py``.

With ``--trace 0`` the run measures set-up (the median of SETUP_REPEATS fresh
interpreters, see ``setup_probe.py``), then cycles through the workload's
calls for ``--seconds`` and reports medians; a pass time (``wall_s``) is the
sum of the per-call medians.  With ``--trace 1`` it makes the same untraced
calls, then one pass under ``tracer.Tracer``, and reports per-layer figures
and the tracing overhead instead.

Every call's output is checked against closed-form references.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it, ``{"detail":
...}``, holds every end-to-end figure of the workload, the result checksum and
provenance, and is also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer, layer_metrics, wrapper_costs
from workloads import WORKLOADS, timed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 7

#: (name, unit) of the figures every workload reports with --trace 0; the
#: same list, with bounds, is ``end_to_end`` in BENCHMARK.json
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]


def _median(values):
    return statistics.median(values) if values else None


def _command(argv, timeout=30):
    """Stripped stdout of a helper program, or None if it is missing or fails."""
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(workload, traced):
    import numpy
    import scipy

    from killing3 import cli

    top = _command(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"])
    sha = None
    if top and len(top.split()) == 2 and Path(top.split()[0]).resolve() == ROOT:
        sha = top.split()[1]
    digest = hashlib.sha256()
    for path in sorted((SRC / "killing3").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    nproc = _command(["nproc"])
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": int(nproc) if nproc and nproc.isdigit() else None,
        "os_cpu_count": os.cpu_count(),
        "cli_workers": cli._max_workers(),
        "workload": workload.name,
        "seed": workload.seed,
        "sizes": workload.sizes(),
        "traced": traced,
    }


def cpu_caches():
    """Cache lines of ``lscpu``, e.g. {"L2 cache": "4 MiB (2 instances)"}."""
    text = _command(["lscpu"]) or ""
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if "cache" in key.lower():
            out[key.strip()] = value.strip()
    return out


def measure_setup(spec_paths, repeats):
    env = {k: v for k, v in os.environ.items() if k != "KILLING3_THREADS"}
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *spec_paths],
            capture_output=True, text=True, timeout=150, env=env, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def run_calls(workload, seconds):
    """Cycle through the workload's plan, one call at a time, for ``seconds``.

    Every call runs at least once; after that the run stops before a call
    whose previous duration would carry it past ``seconds``, so a run lasts
    about ``seconds`` whatever the speed of the machine.  Returns one list of
    Op per plan entry.
    """
    plan = list(workload.plan())
    samples = [[] for _ in plan]
    start = time.perf_counter()
    for i in itertools.count():
        k = i % len(plan)
        remaining = seconds - (time.perf_counter() - start)
        if i >= len(plan) and (remaining <= 0 or samples[k][-1].seconds > remaining):
            return samples
        samples[k].append(timed(*plan[k]))


def traced_pass(workload, untraced_wall):
    """Every call of the plan once under a Tracer: (tracer, ops, per-layer metrics)."""
    tracer = Tracer()
    with tracer:
        t0 = time.perf_counter()
        ops = workload.run_pass()
        traced_wall = time.perf_counter() - t0
    metrics = layer_metrics(tracer, sum(op.points for op in ops), traced_wall,
                            untraced_wall, wrapper_costs())
    return tracer, ops, metrics


def e2e_figures(samples, setup_times):
    """End-to-end figures; a pass time is the sum of per-call medians."""
    ok = [[op for op in ops if not op.failed] for ops in samples]
    wall = sum(_median([op.seconds for op in ops]) or 0.0 for ops in ok)
    cpu = sum(_median([op.cpu_seconds for op in ops]) or 0.0 for ops in ok)
    points = sum(ops[0].points for ops in samples)
    calls = sum(len(ops) for ops in samples)
    figures = {}
    if setup_times:
        figures["setup_s"] = {"value": _median(setup_times), "unit": "s",
                              "n": len(setup_times)}
    figures["wall_s"] = {"value": wall, "unit": "s", "n": calls}
    figures["cpu_s"] = {"value": cpu, "unit": "s", "n": calls}
    if points and wall:
        figures["points_per_s"] = {"value": points / wall, "unit": "1/s", "n": calls}
    by_name = {}
    for ops in ok:
        for op in ops:
            by_name.setdefault(op.name, []).append(op.seconds)
    for name, times in by_name.items():
        figures[f"{name}_s"] = {"value": _median(times), "unit": "s", "n": len(times)}
    figures["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unit": "MB", "n": 1}
    return figures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "killing3" / "__init__.py").is_file():
        print(f"perfbench: no killing3 source tree at {SRC / 'killing3'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    # the program runs in its default configuration
    os.environ.pop("KILLING3_THREADS", None)
    sys.path.insert(0, str(SRC))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    spec_paths = workload.write_inputs()
    setup_times = [] if args.trace else measure_setup(spec_paths, SETUP_REPEATS)

    import killing3
    if Path(killing3.__file__).resolve().parent != (SRC / "killing3").resolve():
        print(f"perfbench: imported killing3 from {killing3.__file__}", file=sys.stderr)
        return 2
    workload.load()
    samples = run_calls(workload, args.seconds)
    figures = e2e_figures(samples, setup_times)
    all_ops = [op for ops in samples for op in ops]

    detail = {"workload": workload.name, "why": workload.why,
              "provenance": provenance(workload, bool(args.trace))}
    if args.trace:
        tracer, traced_ops, metrics = traced_pass(workload, figures["wall_s"]["value"])
        all_ops += traced_ops
        detail["computed_not_measured"] = {
            "metrics": ["jets.mul.useful_frac", "jets.mul.bytes"],
            "how": "from array shapes and jet orders of each product; no bandwidth "
                   "or roofline claim is made",
            "cpu_caches": cpu_caches()}
        detail["threads"] = sorted({log.thread for log in tracer.logs})
        detail["spans"] = tracer.by_name()
        tracer.write(OUT / f"trace-{tag}.jsonl")
    else:
        metrics = {name: {"value": figures[name]["value"], "unit": unit}
                   for name, unit in END_TO_END}

    failed = sum(op.failed for op in all_ops)
    figures["failed_frac"] = {"value": failed / len(all_ops), "unit": "ratio",
                              "n": len(all_ops)}
    detail["end_to_end"] = figures
    detail["samples"] = [[ops[0].name, [op.seconds for op in ops]] for ops in samples]
    detail["checksum"] = {k: v for ops in samples for k, v in ops[0].checksum.items()}
    detail["problems"] = sorted({p for op in all_ops for p in op.problems})
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")

    for name, fig in figures.items():
        print(f"{name:<18} {fig['value']:<14.6g} {fig['unit']:<5} n={fig['n']}")
    for problem in detail["problems"]:
        print(f"FAILED: {problem}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": len(all_ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
