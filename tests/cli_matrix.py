"""Every CLI command at its defaults on six specs, in text and jsonl, one file set per run.

    PYTHONPATH=src python tests/cli_matrix.py OUTDIR

writes the 24 x 24 hopf (R = 2) grid CSV and the spec files into OUTDIR, runs each
command in process on hopf (R = 2), that grid, nil, cf_family (B = 0.3, C = 1) and the
Lorentzian partners of hopf (R = 2) and of that cf_family (``signature = lorentzian``),
72 runs, and writes ``OUTDIR/<spec>.<command>.<format>.{out,err,code}``.  Run it once against
each of two source trees (point PYTHONPATH at each ``src``); ``diff -r`` between the
two output directories shows every report that changed, to the byte, and

    python tests/cli_matrix.py --compare A B

prints, for each run, whether its exit code or stderr changed and the largest
|difference| per field of its stdout: each jsonl field (``record.<key>``,
``summary.<key>``), or each ``  key = value`` summary line of a text report.  It
names each run that either directory lacks, and exits 1 if any run differs or is
missing, so it serves as a gate.
"""

import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from killing3.cli import _RUNNERS, main

SPECS = {"hopf": "catalog = hopf\nR = 2", "grid": "grid_csv = hopf.csv",
         "nil": "catalog = nil", "cf_family": "catalog = cf_family\nB = 0.3\nC = 1",
         "hopf_lorentzian": "catalog = hopf\nR = 2\nsignature = lorentzian",
         "cf_family_lorentzian": "catalog = cf_family\nB = 0.3\nC = 1\nsignature = lorentzian"}


def hopf_grid_csv():
    """The grid CSV text of hopf (R = 2) on 24 x 24 nodes of [0.1, 1.5] x [0, 6.3]."""
    rows = ["r,theta,phi,h,k"]
    for r in map(float, np.linspace(0.1, 1.5, 24)):
        rows += [f"{r!r},{t!r},{math.sin(r)!r},{-math.tan(0.5 * r)!r},0.0"
                 for t in map(float, np.linspace(0.0, 6.3, 24))]
    return "\n".join(rows) + "\n"


def run_matrix(outdir, names=tuple(SPECS)):
    """The runs of the specs ``names``; the grid spec reads OUTDIR/hopf.csv, so OUTDIR is
    the working directory while they run."""
    outdir = Path(outdir).resolve()
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "hopf.csv").write_text(hopf_grid_csv())
    cwd = os.getcwd()
    os.chdir(outdir)
    try:
        for name in names:
            Path(f"{name}.spec").write_text(SPECS[name])
            for command in sorted(_RUNNERS):
                for fmt in ("text", "jsonl"):
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = main([command, "--spec", f"{name}.spec", "--format", fmt])
                    stem = f"{name}.{command}.{fmt}"
                    Path(f"{stem}.out").write_text(out.getvalue())
                    Path(f"{stem}.err").write_text(err.getvalue())
                    Path(f"{stem}.code").write_text(f"{code}\n")
    finally:
        os.chdir(cwd)


def _leaves(obj, key=""):
    """(field, value) of every number or string of a jsonl line; list items share their field."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, f"{key}.{k}" if key else k)
    elif isinstance(obj, list):
        for v in obj:
            yield from _leaves(v, key)
    else:
        yield key, obj


def _fields(line, jsonl):
    """(field, value) of one stdout line: its jsonl leaves, or the ``  key = value`` of a
    text summary line with the value a float where it reads as one (other lines: none)."""
    if jsonl:
        return list(_leaves(json.loads(line)))
    key, eq, value = line.strip().partition(" = ")
    if not (line.startswith("  ") and eq):
        return []
    with contextlib.suppress(ValueError):
        value = float(value)
    return [(key, value)]


def _deltas(a, b, jsonl):
    """The largest |a - b| per field of two reports, inf where a non-number differs;
    None if the two do not hold the same fields in the same order."""
    worst = {}
    lines_a, lines_b = a.splitlines(), b.splitlines()
    if len(lines_a) != len(lines_b):
        return None
    for x, y in zip(lines_a, lines_b):
        fields_a, fields_b = _fields(x, jsonl), _fields(y, jsonl)
        if [k for k, _ in fields_a] != [k for k, _ in fields_b]:
            return None
        for (key, u), (_, v) in zip(fields_a, fields_b):
            numbers = all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in (u, v))
            delta = abs(u - v) if numbers else (0.0 if u == v else math.inf)
            worst[key] = max(worst.get(key, 0.0), delta)
    return worst


def compare(a, b):
    """Print what differs between the run files of two output directories; the number of
    runs that differ or that either directory lacks (any of the run's three files)."""
    dirs = Path(a), Path(b)
    stems = sorted({p.name[:-len(".code")] for d in dirs for p in d.glob("*.code")})
    failed = 0
    for stem in stems:
        lacking = [str(d) for d in dirs
                   if not all((d / f"{stem}.{ext}").is_file() for ext in ("code", "err", "out"))]
        if lacking:
            print(f"{stem}: missing from {' and '.join(lacking)}")
            failed += 1
            continue
        texts = {ext: [(d / f"{stem}.{ext}").read_text() for d in dirs]
                 for ext in ("code", "err", "out")}
        changed = [ext for ext, (x, y) in texts.items() if x != y]
        failed += bool(changed)
        named = [ext for ext in changed if ext != "out"]
        if named:
            print(f"{stem}: {', '.join(named)} differ")
        if "out" in changed:
            worst = _deltas(*texts["out"], jsonl=stem.endswith(".jsonl"))
            if worst is None:
                print(f"{stem}: the reports hold different fields")
                continue
            for key, delta in worst.items():
                if delta:
                    print(f"{stem}: {key} {'differs' if delta == math.inf else f'{delta:.3g}'}")
            if not any(worst.values()):  # the same values, spelled otherwise
                print(f"{stem}: out differ")
    print(f"{len(stems)} runs compared")
    return failed


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(1 if compare(*sys.argv[2:]) else 0)
    elif len(sys.argv) == 2:
        run_matrix(sys.argv[1])
    else:
        sys.exit(__doc__)
