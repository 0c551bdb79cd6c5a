"""Every CLI command at its defaults on four specs, in text and jsonl, one file set per run.

    PYTHONPATH=src python tests/cli_matrix.py OUTDIR

writes the 24 x 24 hopf (R = 2) grid CSV and the spec files into OUTDIR, runs each
command in process on hopf (R = 2), that grid, nil and cf_family (B = 0.3, C = 1),
and writes ``OUTDIR/<spec>.<command>.<format>.{out,err,code}``.  Run it once against
each of two source trees (point PYTHONPATH at each ``src``); ``diff -r`` between the
two output directories shows every report that changed, to the byte.
"""

import contextlib
import io
import math
import os
import sys
from pathlib import Path

import numpy as np

from killing3.cli import _RUNNERS, main

SPECS = {"hopf": "catalog = hopf\nR = 2", "grid": "grid_csv = hopf.csv",
         "nil": "catalog = nil", "cf_family": "catalog = cf_family\nB = 0.3\nC = 1"}


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


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    run_matrix(sys.argv[1])
