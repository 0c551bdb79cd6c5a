"""The walkthroughs in demos/ run to the end against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [["catalog_tour.py", "--points", "4"],
                                  ["flat_family_roundtrip.py"],
                                  # the separatrix: one turning point and no period
                                  ["flat_family_roundtrip.py", "--B", "-1", "--C", "0",
                                   "--omega0", "1"],
                                  ["geodesic_drift.py", "--length", "2"]])
def test_demo_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / argv[0]), *argv[1:]],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
