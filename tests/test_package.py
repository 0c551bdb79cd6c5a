import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import GEODESIC_PINS

import killing3


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from killing3 import *", namespace)  # AttributeError on a stale name
    assert set(killing3.__all__) <= namespace.keys()
    assert len(set(killing3.__all__)) == len(killing3.__all__)


def test_package_docstring_names_every_module():
    """Each src/killing3 module other than __init__ has a bullet in killing3.__doc__'s list."""
    listed = {name for line in killing3.__doc__.splitlines() if line.startswith("* ")
              for name in line.split("  ")[0].split("``")[1::2]}  # the name column
    modules = {path.stem for path in Path(killing3.__file__).parent.glob("*.py")}
    assert listed == modules - {"__init__"}


def test_every_error_class_is_raised():
    """Each class of killing3.errors is raised in src/, or is the base of one that is."""
    src = Path(killing3.__file__).parent
    raised = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    classes = {node.name: [b.id for b in node.bases]
               for node in ast.parse((src / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)}
    live = set()
    for name in raised & classes.keys():
        while name in classes:  # the class and its bases up to Exception
            live.add(name)
            (name,) = classes[name]
    assert sorted(classes.keys() - live) == []


_NUMPY_ONLY = r'''
import contextlib, io, json, math, sys
from pathlib import Path


class NoScipy:  # any import of scipy fails
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, NoScipy())

import numpy as np

from killing3 import completeness_probe
from killing3.cli import main, parse_metric_spec

work = Path(sys.argv[1])
rows = ["r,theta,phi,h,k"]  # hopf (R = 2) on 24 x 24 nodes
for r in map(float, np.linspace(0.1, 1.5, 24)):
    rows += [f"{r!r},{t!r},{math.sin(r)!r},{-math.tan(0.5 * r)!r},0.0"
             for t in map(float, np.linspace(0.0, 6.3, 24))]
(work / "hopf.csv").write_text("\n".join(rows) + "\n")
texts = {"hopf": "catalog = hopf\nR = 2", "nil": "catalog = nil", "hyperbolic": "catalog = hyperbolic",
         "flat": "catalog = flat", "cf": "catalog = cf_family\nB = 0.3\nC = 1",
         "grid": f"grid_csv = {work / 'hopf.csv'}"}
for name, text in texts.items():
    parse_metric_spec(text)
    (work / f"{name}.spec").write_text(text)

nfev, solve = [], completeness_probe.solve_ivp
def counted(*args, **kwargs):
    sol = solve(*args, **kwargs)
    nfev.append(sol.nfev)
    return sol
completeness_probe.solve_ivp = counted
codes, loaded = {}, {}
for command in ("analyze", "verify", "flatness", "lorentz", "family", "geodesic"):
    spec = work / ("cf.spec" if command == "family" else "hopf.spec")
    with contextlib.redirect_stdout(io.StringIO()):
        codes[command] = main([command, "--spec", str(spec)])
    loaded[command] = "killing3.dop853" in sys.modules
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"scipy": scipy, "codes": codes, "nfev": nfev, "dop853": loaded,
                  "numpy.ma": "numpy.ma" in sys.modules}))
'''


def test_parsing_specs_and_family_import_no_scipy(tmp_path):
    # a fresh interpreter in which importing scipy fails: every command runs on numpy alone,
    # only the geodesic loads the integrator, and nothing, the grid spec's parse included,
    # loads numpy.ma
    src = Path(killing3.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", _NUMPY_ONLY, str(tmp_path)], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    codes = dict.fromkeys(("analyze", "verify", "flatness", "lorentz", "family", "geodesic"), 0)
    loaded = dict.fromkeys(codes, False) | {"geodesic": True}
    assert out == {"scipy": [], "codes": codes, "nfev": [GEODESIC_PINS["hopf"]["nfev"]],
                   "dop853": loaded, "numpy.ma": False}
