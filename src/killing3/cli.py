"""Command-line front end: parse metric specs, run analyses, emit reports.

Commands
--------
analyze   curvature packet + kinematics sweep over sampled points
verify    full identity-residual suite (structure equations, Bianchi,
          Gaussian-curvature relation, spectrum agreement, Lorentz relations)
flatness  Cotton-York sweep + (B, C) quadratic fit
geodesic  trajectory integration with conserved-quantity drift report
family    twist-ODE solve + built metric + flatness audit
lorentz   signature-pair curvature relations

Exit codes: 0 pass, 1 verdict failure, 2 parse/config error, 3 numeric/domain
error.  Point sampling uses a seeded low-discrepancy sequence for
reproducible residual maxima.  ``KILLING3_THREADS`` caps the thread pool
that ``analyze``, ``verify`` and ``lorentz`` sweep their points with; it has
no effect on the other commands.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.stats import qmc

from . import lorentz_bridge as lz
from . import np_formalism as npf
from .cotton_york import FLAT, cotton_york, flatness_verdict
from .completeness_probe import integrate_geodesic, make_state
from .conformal_family import FamilyParams, build_cf_metric, solve_omega_ode
from .curvature_engine import (curvature_packet, gaussian_identity_residual,
                               spectrum_vs_eigensolve_residual)
from .errors import (BadParams, Killing3Error, ParseError, UnknownCatalogName)
from .metric_family import (CATALOG_NAMES, catalog, frame_gram_residual,
                            load_grid_csv)
from .tensor_core import LORENTZIAN, RIEMANNIAN

DEFAULT_GRID = (0.2, 1.2, 8, 0.0, 6.0, 8)
DEFAULT_SEED = 42
DEFAULT_TOL = 1e-8

_CATALOG_KEYS = {
    "flat": set(),
    "hopf": {"R"},
    "nil": {"omega0"},
    "hyperbolic": set(),
    "cf_family": {"B", "C", "omega0", "sign"},
}


@dataclass
class RunConfig:
    command: str
    spec_path: str
    grid: tuple = DEFAULT_GRID
    tolerances: dict = dc_field(default_factory=dict)
    out: str = None
    fmt: str = "text"
    seed: int = DEFAULT_SEED
    expect: str = None
    n_points: int = 64
    length: float = 20.0
    init: tuple = None


@dataclass
class Report:
    command: str
    records: list
    summary: dict
    verdict: str  # "pass" or "fail"


def parse_metric_spec(text):
    """MetricSpec from `key = value` lines; `#` starts a comment."""
    entries = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected `key = value`, got {line!r}", line=ln)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not key or not val:
            raise ParseError("empty key or value", line=ln)
        if key in entries:
            raise ParseError(f"duplicate key {key!r}", line=ln)
        entries[key] = (val, ln)

    signature = RIEMANNIAN
    if "signature" in entries:
        val, ln = entries.pop("signature")
        if val not in (RIEMANNIAN, LORENTZIAN):
            raise ParseError(f"unknown signature {val!r}", line=ln)
        signature = val

    if "grid_csv" in entries:
        path, ln = entries.pop("grid_csv")
        if entries:
            key, (_, ln2) = next(iter(entries.items()))
            raise ParseError(f"unexpected key {key!r} with grid_csv", line=ln2)
        spec = load_grid_csv(path)
        return spec.with_signature(signature)

    if "catalog" not in entries:
        raise ParseError("missing `catalog = <name>` (or grid_csv)")
    name, ln = entries.pop("catalog")
    if name not in CATALOG_NAMES:
        raise UnknownCatalogName(f"unknown catalog metric {name!r}")
    allowed = _CATALOG_KEYS[name]
    params = {}
    for key, (val, ln) in entries.items():
        if key not in allowed:
            raise ParseError(f"unexpected key {key!r} for catalog {name}", line=ln)
        try:
            params[key] = float(val)
        except ValueError:
            raise ParseError(f"non-numeric value for {key!r}: {val!r}", line=ln)
        if not np.isfinite(params[key]):
            raise ParseError(f"non-finite value for {key!r}: {val!r}", line=ln)
    spec = catalog(name, params)
    if signature == LORENTZIAN:
        spec = spec.with_signature(LORENTZIAN)
    return spec


def sample_points(grid, n_points, seed):
    """Seeded low-discrepancy points inside the (r, theta) grid box."""
    r_min, r_max, _, t_min, t_max, _ = grid
    sampler = qmc.Halton(d=2, scramble=True, seed=seed)
    u = sampler.random(n_points)
    pts = qmc.scale(u, [r_min, t_min], [r_max, t_max])
    return [tuple(p) for p in pts]


def _max_workers():
    env = os.environ.get("KILLING3_THREADS")
    return max(1, int(env)) if env else min(8, os.cpu_count() or 1)


def _sweep(fn, points):
    if len(points) < 4 or _max_workers() == 1:
        return [fn(p) for p in points]
    with ThreadPoolExecutor(max_workers=_max_workers()) as pool:
        return list(pool.map(fn, points))


# -- per-command runners -------------------------------------------------------


def _run_analyze(spec, config):
    def one(p):
        pk = curvature_packet(spec, p)
        kin = npf.kinematics(spec, p)
        cym = cotton_york(spec, p)
        return {
            "point": [pk.point[0], pk.point[1]],
            "S": pk.scalar_S,
            "ric_TT": pk.ric_of_T.t_component,
            "omega": pk.omega,
            "div": kin.divergence,
            "shear": abs(kin.shear),
            "spectrum": list(pk.spectrum),
            "cy_norm": cym.norm,
        }

    records = _sweep(one, sample_points(config.grid, config.n_points, config.seed))
    summary = {
        "max_cy_norm": max(r["cy_norm"] for r in records),
        "max_abs_S": max(abs(r["S"]) for r in records),
        "max_abs_omega": max(abs(r["omega"]) for r in records),
        "n_points": len(records),
    }
    ok = all(np.isfinite(list(r["spectrum"]) + [r["S"], r["omega"]]).all()
             for r in records)
    return records, summary, ok


def _run_verify(spec, config):
    tol = config.tolerances.get("residual", DEFAULT_TOL)
    pair = lz.to_lorentz(spec) if spec.signature == RIEMANNIAN else None

    def one(p):
        res = npf.structure_residuals(spec, p)
        pk = curvature_packet(spec, p)
        rec = {
            "point": [float(p[0]), float(p[1])],
            "structure": res.max_abs(),
            "gaussian": float(gaussian_identity_residual(spec, p[0], p[1])),
            "spectrum_agreement": spectrum_vs_eigensolve_residual(pk),
            "gram": frame_gram_residual(spec, p),
        }
        if pair is not None:
            ric_res, s_res = lz.lorentz_relations_check(pair, p)
            rec["lorentz_ric"] = ric_res
            rec["lorentz_scalar"] = s_res
        return rec

    records = _sweep(one, sample_points(config.grid, config.n_points, config.seed))
    keys = [k for k in records[0] if k != "point"]
    summary = {f"max_{k}": max(r[k] for r in records) for k in keys}
    summary["n_points"] = len(records)
    summary["tolerance"] = tol
    ok = all(v < tol for k, v in summary.items() if k.startswith("max_"))
    return records, summary, ok


def _run_flatness(spec, config):
    pts = sample_points(config.grid, config.n_points, config.seed)
    fit = flatness_verdict(spec, pts)
    records = [{"point": [p[0], p[1]], "cy_norm": float(n)}
               for p, n in zip(pts, fit.cy_norms)]
    summary = {
        "verdict": fit.verdict, "B": fit.B, "C": fit.C,
        "fit_residual": fit.residual_max, "max_cy_norm": fit.cy_max,
        "constant_omega": fit.constant_omega, "nonunique": fit.nonunique,
    }
    ok = _expected(config, fit.verdict)
    return records, summary, ok


def _run_geodesic(spec, config):
    tol = config.tolerances.get("drift", DEFAULT_TOL)
    r_min, r_max, _, t_min, _, _ = config.grid
    if config.init is not None:
        t0, r0, th0, vt, vr, vth = config.init
        state = make_state(spec, (t0, r0, th0), (vt, vr, vth))
    else:
        state = make_state(spec, (0.0, 0.5 * (r_min + r_max), t_min),
                           (0.3, 0.8, 0.4))
    traj = integrate_geodesic(spec, state, config.length)
    records = [
        {"s": float(traj.s[i]), "state": [float(x) for x in traj.states[i]],
         "c_drift": float(traj.c_drift[i]),
         "speed_drift": float(traj.speed_drift[i])}
        for i in range(0, len(traj.s), max(1, len(traj.s) // 100))
    ]
    summary = {"max_c_drift": traj.max_c_drift,
               "max_speed_drift": traj.max_speed_drift,
               "length": config.length}
    ok = traj.max_c_drift < tol and traj.max_speed_drift < tol
    return records, summary, ok


def _run_family(spec, config):
    if spec.name != "cf_family":
        raise BadParams("`family` needs a cf_family spec")
    meta = spec.params
    params = FamilyParams(B=meta["B"], C=meta["C"], omega0=meta["omega0"],
                          omega_r0_sign=int(meta["sign"]))
    sol = solve_omega_ode(params)
    built = build_cf_metric(params)
    lo, hi = built.params["r_range"]
    box = (0.9 * lo if lo < 0 else lo, 0.9 * hi, config.grid[2],
           config.grid[3], config.grid[4], config.grid[5])
    pts = sample_points(box, config.n_points, config.seed)
    fit = flatness_verdict(built, pts)
    records = [{"r": float(r), "omega": float(w), "omega_r": float(wr)}
               for r, w, wr in zip(sol.r_samples[::40], sol.omega[::40],
                                   sol.omega_r[::40])]
    summary = {
        "energy_drift": sol.energy_drift, "period": sol.period,
        "n_turning_points": int(len(sol.turning_points)),
        "r_range": [lo, hi], "verdict": fit.verdict,
        "B_fit": fit.B, "C_fit": fit.C, "fit_residual": fit.residual_max,
        "max_cy_norm": fit.cy_max,
    }
    ok = fit.verdict == FLAT and _expected(config, fit.verdict)
    return records, summary, ok


def _run_lorentz(spec, config):
    tol = config.tolerances.get("residual", DEFAULT_TOL)
    pair = lz.to_lorentz(spec)

    def one(p):
        ric_res, s_res = lz.lorentz_relations_check(pair, p)
        return {"point": [p[0], p[1]], "flip": pair.flip_residual(p),
                "timelike": pair.timelike_residual(p),
                "ric_TT": ric_res, "scalar": s_res}

    records = _sweep(one, sample_points(config.grid, config.n_points, config.seed))
    keys = [k for k in records[0] if k != "point"]
    summary = {f"max_{k}": max(r[k] for r in records) for k in keys}
    summary["n_points"] = len(records)
    ok = all(v < tol for v in summary.values() if isinstance(v, float))
    return records, summary, ok


def _expected(config, verdict):
    if config.expect is None:
        return True
    return verdict.lower() == config.expect.lower()


_RUNNERS = {
    "analyze": _run_analyze,
    "verify": _run_verify,
    "flatness": _run_flatness,
    "geodesic": _run_geodesic,
    "family": _run_family,
    "lorentz": _run_lorentz,
}


def run(config):
    """Execute a RunConfig; returns (Report, exit_code)."""
    with open(config.spec_path) as fh:
        spec = parse_metric_spec(fh.read())
    records, summary, ok = _RUNNERS[config.command](spec, config)
    report = Report(command=config.command, records=records, summary=summary,
                    verdict="pass" if ok else "fail")
    return report, (0 if ok else 1)


# -- report output -------------------------------------------------------------


def render_report(report, fmt):
    if fmt == "jsonl":
        lines = [json.dumps({"record": r}, sort_keys=True) for r in report.records]
        lines.append(json.dumps(
            {"summary": report.summary, "command": report.command,
             "verdict": report.verdict}, sort_keys=True))
        return "\n".join(lines) + "\n"
    out = [f"killing3 {report.command}: {report.verdict}"]
    for key, val in report.summary.items():
        out.append(f"  {key} = {val}")
    return "\n".join(out) + "\n"


def load_jsonl_report(text):
    """Re-ingest a jsonl report (round-trip check of the summary)."""
    records, summary, command, verdict = [], None, None, None
    for line in text.splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        if "record" in obj:
            records.append(obj["record"])
        else:
            summary, command, verdict = obj["summary"], obj["command"], obj["verdict"]
    return Report(command=command, records=records, summary=summary,
                  verdict=verdict)


def _write_atomic(path, text):
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".killing3-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# -- argument parsing ----------------------------------------------------------


def _parse_grid(text):
    try:
        r_part, t_part = text.split(",")
        r_min, r_max, n_r = r_part.split(":")
        t_min, t_max, n_t = t_part.split(":")
        grid = (float(r_min), float(r_max), int(n_r),
                float(t_min), float(t_max), int(n_t))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "grid must look like rmin:rmax:nr,tmin:tmax:nt")
    if grid[2] < 2 or grid[5] < 2:
        raise argparse.ArgumentTypeError("grid counts must be >= 2")
    return grid


def _parse_tol(items):
    tols = {}
    for item in items or []:
        if "=" not in item:
            raise argparse.ArgumentTypeError(f"--tol expects NAME=VAL, got {item!r}")
        name, _, val = item.partition("=")
        tols[name] = float(val)
    return tols


def build_parser():
    ap = argparse.ArgumentParser(
        prog="killing3",
        description="Numerical toolkit for 3-metrics with a unit Killing field.")
    ap.add_argument("command", choices=sorted(_RUNNERS))
    ap.add_argument("--spec", required=True, help="metric spec file")
    ap.add_argument("--grid", type=_parse_grid, default=DEFAULT_GRID,
                    metavar="rmin:rmax:nr,tmin:tmax:nt")
    ap.add_argument("--tol", action="append", metavar="NAME=VAL")
    ap.add_argument("--format", choices=("text", "jsonl"), default="text")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--out", help="write the report here (atomically)")
    ap.add_argument("--expect", help="fail (exit 1) unless the verdict matches")
    ap.add_argument("--points", type=int, default=64,
                    help="number of sampled points for sweeps")
    ap.add_argument("--length", type=float, default=20.0,
                    help="affine length for geodesic runs")
    ap.add_argument("--init", help="geodesic start: t,r,theta,vt,vr,vtheta")
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
        if ns.points < 1:
            raise BadParams(f"--points must be at least 1, got {ns.points}")
        init = None
        if ns.init:
            parts = [float(x) for x in ns.init.split(",")]
            if len(parts) != 6:
                raise BadParams("--init needs 6 comma-separated numbers")
            init = tuple(parts)
        config = RunConfig(
            command=ns.command, spec_path=ns.spec, grid=ns.grid,
            tolerances=_parse_tol(ns.tol), out=ns.out, fmt=ns.format,
            seed=ns.seed, expect=ns.expect, n_points=ns.points,
            length=ns.length, init=init,
        )
    except (argparse.ArgumentTypeError, BadParams, ValueError) as exc:
        print(f"killing3: {exc}", file=sys.stderr)
        return 2

    try:
        report, code = run(config)
    except (ParseError, UnknownCatalogName, BadParams, FileNotFoundError) as exc:
        print(f"killing3: {exc}", file=sys.stderr)
        return 2
    except Killing3Error as exc:
        print(f"killing3: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    text = render_report(report, config.fmt)
    if config.out:
        _write_atomic(config.out, text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
