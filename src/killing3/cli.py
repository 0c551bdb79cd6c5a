"""Command-line front end: parse metric specs, run analyses, emit reports.

Commands
--------
analyze   curvature packet + kinematics sweep over sampled points
verify    full identity-residual suite (structure, Bianchi, Gaussian curvature,
          closed-form spectrum vs the Geometry's frame Ricci, Lorentz relations)
flatness  Cotton-York sweep + (B, C) quadratic fit
geodesic  trajectory integration with conserved-quantity drift report
family    twist-ODE solve + built metric + flatness audit
lorentz   signature-pair curvature relations

analyze, verify, flatness and family hold for g(T,T) = +1 only: they refuse a
Lorentzian spec with exit 2, and ``lorentz`` on the Riemannian spec checks its partner.

Exit codes: 0 pass, 1 verdict failure, 2 parse/config error, 3 numeric/domain
error.  A sweep samples --points points from a seeded low-discrepancy
sequence in the box --grid rmin:rmax,tmin:tmax, for reproducible residual
maxima, and evaluates them as one batch.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass, field as dc_field, replace
from functools import cache

import numpy as np

from .cotton_york import (FLAT, INCONCLUSIVE, NOT_FLAT, cotton_york,
                          flatness_verdict)
from .completeness_probe import integrate_geodesic, make_state
from .conformal_family import FamilyParams, build_cf_metric, solve_omega_ode
from .curvature_engine import (curvature_packet, gaussian_identity_residual,
                               lorentz_relations_check, spectrum_vs_eigensolve_residual)
from .errors import (BadParams, Killing3Error, NonFinite, ParseError,
                     UnknownCatalogName)
from .frame_calculus import LORENTZIAN, RIEMANNIAN, Geometry
from .metric_family import (CATALOG_PARAMS, catalog, flip_residual, frame_gram_residual,
                            load_grid_csv, timelike_residual, to_lorentz)
from .np_formalism import kinematics, structure_residuals

#: the sampling box (r_min, r_max, theta_min, theta_max)
DEFAULT_GRID = (0.2, 1.2, 0.0, 6.0)
DEFAULT_SEED = 42
DEFAULT_TOL = 1e-8
TOLERANCE_NAMES = ("residual", "drift")
VERDICTS = (FLAT, NOT_FLAT, INCONCLUSIVE)
#: the command-specific flags and tolerances each command reads
READS = {"analyze": set(), "verify": {"--tol residual"}, "flatness": {"--expect"},
         "geodesic": {"--tol drift", "--length", "--init"}, "family": {"--expect"},
         "lorentz": {"--tol residual"}}


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
        with open(path) as fh:
            spec = load_grid_csv(fh.read())
    else:
        if "catalog" not in entries:
            raise ParseError("missing `catalog = <name>` (or grid_csv)")
        name, ln = entries.pop("catalog")
        if name not in CATALOG_PARAMS:
            raise UnknownCatalogName(f"unknown catalog metric {name!r}")
        params = {}
        for key, (val, ln) in entries.items():
            if key not in CATALOG_PARAMS[name]:
                raise ParseError(f"unexpected key {key!r} for catalog {name}", line=ln)
            try:
                params[key] = float(val)
            except ValueError:
                raise ParseError(f"non-numeric value for {key!r}: {val!r}", line=ln)
            if not np.isfinite(params[key]):
                raise ParseError(f"non-finite value for {key!r}: {val!r}", line=ln)
        spec = catalog(name, params)
    return spec.with_signature(signature)


def sample_points(grid, n_points, seed):
    """Seeded scrambled Halton points inside the (r, theta) grid box, an (n, 2) array.

    Owen's randomized Halton sequence in bases 2 and 3 (arXiv:1706.02808), as
    ``scipy.stats.qmc.Halton(d=2, scramble=True, seed=seed)`` draws it: digit k
    of a point's index in base b goes through the k-th of ceil(54 / log2 b) - 1
    seeded permutations of range(b).
    """
    r_min, r_max, t_min, t_max = grid
    rng = np.random.default_rng(seed)
    u = []
    for base in (2, 3):
        count = math.ceil(54 / math.log2(base)) - 1
        # the draws of one rng.permutation(base) per digit; 1/b, 1/b/b, ... by repeated
        # division, as scipy's radical inverse
        perms = rng.permuted(np.tile(np.arange(base), (count, 1)), axis=1)
        weights = np.divide.accumulate(np.r_[1.0, np.full(count, float(base))])[1:]
        k = np.arange(count)[:, np.newaxis]
        digits = np.arange(n_points) // base**k % base  # digit k of each point's index
        terms = perms[k, digits] * weights[:, np.newaxis]
        u.append(np.add.accumulate(terms)[-1])  # summed digit by digit, in order
    return np.transpose(u) * (np.array([r_max, t_max]) - [r_min, t_min]) + [r_min, t_min]


def _max_workers():
    return 1  # the sweeps run in one thread; perfbench/run.py records this


def _refuse_lorentzian(spec, command):
    """BadParams on a Lorentzian spec, for a command that checks the Riemannian identities."""
    if spec.signature != RIEMANNIAN:
        raise BadParams(f"{command} checks the Riemannian identities; run `lorentz` "
                        "on the Riemannian spec for the Lorentzian relations")


def _sweep(spec, config, order=None):
    """The Geometry of the command's sampled points, one batch of width n.

    BadParams on a Lorentzian spec, DomainError if the metric is not defined at
    one of the points.
    """
    _refuse_lorentzian(spec, config.command)
    pts = sample_points(config.grid, config.n_points, config.seed)
    return Geometry(spec, pts[:, 0], pts[:, 1], order)


def _records(geo, **columns):
    """One report record per point of the sweep from per-point columns."""
    cols = {key: np.asarray(col).tolist() for key, col in columns.items()}
    pts = np.stack([geo.r, geo.theta], axis=-1).tolist()
    return [{"point": p, **{key: col[i] for key, col in cols.items()}}
            for i, p in enumerate(pts)]


def _maxima(columns):
    return {f"max_{key}": float(np.max(col)) for key, col in columns.items()}


# -- per-command runners -------------------------------------------------------


def _run_analyze(spec, config):
    geo = _sweep(spec, config)
    pk, kin = curvature_packet(geo), kinematics(geo)
    cy = cotton_york(geo).norm
    records = _records(geo, S=pk.scalar_S, ric_TT=pk.ric_of_T.t_component,
                       omega=pk.omega, div=kin.divergence, shear=np.abs(kin.shear),
                       spectrum=np.stack(pk.spectrum, axis=-1), cy_norm=cy)
    maxima = _maxima({"cy_norm": cy, "abs_S": np.abs(pk.scalar_S),
                      "abs_omega": np.abs(pk.omega)})
    summary = {**maxima, "n_points": geo.r.size}
    # no gate beyond finiteness, which render_report checks for every command
    return records, summary, True


def _run_verify(spec, config):
    tol = config.tolerances.get("residual", DEFAULT_TOL)
    geo = _sweep(spec, config)
    ric_res, s_res = lorentz_relations_check(geo)
    columns = {
        "structure": structure_residuals(geo).max_abs(),
        "gaussian": gaussian_identity_residual(geo),
        "spectrum_agreement": spectrum_vs_eigensolve_residual(geo),
        "gram": frame_gram_residual(geo),
        "lorentz_ric": ric_res,
        "lorentz_scalar": s_res,
    }
    maxima = _maxima(columns)
    summary = {**maxima, "n_points": geo.r.size, "tolerance": tol}
    return _records(geo, **columns), summary, all(v < tol for v in maxima.values())


def _run_flatness(spec, config):
    geo = _sweep(spec, config)
    fit = flatness_verdict(geo)
    records = _records(geo, cy_norm=fit.cy_norms)
    summary = {
        "verdict": fit.verdict, "B": fit.B, "C": fit.C,
        "fit_residual": fit.residual_max, "max_cy_norm": fit.cy_max,
        "constant_omega": fit.constant_omega, "nonunique": fit.nonunique,
    }
    ok = _expected(config, fit.verdict)
    return records, summary, ok


def _run_geodesic(spec, config):
    tol = config.tolerances.get("drift", DEFAULT_TOL)
    r_min, r_max, t_min, _ = config.grid
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
               "length": config.length, **traj.solver_stats}
    ok = traj.max_c_drift < tol and traj.max_speed_drift < tol
    return records, summary, ok


def _run_family(spec, config):
    if spec.name != "cf_family":
        raise BadParams("`family` needs a cf_family spec")
    _refuse_lorentzian(spec, config.command)  # it sweeps the built metric, always Riemannian
    meta = spec.params
    params = FamilyParams(B=meta["B"], C=meta["C"], omega0=meta["omega0"],
                          omega_r0_sign=int(meta["sign"]))
    sol = solve_omega_ode(params)
    built = build_cf_metric(params)
    lo, hi = built.params["r_range"]
    box = (0.9 * lo if lo < 0 else lo, 0.9 * hi) + tuple(config.grid[2:])
    fit = flatness_verdict(_sweep(built, replace(config, grid=box)))
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
    to_lorentz(spec)  # refuses a Lorentzian spec with AlreadyLorentzian's message
    geo = _sweep(spec, config, order=2)  # values of g, g^-1, S and Ric only
    partner = geo.partner
    ric_res, s_res = lorentz_relations_check(geo)
    columns = {
        "flip": flip_residual(geo, partner),
        "timelike": timelike_residual(partner),
        "ric_TT": ric_res,
        "scalar": s_res,
    }
    maxima = _maxima(columns)
    summary = {**maxima, "n_points": geo.r.size}
    return _records(geo, **columns), summary, all(v < tol for v in maxima.values())


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
    # glibc trims freed heap above 128 KB, re-faulting a sweep's ~1 MB; a freed 1 MiB lifts it
    np.empty(1 << 17)
    with open(config.spec_path) as fh:
        spec = parse_metric_spec(fh.read())
    # an overflow shows up as a non-finite number in the report, which render_report refuses
    with np.errstate(all="ignore"):
        records, summary, ok = _RUNNERS[config.command](spec, config)
    report = Report(command=config.command, records=records, summary=summary,
                    verdict="pass" if ok else "fail")
    return report, (0 if ok else 1)


# -- report output -------------------------------------------------------------


_JSON = json.JSONEncoder(sort_keys=True, allow_nan=False)  # one for every report line


def render_report(report, fmt):
    """The report as jsonl or as text (its summary); NonFinite if it holds a non-finite number."""
    try:
        if fmt == "jsonl":
            lines = [{"record": r} for r in report.records] + [{
                "summary": report.summary, "command": report.command, "verdict": report.verdict}]
            return "".join(_JSON.encode(line) + "\n" for line in lines)
        _JSON.encode([report.records, report.summary])
    except ValueError:
        raise NonFinite(f"the {report.command} report holds non-finite numbers") from None
    return "".join([f"killing3 {report.command}: {report.verdict}\n"]
                   + [f"  {key} = {val}\n" for key, val in report.summary.items()])


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
        (r_min, r_max), (t_min, t_max) = (map(float, part.split(":"))
                                          for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("grid must look like rmin:rmax,tmin:tmax") from None
    grid = (r_min, r_max, t_min, t_max)
    if not (np.all(np.isfinite(grid)) and r_min < r_max and t_min < t_max):
        raise argparse.ArgumentTypeError("grid bounds must be finite with min < max")
    return grid


def _parse_tol(items):
    tols = {}
    for item in items or []:
        if "=" not in item:
            raise argparse.ArgumentTypeError(f"--tol expects NAME=VAL, got {item!r}")
        name, _, val = item.partition("=")
        if name not in TOLERANCE_NAMES:
            raise argparse.ArgumentTypeError(
                f"--tol name must be one of {', '.join(TOLERANCE_NAMES)}, got {name!r}")
        tols[name] = float(val)
        # a residual or drift is never below a tolerance <= 0, so such a run could only fail
        if not (np.isfinite(tols[name]) and tols[name] > 0.0):
            raise argparse.ArgumentTypeError(
                f"--tol {name} must be finite and positive, got {val!r}")
    return tols


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # Python 3.13's rule: "-" then a digit or ".digit" is a value, so `--init -1,0.7,...`
        # and `--grid -0.5:1.2,0:6` parse; before 3.13 only a lone number such as -1 did
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        # one stderr line and exit 2, like every other refused input
        self.exit(2, f"killing3: {message}\n")


@cache  # one parser per process, built by the first command; parsing leaves it unchanged
def build_parser():
    ap = _Parser(
        prog="killing3",
        description="Numerical toolkit for 3-metrics with a unit Killing field.")
    ap.add_argument("command", choices=sorted(_RUNNERS))
    ap.add_argument("--spec", required=True, help="metric spec file")
    ap.add_argument("--grid", type=_parse_grid, default=DEFAULT_GRID,
                    metavar="rmin:rmax,tmin:tmax")
    ap.add_argument("--tol", action="append", metavar="NAME=VAL")
    ap.add_argument("--format", choices=("text", "jsonl"), default="text")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--out", help="write the report here (atomically)")
    ap.add_argument("--expect", help="fail (exit 1) unless the verdict matches")
    ap.add_argument("--points", type=int, default=64,
                    help="number of sampled points for sweeps")
    ap.add_argument("--length", type=float,
                    help="affine length for geodesic runs (default 20)")
    ap.add_argument("--init", help="geodesic start: t,r,theta,vt,vr,vtheta")
    return ap


def main(argv=None):
    try:
        ns = build_parser().parse_args(argv)
        if ns.points < 1:
            raise BadParams(f"--points must be at least 1, got {ns.points}")
        if ns.seed < 0:
            raise BadParams(f"--seed must be non-negative, got {ns.seed}")
        if ns.expect is not None and ns.expect.lower() not in {v.lower() for v in VERDICTS}:
            raise BadParams(f"--expect must be one of {', '.join(VERDICTS)}, got {ns.expect!r}")
        if ns.length is not None and not (np.isfinite(ns.length) and ns.length != 0.0):
            raise BadParams(f"--length must be finite and nonzero, got {ns.length}")
        init = None
        if ns.init:
            parts = [float(x) for x in ns.init.split(",")]
            if len(parts) != 6 or not np.all(np.isfinite(parts)):
                raise BadParams("--init needs 6 finite comma-separated numbers")
            init = tuple(parts)
        tols = _parse_tol(ns.tol)
        given = {f"--tol {name}" for name in tols} | {
            flag for flag, val in (("--expect", ns.expect), ("--length", ns.length),
                                   ("--init", ns.init)) if val is not None}
        unread = sorted(given - READS[ns.command])
        if unread:
            raise BadParams(f"{ns.command} does not read {', '.join(unread)}")
        config = RunConfig(
            command=ns.command, spec_path=ns.spec, grid=ns.grid,
            tolerances=tols, out=ns.out, fmt=ns.format,
            seed=ns.seed, expect=ns.expect, n_points=ns.points,
            length=RunConfig.length if ns.length is None else ns.length, init=init,
        )
    except (argparse.ArgumentTypeError, BadParams, ValueError) as exc:
        print(f"killing3: {exc}", file=sys.stderr)
        return 2

    try:
        report, code = run(config)
        text = render_report(report, config.fmt)
        if config.out:
            _write_atomic(config.out, text)
        else:
            sys.stdout.write(text)
    except (ParseError, UnknownCatalogName, BadParams, OSError, UnicodeDecodeError) as exc:
        # OSError and UnicodeDecodeError come from reading the spec or grid file,
        # OSError also from writing the report to --out
        print(f"killing3: {exc}", file=sys.stderr)
        return 2
    except Killing3Error as exc:
        print(f"killing3: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
