"""The three benchmark workloads: inputs made from a seed, one pass, output checks.

All three are closed loops: one caller makes one call at a time and waits for
it.  The program receives only the generated spec files, the grid CSV and the
arguments; the seed drives the CLI's Halton ``--seed`` and the batch points.

``pointwise-sweep``
    In-process ``killing3.cli.main`` for analyze, verify, flatness and lorentz
    at 64 points, on a catalog spec (hopf, R = 2) and on a grid_csv spec that
    samples the same triple on 24x24 nodes.  Every ``Geometry`` has batch
    width 1, so per-call Python overhead (jet dispatch) dominates; the grid
    spec keeps the CSV loader, the spline fields and the grid tolerances in.
``batch-profile``
    Library calls at batch width 2048-4096: ``curvature_profile``,
    ``lorentz_completeness`` and ``cotton_york_norms``.  One ``Geometry`` covers
    thousands of points, so the dense jet product dominates.  Not listed in
    BENCHMARK.json: a third gated workload would mean 70 runs of about a
    minute each, more than the benchmark's time budget of 3420 s allows, and
    on a shared 2-vCPU host the spread of its pass time over ten seeds was
    0.19-0.30, the noisiest of the three.  Run it by name with run.py or
    collect.py.
``ode-integrate``
    In-process ``geodesic`` (hopf, length 20, default start) and ``family``
    (cf_family, B = 0.3, C = 1): the two ``solve_ivp`` integrators, with a
    ``Geometry`` built per right-hand-side call and the twist ODE solved three
    times per family command.

Each check uses the tolerance the CLI or the tier-1 tests apply; the values are
copied here so that loosening them in the program does not loosen the check.
"""

from __future__ import annotations

import importlib
import io
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

R = 2.0
S_HOPF = 6.0 / R**2            # scalar curvature of hopf
OMEGA_HOPF = 2.0 / R           # |twist| of hopf
TAIL_HOPF = 8.0 / R**2         # S + Ric(T,T) of hopf
CF_B, CF_C = 0.3, 1.0

HOPF_SPEC = f"catalog = hopf\nR = {R:g}\n"
CF_SPEC = f"catalog = cf_family\nB = {CF_B:g}\nC = {CF_C:g}\n"

N_POINTS = 64                  # CLI default point count
GRID_NODES = 24
# nodes reach past the CLI's default sample box r in [0.2, 1.2], theta in [0, 6]
GRID_R = (0.1, 1.3)
GRID_THETA = (-0.5, 6.5)
PROFILE_R_MAX = 1.45 * R       # inside phi's first zero at pi R / 2
PROFILE_N_R, PROFILE_N_THETA = 64, 32
N_BATCH = 4096
BATCH_R = (0.2, 2.8)
GEODESIC_LENGTH = 20.0

REL_TOL = 1e-8                 # hopf values, tests/test_acceptance.py criterion 01
GRID_VALUE_TOL = 1e-3          # grid-sampled fit, cotton_york.FIT_TOL_GRID
CY_TOL_ANALYTIC = 1e-8         # cotton_york.CY_TOL_ANALYTIC
CY_TOL_GRID = 2e-3             # cotton_york.CY_TOL_GRID
RESIDUAL_TOL = 1e-8            # cli.DEFAULT_TOL: verify, lorentz, geodesic drift
FIT_TOL = 1e-6                 # (B, C) fit, tests/test_cotton_york.py
TAIL_TOL = 1e-8                # tests/test_lorentz.py completeness agreement


@dataclass
class Op:
    """One timed call: its metric name, sampled points, duration and checks."""

    name: str
    points: int
    seconds: float = math.nan
    cpu_seconds: float = math.nan
    problems: list = field(default_factory=list)
    checksum: dict = field(default_factory=dict)

    @property
    def failed(self):
        return bool(self.problems)


def timed(name, points, call, check):
    """Time ``call()``; ``check(result, op)`` records problems and checksum values."""
    op = Op(name, points)
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        try:
            result = call()
        finally:
            # a call that raises is timed too, so a run of failing calls still ends
            op.seconds = time.perf_counter() - t0
            op.cpu_seconds = time.process_time() - c0
        check(result, op)
    except Exception as exc:  # any failure of the program is a failed operation
        op.problems.append(f"{type(exc).__name__}: {exc}")
    return op


def _within(value, bound):
    """value <= bound, False for NaN."""
    return bool(value <= bound)


def call_cli(argv):
    """``killing3.cli.main(argv)`` in process, with its jsonl report parsed."""
    from killing3 import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    lines = out.getvalue().splitlines()
    objs = [json.loads(line) for line in lines if line.strip()]
    summary = objs[-1]["summary"] if objs and "summary" in objs[-1] else {}
    records = [o["record"] for o in objs if "record" in o]
    return code, summary, records, err.getvalue().strip()


def _cli_check(tag):
    """Check wrapper: exit code 0 first, then the command-specific check."""
    def wrap(check):
        def run(result, op):
            code, summary, records, err = result
            if code != 0:
                op.problems.append(f"{tag}: exit {code} ({err[:200]})")
                return
            check(summary, records, op)
            for key, value in summary.items():
                if key.startswith("max_") or key in ("B", "C", "B_fit", "C_fit",
                                                     "fit_residual", "energy_drift"):
                    op.checksum[f"{tag}.{key}"] = value
        return run
    return wrap


class Workload:
    name = ""
    why = ""

    def __init__(self, seed, workdir):
        self.seed = int(seed)
        self.workdir = workdir

    def write_inputs(self):
        """Write the input files; return the spec files set-up builds."""
        raise NotImplementedError

    def load(self):
        """Build in process what the timed passes need besides the input files."""

    def plan(self):
        """The calls of one pass: (name, points, call, check) tuples."""
        raise NotImplementedError

    def run_pass(self):
        """Every call of the plan once: a list of Op."""
        return [timed(*entry) for entry in self.plan()]

    def sizes(self):
        raise NotImplementedError

    def _write(self, name, text):
        path = self.workdir / name
        path.write_text(text)
        return str(path)


def write_hopf_grid_csv(path, nodes=GRID_NODES):
    """Sample hopf (phi = (R/2) sin(2r/R), h = -tan(r/R), k = 0) on a node grid."""
    r = np.linspace(*GRID_R, nodes)
    theta = np.linspace(*GRID_THETA, nodes)
    lines = ["r,theta,phi,h,k"]
    for rv in map(float, r):
        phi = 0.5 * R * math.sin(2.0 * rv / R)
        h = -math.tan(rv / R)
        lines.extend(f"{rv!r},{tv!r},{phi!r},{h!r},0.0" for tv in map(float, theta))
    path.write_text("\n".join(lines) + "\n")


class PointwiseSweep(Workload):
    name = "pointwise-sweep"
    why = "CLI sweeps at batch width 1: per-call jet dispatch, Geometry builds and the thread pool"
    COMMANDS = ("analyze", "verify", "flatness", "lorentz")

    def __init__(self, seed, workdir, n_points=N_POINTS):
        super().__init__(seed, workdir)
        self.n_points = n_points

    def write_inputs(self):
        csv_path = self.workdir / "hopf_grid.csv"
        write_hopf_grid_csv(csv_path)
        self.specs = {
            "hopf": self._write("hopf.spec", HOPF_SPEC),
            "grid": self._write("grid.spec", f"grid_csv = {csv_path}\n"),
        }
        return list(self.specs.values())

    def sizes(self):
        return {"points_per_call": self.n_points, "grid_nodes": GRID_NODES,
                "calls_per_pass": len(self.specs) * len(self.COMMANDS)}

    def plan(self):
        for kind, path in self.specs.items():
            for cmd in self.COMMANDS:
                argv = [cmd, "--spec", path, "--seed", str(self.seed),
                        "--points", str(self.n_points), "--format", "jsonl"]
                check = getattr(self, f"_check_{cmd}")(kind)
                yield cmd, self.n_points, lambda a=argv: call_cli(a), check

    def _check_analyze(self, kind):
        tol = REL_TOL if kind == "hopf" else GRID_VALUE_TOL
        cy_tol = CY_TOL_ANALYTIC if kind == "hopf" else CY_TOL_GRID

        @_cli_check(f"{kind}.analyze")
        def check(summary, records, op):
            if len(records) != self.n_points:
                op.problems.append(f"{kind}.analyze: {len(records)} records")
                return
            s_err = max(abs(r["S"] - S_HOPF) for r in records) / S_HOPF
            w_err = max(abs(abs(r["omega"]) - OMEGA_HOPF) for r in records) / OMEGA_HOPF
            if not _within(s_err, tol):
                op.problems.append(f"{kind}.analyze: S off by {s_err:.3e} (rel)")
            if not _within(w_err, tol):
                op.problems.append(f"{kind}.analyze: |omega| off by {w_err:.3e} (rel)")
            if not _within(summary["max_cy_norm"], cy_tol):
                op.problems.append(f"{kind}.analyze: CY norm {summary['max_cy_norm']:.3e}")
        return check

    def _check_verify(self, kind):
        @_cli_check(f"{kind}.verify")
        def check(summary, records, op):
            maxima = {k: v for k, v in summary.items() if k.startswith("max_")}
            if len(maxima) < 5:
                op.problems.append(f"{kind}.verify: residuals missing: {sorted(maxima)}")
            for key, value in maxima.items():
                if not _within(value, RESIDUAL_TOL):
                    op.problems.append(f"{kind}.verify: {key} = {value:.3e}")
        return check

    def _check_flatness(self, kind):
        cy_tol = CY_TOL_ANALYTIC if kind == "hopf" else CY_TOL_GRID

        @_cli_check(f"{kind}.flatness")
        def check(summary, records, op):
            if summary.get("verdict") != "Flat":
                op.problems.append(f"{kind}.flatness: verdict {summary.get('verdict')}")
            if not _within(summary["max_cy_norm"], cy_tol):
                op.problems.append(f"{kind}.flatness: CY norm {summary['max_cy_norm']:.3e}")
        return check

    def _check_lorentz(self, kind):
        @_cli_check(f"{kind}.lorentz")
        def check(summary, records, op):
            maxima = {k: v for k, v in summary.items() if k.startswith("max_")}
            if len(maxima) < 4:
                op.problems.append(f"{kind}.lorentz: residuals missing: {sorted(maxima)}")
            for key, value in maxima.items():
                if not _within(value, RESIDUAL_TOL):
                    op.problems.append(f"{kind}.lorentz: {key} = {value:.3e}")
        return check


class BatchProfile(Workload):
    name = "batch-profile"
    why = "library calls at batch width 2048-4096: the dense jet product dominates"

    def write_inputs(self):
        self.spec_path = self._write("hopf.spec", HOPF_SPEC)
        rng = np.random.default_rng(self.seed)
        self.r = rng.uniform(*BATCH_R, N_BATCH)
        self.theta = rng.uniform(0.0, 2.0 * np.pi, N_BATCH)
        return [self.spec_path]

    def load(self):
        import killing3
        from killing3.cli import parse_metric_spec

        with open(self.spec_path) as fh:
            self.spec = parse_metric_spec(fh.read())
        self.pair = killing3.to_lorentz(self.spec)

    def sizes(self):
        return {"profile_grid": [PROFILE_N_R, PROFILE_N_THETA], "cy_points": N_BATCH}

    def plan(self):
        import killing3
        # the package re-exports the function cotton_york over the module's name
        cotton_york = importlib.import_module("killing3.cotton_york")

        grid = PROFILE_N_R * PROFILE_N_THETA
        return [
            ("profile", grid,
             lambda: killing3.curvature_profile(self.spec, PROFILE_R_MAX,
                                                PROFILE_N_R, PROFILE_N_THETA),
             self._check_profile),
            ("lorentz_profile", grid,
             lambda: killing3.lorentz_completeness(self.pair, PROFILE_R_MAX,
                                                   PROFILE_N_R, PROFILE_N_THETA),
             self._check_lorentz_profile),
            ("cy_norms", N_BATCH,
             lambda: cotton_york.cotton_york_norms(self.spec, self.r, self.theta),
             self._check_cy_norms),
        ]

    @staticmethod
    def _check_profile(prof, op):
        worst = float(np.max(np.abs(np.asarray(prof.inf_values) - TAIL_HOPF)))
        op.checksum["profile.tail_estimate"] = prof.tail_estimate
        op.checksum["profile.max_inf_error"] = worst
        if not _within(abs(prof.tail_estimate - TAIL_HOPF), TAIL_TOL):
            op.problems.append(f"profile: tail {prof.tail_estimate!r}")
        if not _within(worst, TAIL_TOL):
            op.problems.append(f"profile: running infimum off by {worst:.3e}")

    @staticmethod
    def _check_lorentz_profile(result, op):
        _, prof, agreement = result
        op.checksum["lorentz_profile.tail_estimate"] = prof.tail_estimate
        op.checksum["lorentz_profile.agreement"] = agreement
        if not _within(agreement, TAIL_TOL):
            op.problems.append(f"lorentz_profile: agreement {agreement:.3e}")
        if not _within(abs(prof.tail_estimate - TAIL_HOPF), TAIL_TOL):
            op.problems.append(f"lorentz_profile: tail {prof.tail_estimate!r}")

    def _check_cy_norms(self, norms, op):
        norms = np.asarray(norms)
        worst = float(np.max(norms))
        op.checksum["cy_norms.max"] = worst
        if norms.shape != (N_BATCH,):
            op.problems.append(f"cy_norms: shape {norms.shape}")
        if not _within(worst, CY_TOL_ANALYTIC):
            op.problems.append(f"cy_norms: max {worst:.3e}")


class OdeIntegrate(Workload):
    name = "ode-integrate"
    why = "the two solve_ivp integrators: per-step Geometry in geodesic, repeated twist-ODE solves in family"

    def __init__(self, seed, workdir, length=GEODESIC_LENGTH, n_points=N_POINTS):
        super().__init__(seed, workdir)
        self.length, self.n_points = length, n_points

    def write_inputs(self):
        self.hopf = self._write("hopf.spec", HOPF_SPEC)
        self.cf = self._write("cf.spec", CF_SPEC)
        return [self.hopf, self.cf]

    def sizes(self):
        return {"geodesic_length": self.length, "family_points": self.n_points}

    def plan(self):
        geodesic = ["geodesic", "--spec", self.hopf, "--length", repr(self.length),
                    "--seed", str(self.seed), "--format", "jsonl"]
        family = ["family", "--spec", self.cf, "--seed", str(self.seed),
                  "--points", str(self.n_points), "--format", "jsonl"]
        return [
            ("geodesic", 0, lambda: call_cli(geodesic), self._check_geodesic),
            ("family", 0, lambda: call_cli(family), self._check_family),
        ]

    @staticmethod
    @_cli_check("geodesic")
    def _check_geodesic(summary, records, op):
        for key in ("max_c_drift", "max_speed_drift"):
            if not _within(summary.get(key, math.nan), RESIDUAL_TOL):
                op.problems.append(f"geodesic: {key} = {summary.get(key)}")

    @staticmethod
    @_cli_check("family")
    def _check_family(summary, records, op):
        if summary.get("verdict") != "Flat":
            op.problems.append(f"family: verdict {summary.get('verdict')}")
        for key, want in (("B_fit", CF_B), ("C_fit", CF_C)):
            if not _within(abs(summary.get(key, math.nan) - want), FIT_TOL):
                op.problems.append(f"family: {key} = {summary.get(key)}, want {want}")


WORKLOADS = {w.name: w for w in (PointwiseSweep, BatchProfile, OdeIntegrate)}
