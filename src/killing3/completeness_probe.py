"""Completeness-criterion profiles and geodesic integration with conserved audits.

The criterion evaluated is: completeness (on the global-chart hypothesis)
holds iff the lim inf over |p| >= r of S + g(T,T) Ric(T,T), twice the quotient's
Gaussian curvature (S_L - Ric_L(T,T) for a timelike T), is <= 0 as r grows.  It is
read off the order-2 Geometry of one (radius, theta) mesh.  On a finite window this is
necessarily an extrapolation, so verdicts carry the tail estimate and window for the
user to judge.  ``lorentz_completeness`` reads it off the mesh's ``partner``, which shares
its field jets and coframe but runs the full Christoffel pipeline: a genuine cross-check.

Geodesics carry two exact first integrals, the Killing momentum c = g(T, y') and the
speed g(y', y').  The Killing-reduced system holds c fixed by construction, so the speed
drift is the integration quality report; the c drift is rounding.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .curvature_engine import quotient_criterion
from .errors import (BadParams, BlowUp, DomainError, EmptyGrid, EmptyProfile, NonFinite,
                     NotUnitLength, StepFailure)
from .frame_calculus import PHI_CUTOFF, Geometry, g_tt
from .metric_family import metric_components

COMPLETE = "CompleteCriterion"
INCOMPLETE = "IncompleteCriterion"
INCONCLUSIVE = "Inconclusive"

#: all verdicts are criterion evaluations under the global-chart hypothesis
VERDICT_NOTE = "criterion evaluation on R^3 hypothesis"

#: calm-tail verdict bands: Complete up to TOL_ZERO, Inconclusive up to TOL_INCOMPLETE
TOL_ZERO, TOL_INCOMPLETE = 1e-6, 1e-5
#: the largest |speed - 1| a geodesic may start with
UNIT_TOL = 1e-8
#: relative oscillation of the tail quartile beyond which no verdict is given
OSCILLATION_TOL = 0.2
#: right-hand-side calls after which a geodesic ends in StepFailure (hopf's default: 3785)
MAX_RHS_CALLS = 100_000


class solve_ivp:  # noqa: N801  (a class, so the tracer's function wrapping skips it)
    """dop853.DOP853 under scipy's name, imported by the first geodesic solve."""
    def __new__(cls, *args):
        from .dop853 import DOP853
        return DOP853(*args)


@dataclass(frozen=True)
class CurvatureProfile:
    radii: np.ndarray        # ascending
    inf_values: np.ndarray   # inf of S + g(T,T) Ric(T,T) over theta and |p| >= r
    tail_estimate: float
    tail_oscillation: float  # spread of annulus minima across the tail quartile
    window: tuple            # (r_min, r_max, n_r, n_theta)

    @classmethod
    def from_minima(cls, radii, ring_min, n_theta):
        """Profile from the minimum of S + g(T,T) Ric(T,T) at each radius (ascending radii);
        NonFinite names the first radius whose minimum is not finite."""
        bad = ~np.isfinite(ring_min)
        if np.any(bad):
            raise NonFinite(f"non-finite criterion at r = {radii[np.argmax(bad)]:.6g}")
        inf_values = np.minimum.accumulate(ring_min[::-1])[::-1]  # suffix infima
        tail = ring_min[-max(1, len(radii) // 4):]
        scale = max(float(np.max(np.abs(tail))), 1.0)
        return cls(radii=radii, inf_values=inf_values,
                   tail_estimate=float(inf_values[-1]),
                   tail_oscillation=float(np.ptp(tail)) / scale,
                   window=(float(radii[0]), float(radii[-1]), len(radii), n_theta))


def criterion_mesh(spec, r_max, n_r, n_theta):
    """Radii r_max/n_r .. r_max and the order-2 Geometry of the (radius, theta) mesh."""
    if n_r < 1 or n_theta < 1:
        raise EmptyGrid(f"criterion mesh of {n_r} radii x {n_theta} angles has no point")
    if not 0.0 < r_max < np.inf:  # NaN fails too
        raise BadParams(f"criterion mesh needs a finite positive r_max, got {r_max}")
    radii = np.linspace(r_max / n_r, r_max, n_r)
    thetas = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    return radii, Geometry(spec, *np.meshgrid(radii, thetas, indexing="ij"), order=2)


def curvature_profile(spec, r_max, n_r=64, n_theta=32):
    """Running infima of S + g(T,T) Ric(T,T) over annuli |p| >= r on a sample grid."""
    radii, geo = criterion_mesh(spec, r_max, n_r, n_theta)
    return CurvatureProfile.from_minima(radii, np.min(quotient_criterion(geo), axis=1), n_theta)


def lorentz_completeness(pair, r_max, n_r=64, n_theta=32):
    """Verdict from the partner's criterion S_L + g(T,T) Ric_L(T,T) = S_L - Ric_L(T,T).

    Also reports the max pointwise disagreement with the same criterion on the Riemannian
    mesh that the partner is read from, S_R + Ric_R(T,T), which should vanish identically.
    """
    radii, geo = criterion_mesh(pair.riemannian, r_max, n_r, n_theta)
    crit_l = quotient_criterion(geo.partner)
    agreement = float(np.max(np.abs(crit_l - quotient_criterion(geo))))
    profile = CurvatureProfile.from_minima(radii, np.min(crit_l, axis=1), n_theta)
    return completeness_verdict(profile), profile, agreement


def completeness_verdict(profile):
    """Criterion verdict; see VERDICT_NOTE for the standing hypothesis."""
    if len(np.atleast_1d(profile.radii)) == 0:
        raise EmptyProfile("empty curvature profile")
    if profile.tail_oscillation > OSCILLATION_TOL:
        return INCONCLUSIVE
    if profile.tail_estimate <= TOL_ZERO:
        return COMPLETE
    if profile.tail_estimate > TOL_INCOMPLETE:
        return INCOMPLETE
    return INCONCLUSIVE


# -- geodesics ----------------------------------------------------------------


@dataclass(frozen=True)
class GeodesicState:
    t: float
    r: float
    theta: float
    velocities: np.ndarray   # (vt, vr, vtheta)
    conserved_c: float
    speed: float


def make_state(spec, point, direction):
    """Unit-speed GeodesicState at (t, r, theta) = point along ``direction``."""
    t, r, theta = point
    g = metric_components(spec, (r, theta))
    # divide by a power of two near the largest |entry| (exact) so the g-norm
    # of a huge or tiny direction neither overflows nor underflows
    v = np.asarray(direction, dtype=float)
    v = np.ldexp(v, -np.frexp(np.max(np.abs(v)))[1])
    norm = float(v @ g @ v)
    if not 0.0 < norm < np.inf:  # NaN fails too
        raise NotUnitLength(f"direction has NaN, infinite or non-positive g-norm {norm}")
    v = v / np.sqrt(norm)
    return GeodesicState(t=float(t), r=float(r), theta=float(theta),
                         velocities=v, conserved_c=float(g[0] @ v),
                         speed=float(v @ g @ v))


class GeodesicTrajectory:
    """Sampled geodesic with the drift of both first integrals."""

    CSV_HEADER = ["s", "t", "r", "theta", "vt", "vr", "vtheta",
                  "c_drift", "speed_drift"]

    def __init__(self, s, states, c_values, speed_values, solver_stats=None):
        self.s = s
        self.states = states              # (n, 6) rows (t, r, theta, vt, vr, vth)
        self.c_values = c_values
        self.speed_values = speed_values
        self.solver_stats = solver_stats  # DOP853's nfev, steps and rejected_steps
        c0, v0 = c_values[0], speed_values[0]
        self.c_drift = np.abs(c_values - c0) / max(abs(c0), 1.0)
        self.speed_drift = np.abs(speed_values - v0) / max(abs(v0), 1.0)
        self.max_c_drift = float(np.max(self.c_drift))
        self.max_speed_drift = float(np.max(self.speed_drift))

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(self.CSV_HEADER)
            for i in range(len(self.s)):
                w.writerow([self.s[i], *self.states[i],
                            self.c_drift[i], self.speed_drift[i]])


def integrate_geodesic(spec, init, length, step_tol=1e-10, n_samples=401):
    """Integrate the geodesic as the Killing-reduced system; see GeodesicTrajectory.

    The conserved c = g(T, y') removes t: (r, theta) follow a magnetic geodesic of the
    quotient dr^2 + phi^2 dtheta^2 in the field c dA, A = -k dr - phi h dtheta, and t'
    = c / g(T,T) + k r' + phi h theta'.  The state is y = (t, r, theta, r', theta'); the
    trajectory reports (t, r, theta, t', r', theta') with t' rebuilt at the samples.
    ``init`` must be unit speed to UNIT_TOL; build it with make_state.  theta runs on the
    universal cover (unbounded) during integration.

    A terminal event stops it where phi falls to 10 PHI_CUTOFF.  Leaving the domain is
    BlowUp; a step-size underflow, or a right-hand side called MAX_RHS_CALLS times, is
    StepFailure; a zero or non-finite length is BadParams.
    """
    if abs(init.speed - 1.0) > UNIT_TOL:
        raise NotUnitLength(f"initial speed {init.speed} is not 1")
    if not (np.isfinite(length) and length != 0.0):
        raise BadParams(f"geodesic length must be finite and nonzero, got {length}")
    c = init.conserved_c
    c_t = c * g_tt(spec.signature)  # c / g(T,T), as g(T,T) = +-1

    def rhs(_, y):
        # the Geometry evaluates the order-1 field jets and tests the domain; no stage is read
        geo = Geometry(spec, y[1], y[2], order=1)
        (phi, phi_r, phi_th), (h, h_r, _), (k, _, k_th) = (
            f.coeffs for f in (geo.phi, geo.h, geo.k))
        vr, vth = y[3], y[4]
        pp_r, cf = phi * phi_r, c * (k_th - (phi_r * h + phi * h_r))  # c F, F = k_th - (phi h)_r
        return np.array([c_t + k * vr + phi * h * vth, vr, vth, pp_r * vth * vth + cf * vth,
                         (-2.0 * pp_r * vr * vth - phi * phi_th * vth * vth - cf * vr)
                         / (phi * phi)])

    def domain_exit(_, y):
        return float(spec.phi.value(y[1], y[2])) - 10.0 * PHI_CUTOFF

    y0 = np.array([init.t, init.r, init.theta, *init.velocities[1:]])
    try:
        # trial steps may overshoot the numeric range; inf/nan right-hand sides
        # just make the controller shrink the step, so silence the warnings
        with np.errstate(over="ignore", invalid="ignore"):
            sol = solve_ivp(rhs, (0.0, length), y0, step_tol, step_tol * 1e-2,
                            np.linspace(0.0, length, n_samples), domain_exit, MAX_RHS_CALLS)
    except DomainError as exc:
        # a trial step reached phi <= PHI_CUTOFF, or left a grid field's box, before the
        # event fired
        raise BlowUp(f"geodesic left the admissible domain: {exc}") from exc
    except StepFailure as exc:
        raise StepFailure(f"geodesic {exc}") from None
    if sol.status == 1:
        raise BlowUp(f"geodesic left the admissible domain at s = {sol.t_event}")
    states = np.insert(sol.y, 3, rhs(None, sol.y)[0], axis=0).T  # t' from the batched rhs
    g, v = metric_components(spec, sol.y[1:3]), states.T[3:]
    c_vals = np.einsum("b...,b...->...", g[0], v)
    speed_vals = np.einsum("ab...,a...,b...->...", g, v, v)
    stats = {"nfev": sol.nfev, "steps": sol.steps, "rejected_steps": sol.rejected_steps}
    return GeodesicTrajectory(sol.t, states, c_vals, speed_vals, stats)
