"""Completeness-criterion profiles and geodesic integration with conserved audits.

The criterion evaluated is: completeness (on the global-chart hypothesis)
holds iff the lim inf over |p| >= r of S + Ric(T,T) is <= 0 as r grows.  On a
finite window this is necessarily an extrapolation, so verdicts carry the
tail estimate and window for the user to judge.

Geodesics carry two exact first integrals -- the Killing momentum c = g(T, y')
and the speed g(y', y') -- whose drift is the integration quality report.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .curvature_engine import scalar_and_ric_tt
from .errors import BlowUp, DomainError, EmptyProfile, NotUnitLength, StepFailure
from .frame_calculus import Geometry
from .metric_family import PHI_CUTOFF, metric_components

COMPLETE = "CompleteCriterion"
INCOMPLETE = "IncompleteCriterion"
INCONCLUSIVE = "Inconclusive"

#: all verdicts are criterion evaluations under the global-chart hypothesis
VERDICT_NOTE = "criterion evaluation on R^3 hypothesis"

TOL_ZERO = 1e-6
#: relative oscillation of the tail quartile beyond which no verdict is given
OSCILLATION_TOL = 0.2


@dataclass(frozen=True)
class CurvatureProfile:
    radii: np.ndarray        # ascending
    inf_values: np.ndarray   # inf of S + Ric(T,T) over theta and |p| >= r
    tail_estimate: float
    tail_oscillation: float  # spread of annulus minima across the tail quartile
    window: tuple            # (r_min, r_max, n_r, n_theta)

    @classmethod
    def from_minima(cls, radii, ring_min, n_theta):
        """Profile from the minimum of S + Ric(T,T) at each radius (ascending radii)."""
        inf_values = np.minimum.accumulate(ring_min[::-1])[::-1]  # suffix infima
        tail = ring_min[-max(1, len(radii) // 4):]
        scale = max(float(np.max(np.abs(tail))), 1.0)
        return cls(radii=radii, inf_values=inf_values,
                   tail_estimate=float(inf_values[-1]),
                   tail_oscillation=float(np.ptp(tail)) / scale,
                   window=(float(radii[0]), float(radii[-1]), len(radii), n_theta))


def curvature_profile(spec, r_max, n_r=64, n_theta=32, r_min=None,
                      theta_range=(0.0, 2.0 * np.pi)):
    """Running infima of S + Ric(T,T) over annuli |p| >= r on a sample grid."""
    if r_min is None:
        r_min = r_max / n_r
    radii = np.linspace(r_min, r_max, n_r)
    thetas = np.linspace(theta_range[0], theta_range[1], n_theta, endpoint=False)
    rr, tt = np.meshgrid(radii, thetas, indexing="ij")
    s, ric_tt = scalar_and_ric_tt(spec, rr, tt)
    ring_min = np.min(s + ric_tt, axis=1)          # min over theta per radius
    return CurvatureProfile.from_minima(radii, ring_min, n_theta)


def synthetic_profile(radii, values):
    """Profile from given annulus values (testing / external data)."""
    return CurvatureProfile.from_minima(np.asarray(radii, dtype=float),
                                        np.asarray(values, dtype=float), 0)


def completeness_verdict(profile, tol_zero=TOL_ZERO):
    """Criterion verdict; see VERDICT_NOTE for the standing hypothesis."""
    if len(np.atleast_1d(profile.radii)) == 0:
        raise EmptyProfile("empty curvature profile")
    if profile.tail_oscillation > OSCILLATION_TOL:
        return INCONCLUSIVE
    if profile.tail_estimate <= tol_zero:
        return COMPLETE
    if profile.tail_estimate > 10.0 * tol_zero:
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
    g = metric_components(spec, (r, theta)).matrix()
    v = np.asarray(direction, dtype=float)
    norm = float(v @ g @ v)
    if norm <= 0.0:
        raise NotUnitLength("direction has non-positive g-norm")
    v = v / np.sqrt(norm)
    return GeodesicState(t=float(t), r=float(r), theta=float(theta),
                         velocities=v, conserved_c=float(g[0] @ v),
                         speed=float(v @ g @ v))


class GeodesicTrajectory:
    """Sampled geodesic with the drift of both first integrals."""

    CSV_HEADER = ["s", "t", "r", "theta", "vt", "vr", "vtheta",
                  "c_drift", "speed_drift"]

    def __init__(self, s, states, c_values, speed_values):
        self.s = s
        self.states = states              # (n, 6) rows (t, r, theta, vt, vr, vth)
        self.c_values = c_values
        self.speed_values = speed_values
        c0, v0 = c_values[0], speed_values[0]
        self.c_drift = np.abs(c_values - c0) / max(abs(c0), 1.0)
        self.speed_drift = np.abs(speed_values - v0) / max(abs(v0), 1.0)
        self.max_c_drift = float(np.max(self.c_drift))
        self.max_speed_drift = float(np.max(self.speed_drift))

    def final_state(self):
        t, r, theta, vt, vr, vth = self.states[-1]
        return GeodesicState(t, r, theta, np.array([vt, vr, vth]),
                             self.c_values[-1], self.speed_values[-1])

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(self.CSV_HEADER)
            for i in range(len(self.s)):
                w.writerow([self.s[i], *self.states[i],
                            self.c_drift[i], self.speed_drift[i]])


def integrate_geodesic(spec, init, length, step_tol=1e-10, n_samples=401,
                       unit_tol=1e-8):
    """Integrate the geodesic equation in (t, r, theta); see GeodesicTrajectory.

    ``init`` must be (approximately) unit speed; build it with make_state.
    theta runs on the universal cover (unbounded) during integration.
    """
    if abs(init.speed - 1.0) > unit_tol:
        raise NotUnitLength(f"initial speed {init.speed} is not 1")

    def rhs(_, y):
        r, theta = y[1], y[2]
        # trial steps may overshoot the numeric range; inf/nan accelerations
        # just make the controller shrink the step, so silence the warnings
        with np.errstate(over="ignore", invalid="ignore"):
            geo = Geometry(spec, r, theta, order=1)
            v = y[3:]
            acc = np.empty(3)
            for c in range(3):
                gam = np.array([[geo.gamma[c][a][b].value for b in range(3)]
                                for a in range(3)])
                acc[c] = -v @ gam @ v
        return np.concatenate([v, acc])

    def domain_exit(_, y):
        return float(spec.phi.value(y[1], y[2])) - 10.0 * PHI_CUTOFF

    domain_exit.terminal = True

    y0 = np.array([init.t, init.r, init.theta, *init.velocities])
    s_eval = np.linspace(0.0, length, n_samples)
    try:
        sol = solve_ivp(rhs, (0.0, length), y0, method="DOP853", rtol=step_tol,
                        atol=step_tol * 1e-2, t_eval=s_eval, events=domain_exit)
    except DomainError as exc:
        # a trial step crossed the degeneracy cutoff before the event fired
        raise BlowUp(f"geodesic left the admissible domain: {exc}") from exc
    if sol.status == 1:
        raise BlowUp(f"geodesic left the admissible domain at s = {sol.t_events[0][0]}")
    if not sol.success:
        raise StepFailure(f"geodesic integration failed: {sol.message}")
    states = sol.y.T
    g = Geometry(spec, states[:, 1], states[:, 2], order=0).g
    v = sol.y[3:]
    c_vals = sum(g[0][b].value * v[b] for b in range(3))
    speed_vals = sum(g[a][b].value * v[a] * v[b] for a in range(3) for b in range(3))
    return GeodesicTrajectory(sol.t, states, c_vals, speed_vals)


def integrate_quotient_geodesic(spec, init2d, length, step_tol=1e-10,
                                n_samples=401):
    """Geodesic of the quotient surface dr^2 + phi^2 dtheta^2.

    ``init2d`` = (r, theta, vr, vtheta).  Exact 2D Christoffel symbols of the
    warped metric are used, independent of the 3D pipeline.
    """

    def rhs(_, y):
        r, theta, vr, vth = y
        with np.errstate(over="ignore", invalid="ignore"):
            j = spec.phi.jet(r, theta, 1)
            phi, phi_r, phi_th = float(j.value), float(j.d_r), float(j.d_theta)
            ar = phi * phi_r * vth**2
            ath = -2.0 * (phi_r / phi) * vr * vth - (phi_th / phi) * vth**2
        return [vr, vth, ar, ath]

    def domain_exit(_, y):
        return float(spec.phi.value(y[0], y[1])) - 10.0 * PHI_CUTOFF

    domain_exit.terminal = True

    s_eval = np.linspace(0.0, length, n_samples)
    try:
        sol = solve_ivp(rhs, (0.0, length), list(init2d), method="DOP853",
                        rtol=step_tol, atol=step_tol * 1e-2, t_eval=s_eval,
                        events=domain_exit)
    except DomainError as exc:
        raise BlowUp(f"quotient geodesic left the domain: {exc}") from exc
    if sol.status == 1:
        raise BlowUp(f"quotient geodesic left the domain at s = {sol.t_events[0][0]}")
    if not sol.success:
        raise StepFailure(f"quotient integration failed: {sol.message}")
    return sol.t, sol.y.T


def projection_residual(spec, init, length, step_tol=1e-10, n_samples=201):
    """Max deviation between a horizontal (c = 0) geodesic and its quotient image."""
    if abs(init.conserved_c) > 1e-10:
        raise NotUnitLength("projection consistency requires g(T, y') = 0")
    traj = integrate_geodesic(spec, init, length, step_tol, n_samples)
    r0, th0 = init.r, init.theta
    vr0, vth0 = init.velocities[1], init.velocities[2]
    _, quot = integrate_quotient_geodesic(spec, (r0, th0, vr0, vth0),
                                          length, step_tol, n_samples)
    n = min(len(traj.states), len(quot))
    dr = traj.states[:n, 1] - quot[:n, 0]
    dth = traj.states[:n, 2] - quot[:n, 1]
    return float(np.max(np.hypot(dr, dth))), traj
