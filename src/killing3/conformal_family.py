"""Conformally flat metrics from the twist ODE omega_rr = -omega(omega^2 + 2B)/2.

The solutions live on the energy surface omega_r^2 + (omega^2 + 2B)^2/4 = C + B^2;
the metric profile is phi = h(theta) * omega_r on a monotone arc of omega, and the
scalar curvature then satisfies S = (5/2) omega^2 + 2B.  Flatness of the
resulting Cotton-York matrix is the round-trip check.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.integrate import solve_ivp

from . import fields
from .curvature_engine import twist_data
from .errors import (EnergyDriftExceeded, InadmissibleParams, PhiVanishes,
                     StepFailure)
from .fields import ScalarField
from .jets import INDEX, NCOEFFS, Jet2
from .tensor_core import RIEMANNIAN

ENERGY_TOL = 1e-8
#: the largest C + B^2, and B^2, admitted: the periods in the span grow as
#: (C + B^2)^(1/4), and inside a well of B < 0 as sqrt(-B) whatever C + B^2 is
MAX_ENERGY = 1e6
#: the fewest periods the two-sided span must hold
MIN_PERIODS = 10
_RTOL = 1e-12
_ATOL = 1e-14


@dataclass(frozen=True)
class FamilyParams:
    B: float
    C: float
    omega0: float = 0.0
    omega_r0_sign: int = 1
    h_theta: ScalarField = None

    def __post_init__(self):
        if self.omega_r0_sign not in (1, -1):
            raise InadmissibleParams("omega_r0_sign must be +1 or -1")
        if not (self.energy <= MAX_ENERGY and self.B * self.B <= MAX_ENERGY
                and np.isfinite(self.potential(self.omega0))):
            raise InadmissibleParams(f"C + B^2 = {self.energy} and B^2 = {self.B * self.B} must "
                                     f"be at most {MAX_ENERGY}, and the potential at omega0 finite")
        if self.energy < self.potential(self.omega0) - 1e-14:
            raise InadmissibleParams(f"C + B^2 = {self.energy} below the potential "
                                     f"{self.potential(self.omega0)} at omega0: no real omega_r(0)")

    # products, not powers: a float power raises OverflowError where a product is inf
    @property
    def energy(self):
        return self.C + self.B * self.B

    def potential(self, omega):
        q = omega * omega + 2.0 * self.B
        return 0.25 * (q * q)

    @property
    def omega_r0(self):
        gap = max(self.energy - self.potential(self.omega0), 0.0)
        return self.omega_r0_sign * np.sqrt(gap)


class OmegaSolution:
    """Dense solution of the twist ODE with derivative stack and diagnostics."""

    def __init__(self, params, sol_pos, sol_neg, span, turning_points):
        self.params = params
        self._sol_pos = sol_pos
        self._sol_neg = sol_neg
        self.span = span
        self.r_samples = np.linspace(-span, span, 2001)
        self.omega, self.omega_r, self.omega_rr, self.omega_rrr, _ = self._stack(self.r_samples)
        e = self.omega_r**2 + params.potential(self.omega)
        scale = max(abs(params.energy), 1.0)
        self.energy_drift = float(np.max(np.abs(e - params.energy)) / scale)
        if self.energy_drift > ENERGY_TOL:
            raise EnergyDriftExceeded(f"energy drift {self.energy_drift:.3e} exceeds {ENERGY_TOL}")
        self.turning_points = turning_points
        gaps = np.diff(self.turning_points)
        self.period = 2.0 * float(np.mean(gaps)) if len(gaps) else None

    def _eval(self, r):
        r = np.asarray(r, dtype=float)
        flat = np.atleast_1d(r).ravel()
        out = np.empty((2,) + flat.shape)
        neg = flat < 0
        if self._sol_neg is None and self._sol_pos is None:
            out[0] = self.params.omega0
            out[1] = 0.0
        else:
            if neg.any():
                out[:, neg] = self._sol_neg(flat[neg])
            if (~neg).any():
                out[:, ~neg] = self._sol_pos(flat[~neg])
        return out.reshape((2,) + r.shape)

    # -- metric-profile fields -----------------------------------------------

    def _stack(self, r):
        """(omega, omega_r, omega_rr, omega_rrr, omega_rrrr) at r (array-safe)."""
        w, wr = self._eval(r)
        b2 = 2.0 * self.params.B
        wrr = -0.5 * w * (w**2 + b2)
        wrrr = -0.5 * wr * (3.0 * w**2 + b2)
        wrrrr = -0.5 * wrr * (3.0 * w**2 + b2) - 3.0 * w * wr**2
        return w, wr, wrr, wrrr, wrrrr

    def _jet_from_stack(self, r, order, shift):
        stack = self._stack(r)
        c = np.zeros((NCOEFFS[order],) + r.shape)
        for k, (i, j) in enumerate(INDEX[:NCOEFFS[order]]):
            if j == 0:
                c[k] = stack[i + shift]
        return Jet2(c, order)

    def omega_field(self):
        return ScalarField(lambda r, t, o: self._jet_from_stack(r, o, 0))

    def omega_r_field(self):
        return ScalarField(lambda r, t, o: self._jet_from_stack(r, o, 1))


def solve_omega_ode(params):
    """Integrate the twist ODE both ways from r = 0 with energy monitoring.

    The turning points (omega_r = 0) are events of the same two solves, located
    on their dense output; the span grows to hold MIN_PERIODS periods.
    """
    w0, wr0 = params.omega0, params.omega_r0
    if wr0 == 0.0 and params.potential(w0) == params.energy and \
            w0 * (w0**2 + 2.0 * params.B) == 0.0:
        # equilibrium: omega stays at omega0 forever
        return OmegaSolution(params, None, None, 50.0, np.array([]))

    def rhs(_, y):
        return [y[1], -0.5 * y[0] * (y[0]**2 + 2.0 * params.B)]

    def turning(_, y):
        return y[1]

    def integrate(span):
        sols, events = [], []
        for end in (span, -span):
            sol = solve_ivp(rhs, (0.0, end), [w0, wr0], method="DOP853",
                            rtol=_RTOL, atol=_ATOL, dense_output=True, events=turning)
            if not sol.success:
                raise StepFailure(f"twist ODE integration failed: {sol.message}")
            sols.append(sol.sol)
            events.append(sol.t_events[0])
        # sorted; a turning point at r = 0 is found by both solves and kept once
        return OmegaSolution(params, sols[0], sols[1], span, np.unique(np.concatenate(events)))

    out = integrate(50.0)
    if out.period and MIN_PERIODS * out.period > out.span:
        out = integrate(1.05 * MIN_PERIODS * out.period)
    return out


def build_cf_metric(params):
    """MetricSpec with phi = h(theta) omega_r on a monotone arc around r = 0."""
    sol = solve_omega_ode(params)
    if abs(params.omega_r0) == 0.0:
        raise PhiVanishes("omega_r(0) = 0: phi would vanish at the base point")
    tp = sol.turning_points
    lo = 0.95 * max(tp[tp < 0], default=-sol.span)
    hi = 0.95 * min(tp[tp > 0], default=sol.span)
    wr_lo, wr_hi = sol._eval([lo, hi])[1]
    if wr_lo * params.omega_r0 <= 0.0 or wr_hi * params.omega_r0 <= 0.0:
        raise PhiVanishes(f"omega_r changes sign inside r range ({lo}, {hi})")

    h_theta = params.h_theta or fields.constant(1.0)
    omega_f = sol.omega_field()
    omega_r_f = sol.omega_r_field()

    def phi_jet(r, theta, order):
        return h_theta.jet(r, theta, order) * omega_r_f.jet(r, theta, order)

    def h_frame_jet(r, theta, order):
        # (phi * h)_r = -omega * phi integrates to h = -omega^2 / (2 omega_r);
        # the h(theta) factor cancels, matching the catalog twist convention
        w = omega_f.jet(r, theta, order)
        return -(w * w) / (2.0 * omega_r_f.jet(r, theta, order))

    from .metric_family import MetricSpec

    meta = {"B": params.B, "C": params.C, "omega0": params.omega0,
            "sign": params.omega_r0_sign, "r_range": (float(lo), float(hi))}
    spec = MetricSpec(ScalarField(phi_jet), ScalarField(h_frame_jet),
                      fields.constant(0.0), RIEMANNIAN, "cf_family", meta)
    return spec


def wpde_residual(geo, B, C):
    """|4 |Ric(T)|^2 - 3 Ric(T,T)^2 + 2B Ric(T,T) - C| at the points of geo."""
    ric_t = twist_data(geo)[4]
    ric_tt = ric_t.t_component
    return np.abs(4.0 * ric_t.norm_sq - 3.0 * ric_tt**2 + 2.0 * B * ric_tt - C)
