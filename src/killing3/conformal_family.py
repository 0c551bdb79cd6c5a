"""Conformally flat metrics from the twist ODE omega_rr = -omega(omega^2 + 2B)/2.

The solutions live on the energy surface omega_r^2 + (omega^2 + 2B)^2/4 = C + B^2
of an undamped Duffing oscillator, in closed form by Jacobi elliptic functions;
the metric profile is phi = sign * h(theta) * omega_r on a monotone arc of omega, and the
scalar curvature then satisfies S = (5/2) omega^2 + 2B.  Flatness of the
resulting Cotton-York matrix is the round-trip check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fields
from .completeness_probe import solve_ivp  # noqa: F401  (unused: perfbench/tracer.py patches it)
from .curvature_engine import curvature_packet
from .errors import EnergyDriftExceeded, InadmissibleParams, PhiVanishes
from .fields import ScalarField
from .jets import INDEX, NCOEFFS, Jet2
from .frame_calculus import PHI_CUTOFF, RIEMANNIAN
from .metric_family import MetricSpec

ENERGY_TOL = 1e-8
#: the largest C + B^2, and B^2, admitted: the periods in the span grow as
#: (C + B^2)^(1/4), and inside a well of B < 0 as sqrt(-B) whatever C + B^2 is
MAX_ENERGY = 1e6
#: the fewest periods the two-sided span must hold
MIN_PERIODS = 10
#: orbits with m1 = 1 - m below this are the separatrix m = 1 (mpmath-checked down to here)
SEPARATRIX_GAP = 1e-15


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
    """The twist ODE's solution, ``evaluate(r) -> (omega, omega_r)``, with diagnostics."""

    def __init__(self, params, evaluate, span, turning_points, period):
        self.params = params
        self._evaluate = evaluate
        self.span = span
        self.r_samples = np.linspace(-span, span, 2001)
        self.omega, self.omega_r, self.omega_rr, self.omega_rrr, _ = self._stack(self.r_samples)
        e = self.omega_r**2 + params.potential(self.omega)
        scale = max(abs(params.energy), 1.0)
        self.energy_drift = float(np.max(np.abs(e - params.energy)) / scale)
        if self.energy_drift > ENERGY_TOL:
            raise EnergyDriftExceeded(f"energy drift {self.energy_drift:.3e} exceeds {ENERGY_TOL}")
        self.turning_points = turning_points
        self.period = period

    def _eval(self, r):
        return np.stack(self._evaluate(np.asarray(r, dtype=float)))

    # -- metric-profile fields -----------------------------------------------

    def _stack(self, r):
        """(omega, omega_r, omega_rr, omega_rrr, omega_rrrr) at r (array-safe)."""
        w, wr = self._eval(r)
        b2 = 2.0 * self.params.B
        wrr = -0.5 * w * (w * w + b2)
        wrrr = -0.5 * wr * (3.0 * (w * w) + b2)
        wrrrr = -0.5 * wrr * (3.0 * (w * w) + b2) - 3.0 * w * (wr * wr)
        return w, wr, wrr, wrrr, wrrrr

    def jets(self, r, order):
        """The r-jets of omega and omega_r at r, both from one evaluation of the solution."""
        stack = self._stack(r)
        c = np.zeros((2, NCOEFFS[order]) + r.shape)
        for k, (i, j) in enumerate(INDEX[:NCOEFFS[order]]):
            if j == 0:
                c[:, k] = stack[i], stack[i + 1]
        return Jet2(c[0], order), Jet2(c[1], order)


def _agm(m1):
    """K(m) = pi / (2 a_N) and the a_n, c_n of the AGM from a_0 = 1, b_0 = sqrt m1 (m1 > 0)."""
    a, b, c = [1.0], np.sqrt(m1), [np.sqrt(1.0 - m1)]
    while c[-1] > 1e-16 * a[-1]:
        a.append(0.5 * (a[-1] + b))
        b, c = np.sqrt(a[-2] * b), c + [c[-1] ** 2 / (4.0 * a[-1])]  # (a - b) / 2, no cancellation
    return np.pi / (2.0 * a[-1]), a, c


def _ellipj(u, m1, agm):
    """sn, cn, dn(u | m) by the AGM, agm = _agm(m1), and descending Landen transformations
    (DLMF 22.20(ii))."""
    if m1 == 0.0:
        return np.tanh(u), 1.0 / np.cosh(u), 1.0 / np.cosh(u)
    _, a, c = agm
    phi = 2.0 ** (len(a) - 1) * a[-1] * u
    for a_n, c_n in zip(a[:0:-1], c[:0:-1]):
        phi = 0.5 * (phi + np.arcsin(c_n / a_n * np.sin(phi)))
    cos = np.cos(phi)
    return np.sin(phi), cos, np.sqrt(m1 + (1.0 - m1) * (cos * cos))


def _ellipf(phi, m1):
    """F(phi | m) = sin phi R_F(cos^2 phi, cos^2 phi + m1 sin^2 phi, 1), |phi| <= pi/2, plus 2jK
    for phi + j pi; Carlson's duplication shrinks the spread of x, y, z fourfold a step."""
    j = np.round(phi / np.pi)
    sin, cos = np.sin(phi - j * np.pi), np.cos(phi - j * np.pi)
    x, y, z = cos * cos, cos * cos + m1 * sin * sin, 1.0
    for _ in range(30):
        lam = np.sqrt(x * y) + np.sqrt(y * z) + np.sqrt(z * x)
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
    return sin / np.sqrt(x) + (2.0 * j * _agm(m1)[0] if j else 0.0)


def solve_omega_ode(params):
    """The twist ODE's solution through (omega0, omega_r0) in closed form (DLMF 22.19).

    With E = C + B^2, omega_r^2 = (alpha - omega^2)(omega^2 - beta) / 4 for alpha, beta =
    2(+-sqrt E - B), and m1 = 1 - m from them without cancellation.  C > 0: omega =
    a cn(lam r + u0 | m), a^2 = alpha, lam^2 = sqrt E,
    m1 = -beta / (alpha - beta), period 4K/lam.  C < 0 < E, B < 0: omega = +-a dn(lam r + u0 | m)
    in the well of omega0, lam = a/2, m1 = beta / alpha, period 2K/lam; its m1 = 0 limit
    C = 0 is the sech separatrix, with no period.  Otherwise omega rests at omega0, and an
    orbit through the hump omega0 = 0 with m1 below SEPARATRIX_GAP is refused.
    """
    B, C, E = params.B, params.C, params.energy
    w0, wr0 = params.omega0, params.omega_r0
    swings = False
    if E > 0.0 and (C > 0.0 or B < 0.0):
        s = np.sqrt(E) + abs(B)
        # each root in the form without cancellation: alpha beta = -4C
        alpha, beta = (2.0 * C / s, -2.0 * s) if B > 0.0 else (2.0 * s, -2.0 * C / s)
        m1 = -beta / (alpha - beta) if C > 0.0 else beta / alpha
        m1 = 0.0 if m1 < SEPARATRIX_GAP else m1
        swings = C > 0.0 and m1 > 0.0
    if not (swings or (B < 0.0 < E and w0 != 0.0)):
        if wr0 != 0.0:  # only C > 0 > B, omega0 = 0: the orbit leaves the hump omega = 0
            raise InadmissibleParams(f"m1 = C/(C + s^2) = {float(-beta / (alpha - beta))} is below "
                                     f"SEPARATRIX_GAP = {SEPARATRIX_GAP}: too near the separatrix")
        return OmegaSolution(params, lambda r: (np.full_like(r, w0), 0.0 * r), 50.0, np.empty(0), None)
    if swings:
        # cos am(u0) = omega0 / a and sin am(u0) = -omega_r0 / (a lam dn(u0))
        lam, amp = E ** 0.25, np.sqrt(alpha)
        am0 = np.arctan2(-wr0 / (lam * np.sqrt((w0 * w0 - beta) / (alpha - beta))), w0)
    else:
        # cos 2am(u0) = (omega0^2 + 2B) / (2 sqrt E) and sin 2am(u0) = -+omega_r0 / sqrt E
        amp = np.sign(w0) * np.sqrt(alpha)
        lam = 0.5 * abs(amp)
        am0 = 0.5 * np.arctan2(-np.sign(w0) * wr0, 0.5 * (w0 * w0 + 2.0 * B))
    agm = _agm(m1) if m1 > 0.0 else (np.inf,)  # K, and the sequences every evaluation reads
    u0, K = _ellipf(am0, m1), agm[0]
    half = 2.0 * K if swings else K  # the advance of u from one turning point to the next

    def evaluate(r):
        u = lam * r + u0
        # u mod the period 4K; on the separatrix (K = inf), sech 300 is already 1e-130
        u = np.mod(u, 4.0 * K) if m1 > 0.0 else np.clip(u, -300.0, 300.0)
        sn, cn, dn = _ellipj(u, m1, agm)
        f, g = (cn, dn) if swings else (dn, (1.0 - m1) * cn)
        return amp * f, -amp * lam * sn * g

    period = 2.0 * half / lam if m1 > 0.0 else None
    span = 1.05 * MIN_PERIODS * period if period and MIN_PERIODS * period > 50.0 else 50.0
    if m1 > 0.0:  # the zeros of sn, or of sn cn in a well
        j = np.arange(np.ceil((u0 - lam * span) / half), np.floor((u0 + lam * span) / half) + 1)
    turning = (j * half - u0) / lam if m1 > 0.0 else np.array([-u0 / lam])
    return OmegaSolution(params, evaluate, span, turning[np.abs(turning) <= span], period)


def build_cf_metric(params):
    """MetricSpec with phi = sign h(theta) omega_r on a monotone arc around r = 0, each side
    0.95 of the way to a turning point or to where omega_r falls to PHI_CUTOFF."""
    sol = solve_omega_ode(params)
    if abs(params.omega_r0) <= PHI_CUTOFF:
        raise PhiVanishes(f"|omega_r(0)| <= {PHI_CUTOFF}: phi would vanish at the base point")
    tp = sol.turning_points
    alive = sol.r_samples[sol.omega_r * params.omega_r0_sign > PHI_CUTOFF]
    lo = 0.95 * max(tp[tp < 0], default=alive.min(initial=0.0))
    hi = 0.95 * min(tp[tp > 0], default=alive.max(initial=0.0))

    h_theta = params.h_theta or fields.constant(1.0)

    def phi_jet(r, theta, order):
        # omega_r keeps the sign of omega_r(0) on the arc, so sign * omega_r > 0
        return h_theta.jet(r, theta, order) * sol.jets(r, order)[1] * params.omega_r0_sign

    def h_frame_jet(r, theta, order):
        # (phi * h)_r = -omega * phi integrates to h = -omega^2 / (2 omega_r);
        # the sign and the h(theta) factor cancel, matching the catalog twist convention
        w, w_r = sol.jets(r, order)
        return -(w * w) / (2.0 * w_r)

    meta = {"B": params.B, "C": params.C, "omega0": params.omega0,
            "sign": params.omega_r0_sign, "r_range": (float(lo), float(hi))}
    return MetricSpec(ScalarField(phi_jet), ScalarField(h_frame_jet),
                      fields.constant(0.0), RIEMANNIAN, "cf_family", meta)


def wpde_residual(geo, B, C):
    """|4 |Ric(T)|^2 - 3 Ric(T,T)^2 + 2B Ric(T,T) - C| at the points of geo."""
    ric_t = curvature_packet(geo).ric_of_T
    return np.abs(ric_t.flatness_form + 2.0 * B * ric_t.t_component - C)
