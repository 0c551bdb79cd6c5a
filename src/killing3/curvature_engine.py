"""Christoffel symbols, curvature, the Ricci operator and its closed-form spectrum."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TwistZero
from .frame_calculus import Geometry
from .tensor_core import Riemann4, Sym3, sym_eig3

TWIST_FLOOR = 1e-12


def christoffels(spec, p):
    """Gamma^c_{ab} values at p, indexed [c][a][b], coordinates (t, r, theta)."""
    geo = Geometry(spec, p[0], p[1], order=1)
    gam = geo.gamma
    return np.array([[[gam[c][a][b].value for b in range(3)] for a in range(3)]
                     for c in range(3)])


def riemann(spec, p):
    """Fully covariant curvature tensor R(e_a, e_b, e_c, e_d) in coordinates."""
    geo = Geometry(spec, p[0], p[1], order=2)
    low = geo.riem_low
    comp = np.array([[[[low[a][b][c] [w].value for w in range(3)] for c in range(3)]
                      for b in range(3)] for a in range(3)])
    return Riemann4(comp, basis="coordinate")


@dataclass(frozen=True)
class RicciOfT:
    """Ricci operator applied to T, components in the frame {T, X, Y}."""

    t_component: float
    x_component: float
    y_component: float

    @property
    def norm_sq(self):
        return self.t_component**2 + self.x_component**2 + self.y_component**2


@dataclass(frozen=True)
class CurvaturePacket:
    ricci: Sym3           # directly computed Ricci bilinear, frame components
    scalar_S: float
    ric_operator: Sym3    # assembled from (omega, S, X(omega), Y(omega))
    spectrum: tuple       # (lam1, lam2, lam3) closed forms, lam1 >= lam2
    delta: float
    point: tuple
    omega: float
    grad_omega_sq: float
    ric_of_T: RicciOfT


def ricci_frame_matrix(geo):
    rf = geo.ric_frame
    return np.array([
        [rf["TT"].value, rf["TX"].value, rf["TY"].value],
        [rf["TX"].value, rf["XX"].value, rf["XY"].value],
        [rf["TY"].value, rf["XY"].value, rf["YY"].value],
    ])


def ric_operator_assembled(omega, scalar_s, x_omega, y_omega):
    """The Ricci operator matrix built from first-order twist data."""
    return 0.5 * np.array([
        [omega**2, -y_omega, x_omega],
        [-y_omega, scalar_s - omega**2 / 2.0, 0.0 * omega],
        [x_omega, 0.0 * omega, scalar_s - omega**2 / 2.0],
    ])


def spectrum_closed_form(omega, scalar_s, grad_omega_sq):
    """Eigenvalues of the Ricci operator: lam1 (+sqrt branch), lam2, lam3."""
    delta = 0.25 * (scalar_s - 1.5 * omega**2) ** 2 + grad_omega_sq
    root = np.sqrt(delta)
    lam1 = scalar_s / 4.0 + omega**2 / 8.0 + root / 2.0
    lam2 = scalar_s / 4.0 + omega**2 / 8.0 - root / 2.0
    lam3 = scalar_s / 2.0 - omega**2 / 4.0
    return (lam1, lam2, lam3), delta


def twist_data(geo):
    """(omega, S, X(omega), Y(omega), Ric(T)) values of a scalar or batched Geometry."""
    _, x, y = geo.frame
    w = geo.omega
    omega = w.value
    xw = geo.dirderiv(x, w).value
    yw = geo.dirderiv(y, w).value
    ric_t = RicciOfT(omega**2 / 2.0, -yw / 2.0, xw / 2.0)
    return omega, geo.scalar.value, xw, yw, ric_t


def curvature_packet(spec, p):
    geo = Geometry(spec, p[0], p[1])
    omega, s, xw, yw, ric_t = twist_data(geo)
    omega, s, xw, yw = float(omega), float(s), float(xw), float(yw)
    grad_sq = xw**2 + yw**2
    ric_direct = ricci_frame_matrix(geo)
    ric_op = ric_operator_assembled(omega, s, xw, yw)
    spectrum, delta = spectrum_closed_form(omega, s, grad_sq)
    return CurvaturePacket(
        ricci=Sym3.from_matrix(ric_direct),
        scalar_S=s,
        ric_operator=Sym3.from_matrix(ric_op),
        spectrum=tuple(float(v) for v in spectrum),
        delta=float(delta),
        point=(float(p[0]), float(p[1])),
        omega=omega,
        grad_omega_sq=grad_sq,
        ric_of_T=ric_t,
    )


def scalar_and_ric_tt(spec, r, theta):
    """Batch evaluation of (S, Ric(T,T)) over point arrays (profile sweeps)."""
    geo = Geometry(spec, r, theta, order=2)
    return np.asarray(geo.scalar.value), np.asarray(geo.ric_frame["TT"].value)


def gaussian_identity_residual(spec, r, theta):
    """| -phi_rr/phi - (S + Ric(T,T))/2 |, the quotient Gaussian-curvature law."""
    geo = Geometry(spec, r, theta)
    lhs = -geo.phi.d_rr / geo.phi.value
    rhs = 0.5 * (geo.scalar.value + geo.ric_frame["TT"].value)
    return np.abs(lhs - rhs)


@dataclass(frozen=True)
class HamiltonVerdict:
    point: tuple
    scalar_S: float
    rhs: float
    holds: bool
    rhs_strict: float
    holds_strict: bool


def hamilton_inequality(spec, grid):
    """Positivity test S > 2|Ric(T)|^2 / Ric(T,T) - Ric(T,T) per grid point.

    Also reports the strict variant S > 2|grad omega|^2/omega^2 + omega^2
    needed when no Ricci eigenvalue may exceed the sum of the others.
    """
    grid = list(grid)
    if not grid:
        return [], True
    pts = np.asarray(grid, dtype=float)
    omega, s, xw, yw, ric_t = twist_data(Geometry(spec, pts[:, 0], pts[:, 1]))
    ric_tt = ric_t.t_component
    undefined = (np.abs(omega) < TWIST_FLOOR) | (ric_tt <= 0.0)
    if np.any(undefined):
        p = grid[int(np.argmax(undefined))]
        raise TwistZero(f"twist vanishes at {p}; inequality undefined")
    rhs = 2.0 * ric_t.norm_sq / ric_tt - ric_tt
    rhs_strict = 2.0 * (xw**2 + yw**2) / omega**2 + omega**2
    verdicts = [
        HamiltonVerdict(
            point=(float(r), float(th)), scalar_S=float(s[i]), rhs=float(rhs[i]),
            holds=bool(s[i] > rhs[i]),
            rhs_strict=float(rhs_strict[i]),
            holds_strict=bool(s[i] > rhs_strict[i]),
        )
        for i, (r, th) in enumerate(pts)
    ]
    global_ok = all(v.holds for v in verdicts)
    return verdicts, global_ok


def spectrum_vs_eigensolve_residual(packet):
    """Multiset distance between the closed-form spectrum and sym_eig3(Ham1)."""
    lams, _ = sym_eig3(packet.ric_operator.matrix())
    return float(np.max(np.abs(np.sort(np.asarray(packet.spectrum)) - lams)))
