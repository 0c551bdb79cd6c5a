"""Christoffel symbols, curvature, the Ricci operator and its closed-form spectrum.

The point-level analyses take a ``Geometry``, one point or a batch, and return
values of its batch shape: a one-point call is a view of the batched one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, TwistZero
from .frame_calculus import Geometry
from .tensor_core import Riemann4

TWIST_FLOOR = 1e-12


def christoffels(geo):
    """Gamma^c_{ab} values indexed [c][a][b] + batch, coordinates (t, r, theta)."""
    return geo.gamma.value


def riemann(geo):
    """Fully covariant curvature tensor R(e_a, e_b, e_c, e_d) in coordinates, per point."""
    return Riemann4(geo.riem_low.value)


@dataclass(frozen=True)
class RicciOfT:
    """Ricci operator applied to T, components in the frame {T, X, Y}."""

    t_component: np.ndarray
    x_component: np.ndarray
    y_component: np.ndarray

    @property
    def norm_sq(self):
        return self.t_component**2 + self.x_component**2 + self.y_component**2


@dataclass(frozen=True)
class CurvaturePacket:
    """Curvature data of a Geometry; every value has the geometry's batch shape."""

    scalar_S: np.ndarray
    ric_operator: np.ndarray  # (3, 3) + batch, from (omega, S, X(omega), Y(omega))
    spectrum: tuple           # (lam1, lam2, lam3) closed forms, lam1 >= lam2
    delta: np.ndarray
    point: tuple          # (r, theta)
    omega: np.ndarray
    grad_omega_sq: np.ndarray
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
    omega = geo.omega.value
    xw, yw = (d.value for d in geo.omega_xy)
    ric_t = RicciOfT(omega**2 / 2.0, -yw / 2.0, xw / 2.0)
    return omega, geo.scalar.value, xw, yw, ric_t


def curvature_packet(geo):
    omega, s, xw, yw, ric_t = twist_data(geo)
    grad_sq = xw**2 + yw**2
    spectrum, delta = spectrum_closed_form(omega, s, grad_sq)
    return CurvaturePacket(
        scalar_S=s,
        ric_operator=ric_operator_assembled(omega, s, xw, yw),
        spectrum=spectrum,
        delta=delta,
        point=(geo.r, geo.theta),
        omega=omega,
        grad_omega_sq=grad_sq,
        ric_of_T=ric_t,
    )


def ricci_tt(geo):
    """Ric(T, T) values of a scalar or batched Geometry; T = d_t."""
    return geo.ric.value[0, 0]


def scalar_and_ric_tt(spec, r, theta):
    """Batch evaluation of (S, Ric(T,T)) over point arrays (profile sweeps)."""
    geo = Geometry(spec, r, theta, order=2)
    return np.asarray(geo.scalar.value), np.asarray(ricci_tt(geo))


def gaussian_identity_residual(geo):
    """| -phi_rr/phi - (S + Ric(T,T))/2 |, the quotient Gaussian-curvature law."""
    lhs = -geo.phi.d(2, 0) / geo.phi.value
    rhs = 0.5 * (geo.scalar.value + ricci_tt(geo))
    return np.abs(lhs - rhs)


@dataclass(frozen=True)
class HamiltonVerdict:
    """The inequality at each point of a Geometry; values have its batch shape."""

    point: tuple
    scalar_S: np.ndarray
    rhs: np.ndarray
    holds: np.ndarray
    rhs_strict: np.ndarray
    holds_strict: np.ndarray


def hamilton_inequality(geo):
    """Positivity test S > 2|Ric(T)|^2 / Ric(T,T) - Ric(T,T) at geo's points.

    Also reports the strict variant S > 2|grad omega|^2/omega^2 + omega^2
    needed when no Ricci eigenvalue may exceed the sum of the others.
    Returns the HamiltonVerdict and whether the inequality holds everywhere.
    """
    omega, s, xw, yw, ric_t = twist_data(geo)
    ric_tt = ric_t.t_component
    undefined = (np.abs(omega) < TWIST_FLOOR) | (ric_tt <= 0.0)
    if np.any(undefined):
        p = geo.point_at(int(np.argmax(undefined)))
        raise TwistZero(f"twist vanishes at {p}; inequality undefined")
    rhs = 2.0 * ric_t.norm_sq / ric_tt - ric_tt
    rhs_strict = 2.0 * (xw**2 + yw**2) / omega**2 + omega**2
    verdict = HamiltonVerdict(point=(geo.r, geo.theta), scalar_S=s, rhs=rhs,
                              holds=s > rhs, rhs_strict=rhs_strict,
                              holds_strict=s > rhs_strict)
    return verdict, bool(np.all(verdict.holds))


def spectrum_vs_eigensolve_residual(packet):
    """Multiset distance between the closed-form spectrum and an eigensolve of Ham1, per point."""
    closed = np.sort(np.stack(packet.spectrum, axis=-1), axis=-1)
    mats = np.moveaxis(packet.ric_operator, (0, 1), (-2, -1))
    if not np.all(np.isfinite(mats)):
        raise NonFinite("Ricci operator has non-finite entries")
    return np.max(np.abs(closed - np.linalg.eigvalsh(mats)), axis=-1)
