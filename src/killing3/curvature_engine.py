"""Christoffel symbols, the curvature packet and its closed-form Ricci spectrum.

The point-level analyses take a ``Geometry``, one point or a batch, and return
values of its batch shape: a one-point call is a view of the batched one.
The packet holds the paper's closed forms in (omega, S, X(omega), Y(omega)); its spectrum
gives the Ricci and sectional curvature signs, and ``spectrum_vs_eigensolve_residual``
holds it to the Geometry's ``ric_frame``.
``quotient_criterion`` reads S + g(T,T) Ric(T,T) off a Geometry of either signature.
The Lorentzian ``partner`` shares its field jets and coframe, but its curvature runs the
full Christoffel pipeline, so ``lorentz_relations_check`` is a genuine cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite
from .frame_calculus import g_tt
from .metric_family import to_lorentz


def christoffels(geo):
    """Gamma^c_{ab} values indexed [c][a][b] + batch, coordinates (t, r, theta)."""
    return geo.gamma.value


@dataclass(frozen=True)
class RicciOfT:
    """Ricci operator applied to T, components in the frame {T, X, Y}."""

    t_component: np.ndarray
    x_component: np.ndarray
    y_component: np.ndarray

    @property
    def norm_sq(self):
        t, x, y = self.t_component, self.x_component, self.y_component
        return t * t + x * x + y * y

    @property
    def flatness_form(self):
        """4|Ric(T)|^2 - 3 Ric(T,T)^2, which is C - 2B Ric(T,T) on a conformally flat metric."""
        return 4.0 * self.norm_sq - 3.0 * (self.t_component * self.t_component)


@dataclass(frozen=True)
class CurvaturePacket:
    """Closed-form curvature data of a Geometry; every value has the geometry's batch shape."""

    scalar_S: np.ndarray
    spectrum: tuple           # (lam1, lam2, lam3) closed forms, lam1 >= lam3 >= lam2
    omega: np.ndarray
    grad_omega_sq: np.ndarray
    ric_of_T: RicciOfT

    # min and max, not lam2 and lam1: where eigenvalues tie, the closed forms round either way
    @property
    def ricci_positive(self):
        """Every Ricci eigenvalue > 0: Hamilton's condition on a compact 3-manifold."""
        return np.min(self.spectrum, axis=0) > 0.0

    @property
    def sectional_positive(self):
        """Every sectional curvature S/2 - lam_k > 0."""
        return np.max(self.spectrum, axis=0) < self.scalar_S / 2.0


def spectrum_closed_form(omega, scalar_s, grad_omega_sq):
    """Eigenvalues of the Ricci operator: lam1 (+sqrt branch), lam2, lam3."""
    w2 = omega * omega
    gap = scalar_s - 1.5 * w2
    delta = 0.25 * (gap * gap) + grad_omega_sq
    root = np.sqrt(delta)
    lam1 = scalar_s / 4.0 + w2 / 8.0 + root / 2.0
    lam2 = scalar_s / 4.0 + w2 / 8.0 - root / 2.0
    lam3 = scalar_s / 2.0 - w2 / 4.0
    return lam1, lam2, lam3


def curvature_packet(geo):
    """omega, S, X(omega), Y(omega), Ric(T), |grad omega|^2 and the Ricci spectrum (Riemannian)."""
    geo.riemannian_only("the curvature packet is")
    omega, s = geo.omega.value, geo.scalar.value
    xw, yw = (d.value for d in geo.omega_xy)
    grad_sq = xw * xw + yw * yw
    return CurvaturePacket(
        scalar_S=s,
        spectrum=spectrum_closed_form(omega, s, grad_sq),
        omega=omega,
        grad_omega_sq=grad_sq,
        ric_of_T=RicciOfT(omega * omega / 2.0, -yw / 2.0, xw / 2.0),
    )


def ricci_tt(geo):
    """Ric(T, T) values of a scalar or batched Geometry; T = d_t."""
    return geo.ric.value[0, 0]


def quotient_criterion(geo):
    """S + g(T,T) Ric(T,T) of a Geometry: twice the Gaussian curvature of its quotient by T."""
    return geo.scalar.value + g_tt(geo.spec.signature) * ricci_tt(geo)


def lorentz_relations_check(geo):
    """Residuals of Ric_L(T,T) = Ric_R(T,T) and S_L = S_R + 2 Ric_R(T,T) at the points of the
    Riemannian ``geo``, the Lorentzian side read from ``geo.partner``."""
    to_lorentz(geo.spec)  # AlreadyLorentzian on a Lorentzian geo
    s_r, s_l = geo.scalar.value, geo.partner.scalar.value
    ric_r, ric_l = ricci_tt(geo), ricci_tt(geo.partner)
    return np.abs(ric_l - ric_r), np.abs(s_l - (s_r + 2.0 * ric_r))


def gaussian_identity_residual(geo):
    """| -phi_rr/phi - (S + g(T,T) Ric(T,T))/2 |, the quotient Gaussian-curvature law."""
    lhs = -geo.phi.d(2, 0) / geo.phi.value
    rhs = 0.5 * quotient_criterion(geo)
    return np.abs(lhs - rhs)


def spectrum_vs_eigensolve_residual(geo):
    """Multiset distance between the packet's closed-form spectrum and an eigensolve of the
    Geometry's Ricci on the frame, per point."""
    mats = np.moveaxis(geo.ric_frame.value, (0, 1), (-2, -1))
    if not np.all(np.isfinite(mats)):
        raise NonFinite("Ricci on the frame has non-finite entries")
    closed = np.sort(np.stack(curvature_packet(geo).spectrum, axis=-1), axis=-1)
    return np.max(np.abs(closed - np.linalg.eigvalsh(mats)), axis=-1)
