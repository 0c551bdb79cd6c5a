"""Cotton-York matrix evaluation, conformal-flatness verdicts, TMG residual.

The Cotton-York matrix is assembled column by column in the orthonormal frame
{T, X, Y}; its symmetry and tracelessness are *not* imposed, so they serve as
independent transcription checks.  Conformal flatness of the metric is
equivalent to the matrix vanishing, and (for these metrics) to a quadratic
relation between |Ric(T)|^2 and Ric(T,T) with two real constants (B, C),
which ``flatness_verdict`` fits by least squares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature_engine import curvature_packet
from .errors import EmptyGrid, NonFinite
from .fields import GRID_SAMPLED
from .frame_calculus import Geometry

FLAT = "Flat"
NOT_FLAT = "NotFlat"
INCONCLUSIVE = "Inconclusive"

#: ||CY|| thresholds for a Flat verdict by field provenance; the grid value
#: is set by third-derivative spline noise, which dominates ||CY|| there
CY_TOL_ANALYTIC = 1e-8
CY_TOL_GRID = 2e-3
#: quadratic-identity fit residual required alongside a vanishing CY
FIT_TOL = 1e-6
FIT_TOL_GRID = 1e-3
#: twist spread below which the constant-omega shortcut S = 3 Ric(T,T) fires
CONST_OMEGA_TOL = 1e-10
CONST_OMEGA_TOL_GRID = 1e-6


@dataclass(frozen=True)
class CottonYorkMatrix:
    raw: np.ndarray  # the un-symmetrized 3x3 column assembly, shape (3, 3) + batch

    @property
    def symmetry_residual(self):
        return np.max(np.abs(self.raw - np.swapaxes(self.raw, 0, 1)), axis=(0, 1))

    @property
    def trace_residual(self):
        return np.abs(np.trace(self.raw))

    @property
    def norm(self):
        # entry by entry, in one order at any batch width (np.sum's order depends on the shape)
        return np.sqrt(sum(x * x for x in self.raw.reshape((9,) + self.raw.shape[2:])))


def cotton_york(geo):
    return CottonYorkMatrix(raw=geo.cotton_york_matrix)


def cotton_york_norms(spec, r, theta):
    """Batched Frobenius norms of the Cotton-York matrix over point arrays."""
    return cotton_york(Geometry(spec, r, theta)).norm


@dataclass(frozen=True)
class FlatnessFit:
    B: float
    C: float
    residual_max: float     # max pointwise residual of the fitted quadratic identity
    verdict: str
    cy_max: float
    constant_omega: bool
    nonunique: bool         # (B, C) determined only up to a line (rank-deficient fit)
    n_points: int
    cy_norms: np.ndarray    # ||CY|| at each point, of the geometry's batch shape


def _is_grid_sampled(spec):
    return any(f.provenance == GRID_SAMPLED for f in (spec.phi, spec.h, spec.k))


def flatness_verdict(geo):
    """Fit the flatness constants (B, C) and combine with the CY norm sweep.

    The identity fitted is 4|Ric(T)|^2 = 3 Ric(T,T)^2 - 2B Ric(T,T) + C over
    the points of ``geo``.  Where the points give one linear constraint only
    (one point, or one value of Ric(T,T)), the representative B = 0 is reported
    and flagged nonunique.  For a twist constant over two or more points the
    shortcut criterion S = 3 Ric(T,T) decides flatness directly; a single point
    shows no spread, so there the CY norm decides.
    """
    n_points = np.size(geo.r)
    if not n_points:
        raise EmptyGrid("flatness_verdict needs at least one point")
    pk = curvature_packet(geo)
    omegas, scal, ric_tt = pk.omega, pk.scalar_S, pk.ric_of_T.t_component
    norms = cotton_york(geo).norm
    cy_max = float(np.max(norms))

    y = pk.ric_of_T.flatness_form
    bad = ~(np.isfinite(y) & np.isfinite(norms))
    if np.any(bad):  # the fit's SVD would not converge
        r, theta = geo.point_at(int(np.argmax(bad)))
        raise NonFinite(f"non-finite curvature at (r, theta) = ({r:.6g}, {theta:.6g})")
    grid_sampled = _is_grid_sampled(geo.spec)
    const_tol = CONST_OMEGA_TOL_GRID if grid_sampled else CONST_OMEGA_TOL
    omega_scale = max(1.0, float(np.max(np.abs(omegas))))
    constant_omega = n_points > 1 and float(np.ptp(omegas)) < const_tol * omega_scale
    b_fit, c_fit, nonunique = 0.0, float(np.mean(y)), True
    if not constant_omega:
        a = np.column_stack([-2.0 * np.ravel(ric_tt), np.ones(n_points)])
        (b, c), _, rank, _ = np.linalg.lstsq(a, np.ravel(y), rcond=None)
        if rank == 2:
            b_fit, c_fit, nonunique = b, c, False
    residual = np.abs(y - (-2.0 * b_fit * ric_tt + c_fit))
    residual_max = float(np.max(residual))

    cy_tol = CY_TOL_GRID if grid_sampled else CY_TOL_ANALYTIC
    fit_tol = FIT_TOL_GRID if grid_sampled else FIT_TOL
    if constant_omega:
        if float(np.max(np.abs(omegas))) > 1e-8 * omega_scale:
            # S = 3 Ric(T,T) is exact iff conformally flat for constant twist
            shortcut = float(np.max(np.abs(scal - 3.0 * ric_tt)))
        else:
            # twist-free: every omega term in CY drops out and flatness only
            # requires S constant on the quotient (e.g. hyperbolic-plane x R
            # is conformally flat with S = -2, not S = 0)
            shortcut = float(np.ptp(scal))
        flat = cy_max < cy_tol and shortcut < cy_tol
        verdict = FLAT if flat else NOT_FLAT
    elif cy_max < cy_tol and residual_max < fit_tol:
        verdict = FLAT
    elif cy_max > 10.0 * cy_tol:
        verdict = NOT_FLAT
    else:
        verdict = INCONCLUSIVE
    return FlatnessFit(B=float(b_fit), C=float(c_fit), residual_max=residual_max,
                       verdict=verdict, cy_max=float(cy_max),
                       constant_omega=constant_omega, nonunique=nonunique,
                       n_points=n_points, cy_norms=norms)


def tmg_residual(geo):
    """Frobenius distance from CY to the traceless Ricci tensor (frame components)."""
    traceless = geo.ric_frame.value - np.multiply.outer(np.eye(3), geo.scalar.value / 3.0)
    return CottonYorkMatrix(geo.cotton_york_matrix - traceless).norm
