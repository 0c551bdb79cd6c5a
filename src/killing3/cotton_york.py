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

from .curvature_engine import curvature_packet, twist_data
from .errors import EmptyGrid
from .fields import GRID_SAMPLED
from .frame_calculus import Geometry
from .tensor_core import Sym3

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
    c: Sym3
    point: tuple
    raw: np.ndarray  # the un-symmetrized 3x3 column assembly

    @property
    def symmetry_residual(self):
        return float(np.max(np.abs(self.raw - self.raw.T)))

    @property
    def trace_residual(self):
        return float(abs(np.trace(self.raw)))

    @property
    def norm(self):
        return float(np.sqrt(np.sum(self.raw**2)))


def cotton_york(spec, p):
    geo = Geometry(spec, p[0], p[1])
    raw = np.asarray(geo.cotton_york_matrix, dtype=float)
    return CottonYorkMatrix(c=Sym3.from_matrix(raw),
                            point=(float(p[0]), float(p[1])), raw=raw)


def cotton_york_norms(spec, r, theta):
    """Batched Frobenius norms of the Cotton-York matrix over point arrays."""
    return _cy_norms(Geometry(spec, np.asarray(r, float), np.asarray(theta, float)))


def _cy_norms(geo):
    return np.sqrt(np.sum(np.asarray(geo.cotton_york_matrix) ** 2, axis=(0, 1)))


@dataclass(frozen=True)
class FlatnessFit:
    B: float
    C: float
    residual_max: float     # max pointwise residual of the fitted quadratic identity
    verdict: str
    cy_max: float
    constant_omega: bool
    nonunique: bool         # (B, C) determined only up to a line (constant omega)
    n_points: int
    cy_norms: np.ndarray    # ||CY|| at each grid point, in grid order


def _is_grid_sampled(spec):
    return any(f.provenance == GRID_SAMPLED for f in (spec.phi, spec.h, spec.k))


def flatness_verdict(spec, grid):
    """Fit the flatness constants (B, C) and combine with the CY norm sweep.

    The identity fitted is 4|Ric(T)|^2 = 3 Ric(T,T)^2 - 2B Ric(T,T) + C over
    the grid.  For constant twist the identity degenerates to one linear
    constraint; the representative B = 0 is reported and flagged nonunique,
    and the shortcut criterion S = 3 Ric(T,T) decides flatness directly.
    """
    pts = np.asarray(list(grid), dtype=float)
    if not len(pts):
        raise EmptyGrid("flatness_verdict needs at least one point")
    geo = Geometry(spec, pts[:, 0], pts[:, 1])
    omegas, scal, _, _, ric_t = twist_data(geo)
    ric_tt = ric_t.t_component
    cy_norms = _cy_norms(geo)
    cy_max = float(np.max(cy_norms))

    y = 4.0 * ric_t.norm_sq - 3.0 * ric_tt**2
    grid_sampled = _is_grid_sampled(spec)
    const_tol = CONST_OMEGA_TOL_GRID if grid_sampled else CONST_OMEGA_TOL
    omega_scale = max(1.0, float(np.max(np.abs(omegas))))
    constant_omega = float(np.ptp(omegas)) < const_tol * omega_scale
    if constant_omega:
        b_fit, nonunique = 0.0, True
        c_fit = float(np.mean(y))
    else:
        a = np.column_stack([-2.0 * ric_tt, np.ones(len(pts))])
        (b_fit, c_fit), *_ = np.linalg.lstsq(a, y, rcond=None)
        nonunique = False
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
                       n_points=len(pts), cy_norms=cy_norms)


def tmg_residual(spec, p):
    """Frobenius distance from CY to the traceless Ricci tensor (frame components)."""
    cy = cotton_york(spec, p)
    pk = curvature_packet(spec, p)
    traceless = pk.ricci.matrix() - (pk.scalar_S / 3.0) * np.eye(3)
    return float(np.sqrt(np.sum((cy.raw - traceless) ** 2)))
