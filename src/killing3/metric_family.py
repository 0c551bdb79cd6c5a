"""Canonical metrics g = (T^b)^2 + dr^2 + phi^2 dtheta^2 built from (phi, h, k).

Every spec with t-independent (phi, h, k) carries T = d/dt as a unit Killing
field; the catalog collects the exact workhorse examples (flat space, the
round-sphere Hopf field, the nil twist family, the hyperbolic cylinder, and
the conformally-flat ODE family).

Sign convention for the frame function h: with the frame
``T = dt, X = h dt + (1/phi) dtheta, Y = k dt + dr`` one finds
``[X, Y] = -((phi h)_r / phi) T + (div Y) X`` (k = 0), so the twist
``omega = g(T, [X, Y])`` equals ``-(phi h)_r / phi``.  Catalog entries choose
h so the signed twist is positive; this is fixed by the twist oracle in the
test-suite, not assumed.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import fields, jets
from .errors import BadParams, DomainError, UnknownCatalogName
from .fields import ScalarField
from .tensor_core import LORENTZIAN, RIEMANNIAN, Sym3, gram_residual

PHI_CUTOFF = 1e-8

CATALOG_NAMES = ("flat", "hopf", "nil", "hyperbolic", "cf_family")


@dataclass(frozen=True)
class MetricSpec:
    """The triple (phi, h, k) plus signature: the canonical 3-metric."""

    phi: ScalarField
    h: ScalarField
    k: ScalarField
    signature: str = RIEMANNIAN
    name: str = "custom"
    params: dict = dc_field(default_factory=dict)

    def with_signature(self, signature):
        return MetricSpec(self.phi, self.h, self.k, signature, self.name, dict(self.params))


@dataclass(frozen=True)
class FrameAt:
    """Canonical orthonormal frame at a point, components in (dt, dr, dtheta)."""

    T: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    point: tuple

    def as_rows(self):
        return np.array([self.T, self.X, self.Y])


def check_admissible(spec, r, theta):
    phi = np.asarray(spec.phi.value(r, theta))
    if np.any(phi <= PHI_CUTOFF):
        raise DomainError(f"phi <= {PHI_CUTOFF} at (r, theta) near ({r}, {theta})")
    return phi


def metric_components(spec, p):
    """Coordinate metric matrix at p = (r, theta), basis order (t, r, theta)."""
    r, theta = p
    check_admissible(spec, r, theta)
    phi = spec.phi.value(r, theta)
    h = spec.h.value(r, theta)
    k = spec.k.value(r, theta)
    ph = phi * h
    g = np.array([
        [1.0, -k, -ph],
        [-k, 1.0 + k**2, ph * k],
        [-ph, ph * k, phi**2 * (1.0 + h**2)],
    ])
    if spec.signature == LORENTZIAN:
        tb = np.array([1.0, -k, -ph])  # T-flat covector of the Riemannian partner
        g = g - 2.0 * np.outer(tb, tb)
    return Sym3.from_matrix(g)


def canonical_frame(spec, p):
    """The frame T = dt, X = h dt + (1/phi) dtheta, Y = k dt + dr at p."""
    r, theta = p
    check_admissible(spec, r, theta)
    phi = spec.phi.value(r, theta)
    h = spec.h.value(r, theta)
    k = spec.k.value(r, theta)
    return FrameAt(
        T=np.array([1.0, 0.0, 0.0]),
        X=np.array([h, 0.0, 1.0 / phi]),
        Y=np.array([k, 1.0, 0.0]),
        point=(r, theta),
    )


def frame_gram_residual(spec, p):
    fr = canonical_frame(spec, p)
    return gram_residual(fr.as_rows(), metric_components(spec, p), spec.signature)


# -- catalog -----------------------------------------------------------------


def catalog(name, params=None):
    """Exact example metrics by name; see CATALOG_NAMES."""
    params = dict(params or {})
    if name == "flat":
        _reject_extra(params, ())
        return MetricSpec(fields.constant(1.0), fields.constant(0.0),
                          fields.constant(0.0), RIEMANNIAN, "flat", {})
    if name == "hopf":
        radius = float(params.pop("R", 1.0))
        _reject_extra(params, ())
        if radius <= 0:
            raise BadParams(f"hopf radius must be positive, got {radius}")
        # phi = (R/2) sin(2r/R); h fixed by the twist oracle: omega = +2/R
        # requires (phi h)_r = -omega phi, giving h = -tan(r/R).
        phi = fields.from_expr(lambda r, t: jets.sin(r * (2.0 / radius)) * (radius / 2.0))
        h = fields.from_expr(lambda r, t: -jets.tan(r * (1.0 / radius)))
        return MetricSpec(phi, h, fields.constant(0.0), RIEMANNIAN, "hopf", {"R": radius})
    if name == "nil":
        omega0 = float(params.pop("omega0", 1.0))
        _reject_extra(params, ())
        # h = -omega0 r gives signed twist +omega0 (same oracle as hopf)
        h = fields.from_expr(lambda r, t: r * (-omega0))
        return MetricSpec(fields.constant(1.0), h, fields.constant(0.0),
                          RIEMANNIAN, "nil", {"omega0": omega0})
    if name == "hyperbolic":
        _reject_extra(params, ())
        phi = fields.from_expr(lambda r, t: jets.cosh(r))
        return MetricSpec(phi, fields.constant(0.0), fields.constant(0.0),
                          RIEMANNIAN, "hyperbolic", {})
    if name == "cf_family":
        from .conformal_family import FamilyParams, build_cf_metric

        fp = FamilyParams(
            B=float(params.pop("B", 0.0)),
            C=float(params.pop("C", 1.0)),
            omega0=float(params.pop("omega0", 0.0)),
            omega_r0_sign=int(params.pop("sign", 1)),
        )
        _reject_extra(params, ())
        return build_cf_metric(fp)
    raise UnknownCatalogName(f"unknown catalog metric {name!r}")


def _reject_extra(params, allowed):
    extra = set(params) - set(allowed)
    if extra:
        raise BadParams(f"unexpected parameters: {sorted(extra)}")


# -- grid-sampled input -------------------------------------------------------

GRID_CSV_HEADER = ["r", "theta", "phi", "h", "k"]


def load_grid_csv(text_or_path):
    """Grid-sampled MetricSpec from CSV `r,theta,phi,h,k` (rectangular, row-major in theta)."""
    if isinstance(text_or_path, str) and "\n" not in text_or_path:
        with open(text_or_path, newline="") as fh:
            rows = list(csv.reader(fh))
    else:
        rows = list(csv.reader(io.StringIO(text_or_path)))
    if not rows or [c.strip() for c in rows[0]] != GRID_CSV_HEADER:
        raise BadParams(f"grid CSV must start with header {','.join(GRID_CSV_HEADER)}")
    try:
        data = np.array([[float(x) for x in row] for row in rows[1:] if row])
    except ValueError as exc:  # a non-numeric cell, or rows of unequal length
        raise BadParams(f"grid CSV: {exc}") from None
    if data.ndim != 2 or data.shape[1] != 5 or not np.all(np.isfinite(data)):
        raise BadParams("grid CSV rows must hold 5 finite numbers each")
    r_nodes = np.unique(data[:, 0])
    t_nodes = np.unique(data[:, 1])
    if len(data) != len(r_nodes) * len(t_nodes):
        raise BadParams("grid CSV is not a full rectangular grid")
    order = np.lexsort((data[:, 1], data[:, 0]))
    shaped = data[order].reshape(len(r_nodes), len(t_nodes), 5)
    specs = {}
    try:
        for idx, key in ((2, "phi"), (3, "h"), (4, "k")):
            specs[key] = fields.from_grid(r_nodes, t_nodes, shaped[:, :, idx])
    except ValueError as exc:  # too few nodes on an axis for the spline
        shape = f"{len(r_nodes)}x{len(t_nodes)}"
        raise BadParams(f"grid CSV with {shape} nodes: {exc}") from None
    return MetricSpec(specs["phi"], specs["h"], specs["k"], RIEMANNIAN, "grid", {})


def to_grid_sampled(spec, r_nodes, theta_nodes):
    """Resample an analytic spec through the grid-jet path (cross-validation)."""
    return MetricSpec(
        fields.sample_to_grid(spec.phi, r_nodes, theta_nodes),
        fields.sample_to_grid(spec.h, r_nodes, theta_nodes),
        fields.sample_to_grid(spec.k, r_nodes, theta_nodes),
        spec.signature,
        spec.name + "_grid",
        dict(spec.params),
    )
