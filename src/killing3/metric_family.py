"""Profile triples (phi, h, k) of canonical metrics g = (T^b)^2 + dr^2 + phi^2 dtheta^2.

A MetricSpec holds the triple and the signature; the metric, its frame and
the test of where the metric is defined are computed only by
``frame_calculus.Geometry``, which ``metric_components`` and
``frame_gram_residual`` read.  A Geometry's Lorentzian ``partner``, g_R - 2 (T^b)^2, shares its
field jets and coframe, but forms its own metric and curvature: the audits are genuine cross-checks.

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
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import fields, jets
from .errors import AlreadyLorentzian, BadParams, UnknownCatalogName
from .fields import ScalarField
from .frame_calculus import LORENTZIAN, RIEMANNIAN, Geometry, g_tt

#: the parameters each catalog metric accepts, with their defaults
CATALOG_PARAMS = {
    "flat": {},
    "hopf": {"R": 1.0},
    "nil": {"omega0": 1.0},
    "hyperbolic": {},
    "cf_family": {"B": 0.0, "C": 1.0, "omega0": 0.0, "sign": 1},
}
CATALOG_NAMES = tuple(CATALOG_PARAMS)


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


def metric_components(spec, p):
    """Coordinate metric matrix at p = (r, theta), shape (3, 3) + batch, basis (t, r, theta)."""
    return Geometry(spec, *p, order=0).g.value


def frame_gram_residual(geo):
    """Per-point max deviation of g(e_i, e_j) of ``geo.frame`` (T, X, Y) from
    diag(g_tt, 1, 1), g_tt read from the spec's signature, not from the Geometry's eta."""
    e = jets.stack(geo.frame).value
    gram = np.einsum("ia...,ab...,jb...->...ij", e, geo.g.value, e)
    return np.max(np.abs(gram - np.diag([g_tt(geo.spec.signature), 1.0, 1.0])), axis=(-2, -1))


@dataclass(frozen=True)
class SignaturePair:
    riemannian: MetricSpec
    lorentzian: MetricSpec


def to_lorentz(spec):
    if spec.signature == LORENTZIAN:
        raise AlreadyLorentzian(f"spec {spec.name!r} is already Lorentzian")
    return SignaturePair(riemannian=spec,
                         lorentzian=spec.with_signature(LORENTZIAN))


def flip_residual(geo, partner):
    """Max |g_L - (g_R - 2 T^b x T^b)| per point, T^b = g_R(T, .), g_L the partner's E^T eta E."""
    g_r = geo.g.value
    flip = g_r - 2.0 * np.einsum("a...,b...->ab...", g_r[0], g_r[0])
    return np.max(np.abs(partner.g.value - flip), axis=(0, 1))


def timelike_residual(partner):
    """|g_L^-1(T^b, T^b) + 1|, T^b = g_L(T, .): the partner's g^-1 (from F) against g (from E)."""
    t_flat = partner.g.value[0]
    return np.abs(np.einsum("a...,ab...,b...->...", t_flat, partner.ginv.value, t_flat) + 1.0)


# -- catalog -----------------------------------------------------------------


def catalog(name, params=None):
    """Exact example metrics by name; see CATALOG_PARAMS."""
    if name not in CATALOG_PARAMS:
        raise UnknownCatalogName(f"unknown catalog metric {name!r}")
    params = dict(params or {})
    extra = set(params) - set(CATALOG_PARAMS[name])
    if extra:
        raise BadParams(f"unexpected parameters: {sorted(extra)}")
    params = {**CATALOG_PARAMS[name], **params}
    if not np.all(np.isfinite([float(value) for value in params.values()])):  # R <= 0 passes NaN
        raise BadParams(f"{name} parameters must be finite, got {params}")
    if name == "flat":
        return MetricSpec(fields.constant(1.0), fields.constant(0.0),
                          fields.constant(0.0), RIEMANNIAN, "flat", {})
    if name == "hopf":
        radius = float(params["R"])
        if radius <= 0:
            raise BadParams(f"hopf radius must be positive, got {radius}")
        # phi = (R/2) sin(2r/R); h fixed by the twist oracle: omega = +2/R
        # requires (phi h)_r = -omega phi, giving h = -tan(r/R).
        phi = fields.from_expr(lambda r, t: jets.sin(r * (2.0 / radius)) * (radius / 2.0))
        h = fields.from_expr(lambda r, t: -jets.tan(r * (1.0 / radius)))
        return MetricSpec(phi, h, fields.constant(0.0), RIEMANNIAN, "hopf", {"R": radius})
    if name == "nil":
        omega0 = float(params["omega0"])
        # h = -omega0 r gives signed twist +omega0 (same oracle as hopf)
        h = fields.from_expr(lambda r, t: r * (-omega0))
        return MetricSpec(fields.constant(1.0), h, fields.constant(0.0),
                          RIEMANNIAN, "nil", {"omega0": omega0})
    if name == "hyperbolic":
        phi = fields.from_expr(lambda r, t: jets.cosh(r))
        return MetricSpec(phi, fields.constant(0.0), fields.constant(0.0),
                          RIEMANNIAN, "hyperbolic", {})
    from .conformal_family import FamilyParams, build_cf_metric

    sign = float(params["sign"])
    if sign not in (1.0, -1.0):  # int() would read 1.7 as 1
        raise BadParams(f"cf_family sign must be 1 or -1, got {params['sign']}")
    return build_cf_metric(FamilyParams(
        B=float(params["B"]), C=float(params["C"]),
        omega0=float(params["omega0"]), omega_r0_sign=int(sign)))


# -- grid-sampled input -------------------------------------------------------

GRID_CSV_HEADER = ["r", "theta", "phi", "h", "k"]
#: how np.loadtxt reads the numbers: cells may be spaced or quoted, as csv.reader reads them
_LOADTXT = {"delimiter": ",", "quotechar": '"', "comments": None, "ndmin": 2}


def load_grid_csv(text):
    """Grid-sampled MetricSpec from CSV text, not a path: `r,theta,phi,h,k` on a full grid."""
    header, *lines = text.splitlines() or [""]
    if [c.strip() for c in next(csv.reader([header]), [])] != GRID_CSV_HEADER:
        raise BadParams(f"grid CSV must start with header {','.join(GRID_CSV_HEADER)}")
    if not any(lines):  # no data row: loadtxt would warn
        raise BadParams("grid CSV rows must hold 5 finite numbers each")
    try:  # blank lines skipped
        data = np.loadtxt(lines, **_LOADTXT)
    except ValueError as exc:  # a non-numeric cell, or rows of unequal length: find its line
        rows = [(n, line) for n, line in enumerate(lines, start=2) if line]  # the header is 1
        for n, line in rows:  # each row read after the first, which sets the column count
            try:
                np.loadtxt([rows[0][1], line], **_LOADTXT)
            except ValueError:
                break
        raise BadParams(f"grid CSV line {n}: {str(exc).partition(' at row')[0]}") from None
    if data.shape[1] != 5 or not np.all(np.isfinite(data)):
        raise BadParams("grid CSV rows must hold 5 finite numbers each")
    # the sorted distinct values; np.unique would import numpy.ma, and the data is finite here
    r_nodes, t_nodes = (x[np.r_[True, x[1:] != x[:-1]]] for x in np.sort(data[:, :2], axis=0).T)
    data = data[np.lexsort((data[:, 1], data[:, 0]))]
    nodes = np.stack(np.meshgrid(r_nodes, t_nodes, indexing="ij"), axis=-1).reshape(-1, 2)
    if len(data) != len(nodes) or np.any(data[:, :2] != nodes):  # each node exactly once
        raise BadParams("grid CSV is not a full rectangular grid")
    shaped = data.reshape(len(r_nodes), len(t_nodes), 5)
    try:
        phi, h, k = fields.from_grids(r_nodes, t_nodes, np.moveaxis(shaped[:, :, 2:], -1, 0))
    except ValueError as exc:  # too few nodes on an axis for the spline
        shape = f"{len(r_nodes)}x{len(t_nodes)}"
        raise BadParams(f"grid CSV with {shape} nodes: {exc}") from None
    return MetricSpec(phi, h, k, RIEMANNIAN, "grid", {})


def to_grid_sampled(spec, r_nodes, theta_nodes):
    """The spec's triple sampled on a grid and fit as one, as load_grid_csv does (cross-checks)."""
    rr, tt = np.meshgrid(r_nodes, theta_nodes, indexing="ij")  # field jets read them as floats
    phi, h, k = fields.from_grids(r_nodes, theta_nodes,
                                  [f.jet(rr, tt, 0).value for f in (spec.phi, spec.h, spec.k)])
    return MetricSpec(phi, h, k, spec.signature, spec.name + "_grid", dict(spec.params))
