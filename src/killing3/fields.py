"""Scalar fields on the (r, theta) plane with jet evaluation.

Two provenances:

* ``analytic`` -- the field is an exact expression; jets come from jet
  arithmetic and are accurate to machine precision.
* ``grid`` -- the field is known only on a rectangular sample grid; jets come
  from the partial derivatives of a quintic tensor-product spline fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.interpolate import RectBivariateSpline

from . import jets
from .errors import DomainError, JetOrderError
from .jets import INDEX, MAX_ORDER, NCOEFFS, Jet2

ANALYTIC = "analytic"
GRID_SAMPLED = "grid"


@dataclass(frozen=True)
class ScalarField:
    """Evaluator mapping (r, theta) to a Jet2 of order up to MAX_ORDER."""

    jet_fn: Callable = field(repr=False)
    provenance: str = ANALYTIC

    def jet(self, r, theta, order=MAX_ORDER):
        if order > MAX_ORDER:
            raise JetOrderError(f"order {order} requested, above MAX_ORDER = {MAX_ORDER}")
        # one batch shape for every jet the field's expression makes
        r, theta = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(theta, dtype=float))
        j = self.jet_fn(r, theta, order)
        if j.order < order:
            raise JetOrderError(f"field gave an order-{j.order} jet for order {order}")
        return Jet2(j.coeffs[:NCOEFFS[order]], order)

    def value(self, r, theta):
        return self.jet(r, theta, 0).value

    def __call__(self, r, theta):
        return self.value(r, theta)


def from_expr(expr):
    """Analytic field from a jet expression, e.g. ``lambda r, t: jets.sin(r) * t``."""

    def jet_fn(r, theta, order):
        jr, jt = jets.variables(r, theta, order)
        out = expr(jr, jt)
        if not isinstance(out, Jet2):
            out = Jet2.constant(np.asarray(out, dtype=float), order, batch_like=jr.value)
        return out

    return ScalarField(jet_fn, ANALYTIC)


def constant(value):
    def jet_fn(r, theta, order):
        return Jet2.constant(float(value), order, batch_like=r)

    return ScalarField(jet_fn, ANALYTIC)


def from_grid(r_nodes, theta_nodes, values):
    """Grid-sampled field; ``values[i, j]`` at ``(r_nodes[i], theta_nodes[j])``.

    A quintic spline supplies all partials up to order 3 directly; finite
    differencing an interpolant loses too much precision at third order.
    Outside the closed node box the spline would extrapolate: DomainError.
    """
    r_nodes = np.asarray(r_nodes, dtype=float)
    theta_nodes = np.asarray(theta_nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    kx = min(5, len(r_nodes) - 1)
    ky = min(5, len(theta_nodes) - 1)
    if kx < MAX_ORDER + 1 or ky < MAX_ORDER + 1:
        raise ValueError("grid too coarse for the requested jet order")
    spline = RectBivariateSpline(r_nodes, theta_nodes, values, kx=kx, ky=ky, s=0)

    def jet_fn(r, theta, order):
        rb, tb = r.ravel(), theta.ravel()
        inside = ((rb >= r_nodes[0]) & (rb <= r_nodes[-1])
                  & (tb >= theta_nodes[0]) & (tb <= theta_nodes[-1]))
        if not np.all(inside):  # NaN fails too
            i = int(np.argmin(inside))
            raise DomainError(f"(r, theta) = ({rb[i]:.6g}, {tb[i]:.6g}) outside the grid box "
                              f"[{r_nodes[0]:.6g}, {r_nodes[-1]:.6g}] x "
                              f"[{theta_nodes[0]:.6g}, {theta_nodes[-1]:.6g}]")
        c = np.empty((NCOEFFS[order],) + r.shape)
        for k, (i, j) in enumerate(INDEX[:NCOEFFS[order]]):
            c[k] = spline.ev(rb, tb, dx=i, dy=j).reshape(r.shape)
        return Jet2(c, order)

    return ScalarField(jet_fn, GRID_SAMPLED)


def sample_to_grid(field_like, r_nodes, theta_nodes):
    """Sample an analytic field on a rectangular grid (for grid-path testing)."""
    rr, tt = np.meshgrid(np.asarray(r_nodes, float), np.asarray(theta_nodes, float),
                         indexing="ij")
    vals = field_like.jet(rr, tt, 0).value
    return from_grid(r_nodes, theta_nodes, vals)
