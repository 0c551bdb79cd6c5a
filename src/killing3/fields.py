"""Scalar fields on the (r, theta) plane with jet evaluation.

Two provenances:

* ``analytic`` -- the field is an exact expression; jets come from jet
  arithmetic and are accurate to machine precision.
* ``grid`` -- the field is known only on a rectangular sample grid; jets come
  from a quintic tensor-product interpolating spline, the one scipy's
  ``RectBivariateSpline`` fits at s = 0, computed in numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import perm
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import jets
from .errors import DomainError, JetOrderError
from .jets import INDEX, MAX_ORDER, NCOEFFS, Jet2

ANALYTIC = "analytic"
GRID_SAMPLED = "grid"
_I, _J = np.array(INDEX).T


@dataclass(frozen=True)
class ScalarField:
    """Evaluator mapping (r, theta) to a Jet2 of order up to MAX_ORDER."""

    jet_fn: Callable = field(repr=False)
    provenance: str = ANALYTIC

    def jet(self, r, theta, order=MAX_ORDER):
        if order > MAX_ORDER:
            raise JetOrderError(f"order {order} requested, above MAX_ORDER = {MAX_ORDER}")
        # one batch shape for every jet the field's expression makes
        r, theta = np.asarray(r, dtype=float), np.asarray(theta, dtype=float)
        if r.shape != theta.shape:
            r, theta = np.broadcast_arrays(r, theta)
        j = self.jet_fn(r, theta, order)
        if j.order < order:
            raise JetOrderError(f"field gave an order-{j.order} jet for order {order}")
        return j if j.order == order else j.truncated(order)

    def value(self, r, theta):
        return self.jet(r, theta, 0).value


def from_expr(expr):
    """Analytic field from a jet expression, e.g. ``lambda r, t: jets.sin(r) * t``."""

    def jet_fn(r, theta, order):
        out = expr(*jets.variables(r, theta, order))
        if isinstance(out, Jet2):
            return out
        return Jet2.constant(np.asarray(out, dtype=float), order, batch_like=r)

    return ScalarField(jet_fn, ANALYTIC)


def constant(value):
    def jet_fn(r, theta, order):
        c = np.zeros((NCOEFFS[order],) + r.shape)
        c[0] = value
        return Jet2(c, order)

    return ScalarField(jet_fn, ANALYTIC)


def _spline_axis(x, k):
    """The degree-k spline's axis on FITPACK's s = 0 knots (k = 5, or 4 on 5 nodes): ``locate(v)``
    gives each point's cell c and d^i/dv^i, i <= MAX_ORDER, of the B_c .. B_{c+k} nonzero there
    (de Boor, A Practical Guide to Splines, ch. IX); ``colloc`` is B_j(x_i)."""
    n, p = len(x), np.arange(k + 1)
    t = np.concatenate([[x[0]] * (k + 1), x[k // 2 + 1:n - k // 2 - 1], [x[-1]] * (k + 1)])
    lefts = t[k:n]
    tj = t[(np.arange(n - k)[:, None] + p)[..., None] + np.arange(k + 2)]  # B_{c+i}'s knots
    wl, wr = (np.divide(1.0, s, out=np.zeros_like(s), where=s > 0)
              for s in (tj[..., 1:-1] - tj[..., :1], tj[..., 2:] - tj[..., 1:2]))
    # bases[c, i, q]: the u^q coefficient of B_{c+i} on cell c, u from its left end, by
    # B_{j,d} = (x - t_j) wl B_{j,d-1} + (t_{j+d+1} - x) wr B_{j+1,d-1}; B_{c+k+1} is 0
    off_l, off_r = (lefts[:, None] - tj[..., 0])[..., None], tj[..., 2:] - lefts[:, None, None]
    bases = np.zeros((n - k, k + 2, k + 1))
    bases[:, k, 0] = 1.0
    for d in range(1, k + 1):
        lo, hi = bases[:, :-1] * wl[..., d - 1, None], bases[:, 1:] * wr[..., d - 1, None]
        bases[:, :-1] = off_l * lo + off_r[..., d - 1, None] * hi
        bases[:, :-1, 1:] += (lo - hi)[..., :-1]
    weights = np.array([[perm(q, i) for q in p] for i in range(MAX_ORDER + 1)], dtype=float)
    powers = np.maximum(p - np.arange(MAX_ORDER + 1)[:, None], 0)

    def locate(v):
        cell = np.searchsorted(lefts[1:], v, side="right")  # the last cell is closed
        du = ((v - lefts[cell])[:, None] ** p)[:, powers] * weights  # d^i/du^i u^q
        return cell, du @ bases[cell, :-1].swapaxes(1, 2)

    cell, d = locate(x)
    colloc = np.zeros((n, n))
    colloc[np.arange(n)[:, None], cell[:, None] + p] = d[:, 0]
    return locate, colloc


def from_grids(r_nodes, theta_nodes, stack):
    """Grid fields, ``stack[m][i, j]`` at ``(r_nodes[i], theta_nodes[j])``, that share one quintic
    spline's axis work (quartic on 5 nodes), whose order-3 partials beat finite differences of an
    interpolant.  Outside the closed node box the spline would extrapolate: DomainError."""
    r_nodes, theta_nodes, stack = (np.asarray(a, float) for a in (r_nodes, theta_nodes, stack))
    kx, ky = (min(5, len(nodes) - 1) for nodes in (r_nodes, theta_nodes))
    if kx < MAX_ORDER + 1 or ky < MAX_ORDER + 1:
        raise ValueError("grid too coarse for the requested jet order")
    if not (np.all(np.diff(r_nodes) > 0) and np.all(np.diff(theta_nodes) > 0)):
        raise ValueError("grid nodes must increase strictly")
    (loc_r, a_r), (loc_t, a_t) = _spline_axis(r_nodes, kx), _spline_axis(theta_nodes, ky)
    coef = np.linalg.solve(a_t, np.linalg.solve(a_r, stack).swapaxes(1, 2)).swapaxes(1, 2)
    # windows[m, cr, ct]: field m's B-spline coefficients nonzero on cell (cr, ct)
    windows = sliding_window_view(coef, (kx + 1, ky + 1), axis=(1, 2))

    def jet_fn(window, r, theta, order):
        rb, tb = r.ravel(), theta.ravel()
        inside = ((rb >= r_nodes[0]) & (rb <= r_nodes[-1])
                  & (tb >= theta_nodes[0]) & (tb <= theta_nodes[-1]))
        if not np.all(inside):  # NaN fails too
            i = int(np.argmin(inside))
            raise DomainError(f"(r, theta) = ({rb[i]:.6g}, {tb[i]:.6g}) outside the grid box "
                              f"[{r_nodes[0]:.6g}, {r_nodes[-1]:.6g}] x "
                              f"[{theta_nodes[0]:.6g}, {theta_nodes[-1]:.6g}]")
        (cr, dr), (ct, dt) = loc_r(rb), loc_t(tb)
        # every partial d^(i+j) / dr^i dtheta^j, i, j <= MAX_ORDER, then the jet's own
        full = dr @ window[cr, ct] @ dt.swapaxes(1, 2)
        return Jet2(full[:, _I, _J][:, :NCOEFFS[order]].T.reshape((-1,) + r.shape), order)

    return [ScalarField(partial(jet_fn, window), GRID_SAMPLED) for window in windows]


def from_grid(r_nodes, theta_nodes, values):
    """Grid-sampled field; ``values[i, j]`` at ``(r_nodes[i], theta_nodes[j])`` (see from_grids)."""
    return from_grids(r_nodes, theta_nodes, [values])[0]

