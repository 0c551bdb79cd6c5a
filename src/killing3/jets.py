"""Truncated bivariate jets: values plus partial derivatives in (r, theta).

A jet carries all partial derivatives up to total order 3 and supports exact
arithmetic (sums, products, quotients, elementary functions), so every
quantity assembled from analytic metric data -- Christoffel symbols, curvature,
spin coefficients, Cotton-York entries -- inherits machine-precision
derivatives without numerical differentiation.

The coefficient array is ``(coefficient, *tensor axes, *batch axes)``: a jet
may hold a tensor of any rank (Taylor arithmetic on tensor-valued
coefficients), over a batch of points evaluated at once, real or complex.
Every product of two jets, scalar or tensor, goes through one Leibniz kernel:
``contract`` gathers the nonzero terms of the product rule, truncated to the
result's order, makes one ``np.einsum`` over the tensor indices and sums the
terms of each output coefficient with ``np.add.reduceat``.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

from .errors import JetOrderError

MAX_ORDER = 3

#: multi-indices (i, j) meaning d^{i+j} f / dr^i dtheta^j, total order <= 3
INDEX = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]
K = len(INDEX)
_POS = {ij: k for k, ij in enumerate(INDEX)}


#: coefficients a jet of order n carries: 1, 3, 6, 10
NCOEFFS = [(n + 1) * (n + 2) // 2 for n in range(MAX_ORDER + 1)]


def _leibniz_terms(order):
    """Gather indices, weights and group starts of the order-n product rule.

    (fg)^(i,j) = sum C(i,a) C(j,b) f^(a,b) g^(i-a, j-b); the terms of each
    output coefficient are consecutive and start at ``starts``.
    """
    left, right, weight, starts = [], [], [], []
    for i, j in INDEX[:NCOEFFS[order]]:
        starts.append(len(left))
        for a in range(i + 1):
            for b in range(j + 1):
                left.append(_POS[(a, b)])
                right.append(_POS[(i - a, j - b)])
                weight.append(comb(i, a) * comb(j, b))
    return np.array(left), np.array(right), np.array(weight, dtype=float), np.array(starts)


_TERMS = [_leibniz_terms(n) for n in range(MAX_ORDER + 1)]


@lru_cache(maxsize=None)
def _einsum_spec(subscripts):
    # "Z" is the Leibniz term axis, "..." the batch axes
    inputs, out = subscripts.split("->")
    left, right = inputs.split(",")
    return f"Z,Z{left}...,Z{right}...->Z{out}..."


_SCALAR = _einsum_spec(",->")


def _product(spec, a, b):
    order = min(a.order, b.order)
    left, right, weight, starts = _TERMS[order]
    terms = np.einsum(spec, weight, a.coeffs[left], b.coeffs[right])
    return Jet2(np.add.reduceat(terms, starts, axis=0), order)


def contract(subscripts, a, b):
    """Product of two tensor-valued jets, contracted over their tensor indices.

    ``subscripts`` names the tensor axes only, as in ``np.einsum`` with
    lowercase letters, e.g. ``"ab,b->a"`` for a matrix times a vector; the
    coefficient and batch axes are implicit.  The result has the lower order.
    """
    return _product(_einsum_spec(subscripts), a, b)


def stack(parts):
    """Jet of one rank more from equally shaped jets; the new axis is the first tensor axis."""
    order = min(p.order for p in parts)
    return Jet2(np.concatenate([p.coeffs[:NCOEFFS[order], np.newaxis] for p in parts], axis=1),
                order)


# index shifts implementing d/dr and d/dtheta on the coefficients of order < 3
_SHIFT = {"r": np.array([_POS[(i + 1, j)] for i, j in INDEX[:NCOEFFS[MAX_ORDER - 1]]]),
          "theta": np.array([_POS[(i, j + 1)] for i, j in INDEX[:NCOEFFS[MAX_ORDER - 1]]])}


class Jet2:
    """Value and partial derivatives of a scalar or tensor over the (r, theta) plane.

    ``coeffs[k]`` holds the derivative for multi-index ``INDEX[k]``, for k below
    ``NCOEFFS[order]``; any further rows are not meaningful and are guarded by
    :meth:`d`.  The tensor axes, if any, follow the coefficient axis.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order=MAX_ORDER):
        self.coeffs = np.asarray(coeffs)
        self.order = int(order)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value, order=MAX_ORDER, batch_like=None):
        value = np.asarray(value)
        if batch_like is not None:
            value = np.broadcast_to(value, np.shape(batch_like)).copy()
        c = np.zeros((NCOEFFS[order],) + value.shape,
                     dtype=value.dtype if value.dtype.kind in "fc" else float)
        c[0] = value
        return Jet2(c, order)

    @staticmethod
    def variable(value, slot, order=MAX_ORDER):
        """Coordinate jet: slot 'r' or 'theta'."""
        j = Jet2.constant(np.asarray(value, dtype=float), order)
        if order > 0:
            j.coeffs[_POS[(1, 0)] if slot == "r" else _POS[(0, 1)]] = 1.0
        return j

    # -- accessors ----------------------------------------------------------

    def d(self, i, j):
        """Partial derivative d^{i+j}/dr^i dtheta^j; errors above the jet order."""
        if i + j > self.order:
            raise JetOrderError(f"derivative ({i},{j}) beyond jet order {self.order}")
        return self.coeffs[_POS[(i, j)]]

    @property
    def value(self):
        return self.coeffs[0]

    def __getitem__(self, index):
        """The jet of one tensor component or slice, e.g. ``g[0, 1]``."""
        return Jet2(self.coeffs[(slice(None),) + np.index_exp[index]], self.order)

    def einsum(self, subscripts):
        """A linear map of the tensor axes (transpose, trace), e.g. ``"aab->b"``."""
        inputs, out = subscripts.split("->")
        return Jet2(np.einsum(f"Z{inputs}...->Z{out}...", self.coeffs), self.order)

    # -- differentiation ----------------------------------------------------

    def deriv(self, slot):
        """The jet of df/dr or df/dtheta; one order lower."""
        if self.order < 1:
            raise JetOrderError("cannot differentiate an order-0 jet")
        order = self.order - 1
        return Jet2(self.coeffs[_SHIFT[slot][:NCOEFFS[order]]], order)

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Jet2):
            return other
        return Jet2.constant(np.asarray(other), MAX_ORDER)

    @staticmethod
    def _align(a, b):
        # pad trailing batch axes so (10,) constants broadcast against (10, ...)
        while a.ndim < b.ndim:
            a = a[(...,) + (np.newaxis,)]
        while b.ndim < a.ndim:
            b = b[(...,) + (np.newaxis,)]
        return a, b

    def __add__(self, other):
        other = self._coerce(other)
        order = min(self.order, other.order)
        n = NCOEFFS[order]
        a, b = self._align(self.coeffs[:n], other.coeffs[:n])
        return Jet2(a + b, order)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.coeffs, self.order)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Jet2):
            return Jet2(self.coeffs * np.asarray(other), self.order)
        return _product(_SCALAR, self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet2):
            return Jet2(self.coeffs / np.asarray(other), self.order)
        return self * reciprocal(other)

    def __rtruediv__(self, other):
        return self._coerce(other) * reciprocal(self)

    def conj(self):
        return Jet2(np.conj(self.coeffs), self.order)

    @property
    def real(self):
        return Jet2(np.real(self.coeffs), self.order)

    @property
    def imag(self):
        return Jet2(np.imag(self.coeffs), self.order)

    def __repr__(self):
        return f"Jet2(order={self.order}, value={self.value!r})"


def variables(r, theta, order=MAX_ORDER):
    """Coordinate jets (r, theta); accepts scalars or equally-shaped arrays."""
    return Jet2.variable(r, "r", order), Jet2.variable(theta, "theta", order)


def compose(f, derivs):
    """Univariate composition F(f) given [F(f0), F'(f0), F''(f0), F'''(f0)].

    Works because the fluctuation u = f - f(0,0) has no constant term, so the
    truncated Taylor polynomial of F reproduces all partials up to order 3.
    """
    u = Jet2(f.coeffs.copy(), f.order)
    u.coeffs[0] = np.zeros_like(u.coeffs[0])
    u2 = u * u
    out = Jet2.constant(derivs[0], f.order, batch_like=f.value) + u * derivs[1]
    out = out + u2 * (derivs[2] / 2.0)
    out = out + (u2 * u) * (derivs[3] / 6.0)
    out.order = f.order
    return out


def _fluctuation(f):
    # u = f / f0 - 1: value 0, derivative coefficients scaled to O(f'/f).
    # Keeps reciprocal/sqrt/log finite for huge |f0| where the raw Taylor
    # coefficients 1/f0^k underflow while the jet products overflow.
    u = f * (1.0 / f.value)
    u.coeffs[0] = np.zeros_like(u.coeffs[0])
    return u


def reciprocal(f):
    u = _fluctuation(f)
    u2 = u * u
    return (1.0 - u + u2 - u2 * u) * (1.0 / f.value)


def sqrt(f):
    u = _fluctuation(f)
    u2 = u * u
    return (1.0 + u * 0.5 - u2 * 0.125 + u2 * u * 0.0625) * np.sqrt(f.value)


def exp(f):
    v = np.exp(f.value)
    return compose(f, [v, v, v, v])


def log(f):
    u = _fluctuation(f)
    u2 = u * u
    # the jet on the left: an ndarray on the left would make an object array of jets
    return u - u2 * 0.5 + u2 * u * (1.0 / 3.0) + np.log(f.value)


def sin(f):
    s, c = np.sin(f.value), np.cos(f.value)
    return compose(f, [s, c, -s, -c])


def cos(f):
    s, c = np.sin(f.value), np.cos(f.value)
    return compose(f, [c, -s, -c, s])


def tan(f):
    t = np.tan(f.value)
    s2 = 1.0 + t * t  # sec^2
    return compose(f, [t, s2, 2 * t * s2, s2 * (4 * t * t + 2 * s2)])


def sinh(f):
    s, c = np.sinh(f.value), np.cosh(f.value)
    return compose(f, [s, c, s, c])


def cosh(f):
    s, c = np.sinh(f.value), np.cosh(f.value)
    return compose(f, [c, s, c, s])
