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
terms t0, t1, ... of each output coefficient in place, whole slices of a
term-major layout at a time, in ``np.add.reduceat``'s order, so its bits are
reduceat's: t0 + (((t1 + t2) + t3) + ...).  A complex product sums its real
and imaginary parts each in that order.

A jet of order n carries exactly ``NCOEFFS[n]`` coefficient rows and computes
only those: an elementary function of f is a Taylor series in the value-free
fluctuation u of f, and an order-n jet builds the powers of u up to u^n only
(higher ones vanish).  Adding a number, or an array of the jet's batch shape,
shifts the value row only; no constant jet is built for it.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, prod

import numpy as np
from numpy._core.multiarray import c_einsum  # np.einsum(optimize=False), undispatched

from .errors import JetOrderError

MAX_ORDER = 3

#: multi-indices (i, j) meaning d^{i+j} f / dr^i dtheta^j, total order <= 3
INDEX = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)]
_POS = {ij: k for k, ij in enumerate(INDEX)}


#: coefficients a jet of order n carries: 1, 3, 6, 10
NCOEFFS = [(n + 1) * (n + 2) // 2 for n in range(MAX_ORDER + 1)]


def _leibniz_terms(order):
    """Gather indices, weights and summation steps of the order-n product rule
    (fg)^(i,j) = sum C(i,a) C(j,b) f^(a,b) g^(i-a, j-b).  Block k of the terms holds term k of
    each coefficient that has one; stable-sorted by their number of terms, those come last."""
    groups = [[(_POS[(a, b)], _POS[(i - a, j - b)], float(comb(i, a) * comb(j, b)))
               for a in range(i + 1) for b in range(j + 1)] for i, j in INDEX[:NCOEFFS[order]]]
    rank = sorted(range(len(groups)), key=lambda n: len(groups[n]))
    terms, blocks = [], []  # block k: its first row in terms and its number of rows
    for k in range(len(groups[rank[-1]])):
        have = [groups[n][k] for n in rank if len(groups[n]) > k]
        blocks.append((len(terms), len(have)))
        terms += have
    steps = []
    if order > 0:  # blocks 2, 3, ... add into the end of block 1, then block 1 into block 0
        acc, n_acc = blocks[1]
        steps = [(slice(acc + n_acc - n, acc + n_acc), slice(row, row + n))
                 for row, n in blocks[2:]] + [(slice(acc - n_acc, acc), slice(acc, acc + n_acc))]
    left, right, weight = (np.array(col) for col in zip(*terms))
    back = np.argsort(rank) if order > 1 else None  # block 0 in INDEX order; at order <= 1 it is
    return left, right, weight, weight if np.any(weight != 1) else None, steps, back


_TERMS = [_leibniz_terms(n) for n in range(MAX_ORDER + 1)]


@lru_cache(maxsize=None)
def _einsum_spec(subscripts):
    """Einsums without and with weights, and where batch axes start if a tensor index is summed."""
    inputs, out = subscripts.split("->")
    left, right = inputs.split(",")
    plain = f"Z{left}...,Z{right}...->Z{out}..."
    summed = set(out) < set(left + right)
    return plain, "Z," + plain, (1 + len(left), 1 + len(right)) if summed else None


_SCALAR = _einsum_spec(",->")


def _shared_rows(a, b):
    """The coefficient rows of two jets up to their common order, and that order."""
    order = min(a.order, b.order)
    return a.coeffs[:NCOEFFS[order]], b.coeffs[:NCOEFFS[order]], order


def _product(spec, a, b):
    order = min(a.order, b.order)
    left, right, weight, scale, steps, back = _TERMS[order]
    plain, weighted, batch = spec
    x, y = a.coeffs.take(left, 0), b.coeffs.take(right, 0)
    if batch and prod(x.shape[batch[0]:]) * prod(y.shape[batch[1]:]) < 2:
        # at one point numpy would sum a tensor index as a SIMD dot, in another order
        terms = c_einsum(weighted, weight, x, y)
    else:
        if scale is not None:  # w * x exactly as the weighted einsum forms it
            np.multiply(x.T, scale, out=x.T)
        terms = c_einsum(plain, x, y)
    del x, y  # freed before the output is allocated
    for into, rows in steps:
        acc = terms[into]
        acc += terms[rows]
    return Jet2(terms[:NCOEFFS[order]] if back is None else terms.take(back, 0), order)


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

    ``coeffs[k]`` holds the derivative for multi-index ``INDEX[k]``, one row for
    each k below ``NCOEFFS[order]``.  The tensor axes, if any, follow the
    coefficient axis.
    """

    __slots__ = ("coeffs", "order")
    # an ndarray on the left defers to the jet's reflected operators
    __array_ufunc__ = None

    def __init__(self, coeffs, order=MAX_ORDER):
        if type(coeffs) is np.ndarray:  # the kernels' own arrays and int orders
            self.coeffs, self.order = coeffs, order
        else:
            self.coeffs, self.order = np.asarray(coeffs), int(order)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value, order=MAX_ORDER, batch_like=None):
        value = np.asarray(value)
        shape = value.shape if batch_like is None else np.shape(batch_like)
        c = np.zeros((NCOEFFS[order],) + shape,
                     dtype=value.dtype if value.dtype.kind in "fc" else float)
        c[0] = value
        return Jet2(c, order)

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

    def truncated(self, order):
        """The same jet carried to a lower order: its first ``NCOEFFS[order]`` rows."""
        return Jet2(self.coeffs[:NCOEFFS[order]], order)

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
        return Jet2(self.coeffs.take(_SHIFT[slot][:NCOEFFS[order]], 0), order)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Jet2):
            # a number or a batch-shaped array shifts the value row
            c = self.coeffs.astype(np.result_type(self.coeffs, other))
            c[0] += other
            return Jet2(c, self.order)
        a, b, order = _shared_rows(self, other)
        return Jet2(a + b, order)

    __radd__ = __add__

    def __neg__(self):
        return Jet2(-self.coeffs, self.order)

    def __sub__(self, other):
        if not isinstance(other, Jet2):
            return self + (-other)
        a, b, order = _shared_rows(self, other)
        return Jet2(a - b, order)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, Jet2):
            return Jet2(self.coeffs * other, self.order)
        return _product(_SCALAR, self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet2):
            return Jet2(self.coeffs / np.asarray(other), self.order)
        return self * reciprocal(other)

    def __rtruediv__(self, other):
        return reciprocal(self) * other

    def conj(self):
        return Jet2(np.conj(self.coeffs), self.order)

    @property
    def imag(self):
        return Jet2(np.imag(self.coeffs), self.order)

    def __repr__(self):
        return f"Jet2(order={self.order}, value={self.value!r})"


def variables(r, theta, order=MAX_ORDER):
    """Coordinate jets (r, theta); accepts scalars or equally-shaped arrays."""
    c = np.zeros((2, NCOEFFS[order]) + getattr(r, "shape", ()))  # np.shape's dispatch is slower
    c[0, 0], c[1, 0] = r, theta
    if order:  # rows 1 and 2 hold d/dr and d/dtheta
        c[0, 1] = c[1, 2] = 1.0
    return Jet2(c[0], order), Jet2(c[1], order)


def _series(f, terms):
    """sum_m terms[m] u^m of u = f - f0, over the powers m <= f.order only.

    The terms are the Taylor coefficients F^(m)(f0)/m! of a function F, and only the first
    f.order + 1 are read, so the callers form no others.  u has no value, so u^m has no
    derivative below order m: the higher powers vanish in an order-n jet.  The value row is
    set to terms[0] = F(f0) last, at every order, so an infinite term leaves F(f0) there, not
    u's zero value row times inf (NaN).  reciprocal, sqrt and log expand in f/f0 (derivative
    coefficients O(f'/f)), which keeps them finite for huge |f0|, where the raw coefficients
    1/f0^k underflow while the jet products overflow.
    """
    u = f.coeffs.copy()
    u[0] = 0.0
    out = Jet2(u * terms[1], f.order)
    if f.order > 1:
        u = power = Jet2(u, f.order)
        for term in terms[2:f.order + 1]:
            power = power * u
            out = out + power * term
    out.coeffs[0] = terms[0]
    return out


def reciprocal(f):
    return _series(f * (1.0 / f.value), [1.0, -1.0, 1.0, -1.0]) * (1.0 / f.value)


def sqrt(f):
    return _series(f * (1.0 / f.value), [1.0, 0.5, -0.125, 0.0625]) * np.sqrt(f.value)


def log(f):
    return _series(f * (1.0 / f.value), [np.log(f.value), 1.0, -0.5, 1.0 / 3.0])


def exp(f):
    v = np.exp(f.value)
    return _series(f, [v, v] if f.order < 2 else [v, v, v / 2.0, v / 6.0])


def sin(f):
    s, c = np.sin(v := f.value), np.cos(v)
    return _series(f, [s, c] if f.order < 2 else [s, c, -s / 2.0, -c / 6.0])


def cos(f):
    s, c = np.sin(v := f.value), np.cos(v)
    return _series(f, [c, -s] if f.order < 2 else [c, -s, -c / 2.0, s / 6.0])


def tan(f):
    t = np.tan(f.value)
    s2 = 1.0 + t * t  # sec^2
    return _series(f, [t, s2] if f.order < 2 else [t, s2, t * s2, s2 * (4 * t * t + 2 * s2) / 6.0])


def cosh(f):
    s, c = np.sinh(v := f.value), np.cosh(v)
    return _series(f, [c, s] if f.order < 2 else [c, s, c / 2.0, s / 6.0])
