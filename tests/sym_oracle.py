"""Symbolic curvature oracle for the canonical metric, derived by sympy.

The metric is built in the paper's form

    g = eta (dt - k dr - phi h dtheta)^2 + dr^2 + phi^2 dtheta^2,

with eta = +1 (Riemannian) or -1 (the Lorentzian partner), for generic
profile functions phi, h, k of (r, theta).  Textbook coordinate formulas give
the Christoffel symbols, the Ricci tensor, S, Ric(T, T) = Ric_tt and the twist
omega = g(T, [X, Y]) of X = h d_t + phi^-1 d_theta, Y = k d_t + d_r.  No
library code is called and nothing is simplified; only the polynomial
adjugate and determinant of g are expanded.  Each derivation is lambdified
once to mpmath, with common-subexpression elimination, as a function of the
partials of (phi, h, k) up to order 3; a concrete triple supplies those
partials by sympy differentiation.

The Cotton-York norm is assembled from the lambdified values at 30 digits:

    C^i_j = eps^{ikl} nabla_k (Ric_jl - S g_jl / 4) / sqrt|det g|,
    |CY|^2 = C^i_j C^j_i.
"""

import mpmath
import numpy as np
import sympy as sp

t, r, theta = sp.symbols("t r theta", real=True)
COORDS = (t, r, theta)
#: multi-indices (i, j) of d^{i+j} / dr^i dtheta^j up to total order 3
ORDERS = [(i, n - i) for n in range(4) for i in range(n, -1, -1)]
R3 = range(3)


def _partials(f):
    return [sp.diff(f, r, i, theta, j) for i, j in ORDERS]


def _levi_civita(i, j, k):
    return (i - j) * (j - k) * (k - i) // 2


class Derivation:
    """Curvature of the canonical metric with g_tt sign ``eta``, lambdified.

    ``cotton_york`` adds the first partials of Ricci and S that the
    Cotton-York norm needs; they are the costly part of the derivation.
    """

    def __init__(self, eta, cotton_york=True):
        profile = [sp.Function(name)(r, theta) for name in ("phi", "h", "k")]
        phi, h, k = profile
        tb = [sp.Integer(1), -k, -phi * h]  # dt - k dr - phi h dtheta
        g = sp.Matrix(3, 3, lambda a, b: eta * tb[a] * tb[b])
        g[1, 1] += 1
        g[2, 2] += phi**2
        det = sp.expand(g.det(method="berkowitz"))
        ginv = g.adjugate(method="berkowitz").applyfunc(sp.expand) / det
        dg = [[[sp.diff(g[a, b], x) for b in R3] for a in R3] for x in COORDS]
        gam = [[[sum(ginv[c, d] * (dg[a][d][b] + dg[b][d][a] - dg[d][a][b]) for d in R3) / 2
                 for b in R3] for a in R3] for c in R3]
        ric = [[sum(sp.diff(gam[a][b][c], COORDS[a]) - sp.diff(gam[a][a][c], COORDS[b])
                    for a in R3)
                + sum(gam[a][a][e] * gam[e][b][c] - gam[a][b][e] * gam[e][a][c]
                      for a in R3 for e in R3)
                for c in R3] for b in R3]
        scalar = sum(ginv[b, c] * ric[b][c] for b in R3 for c in R3)
        xv, yv = [h, 0, 1 / phi], [k, 1, 0]
        bracket = [sum(xv[a] * sp.diff(yv[c], COORDS[a]) - yv[a] * sp.diff(xv[c], COORDS[a])
                       for a in R3) for c in R3]
        omega = sum(g[0, c] * bracket[c] for c in R3)
        exprs = {"g": g.tolist(), "det": det, "gamma": gam, "ric": ric,
                 "scalar": scalar, "omega": omega}
        if cotton_york:
            exprs["dric"] = [[[sp.diff(ric[j][l], x) for l in R3] for j in R3] for x in COORDS]
            exprs["dscalar"] = [sp.diff(scalar, x) for x in COORDS]
            exprs["dg"] = dg
        arrays = {name: np.array(e, dtype=object) for name, e in exprs.items()}
        self.shapes = {name: a.shape for name, a in arrays.items()}
        flat = [sp.sympify(x) for a in arrays.values() for x in a.ravel()]
        # the partials of (phi, h, k) become the arguments, in _partials order
        derivs = [d for f in profile for d in _partials(f)]
        symbols = [sp.Symbol(f"{name}_{i}{j}") for name in ("phi", "h", "k") for i, j in ORDERS]
        mapping = dict(zip(derivs, symbols))
        self._fn = sp.lambdify(symbols, [x.xreplace(mapping) for x in flat],
                               modules="mpmath", cse=True)
        self.cotton_york = cotton_york

    def at(self, triple, r_vals, theta_vals):
        """Oracle values of a sympy triple (phi, h, k) at points; float arrays.

        Tensor axes come first and the point axis last, as in the library.
        """
        jet = sp.lambdify((r, theta), [p for f in triple for p in _partials(sp.sympify(f))],
                          modules="mpmath")
        rows = []
        with mpmath.workdps(30):
            for rv, tv in zip(r_vals, theta_vals):
                partials = jet(mpmath.mpf(float(rv)), mpmath.mpf(float(tv)))
                flat = iter(self._fn(*partials))
                vals = {name: np.array([next(flat) for _ in range(int(np.prod(shape)))],
                                       dtype=object).reshape(shape)[()]
                        for name, shape in self.shapes.items()}
                phi, h, k = (partials[n * len(ORDERS)] for n in R3)
                frame = np.array([[1, 0, 0], [h, 0, 1 / phi], [k, 1, 0]], dtype=object)
                vals["ric_frame"] = frame.dot(vals["ric"]).dot(frame.T)
                vals["ric_tt"] = vals["ric"][0, 0]
                if self.cotton_york:
                    vals["cy_norm"] = _cotton_york_norm(vals)
                rows.append(vals)
        return {name: np.moveaxis(np.array([row[name] for row in rows], dtype=float), 0, -1)
                for name in rows[0]}


def _cotton_york_norm(v):
    g, gam, ric, s = v["g"], v["gamma"], v["ric"], v["scalar"]
    p = ric - s * g / 4
    nabla = np.empty((3, 3, 3), dtype=object)  # nabla[q, j, l] = nabla_q P_jl
    for q in R3:
        for j in R3:
            for l in R3:
                nabla[q, j, l] = (v["dric"][q, j, l]
                                  - (v["dscalar"][q] * g[j, l] + s * v["dg"][q, j, l]) / 4
                                  - sum(gam[m, q, j] * p[m, l] + gam[m, q, l] * p[j, m]
                                        for m in R3))
    root = mpmath.sqrt(abs(v["det"]))
    c = [[sum(_levi_civita(i, q, l) * nabla[q, j, l] for q in R3 for l in R3) / root
          for j in R3] for i in R3]
    return mpmath.sqrt(max(sum(c[i][j] * c[j][i] for i in R3 for j in R3), 0))
