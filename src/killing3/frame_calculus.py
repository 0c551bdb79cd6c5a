"""Shared jet pipeline: metric, connection, curvature and frame data at points.

Everything is computed through exact jet arithmetic from the (phi, h, k)
fields, so all derived quantities (Christoffel symbols, Riemann/Ricci
curvature, spin coefficients, twist, Cotton-York entries) carry correct
partial derivatives to the available order.  Coordinates are ordered
(t, r, theta); all scalars are t-independent by construction.

The frame used throughout is the canonical one:
T = dt, X = h dt + (1/phi) dtheta, Y = k dt + dr, with the complex leg
m = (X - iY)/sqrt(2).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DomainError, JetOrderError
from .jets import Jet2
from .metric_family import PHI_CUTOFF
from .tensor_core import LORENTZIAN

_SQRT2 = np.sqrt(2.0)


class Geometry:
    """All frame/curvature data of a metric spec at one point or a batch."""

    def __init__(self, spec, r, theta, order=None):
        self.spec = spec
        self.r = np.asarray(r, dtype=float)
        self.theta = np.asarray(theta, dtype=float)
        avail = min(spec.phi.max_order, spec.h.max_order, spec.k.max_order)
        self.order = avail if order is None else min(order, avail)
        self.phi = spec.phi.jet(self.r, self.theta, self.order)
        self.h = spec.h.jet(self.r, self.theta, self.order)
        self.k = spec.k.jet(self.r, self.theta, self.order)
        if np.any(self.phi.value <= PHI_CUTOFF):
            raise DomainError("phi at or below degeneracy cutoff")

    def point_at(self, i):
        """The (r, theta) point at flat index i of the batch."""
        r, theta = np.broadcast_arrays(self.r, self.theta)
        return float(r.flat[i]), float(theta.flat[i])

    # -- jet helpers --------------------------------------------------------

    def zero(self, order=None):
        return Jet2.constant(0.0, self.order if order is None else order,
                             batch_like=self.r)

    def one(self, order=None):
        return Jet2.constant(1.0, self.order if order is None else order,
                             batch_like=self.r)

    def d(self, a, f):
        """Coordinate partial of a scalar jet; a in (0=t, 1=r, 2=theta)."""
        if a == 0:
            return self.zero(f.order - 1)
        return f.deriv("r" if a == 1 else "theta")

    def dirderiv(self, u, f):
        """Directional derivative U(f) for a vector of component jets."""
        out = u[1] * self.d(1, f)
        out = out + u[2] * self.d(2, f)
        # u[0] multiplies d/dt f = 0 for t-independent scalars
        return out

    def bracket(self, u, v):
        return [
            self.dirderiv(u, v[c]) - self.dirderiv(v, u[c])
            for c in range(3)
        ]

    def ip(self, u, v):
        """Metric pairing g(U, V); bilinear (not hermitian) on complex jets."""
        g = self.g
        out = None
        for a in range(3):
            for b in range(3):
                term = g[a][b] * u[a] * v[b]
                out = term if out is None else out + term
        return out

    def cov(self, u, v):
        """Covariant derivative (nabla_U V)^c as component jets."""
        gam = self.gamma
        out = []
        for c in range(3):
            acc = self.dirderiv(u, v[c])
            for a in range(3):
                for b in range(3):
                    acc = acc + u[a] * gam[c][a][b] * v[b]
            out.append(acc)
        return out

    # -- metric and connection ---------------------------------------------

    @cached_property
    def g(self):
        phi, h, k = self.phi, self.h, self.k
        ph = phi * h
        one = self.one()
        g = [
            [one, -k, -ph],
            [-k, one + k * k, ph * k],
            [-ph, ph * k, phi * phi * (one + h * h)],
        ]
        if self.spec.signature == LORENTZIAN:
            tb = [one, -k, -ph]
            g = [[g[a][b] - 2.0 * tb[a] * tb[b] for b in range(3)] for a in range(3)]
        return g

    @cached_property
    def ginv(self):
        g = self.g
        cof = [[None] * 3 for _ in range(3)]
        for a in range(3):
            for b in range(3):
                i1, i2 = [x for x in range(3) if x != a]
                j1, j2 = [x for x in range(3) if x != b]
                minor = g[i1][j1] * g[i2][j2] - g[i1][j2] * g[i2][j1]
                cof[a][b] = minor if (a + b) % 2 == 0 else -minor
        det = g[0][0] * cof[0][0] + g[0][1] * cof[0][1] + g[0][2] * cof[0][2]
        inv_det = 1.0 / det
        # adjugate is the transpose of the cofactor matrix
        return [[cof[b][a] * inv_det for b in range(3)] for a in range(3)]

    @cached_property
    def gamma(self):
        """Christoffel symbols gamma[c][a][b] = Gamma^c_{ab}."""
        g, ginv = self.g, self.ginv
        dg = [[[self.d(a, g[b][c]) for c in range(3)] for b in range(3)] for a in range(3)]
        gam = [[[None] * 3 for _ in range(3)] for _ in range(3)]
        for c in range(3):
            for a in range(3):
                for b in range(3):
                    acc = None
                    for d_ in range(3):
                        term = ginv[c][d_] * (dg[a][d_][b] + dg[b][d_][a] - dg[d_][a][b])
                        acc = term if acc is None else acc + term
                    gam[c][a][b] = acc * 0.5
        return gam

    # -- curvature ----------------------------------------------------------

    @cached_property
    def riem_ud(self):
        """R^d_{c a b}: R(e_a, e_b) e_c = R^d_{cab} e_d, stored [d][c][a][b]."""
        gam = self.gamma
        dgam = [[[[self.d(a, gam[d][b][c]) for c in range(3)] for b in range(3)]
                 for a in range(3)] for d in range(3)]
        out = [[[[None] * 3 for _ in range(3)] for _ in range(3)] for _ in range(3)]
        for d_ in range(3):
            for c in range(3):
                for a in range(3):
                    for b in range(3):
                        acc = dgam[d_][a][b][c] - dgam[d_][b][a][c]
                        for e in range(3):
                            acc = acc + gam[d_][a][e] * gam[e][b][c]
                            acc = acc - gam[d_][b][e] * gam[e][a][c]
                        out[d_][c][a][b] = acc
        return out

    @cached_property
    def riem_low(self):
        """Fully covariant R(e_a, e_b, e_c, e_w), stored [a][b][c][w]."""
        up, g = self.riem_ud, self.g
        out = [[[[None] * 3 for _ in range(3)] for _ in range(3)] for _ in range(3)]
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    for w in range(3):
                        acc = None
                        for d_ in range(3):
                            term = g[d_][w] * up[d_][c][a][b]
                            acc = term if acc is None else acc + term
                        out[a][b][c][w] = acc
        return out

    @cached_property
    def ric(self):
        """Ricci tensor ric[b][c] = Ric(e_b, e_c) in coordinates."""
        up = self.riem_ud
        out = [[None] * 3 for _ in range(3)]
        for b in range(3):
            for c in range(3):
                acc = None
                for a in range(3):
                    term = up[a][c][a][b]
                    acc = term if acc is None else acc + term
                out[b][c] = acc
        return out

    @cached_property
    def scalar(self):
        ric, ginv = self.ric, self.ginv
        acc = None
        for b in range(3):
            for c in range(3):
                term = ginv[b][c] * ric[b][c]
                acc = term if acc is None else acc + term
        return acc

    def ric_form(self, u, v):
        ric = self.ric
        acc = None
        for a in range(3):
            for b in range(3):
                term = ric[a][b] * u[a] * v[b]
                acc = term if acc is None else acc + term
        return acc

    # -- canonical frame -----------------------------------------------------

    @cached_property
    def frame(self):
        zero, one = self.zero(), self.one()
        t = [one, zero, zero]
        x = [self.h + zero, zero, 1.0 / self.phi]
        y = [self.k + zero, one, zero]
        return t, x, y

    @cached_property
    def m_leg(self):
        _, x, y = self.frame
        m = [(x[c] + (-1j) * y[c]) * (1.0 / _SQRT2) for c in range(3)]
        mbar = [(x[c] + 1j * y[c]) * (1.0 / _SQRT2) for c in range(3)]
        return m, mbar

    # -- kinematics of the frame field T -------------------------------------

    @cached_property
    def cov_T(self):
        t, _, _ = self.frame
        return {
            "T": self.cov(t, t),
            "X": self.cov(self.frame[1], t),
            "Y": self.cov(self.frame[2], t),
        }

    @cached_property
    def div_T(self):
        _, x, y = self.frame
        return self.ip(self.cov_T["X"], x) + self.ip(self.cov_T["Y"], y)

    @cached_property
    def omega(self):
        """Signed twist g(T, [X, Y])."""
        t, x, y = self.frame
        return self.ip(t, self.bracket(x, y))

    @cached_property
    def shear(self):
        """Complex shear sigma1 + i sigma2 of T for the canonical frame."""
        _, x, y = self.frame
        dxTx = self.ip(self.cov_T["X"], x)
        dyTy = self.ip(self.cov_T["Y"], y)
        dxTy = self.ip(self.cov_T["X"], y)
        dyTx = self.ip(self.cov_T["Y"], x)
        return (dyTy - dxTx) * 0.5 + 0.5j * (dyTx + dxTy)

    @cached_property
    def div_Y(self):
        t, x, y = self.frame
        eps_t = -1.0 if self.spec.signature == LORENTZIAN else 1.0
        return (eps_t * self.ip(self.cov(t, y), t)
                + self.ip(self.cov(x, y), x) + self.ip(self.cov(y, y), y))

    # -- spin coefficients ----------------------------------------------------

    @cached_property
    def spin(self):
        """kappa, rho, sigma, epsilon, beta of the frame {T, m, mbar} (jets)."""
        if self.spec.signature == LORENTZIAN:
            raise DomainError("spin coefficients are defined for the Riemannian case")
        return self.spin_of(self.frame[0], *self.m_leg)

    def spin_of(self, t, m, mbar):
        """kappa, rho, sigma, epsilon, beta of a frame {t, m, mbar} (jets)."""
        kappa = -self.ip(self.cov(t, t), m)
        rho = -self.ip(self.cov(mbar, t), m)
        sigma = -self.ip(self.cov(m, t), m)
        eps = self.ip(self.cov(t, m), mbar)
        beta = self.ip(self.cov(m, m), mbar)
        return kappa, rho, sigma, eps, beta

    # -- Ricci in the frame ---------------------------------------------------

    @cached_property
    def ric_frame(self):
        """Ricci bilinear on the frame; the m-leg entries follow by bilinearity."""
        t, x, y = self.frame
        tx, ty = self.ric_form(t, x), self.ric_form(t, y)
        xx, yy, xy = self.ric_form(x, x), self.ric_form(y, y), self.ric_form(x, y)
        # m = (X - iY)/sqrt(2)
        return {
            "TT": self.ric_form(t, t), "TX": tx, "TY": ty,
            "XX": xx, "YY": yy, "XY": xy,
            "Tm": (tx + (-1j) * ty) * (1.0 / _SQRT2),
            "Tmbar": (tx + 1j * ty) * (1.0 / _SQRT2),
            "mm": (xx - yy + (-2j) * xy) * 0.5,
            "mbarmbar": (xx - yy + 2j * xy) * 0.5,
            "mmbar": (xx + yy) * 0.5,
        }

    # -- derived scalars for the Cotton-York block ----------------------------

    @cached_property
    def omega_derivs(self):
        t, x, y = self.frame
        w = self.omega
        if w.order < 2:
            raise JetOrderError("Cotton-York needs twist jets to order 2")
        xw = self.dirderiv(x, w)
        yw = self.dirderiv(y, w)
        return {
            "X": xw, "Y": yw,
            "XX": self.dirderiv(x, xw).value,
            "YY": self.dirderiv(y, yw).value,
            "YX": self.dirderiv(y, xw).value,
            "XY": self.dirderiv(x, yw).value,
        }

    @cached_property
    def cotton_york_matrix(self):
        """CY values against {T, X, Y}; shape (3, 3) + batch."""
        t, x, y = self.frame
        s = self.scalar
        if s.order < 1:
            raise JetOrderError("Cotton-York needs scalar-curvature jets to order 1")
        w = self.omega.value
        od = self.omega_derivs
        xw, yw = od["X"].value, od["Y"].value
        xs = self.dirderiv(x, s).value
        ys = self.dirderiv(y, s).value
        dy = self.div_Y.value
        sv = s.value
        w3 = w**3
        c1 = [
            -0.75 * w3 + 0.5 * sv * w + 0.5 * dy * yw + 0.5 * (od["XX"] + od["YY"]),
            -0.25 * ys + 1.25 * w * yw,
            0.25 * xs - 1.25 * w * xw,
        ]
        c2 = [
            1.25 * w * yw - 0.25 * ys,
            0.375 * w3 - 0.25 * sv * w - 0.5 * od["YY"],
            0.5 * od["YX"],
        ]
        c3 = [
            0.25 * xs - 1.25 * w * xw,
            # written via the X(Y(omega)) route so the c23 = c32 symmetry is an
            # emergent numerical check, not a transcription tautology
            0.5 * (od["XY"] - xw * dy),
            0.375 * w3 - 0.25 * sv * w - 0.5 * yw * dy - 0.5 * od["XX"],
        ]
        return np.array([c1, c2, c3]).transpose(
            (1, 0) + tuple(range(2, 2 + np.ndim(w)))
        )
