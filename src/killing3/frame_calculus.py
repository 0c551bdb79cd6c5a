"""Shared jet pipeline: metric, connection, curvature and frame data at points.

Everything is computed through exact jet arithmetic from the (phi, h, k)
fields, so all derived quantities (Christoffel symbols, Ricci curvature,
spin coefficients, twist, Cotton-York entries) carry correct partial
derivatives to the available order.  Each tensor is one tensor-valued jet,
and each step from metric to Christoffels to Ricci to S is one or two
``contract`` products.  Coordinates are ordered (t, r, theta); all scalars
are t-independent by construction.

One coframe E = [[1, -k, -phi h], [0, 1, 0], [0, 0, phi]] and its inverse F,
built once per Geometry, give g = E^T eta E, g^-1 = F eta F^T and the frame;
eta = diag(+-1, 1, 1), and the Lorentzian partner flips only its first sign.
The frame is the one dual to E, T = d_t, X = h d_t + (1/phi) d_theta and
Y = k d_t + d_r (columns 0, 2, 1 of F), with the complex leg
m = (X - iY)/sqrt(2).  The frame connection C_ijk = g(nabla_{e_i} e_j, e_k)
gives the divergences, the shear and the spin coefficients as index reads;
the twist stays on the Lie bracket, independent of the Christoffel symbols.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DomainError, JetOrderError
from .jets import MAX_ORDER, NCOEFFS, Jet2, contract, reciprocal, stack
from .metric_family import PHI_CUTOFF
from .tensor_core import LORENTZIAN

_SQRT2 = np.sqrt(2.0)


class Geometry:
    """All frame/curvature data of a metric spec at one point or a batch.

    Tensors are tensor-valued jets indexed in coordinates (t, r, theta): ``g``
    and ``ginv`` are [a][b], ``gamma`` is [c][a][b] = Gamma^c_{ab}, ``ric`` is
    [b][c]; frame legs are rank-1 jets.
    """

    def __init__(self, spec, r, theta, order=None):
        self.spec = spec
        # one batch shape for every jet, so that tensor jets stack without broadcasting
        self.r, self.theta = np.broadcast_arrays(np.asarray(r, dtype=float),
                                                 np.asarray(theta, dtype=float))
        self.order = MAX_ORDER if order is None else min(order, MAX_ORDER)
        self.phi = spec.phi.jet(self.r, self.theta, self.order)
        self.h = spec.h.jet(self.r, self.theta, self.order)
        self.k = spec.k.jet(self.r, self.theta, self.order)
        if np.any(self.phi.value <= PHI_CUTOFF):
            raise DomainError("phi at or below degeneracy cutoff")
        self._eta = -1.0 if spec.signature == LORENTZIAN else 1.0

    def point_at(self, i):
        """The (r, theta) point at flat index i of the batch."""
        return float(self.r.flat[i]), float(self.theta.flat[i])

    # -- jet helpers --------------------------------------------------------

    def grad(self, f):
        """Coordinate partials of a jet of any rank, a new first axis (t, r, theta)."""
        fr = f.deriv("r")  # d/dt is zero: every field is t-independent
        return stack([Jet2(np.zeros_like(fr.coeffs), fr.order), fr, f.deriv("theta")])

    def dirderiv(self, u, f):
        """Directional derivative U(f) of a jet of any rank; u is a rank-1 jet."""
        idx = "bcde"[:f.coeffs.ndim - self.phi.coeffs.ndim]
        return contract(f"a,a{idx}->{idx}", u, self.grad(f))

    def bracket(self, u, v):
        return self.dirderiv(u, v) - self.dirderiv(v, u)

    def ip(self, u, v):
        """Metric pairing g(U, V); bilinear (not hermitian) on complex jets."""
        return contract("a,a->", u, contract("ab,b->a", self.g, v))

    # -- metric and connection ---------------------------------------------

    def _eta_axis(self):
        """diag(eta) along one tensor axis, broadcast over the batch axes."""
        return np.array([self._eta, 1.0, 1.0]).reshape((3,) + (1,) * self.r.ndim)

    @cached_property
    def coframe(self):
        """Matrix jets E = [[1, -k, -phi h], [0, 1, 0], [0, 0, phi]] and
        F = E^-1 = [[1, k, h], [0, 1, 0], [0, 0, 1/phi]]."""
        e = np.zeros((NCOEFFS[self.order], 3, 3) + self.r.shape)
        f = np.zeros_like(e)
        e[0, 0, 0] = e[0, 1, 1] = f[0, 0, 0] = f[0, 1, 1] = 1.0
        e[:, 0, 1], e[:, 2, 2] = -self.k.coeffs, self.phi.coeffs
        e[:, 0, 2] = -(self.phi * self.h).coeffs
        f[:, 0, 1], f[:, 0, 2] = self.k.coeffs, self.h.coeffs
        f[:, 2, 2] = reciprocal(self.phi).coeffs
        return Jet2(e, self.order), Jet2(f, self.order)

    @cached_property
    def g(self):
        """g = E^T eta E."""
        e = self.coframe[0]
        return contract("ia,ib->ab", e * self._eta_axis()[:, np.newaxis], e)

    @cached_property
    def ginv(self):
        """g^-1 = F eta F^T."""
        f = self.coframe[1]
        return contract("ai,bi->ab", f * self._eta_axis(), f)

    @cached_property
    def gamma(self):
        """Christoffel symbols gamma[c][a][b] = Gamma^c_{ab}."""
        dg = self.grad(self.g)               # d_e g_ab at [e][a][b]
        t1 = dg.einsum("adb->dab")           # d_a g_db at [d][a][b]
        low = (t1 + t1.einsum("dba->dab") - dg) * 0.5
        return contract("cd,dab->cab", self.ginv, low)

    def nabla(self, v):
        """(nabla_a V)^c = d_a V^c + Gamma^c_ab V^b at [a][c], or [j][a][c] for vectors [j][c]."""
        j = "j"[:v.coeffs.ndim - self.phi.coeffs.ndim - 1]
        return self.grad(v).einsum(f"a{j}c->{j}ac") + contract(f"cab,{j}b->{j}ac", self.gamma, v)

    def connection_of(self, legs):
        """C[i][j][k] = g(nabla_{e_i} e_j, e_k) of three real or complex legs."""
        e = stack(legs)                                   # [i][a]: leg i
        nab = self.nabla(e)                               # [j][a][c]
        e = Jet2(e.coeffs[:NCOEFFS[nab.order]], nab.order)  # no higher order than C has
        dual = contract("ka,ab->kb", e, self.g)           # g(e_k, .)
        return contract("ia,jak->ijk", e, contract("jac,kc->jak", nab, dual))

    # -- curvature ----------------------------------------------------------

    @cached_property
    def riem_ud(self):
        """R^d_{c a b}: R(e_a, e_b) e_c = R^d_{cab} e_d, stored [d][c][a][b]."""
        gam = self.gamma
        # d_a Gamma^d_bc + Gamma^d_ae Gamma^e_bc, antisymmetrised in (a, b)
        half = self.grad(gam).einsum("adbc->dcab") + contract("dae,ebc->dcab", gam, gam)
        return half - half.einsum("dcab->dcba")

    @cached_property
    def riem_low(self):
        """Fully covariant R(e_a, e_b, e_c, e_w), stored [a][b][c][w]."""
        return contract("dw,dcab->abcw", self.g, self.riem_ud)

    @cached_property
    def ric(self):
        """Ricci tensor ric[b][c] = d_a G^a_bc - d_b G^a_ac + G^a_ae G^e_bc - G^a_be G^e_ac."""
        gam = self.gamma
        trace = gam.einsum("aac->c")         # Gamma^a_ac
        return (self.grad(gam).einsum("aabc->bc") - self.grad(trace)
                + contract("e,ebc->bc", trace, gam) - contract("abe,eac->bc", gam, gam))

    @cached_property
    def scalar(self):
        return contract("bc,bc->", self.ginv, self.ric)

    # -- canonical frame -----------------------------------------------------

    @cached_property
    def frame(self):
        """Rank-1 jets T = d_t, X = h d_t + d_theta / phi, Y = k d_t + d_r: columns 0, 2, 1 of F."""
        f = self.coframe[1]
        return f[:, 0], f[:, 2], f[:, 1]

    @cached_property
    def m_leg(self):
        _, x, y = self.frame
        return (x + (-1j) * y) * (1.0 / _SQRT2), (x + 1j * y) * (1.0 / _SQRT2)

    # -- the frame connection, and what it gives ------------------------------

    @cached_property
    def connection(self):
        """C[i][j][k] = g(nabla_{e_i} e_j, e_k) of the frame (T, X, Y)."""
        return self.connection_of(self.frame)

    @cached_property
    def div_T(self):
        c = self.connection
        return c[1, 0, 1] + c[2, 0, 2]

    @cached_property
    def omega(self):
        """Signed twist g(T, [X, Y])."""
        t, x, y = self.frame
        return self.ip(t, self.bracket(x, y))

    @cached_property
    def shear(self):
        """Complex shear sigma1 + i sigma2 of T for the canonical frame."""
        c = self.connection
        return (c[2, 0, 2] - c[1, 0, 1]) * 0.5 + 0.5j * (c[2, 0, 1] + c[1, 0, 2])

    @cached_property
    def div_Y(self):
        c = self.connection
        return self._eta * c[0, 2, 0] + c[1, 2, 1] + c[2, 2, 2]

    @cached_property
    def spin(self):
        """kappa, rho, sigma, epsilon, beta of the frame {T, m, mbar} (jets)."""
        if self.spec.signature == LORENTZIAN:
            raise DomainError("spin coefficients are defined for the Riemannian case")
        return self.spin_of(self.frame[0], *self.m_leg)

    def spin_of(self, t, m, mbar):
        """kappa, rho, sigma, epsilon, beta of a frame {t, m, mbar} (jets)."""
        c = self.connection_of((t, m, mbar))
        return -c[0, 0, 1], -c[2, 0, 1], -c[1, 0, 1], c[0, 1, 2], c[1, 1, 2]

    # -- Ricci in the frame ---------------------------------------------------

    @cached_property
    def ric_frame(self):
        """Ricci bilinear on the frame; the m-leg entries follow by bilinearity."""
        legs = stack(self.frame)  # [i][a]: leg i of T, X, Y
        rf = contract("ib,jb->ij", contract("ia,ab->ib", legs, self.ric), legs)
        tx, ty, xx, yy, xy = rf[0, 1], rf[0, 2], rf[1, 1], rf[2, 2], rf[1, 2]
        # m = (X - iY)/sqrt(2)
        return {"TT": rf[0, 0], "TX": tx, "TY": ty, "XX": xx, "YY": yy, "XY": xy,
                "Tm": (tx + (-1j) * ty) * (1.0 / _SQRT2),
                "Tmbar": (tx + 1j * ty) * (1.0 / _SQRT2),
                "mm": (xx - yy + (-2j) * xy) * 0.5,
                "mbarmbar": (xx - yy + 2j * xy) * 0.5,
                "mmbar": (xx + yy) * 0.5}

    # -- derived scalars for the Cotton-York block ----------------------------

    @cached_property
    def omega_xy(self):
        """Jets of X(omega) and Y(omega)."""
        _, x, y = self.frame
        return self.dirderiv(x, self.omega), self.dirderiv(y, self.omega)

    @cached_property
    def omega_derivs(self):
        _, x, y = self.frame
        if self.omega.order < 2:
            raise JetOrderError("Cotton-York needs twist jets to order 2")
        xw, yw = self.omega_xy
        return {"X": xw, "Y": yw,
                "XX": self.dirderiv(x, xw).value, "YY": self.dirderiv(y, yw).value,
                "YX": self.dirderiv(y, xw).value, "XY": self.dirderiv(x, yw).value}

    @cached_property
    def cotton_york_matrix(self):
        """CY values against {T, X, Y}; shape (3, 3) + batch."""
        _, x, y = self.frame
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
        return np.swapaxes(np.array([c1, c2, c3]), 0, 1)
