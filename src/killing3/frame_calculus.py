"""Shared jet pipeline: metric, connection, curvature and frame data at points.

Everything is computed through exact jet arithmetic from the (phi, h, k)
fields, so all derived quantities carry exact partial derivatives, each stage
only to the order its deepest reader takes: in an order-n Geometry, g^-1 and
the Christoffel symbols carry n - 1, and the Ricci tensor, S, nabla and the
frame connection n - 2 (read as values, once differentiated in verify's Y(div Y));
a Geometry read for values of S and Ric only is built at order 2.  Each
tensor is one tensor-valued jet, and each step from metric to Christoffels to
Ricci to S is one or two ``contract`` products.  Coordinates are ordered
(t, r, theta); all scalars are t-independent by construction.

One coframe E = [[1, -k, -phi h], [0, 1, 0], [0, 0, phi]] and its inverse F, built once
per Geometry, give g = E^T eta E, g^-1 = F eta F^T and the frame; eta = diag(g_tt, 1, 1),
and ``partner``, the other signature's Geometry on the same E and F, flips its first sign.
The frame is the one dual to E, T = d_t, X = h d_t + (1/phi) d_theta and
Y = k d_t + d_r (columns 0, 2, 1 of F), with the complex leg
m = (X - iY)/sqrt(2).  The frame connection C_ijk = g(nabla_{e_i} e_j, e_k)
gives the divergences and the shear as index reads, and the spin coefficients
as fixed elementwise combinations of its entries, since T, m and mbar have
constant coefficients in (T, X, Y); the twist stays on the Lie bracket,
independent of the Christoffel symbols.  A changed frame is a ``derived`` Geometry
given one stage (the rotated frame ``frame``, the conformally rescaled metric
``coframe``), and every later stage follows from it.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import DomainError, JetOrderError
from .jets import MAX_ORDER, NCOEFFS, Jet2, contract, reciprocal, stack

RIEMANNIAN = "riemannian"
LORENTZIAN = "lorentzian"
#: the metric is degenerate where phi falls to this value
PHI_CUTOFF = 1e-8
_SQRT2 = np.sqrt(2.0)


def g_tt(signature):
    """g(T, T) of the unit Killing field T: -1 on the Lorentzian partner, where T is timelike."""
    return -1.0 if signature == LORENTZIAN else 1.0


class stage(cached_property):
    """cached_property without Python 3.11's lock on each first read; stores into __dict__."""
    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


class Geometry:
    """All frame/curvature data of a metric spec at one point or a batch.

    Tensors are tensor-valued jets indexed in coordinates (t, r, theta): ``g``
    and ``ginv`` are [a][b], ``gamma`` is [c][a][b] = Gamma^c_{ab}, ``ric`` is
    [b][c]; frame legs are rank-1 jets.  DomainError names the first point of
    the batch where phi <= PHI_CUTOFF, tested on construction, or where the metric
    entries overflow, tested by the ``coframe`` stage that first forms them, so that a
    geodesic right-hand side, which reads only the field jets, is not refused there.
    """

    def __init__(self, spec, r, theta, order=None):
        self.spec = spec
        # one batch shape for every jet, so that tensor jets stack without broadcasting
        self.r, self.theta = np.asarray(r, dtype=float), np.asarray(theta, dtype=float)
        if self.r.shape != self.theta.shape:
            self.r, self.theta = np.broadcast_arrays(self.r, self.theta)
        self.order = MAX_ORDER if order is None else min(order, MAX_ORDER)
        self.phi = spec.phi.jet(self.r, self.theta, self.order)
        self.h = spec.h.jet(self.r, self.theta, self.order)
        self.k = spec.k.jet(self.r, self.theta, self.order)
        # NaN passes this test and coframe's: a geodesic trial step can land where a
        # field is NaN, and the NaN acceleration makes the step controller shrink the
        # step, where a DomainError would end the integration
        self._refuse(self.phi.value <= PHI_CUTOFF, f"phi <= {PHI_CUTOFF}")
        self._eta = g_tt(spec.signature)

    def _refuse(self, bad, what):
        """DomainError naming the first point of the batch where ``bad`` holds, if any."""
        if np.count_nonzero(bad):
            r, theta = self.point_at(int(np.argmax(np.broadcast_to(bad, self.r.shape))))
            raise DomainError(f"{what} at (r, theta) = ({r:.6g}, {theta:.6g})")

    def riemannian_only(self, what):
        """DomainError on the Lorentzian partner, where ``what`` has no formula here."""
        if self.spec.signature == LORENTZIAN:
            raise DomainError(f"{what} defined for the Riemannian case")

    def point_at(self, i):
        """The (r, theta) point at flat index i of the batch."""
        return float(self.r.flat[i]), float(self.theta.flat[i])

    # -- jet helpers --------------------------------------------------------

    def grad(self, f):
        """Coordinate partials of a jet of any rank, a new first axis (t, r, theta)."""
        fr = f.deriv("r")  # d/dt is zero: every field is t-independent
        c = np.zeros(fr.coeffs.shape[:1] + (3,) + fr.coeffs.shape[1:], fr.coeffs.dtype)
        c[:, 1], c[:, 2] = fr.coeffs, f.deriv("theta").coeffs
        return Jet2(c, fr.order)

    def dirderiv(self, u, f):
        """Directional derivative U(f) of a jet of any rank; u is a rank-1 jet."""
        idx = "bcde"[:f.coeffs.ndim - self.phi.coeffs.ndim]
        return contract(f"a,a{idx}->{idx}", u, self.grad(f))

    def ip(self, u, v):
        """Metric pairing g(U, V); bilinear (not hermitian) on complex jets."""
        return contract("a,a->", u, contract("ab,b->a", self.g, v))

    # -- metric and connection ---------------------------------------------

    def _eta_scaled(self, x, axis):
        """Rank-2 jet x with tensor axis 0 or 1 scaled by diag(eta); x itself when eta = 1."""
        if self._eta == 1.0:
            return x
        return x * np.array([self._eta, 1.0, 1.0]).reshape((3,) + (1,) * (1 - axis + self.r.ndim))

    @stage
    def coframe(self):
        """Matrix jets E = [[1, -k, -phi h], [0, 1, 0], [0, 0, phi]] and
        F = E^-1 = [[1, k, h], [0, 1, 0], [0, 0, 1/phi]]; DomainError where the metric entries
        overflow, which g_rr = 1 + k^2 and g_thth = phi^2 (1 + h^2) bound."""
        phi, h, k = self.phi.value, self.h.value, self.k.value
        with np.errstate(over="ignore", invalid="ignore"):  # the sum is >= 1
            over = 1.0 + k * k + phi * phi * (1.0 + h * h) == np.inf
        self._refuse(over, "metric entries overflow")
        e, f = np.zeros((2, NCOEFFS[self.order], 3, 3) + self.r.shape)
        e[0, 0, 0] = e[0, 1, 1] = f[0, 0, 0] = f[0, 1, 1] = 1.0
        e[:, 0, 1], e[:, 2, 2] = -self.k.coeffs, self.phi.coeffs
        e[:, 0, 2] = -(self.phi * self.h).coeffs
        f[:, 0, 1], f[:, 0, 2] = self.k.coeffs, self.h.coeffs
        f[:, 2, 2] = reciprocal(self.phi).coeffs
        return Jet2(e, self.order), Jet2(f, self.order)

    @stage
    def g(self):
        """g = E^T eta E."""
        e = self.coframe[0]
        return contract("ia,ib->ab", self._eta_scaled(e, 0), e)

    @stage
    def ginv(self):
        """g^-1 = F eta F^T, one order below the Geometry's: no consumer contracts it higher."""
        f = self.coframe[1].truncated(max(self.order - 1, 0))
        return contract("ai,bi->ab", self._eta_scaled(f, 1), f)

    @stage
    def gamma(self):
        """Christoffel symbols gamma[c][a][b] = Gamma^c_{ab}."""
        dg = self.grad(self.g)                  # d_e g_ab at [e][a][b]
        t1 = dg.coeffs.swapaxes(1, 2)           # d_a g_db at [d][a][b]
        low = (t1 + t1.swapaxes(2, 3) - dg.coeffs) * 0.5
        return contract("cd,dab->cab", self.ginv, Jet2(low, dg.order))

    def nabla(self, v):
        """(nabla_a V)^c = d_a V^c + Gamma^c_ab V^b at [a][c], or [j][a][c] for vectors [j][c],
        at order max(n - 2, 0): its readers, C and killing_test, take no more."""
        j = "j"[:v.coeffs.ndim - self.phi.coeffs.ndim - 1]
        gam = self.gamma.truncated(max(self.order - 2, 0))
        return self.grad(v).einsum(f"a{j}c->{j}ac") + contract(f"cab,{j}b->{j}ac", gam, v)

    # -- curvature ----------------------------------------------------------

    @stage
    def ric(self):
        """Ricci tensor ric[b][c] = d_a G^a_bc - d_b G^a_ac + G^a_ae G^e_bc - G^a_be G^e_ac."""
        gam = self.gamma
        trace = gam.einsum("aac->c")         # Gamma^a_ac
        order = max(self.order - 2, 0)
        low, low_trace = gam.truncated(order), trace.truncated(order)
        return (self.grad(gam).einsum("aabc->bc") - self.grad(trace)
                + contract("e,ebc->bc", low_trace, low) - contract("abe,eac->bc", low, low))

    @stage
    def scalar(self):
        return contract("bc,bc->", self.ginv, self.ric)

    def derived(self, order, **stages):
        """A Geometry at these points to ``order`` (at most this one's): this one's fields and
        coframe, truncated, its spec and eta, then ``stages`` set, from which every later stage
        follows.  No field is evaluated and the domain is not checked again."""
        twin, order = Geometry.__new__(Geometry), min(order, self.order)
        vars(twin).update({f: getattr(self, f).truncated(order) for f in ("phi", "h", "k")},
                          coframe=tuple(m.truncated(order) for m in self.coframe),
                          spec=self.spec, _eta=self._eta, r=self.r, theta=self.theta, order=order)
        vars(twin).update(stages)
        return twin

    @stage
    def partner(self):
        """The other signature's Geometry at these points, to order min(n, 2) for values of S and
        Ric: this one derived with eta negated."""
        return self.derived(2, _eta=-self._eta, spec=self.spec.with_signature(
            LORENTZIAN if self._eta > 0 else RIEMANNIAN))

    # -- canonical frame -----------------------------------------------------

    @stage
    def frame(self):
        """Rank-1 jets T = d_t, X = h d_t + d_theta / phi, Y = k d_t + d_r: columns 0, 2, 1 of F."""
        f = self.coframe[1]
        return f[:, 0], f[:, 2], f[:, 1]

    @stage
    def m_leg(self):
        _, x, y = self.frame
        return (x + (-1j) * y) * (1.0 / _SQRT2), (x + 1j * y) * (1.0 / _SQRT2)

    # -- the frame connection, and what it gives ------------------------------

    @stage
    def connection(self):
        """C[i][j][k] = g(nabla_{e_i} e_j, e_k) of the frame (T, X, Y)."""
        e = stack(self.frame)                   # [i][a]: leg i
        nab = self.nabla(e)                     # [j][a][c]
        e = e.truncated(nab.order)              # no higher order than C has
        dual = contract("ka,ab->kb", e, self.g)  # g(e_k, .)
        return contract("ia,jak->ijk", e, contract("jac,kc->jak", nab, dual))

    @stage
    def div_T(self):
        c = self.connection
        return c[1, 0, 1] + c[2, 0, 2]

    @stage
    def omega(self):
        """Signed twist g(T, [X, Y])."""
        t, x, y = self.frame
        return self.ip(t, self.dirderiv(x, y) - self.dirderiv(y, x))

    @stage
    def shear(self):
        """Complex shear sigma1 + i sigma2 of T for the canonical frame."""
        c = self.connection
        return (c[2, 0, 2] - c[1, 0, 1]) * 0.5 + 0.5j * (c[2, 0, 1] + c[1, 0, 2])

    @stage
    def div_Y(self):
        c = self.connection
        return self._eta * c[0, 2, 0] + c[1, 2, 1] + c[2, 2, 2]

    @stage
    def spin(self):
        """kappa, rho, sigma, epsilon, beta of the frame {T, m, mbar} (jets), from C elementwise."""
        self.riemannian_only("spin coefficients are")
        c, s = self.connection, 1.0 / _SQRT2
        return ((c[0, 0, 2] * 1j - c[0, 0, 1]) * s,
                ((c[1, 0, 2] - c[2, 0, 1]) * 1j - c[1, 0, 1] - c[2, 0, 2]) * 0.5,
                ((c[1, 0, 2] + c[2, 0, 1]) * 1j + c[2, 0, 2] - c[1, 0, 1]) * 0.5,
                ((c[0, 1, 2] - c[0, 2, 1]) * 1j + c[0, 1, 1] + c[0, 2, 2]) * 0.5,
                ((c[1, 1, 2] - c[1, 2, 1] - c[2, 1, 1] - c[2, 2, 2]) * 1j
                 + c[1, 1, 1] + c[1, 2, 2] + c[2, 1, 2] - c[2, 2, 1]) * (0.5 * s))

    # -- Ricci in the frame ---------------------------------------------------

    @stage
    def ric_frame(self):
        """Ricci on the frame, the rank-2 jet ric_frame[i][j] = Ric(e_i, e_j) of (T, X, Y)."""
        legs = stack(self.frame)  # [i][a]: leg i of T, X, Y
        return contract("ib,jb->ij", contract("ia,ab->ib", legs, self.ric), legs)

    # -- derived scalars for the Cotton-York block ----------------------------

    @stage
    def omega_xy(self):
        """Jets of X(omega) and Y(omega)."""
        _, x, y = self.frame
        return self.dirderiv(x, self.omega), self.dirderiv(y, self.omega)

    @stage
    def cotton_york_matrix(self):
        """CY values against {T, X, Y}; shape (3, 3) + batch."""
        self.riemannian_only("the Cotton-York matrix is")
        _, x, y = self.frame
        s = self.scalar
        if s.order < 1:  # S has order n - 2 and the twist n - 1: both need n >= 3
            raise JetOrderError("Cotton-York needs scalar-curvature jets to order 1")
        w = self.omega.value
        xw_jet, yw_jet = self.omega_xy
        xw, yw = xw_jet.value, yw_jet.value
        xxw, yyw = self.dirderiv(x, xw_jet).value, self.dirderiv(y, yw_jet).value
        yxw, xyw = self.dirderiv(y, xw_jet).value, self.dirderiv(x, yw_jet).value
        xs = self.dirderiv(x, s).value
        ys = self.dirderiv(y, s).value
        dy = self.div_Y.value
        sv = s.value
        w3 = w * w * w
        c1 = [
            -0.75 * w3 + 0.5 * sv * w + 0.5 * dy * yw + 0.5 * (xxw + yyw),
            -0.25 * ys + 1.25 * w * yw,
            0.25 * xs - 1.25 * w * xw,
        ]
        c2 = [
            1.25 * w * yw - 0.25 * ys,
            0.375 * w3 - 0.25 * sv * w - 0.5 * yyw,
            0.5 * yxw,
        ]
        c3 = [
            0.25 * xs - 1.25 * w * xw,
            # written via the X(Y(omega)) route so the c23 = c32 symmetry is an
            # emergent numerical check, not a transcription tautology
            0.5 * (xyw - xw * dy),
            0.375 * w3 - 0.25 * sv * w - 0.5 * yw * dy - 0.5 * xxw,
        ]
        return np.swapaxes(np.array([c1, c2, c3]), 0, 1)
