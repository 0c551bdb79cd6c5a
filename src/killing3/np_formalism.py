"""Newman-Penrose-style frame calculus adapted to Riemannian 3-manifolds.

Spin coefficients of the frame {T, m, mbar} with m = (X - iY)/sqrt(2),
the kinematic decomposition of the unit field T, the structure-equation
residual stack, the frame-rotation transformation laws, and the behaviour
of twist and shear under conformal rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import jets
from .errors import EmptyGrid, NotUnitLength
from .frame_calculus import g_tt

_RSQRT2 = 1.0 / np.sqrt(2.0)
UNIT_TOL = 1e-9


@dataclass(frozen=True)
class SpinCoefficients:
    kappa: np.ndarray
    rho: np.ndarray
    sigma: np.ndarray
    epsilon: np.ndarray
    beta: np.ndarray

    @property
    def twist(self):
        """omega recovered from rho = -div(T)/2 - i omega/2."""
        return -2.0 * self.rho.imag

    @property
    def divergence(self):
        return -2.0 * self.rho.real


@dataclass(frozen=True)
class KinematicData:
    divergence: np.ndarray
    shear: np.ndarray       # sigma1 + i sigma2
    twist: np.ndarray
    d_matrix: np.ndarray    # endomorphism v -> nabla_v T on span{X, Y}: D[i][j] = <nabla_{e_j} T, e_i>


@dataclass(frozen=True)
class StructureResiduals:
    """Absolute residuals (LHS minus RHS) of the frame structure equations."""

    s1: complex
    s2: complex
    s3: complex
    s4: complex
    s5: complex
    lie_tm: np.ndarray      # [T, m] bracket law, max component residual
    lie_mmbar: np.ndarray   # [m, mbar] bracket law
    bianchi_1: complex
    bianchi_2: complex
    killing_t_omega: np.ndarray     # T(omega) = 0
    killing_ric_tt: np.ndarray      # Ric(T,T) = omega^2/2
    killing_ric_mm: complex         # Ric(m,m) = 0
    killing_ric_mmbar: np.ndarray   # Ric(m,mbar) = S/2 - omega^2/4
    gauge_div_y: np.ndarray         # Y(div Y) + (div Y)^2 + (S + omega^2/2)/2

    def max_abs(self):
        return np.max([np.abs(getattr(self, f.name)) for f in fields(self)], axis=0)


def spin_coefficients(geo):
    return SpinCoefficients(*(j.value for j in geo.spin))


def kinematics(geo):
    """Divergence, shear, twist and the D-matrix of T; D has shape (2, 2) + batch."""
    div = geo.div_T.value
    sh = geo.shear.value
    tw = geo.omega.value
    s1, s2 = sh.real, sh.imag
    d = np.array([[0.5 * div - s1, s2 + tw / 2.0],
                  [s2 - tw / 2.0, 0.5 * div + s1]])
    return KinematicData(divergence=div, shear=sh, twist=tw, d_matrix=d)


def structure_residuals(geo):
    """Residual stack at the points of a scalar or batched Geometry."""
    t, x, y = geo.frame
    m, mbar = geo.m_leg
    kappa, rho, sigma, eps, beta = geo.spin
    rf = geo.ric_frame
    tx, ty, xx, yy, xy = rf[0, 1], rf[0, 2], rf[1, 1], rf[2, 2], rf[1, 2]
    # Ricci on the m legs by bilinearity, m = (X - iY)/sqrt(2)
    rf_tm, rf_tmbar = (tx + (-1j) * ty) * _RSQRT2, (tx + 1j * ty) * _RSQRT2
    rf_mm, rf_mbarmbar = (xx - yy + (-2j) * xy) * 0.5, (xx - yy + 2j * xy) * 0.5
    rf_tt, rf_mmbar = rf[0, 0], (xx + yy) * 0.5

    def dd(u, f):
        """U(f) at the points, from a product of order 0: only values are read."""
        return geo.dirderiv(u.truncated(0), f).value

    def v(j):
        return j.value

    kap, rh, sig, ep, bet = v(kappa), v(rho), v(sigma), v(eps), v(beta)
    # squares as products: a width-1 Geometry's numpy scalars would take pow's bits
    kap2, sig2, rh2, bet2 = (abs(x) * abs(x) for x in (kap, sig, rh, bet))
    ric_tt, ric_tm, ric_tmbar = v(rf_tt), v(rf_tm), v(rf_tmbar)
    ric_mm, ric_mbarmbar, ric_mmbar = v(rf_mm), v(rf_mbarmbar), v(rf_mmbar)

    s1 = (dd(t, rho) - dd(mbar, kappa)
          - (kap2 + sig2 + rh * rh + kap * np.conj(bet)
             + 0.5 * ric_tt))
    s2 = (dd(t, sigma) - dd(m, kappa)
          - (kap * kap + 2 * sig * ep + sig * (rh + np.conj(rh)) - kap * bet
             + ric_mm))
    s3 = (dd(m, rho) - dd(mbar, sigma)
          - (2 * sig * np.conj(bet) + (np.conj(rh) - rh) * kap + ric_tm))
    s5 = (dd(t, beta) - dd(m, eps)
          - (sig * (np.conj(kap) - np.conj(bet)) + kap * (ep - np.conj(rh))
             + bet * (ep + np.conj(rh)) - ric_tm))
    s4 = (dd(m, beta.conj()) + dd(mbar, beta)
          - (sig2 - rh2 - 2 * bet2
             + (rh - np.conj(rh)) * ep - ric_mmbar + 0.5 * ric_tt))

    def combo(a, b, c):
        """a T + b m + c mbar for scalar values a, b, c."""
        return a * v(t) + b * v(m) + c * v(mbar)

    lie1 = dd(t, m) - dd(m, t) - combo(kap, ep + np.conj(rh), sig)
    lie_tm = np.max(np.abs(lie1), axis=0)
    lie2 = dd(m, mbar) - dd(mbar, m) - combo(np.conj(rh) - rh, np.conj(bet), -bet)
    lie_mmbar = np.max(np.abs(lie2), axis=0)

    bid1 = (dd(t, rf_tm) - 0.5 * dd(m, rf_tt) + dd(mbar, rf_mm)
            - (kap * (ric_tt - ric_mmbar) + (ep + 2 * rh + np.conj(rh)) * ric_tm
               + sig * ric_tmbar - (np.conj(kap) + 2 * np.conj(bet)) * ric_mm))
    bid2 = (dd(m, rf_tmbar) + dd(mbar, rf_tm)
            - dd(t, rf_mmbar - rf_tt * 0.5)
            - ((rh + np.conj(rh)) * (ric_tt - ric_mmbar)
               - np.conj(sig) * ric_mm - sig * ric_mbarmbar
               - (2 * np.conj(kap) + np.conj(bet)) * ric_tm
               - (2 * kap + bet) * ric_tmbar))

    w = geo.omega
    dy = geo.div_Y
    w2 = v(w) * v(w)
    gauge = (dd(y, dy) + v(dy) * v(dy)
             + 0.5 * (v(geo.scalar) + 0.5 * w2))

    return StructureResiduals(
        s1=s1, s2=s2, s3=s3, s4=s4, s5=s5,
        lie_tm=lie_tm, lie_mmbar=lie_mmbar,
        bianchi_1=bid1, bianchi_2=bid2,
        killing_t_omega=abs(dd(t, w)),
        killing_ric_tt=abs(ric_tt - 0.5 * w2),
        killing_ric_mm=ric_mm,
        killing_ric_mmbar=abs(ric_mmbar - 0.5 * v(geo.scalar) + 0.25 * w2),
        gauge_div_y=abs(gauge),
    )


@dataclass(frozen=True)
class KillingReport:
    """Numerical Killing/geodesic/shear audit of a unit field over a Geometry's points."""

    max_lie_residual: float
    max_geodesic: float     # max |nabla_V V|
    max_divergence: float
    max_shear: float
    n_points: int

    @property
    def is_killing(self):
        return self.max_lie_residual < 1e-8


def killing_test(geo, components=None):
    """Audit a vector field V (default: T) at the points of a Geometry.

    ``components`` is an optional triple of ScalarFields giving V in the
    coordinate basis (t, r, theta).  V must be unit length, and unit timelike
    (|V|^2 = -1) on a Lorentzian spec.  Returns the max Lie-derivative
    residual of the metric along V plus the max kinematic scalars, from
    basis-free identities: div V = tr nabla V, and |sigma|^2 is half the
    squared norm of the trace-free part of sym(nabla V) on the complement of V.
    """
    n_points = int(np.size(geo.r))
    if not n_points:
        raise EmptyGrid("killing_test needs at least one point")
    if components is None:
        vjet = geo.frame[0]
    else:
        vjet = jets.stack([f.jet(geo.r, geo.theta, geo.order) for f in components])
    eps = g_tt(geo.spec.signature)
    norm = geo.ip(vjet, vjet).value
    off = ~(np.abs(norm - eps) <= UNIT_TOL)  # NaN is off too
    if np.any(off):
        i = int(np.argmax(off))
        raise NotUnitLength(f"|V|^2 = {np.ravel(norm)[i]} at {geo.point_at(i)}, "
                            f"expected {eps}")
    g, ginv, v = geo.g.value, geo.ginv.value, vjet.value
    nabla = geo.nabla(vjet).value  # nabla[a, c] = (nabla_a V)^c
    b = np.einsum("bc...,ac...->ab...", g, nabla)  # B_ab = g(nabla_a V, e_b)
    lie = np.max(np.abs(b + np.swapaxes(b, 0, 1)), axis=(0, 1))
    acc = np.einsum("ac...,a...->c...", nabla, v)
    geodesic = np.sqrt(np.abs(np.einsum("a...,ab...,b...->...", acc, g, acc)))
    div = np.einsum("cc...->...", nabla)
    # P^a_b projects onto the complement of V, where the metric is h = g - eps V V
    v_low = np.einsum("ab...,b...->a...", g, v)
    proj = np.eye(3).reshape((3, 3) + (1,) * np.ndim(div)) - eps * np.einsum(
        "a...,b...->ab...", v, v_low)
    b_perp = np.einsum("ca...,db...,cd...->ab...", proj, proj, b)
    h_low = g - eps * np.einsum("a...,b...->ab...", v_low, v_low)
    h_up = ginv - eps * np.einsum("a...,b...->ab...", v, v)
    tf = 0.5 * (b_perp + np.swapaxes(b_perp, 0, 1)) - 0.5 * div * h_low
    shear_sq = 0.5 * np.einsum("ac...,bd...,ab...,cd...->...", h_up, h_up, tf, tf)
    return KillingReport(float(np.max(lie)), float(np.max(geodesic)),
                         float(np.max(np.abs(div))),
                         float(np.max(np.sqrt(np.maximum(shear_sq, 0.0)))), n_points)


@dataclass(frozen=True)
class RotatedFrame:
    """Spin coefficients after m -> e^{i theta} m, plus transformation-law residuals."""

    coefficients: SpinCoefficients
    law_residuals: dict

    def max_law_residual(self):
        return np.max([np.abs(v) for v in self.law_residuals.values()], axis=0)


def rotate_frame(geo, angle_field):
    """Recompute spin coefficients in the rotated frame m* = e^{i theta} m.

    ``angle_field`` is a ScalarField giving the rotation angle over (r, theta).
    The rotated coefficients are the ``spin`` of ``geo`` derived with its frame
    turned by the angle.  The residuals compare them against the predicted
    transformation laws (kappa scales by the phase, sigma by its square,
    rho is invariant, epsilon and beta pick up derivative terms).
    """
    th = angle_field.jet(geo.r, geo.theta, geo.order)
    (t, x, y), m = geo.frame, geo.m_leg[0]
    c, s, legs = jets.cos(th), jets.sin(th), jets.stack([x, y])
    # T, X* = cos a X + sin a Y and Y* = cos a Y - sin a X
    rot = geo.derived(geo.order, frame=(t, jets.contract("i,ia->a", jets.stack([c, s]), legs),
                                        jets.contract("i,ia->a", jets.stack([-s, c]), legs)))
    kappa_s, rho_s, sigma_s, eps_s, beta_s = (j.value for j in rot.spin)
    kappa, rho, sigma, eps, beta = (j.value for j in geo.spin)
    ph = np.exp(1j * th.value)
    laws = {
        "kappa": kappa_s - ph * kappa,
        "rho": rho_s - rho,
        "sigma": sigma_s - ph**2 * sigma,
        "epsilon": eps_s - (eps + 1j * geo.dirderiv(t, th).value),
        "beta": beta_s - ph * (beta + 1j * geo.dirderiv(m, th).value),
    }
    coeffs = SpinCoefficients(
        kappa=kappa_s, rho=rho_s, sigma=sigma_s, epsilon=eps_s, beta=beta_s,
    )
    return RotatedFrame(coefficients=coeffs, law_residuals=laws)


def _rescaled(geo, f):
    """``geo`` derived for e^{2f} g, f a jet: the coframe (e^f E, e^-f F) gives the metric, its
    inverse and the rescaled unit field e^{-f} T."""
    e, inv = geo.coframe
    return geo.derived(geo.order, coframe=(jets.contract(",ab->ab", jets.exp(f), e),
                                           jets.contract(",ab->ab", jets.exp(-f), inv)))


@dataclass(frozen=True)
class ConformalCheck:
    omega: np.ndarray
    omega_rescaled: np.ndarray
    shear: np.ndarray
    shear_rescaled: np.ndarray
    residual_omega: np.ndarray
    residual_shear: np.ndarray


def conformal_rescale_check(geo, f_field):
    """Verify twist and shear scale by e^{-f} under g -> e^{2f} g, T -> e^{-f} T."""
    f = f_field.jet(geo.r, geo.theta, geo.order)
    conf, scale = _rescaled(geo, f), np.exp(-f.value)
    w, w_t = geo.omega.value, conf.omega.value
    sh, sh_t = geo.shear.value, conf.shear.value
    return ConformalCheck(
        omega=w, omega_rescaled=w_t, shear=sh, shear_rescaled=sh_t,
        residual_omega=np.abs(w_t - scale * w),
        residual_shear=np.abs(sh_t - scale * sh),
    )
