"""Newman-Penrose-style frame calculus adapted to Riemannian 3-manifolds.

Spin coefficients of the frame {T, m, mbar} with m = (X - iY)/sqrt(2),
the kinematic decomposition of the unit field T, the structure-equation
residual stack, the frame-rotation transformation laws, and the behaviour
of twist and shear under conformal rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import jets
from .errors import EmptyGrid, NotUnitLength
from .frame_calculus import Geometry
from .tensor_core import LORENTZIAN

UNIT_TOL = 1e-9


@dataclass(frozen=True)
class SpinCoefficients:
    kappa: complex
    rho: complex
    sigma: complex
    epsilon: complex
    beta: complex
    point: tuple

    @property
    def twist(self):
        """omega recovered from rho = -div(T)/2 - i omega/2."""
        return -2.0 * self.rho.imag

    @property
    def divergence(self):
        return -2.0 * self.rho.real


@dataclass(frozen=True)
class KinematicData:
    divergence: float
    shear: complex          # sigma1 + i sigma2
    twist: float
    d_matrix: np.ndarray    # endomorphism v -> nabla_v T on span{X, Y}: D[i][j] = <nabla_{e_j} T, e_i>
    point: tuple


@dataclass(frozen=True)
class StructureResiduals:
    """Absolute residuals (LHS minus RHS) of the frame structure equations."""

    s1: complex
    s2: complex
    s3: complex
    s4: complex
    s5: complex
    lie_tm: float           # [T, m] bracket law, max component residual
    lie_mmbar: float        # [m, mbar] bracket law
    bianchi_1: complex
    bianchi_2: complex
    killing_t_omega: float          # T(omega) = 0
    killing_ric_tt: float           # Ric(T,T) = omega^2/2
    killing_ric_mm: complex         # Ric(m,m) = 0
    killing_ric_mmbar: float        # Ric(m,mbar) = S/2 - omega^2/4
    gauge_div_y: float              # Y(div Y) + (div Y)^2 + (S + omega^2/2)/2
    point: tuple

    def max_abs(self):
        vals = [self.s1, self.s2, self.s3, self.s4, self.s5,
                self.lie_tm, self.lie_mmbar, self.bianchi_1, self.bianchi_2,
                self.killing_t_omega, self.killing_ric_tt, self.killing_ric_mm,
                self.killing_ric_mmbar, self.gauge_div_y]
        return float(max(abs(v) for v in vals))


def spin_coefficients(spec, p):
    geo = Geometry(spec, p[0], p[1])
    kappa, rho, sigma, eps, beta = geo.spin
    return SpinCoefficients(
        kappa=complex(kappa.value), rho=complex(rho.value),
        sigma=complex(sigma.value), epsilon=complex(eps.value),
        beta=complex(beta.value), point=(float(p[0]), float(p[1])),
    )


def kinematics(spec, p):
    """Divergence, shear, twist and the D-matrix of T at p."""
    geo = Geometry(spec, p[0], p[1])
    div = float(geo.div_T.value)
    sh = complex(geo.shear.value)
    tw = float(geo.omega.value)
    s1, s2 = sh.real, sh.imag
    d = (0.5 * div * np.eye(2)
         + np.array([[-s1, s2], [s2, s1]])
         + np.array([[0.0, tw / 2.0], [-tw / 2.0, 0.0]]))
    return KinematicData(divergence=div, shear=sh, twist=tw, d_matrix=d,
                         point=(float(p[0]), float(p[1])))


def structure_residuals(spec, p):
    geo = Geometry(spec, p[0], p[1])
    t, x, y = geo.frame
    m, mbar = geo.m_leg
    kappa, rho, sigma, eps, beta = geo.spin
    rf = geo.ric_frame

    def dd(u, f):
        return geo.dirderiv(u, f)

    def v(j):
        return complex(np.asarray(j.value).item())

    kap, rh, sig, ep, bet = v(kappa), v(rho), v(sigma), v(eps), v(beta)
    ric_tt = v(rf["TT"])
    ric_tm, ric_tmbar = v(rf["Tm"]), v(rf["Tmbar"])
    ric_mm, ric_mbarmbar = v(rf["mm"]), v(rf["mbarmbar"])
    ric_mmbar = v(rf["mmbar"])

    s1 = (v(dd(t, rho)) - v(dd(mbar, kappa))
          - (abs(kap)**2 + abs(sig)**2 + rh**2 + kap * np.conj(bet)
             + 0.5 * ric_tt))
    s2 = (v(dd(t, sigma)) - v(dd(m, kappa))
          - (kap**2 + 2 * sig * ep + sig * (rh + np.conj(rh)) - kap * bet
             + ric_mm))
    s3 = (v(dd(m, rho)) - v(dd(mbar, sigma))
          - (2 * sig * np.conj(bet) + (np.conj(rh) - rh) * kap + ric_tm))
    s5 = (v(dd(t, beta)) - v(dd(m, eps))
          - (sig * (np.conj(kap) - np.conj(bet)) + kap * (ep - np.conj(rh))
             + bet * (ep + np.conj(rh)) - ric_tm))
    s4 = (v(dd(m, beta.conj())) + v(dd(mbar, beta))
          - (abs(sig)**2 - abs(rh)**2 - 2 * abs(bet)**2
             + (rh - np.conj(rh)) * ep - ric_mmbar + 0.5 * ric_tt))

    lie1 = geo.bracket(t, m)
    lie1_rhs = [kappa * t[c] + (eps + rho.conj()) * m[c] + sigma * mbar[c]
                for c in range(3)]
    lie_tm = max(abs(v(lie1[c] - lie1_rhs[c])) for c in range(3))
    lie2 = geo.bracket(m, mbar)
    lie2_rhs = [(rho.conj() - rho) * t[c] + beta.conj() * m[c] - beta * mbar[c]
                for c in range(3)]
    lie_mmbar = max(abs(v(lie2[c] - lie2_rhs[c])) for c in range(3))

    bid1 = (v(dd(t, rf["Tm"])) - 0.5 * v(dd(m, rf["TT"])) + v(dd(mbar, rf["mm"]))
            - (kap * (ric_tt - ric_mmbar) + (ep + 2 * rh + np.conj(rh)) * ric_tm
               + sig * ric_tmbar - (np.conj(kap) + 2 * np.conj(bet)) * ric_mm))
    bid2 = (v(dd(m, rf["Tmbar"])) + v(dd(mbar, rf["Tm"]))
            - v(dd(t, rf["mmbar"] - rf["TT"] * 0.5))
            - ((rh + np.conj(rh)) * (ric_tt - ric_mmbar)
               - np.conj(sig) * ric_mm - sig * ric_mbarmbar
               - (2 * np.conj(kap) + np.conj(bet)) * ric_tm
               - (2 * kap + bet) * ric_tmbar))

    w = geo.omega
    dy = geo.div_Y
    gauge = (v(dd(y, dy)) + v(dy)**2
             + 0.5 * (v(geo.scalar) + 0.5 * v(w)**2))

    return StructureResiduals(
        s1=s1, s2=s2, s3=s3, s4=s4, s5=s5,
        lie_tm=float(lie_tm), lie_mmbar=float(lie_mmbar),
        bianchi_1=bid1, bianchi_2=bid2,
        killing_t_omega=abs(v(dd(t, w))),
        killing_ric_tt=abs(ric_tt - 0.5 * v(w)**2),
        killing_ric_mm=ric_mm,
        killing_ric_mmbar=abs(ric_mmbar - 0.5 * v(geo.scalar) + 0.25 * v(w)**2),
        gauge_div_y=abs(gauge),
        point=(float(p[0]), float(p[1])),
    )


@dataclass(frozen=True)
class KillingReport:
    """Numerical Killing/geodesic/shear audit of a unit field over a grid."""

    max_lie_residual: float
    max_geodesic: float     # max |nabla_T T|
    max_divergence: float
    max_shear: float
    n_points: int

    @property
    def is_killing(self):
        return self.max_lie_residual < 1e-8


def killing_test(spec, grid, components=None, tol_unit=UNIT_TOL):
    """Audit a vector field V (default: T) over a grid of (r, theta) points.

    ``components`` is an optional triple of ScalarFields giving V in the
    coordinate basis (t, r, theta); V must be unit length.  Returns the max
    Lie-derivative residual of the metric along V plus the kinematic scalars.
    """
    grid = list(grid)
    if not grid:
        raise EmptyGrid("killing_test needs at least one grid point")
    max_lie = max_geo = max_div = max_shear = 0.0
    for p in grid:
        geo = Geometry(spec, p[0], p[1], order=2)
        if components is None:
            vjet = list(geo.frame[0])
        else:
            vjet = [f.jet(geo.r, geo.theta, 2) for f in components]
        norm = geo.ip(vjet, vjet).value
        eps = -1.0 if (spec.signature == LORENTZIAN and norm < 0) else 1.0
        if abs(norm - eps) > tol_unit:
            raise NotUnitLength(f"|V|^2 = {norm} at {p}")
        g = geo.g
        cov_basis = []  # nabla_{e_a} V for coordinate directions e_a
        for a in range(3):
            e = [geo.one() if c == a else geo.zero() for c in range(3)]
            cov_basis.append(geo.cov(e, vjet))
        lie = 0.0
        for a in range(3):
            for b in range(3):
                la = sum((g[c][b] * cov_basis[a][c]).value for c in range(3))
                lb = sum((g[c][a] * cov_basis[b][c]).value for c in range(3))
                lie = max(lie, float(abs(la + lb)))
        acc = geo.cov(vjet, vjet)
        geo_norm = np.sqrt(abs(geo.ip(acc, acc).value))
        # orthonormal complement of V, Gram-Schmidt over the canonical frame
        # (skipping any leg nearly parallel to V or to an earlier leg)
        basis = []
        for cand in geo.frame:
            u = [cand[c] - eps * geo.ip(cand, vjet) * vjet[c] for c in range(3)]
            for prev in basis:
                u = [u[c] - geo.ip(u, prev) * prev[c] for c in range(3)]
            nsq = geo.ip(u, u)
            if abs(float(nsq.value)) < 1e-6:
                continue
            n = jets.sqrt(nsq)
            basis.append([u[c] / n for c in range(3)])
            if len(basis) == 2:
                break
        u1, u2 = basis
        cv1 = geo.cov(u1, vjet)
        cv2 = geo.cov(u2, vjet)
        d11 = geo.ip(cv1, u1).value
        d22 = geo.ip(cv2, u2).value
        d12 = geo.ip(cv1, u2).value
        d21 = geo.ip(cv2, u1).value
        div = float(d11 + d22)
        shear = float(np.hypot(0.5 * (d22 - d11), 0.5 * (d12 + d21)))
        max_lie = max(max_lie, lie)
        max_geo = max(max_geo, float(geo_norm))
        max_div = max(max_div, abs(div))
        max_shear = max(max_shear, shear)
    return KillingReport(max_lie, max_geo, max_div, max_shear, len(grid))


@dataclass(frozen=True)
class RotatedFrame:
    """Spin coefficients after m -> e^{i theta} m, plus transformation-law residuals."""

    coefficients: SpinCoefficients
    law_residuals: dict

    def max_law_residual(self):
        return float(max(abs(v) for v in self.law_residuals.values()))


def rotate_frame(spec, p, angle_field):
    """Recompute spin coefficients in the rotated frame m* = e^{i theta} m.

    ``angle_field`` is a ScalarField giving the rotation angle over (r, theta).
    The residuals compare the recomputed coefficients against the predicted
    transformation laws (kappa scales by the phase, sigma by its square,
    rho is invariant, epsilon and beta pick up derivative terms).
    """
    geo = Geometry(spec, p[0], p[1])
    t, _, _ = geo.frame
    m, mbar = geo.m_leg
    th = angle_field.jet(geo.r, geo.theta, geo.order)
    phase = jets.exp(1j * th)
    ms = [phase * m[c] for c in range(3)]
    msbar = [ms[c].conj() for c in range(3)]
    kappa_s = -geo.ip(geo.cov(t, t), ms)
    rho_s = -geo.ip(geo.cov(msbar, t), ms)
    sigma_s = -geo.ip(geo.cov(ms, t), ms)
    eps_s = geo.ip(geo.cov(t, ms), msbar)
    beta_s = geo.ip(geo.cov(ms, ms), msbar)
    kappa, rho, sigma, eps, beta = geo.spin

    def v(j):
        return complex(np.asarray(j.value).item())

    ph = v(phase)
    laws = {
        "kappa": v(kappa_s) - ph * v(kappa),
        "rho": v(rho_s) - v(rho),
        "sigma": v(sigma_s) - ph**2 * v(sigma),
        "epsilon": v(eps_s) - (v(eps) + 1j * v(geo.dirderiv(t, th))),
        "beta": v(beta_s) - ph * (v(beta) + 1j * v(geo.dirderiv(m, th))),
    }
    coeffs = SpinCoefficients(
        kappa=v(kappa_s), rho=v(rho_s), sigma=v(sigma_s),
        epsilon=v(eps_s), beta=v(beta_s), point=(float(p[0]), float(p[1])),
    )
    return RotatedFrame(coefficients=coeffs, law_residuals=laws)


class _ConformalGeometry(Geometry):
    """Geometry of e^{2f} g with the rescaled unit field e^{-f} T."""

    def __init__(self, spec, r, theta, f_field, order=None):
        super().__init__(spec, r, theta, order)
        self._f = f_field.jet(self.r, self.theta, self.order)

    @cached_property
    def g(self):
        scale = jets.exp(2.0 * self._f)
        return [[scale * gab for gab in row] for row in Geometry.g.func(self)]

    @cached_property
    def frame(self):
        scale = jets.exp(-self._f)
        return tuple([scale * comp for comp in leg]
                     for leg in Geometry.frame.func(self))


@dataclass(frozen=True)
class ConformalCheck:
    omega: float
    omega_rescaled: float
    shear: complex
    shear_rescaled: complex
    residual_omega: float
    residual_shear: float


def conformal_rescale_check(spec, f_field, p):
    """Verify twist and shear scale by e^{-f} under g -> e^{2f} g, T -> e^{-f} T."""
    geo = Geometry(spec, p[0], p[1])
    conf = _ConformalGeometry(spec, p[0], p[1], f_field)
    fval = float(f_field.value(p[0], p[1]))
    w = float(geo.omega.value)
    w_t = float(conf.omega.value)
    sh = complex(geo.shear.value)
    sh_t = complex(conf.shear.value)
    return ConformalCheck(
        omega=w, omega_rescaled=w_t, shear=sh, shear_rescaled=sh_t,
        residual_omega=abs(w_t - np.exp(-fval) * w),
        residual_shear=abs(sh_t - np.exp(-fval) * sh),
    )
