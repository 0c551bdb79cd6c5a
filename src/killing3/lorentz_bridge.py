"""Bridge between the Riemannian metric and its Lorentzian partner g_L = g_R - 2 (T^b)^2.

Both metrics share (phi, h, k) and the Killing field T; the Lorentzian
curvature is computed through the same coordinate Christoffel pipeline with
signature-aware index raising, so the curvature relations below are genuine
cross-checks rather than restatements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .completeness_probe import CurvatureProfile, completeness_verdict
from .curvature_engine import ricci_tt, scalar_and_ric_tt
from .errors import AlreadyLorentzian
from .frame_calculus import Geometry
from .metric_family import MetricSpec, check_admissible, metric_components
from .tensor_core import LORENTZIAN, RIEMANNIAN


@dataclass(frozen=True)
class SignaturePair:
    riemannian: MetricSpec
    lorentzian: MetricSpec

    def flip_residual(self, p):
        """Componentwise residual of g_L = g_R - 2 (T^b x T^b) at p (or point arrays)."""
        g_r = metric_components(self.riemannian, p)
        g_l = metric_components(self.lorentzian, p)
        phi, h, k = check_admissible(self.riemannian, *p)
        tb = np.array([np.ones_like(phi), -k, -phi * h])
        flip = g_r - 2.0 * np.einsum("a...,b...->ab...", tb, tb)
        return np.max(np.abs(g_l - flip), axis=(0, 1))

    def timelike_residual(self, p):
        """|g_L(T, T) + 1| at p (or point arrays)."""
        g_l = metric_components(self.lorentzian, p)
        return np.abs(g_l[0, 0] + 1.0)


def to_lorentz(spec):
    if spec.signature == LORENTZIAN:
        raise AlreadyLorentzian(f"spec {spec.name!r} is already Lorentzian")
    return SignaturePair(riemannian=spec,
                         lorentzian=spec.with_signature(LORENTZIAN))


def lorentz_relations_check(geo):
    """Residuals of Ric_L(T,T) = Ric_R(T,T) and S_L = S_R + 2 Ric_R(T,T) at geo's points.

    ``geo`` is Riemannian; its Lorentzian partner is built at the same points.
    """
    partner = Geometry(to_lorentz(geo.spec).lorentzian, geo.r, geo.theta, order=geo.order)
    s_r, s_l = geo.scalar.value, partner.scalar.value
    ric_r, ric_l = ricci_tt(geo), ricci_tt(partner)
    return np.abs(ric_l - ric_r), np.abs(s_l - (s_r + 2.0 * ric_r))


def lorentz_completeness(pair, r_max, n_r=64, n_theta=32):
    """Verdict from the Lorentzian-form criterion S_L - Ric_L(T,T).

    Also reports the max pointwise disagreement with the Riemannian-form
    quantity S_R + Ric_R(T,T), which should vanish identically.
    """
    radii, rr, tt = CurvatureProfile.mesh(r_max, n_r, n_theta)
    s_l, ric_l = scalar_and_ric_tt(pair.lorentzian, rr, tt)
    s_r, ric_r = scalar_and_ric_tt(pair.riemannian, rr, tt)
    crit_l = s_l - ric_l
    agreement = float(np.max(np.abs(crit_l - (s_r + ric_r))))
    profile = CurvatureProfile.from_minima(radii, np.min(crit_l, axis=1), n_theta)
    return completeness_verdict(profile), profile, agreement

