"""Bridge between the Riemannian metric and its Lorentzian partner g_L = g_R - 2 (T^b)^2.

Both metrics share (phi, h, k) and the Killing field T; the Lorentzian
curvature is computed through the same coordinate Christoffel pipeline with
signature-aware index raising, so the curvature relations below are genuine
cross-checks rather than restatements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .completeness_probe import (CurvatureProfile, completeness_verdict,
                                 curvature_profile)
from .curvature_engine import scalar_and_ric_tt
from .errors import AlreadyLorentzian
from .metric_family import MetricSpec, metric_components
from .tensor_core import LORENTZIAN, RIEMANNIAN


@dataclass(frozen=True)
class SignaturePair:
    riemannian: MetricSpec
    lorentzian: MetricSpec

    def flip_residual(self, p):
        """Componentwise residual of g_L = g_R - 2 (T^b x T^b) at p."""
        g_r = metric_components(self.riemannian, p).matrix()
        g_l = metric_components(self.lorentzian, p).matrix()
        r, theta = p
        phi = self.riemannian.phi.value(r, theta)
        h = self.riemannian.h.value(r, theta)
        k = self.riemannian.k.value(r, theta)
        tb = np.array([1.0, -k, -phi * h])
        return float(np.max(np.abs(g_l - (g_r - 2.0 * np.outer(tb, tb)))))

    def timelike_residual(self, p):
        """|g_L(T, T) + 1| at p."""
        g_l = metric_components(self.lorentzian, p).matrix()
        return float(abs(g_l[0, 0] + 1.0))


def to_lorentz(spec):
    if spec.signature == LORENTZIAN:
        raise AlreadyLorentzian(f"spec {spec.name!r} is already Lorentzian")
    return SignaturePair(riemannian=spec,
                         lorentzian=spec.with_signature(LORENTZIAN))


def lorentz_relations_check(pair, p):
    """Residuals of Ric_L(T,T) = Ric_R(T,T) and S_L = S_R + 2 Ric_R(T,T)."""
    s_r, ric_r = scalar_and_ric_tt(pair.riemannian, p[0], p[1])
    s_l, ric_l = scalar_and_ric_tt(pair.lorentzian, p[0], p[1])
    res_ric = float(np.max(np.abs(ric_l - ric_r)))
    res_scalar = float(np.max(np.abs(s_l - (s_r + 2.0 * ric_r))))
    return res_ric, res_scalar


def lorentz_completeness(pair, r_max, n_r=64, n_theta=32, r_min=None):
    """Verdict from the Lorentzian-form criterion S_L - Ric_L(T,T).

    Also reports the max pointwise disagreement with the Riemannian-form
    quantity S_R + Ric_R(T,T), which should vanish identically.
    """
    if r_min is None:
        r_min = r_max / n_r
    radii = np.linspace(r_min, r_max, n_r)
    thetas = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    rr, tt = np.meshgrid(radii, thetas, indexing="ij")
    s_l, ric_l = scalar_and_ric_tt(pair.lorentzian, rr, tt)
    s_r, ric_r = scalar_and_ric_tt(pair.riemannian, rr, tt)
    crit_l = s_l - ric_l
    agreement = float(np.max(np.abs(crit_l - (s_r + ric_r))))
    profile = CurvatureProfile.from_minima(radii, np.min(crit_l, axis=1), n_theta)
    return completeness_verdict(profile), profile, agreement


def riemannian_profile(pair, r_max, n_r=64, n_theta=32, r_min=None):
    """The Riemannian-side criterion profile, for side-by-side comparison."""
    return curvature_profile(pair.riemannian, r_max, n_r, n_theta, r_min)
