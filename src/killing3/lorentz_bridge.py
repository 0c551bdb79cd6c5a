"""Bridge between the Riemannian metric and its Lorentzian partner g_L = g_R - 2 (T^b)^2.

Both metrics share (phi, h, k) and the Killing field T, with g(T,T) = +1 and -1,
and so the quotient by T and its criterion S + g(T,T) Ric(T,T).  A Riemannian
Geometry's ``partner`` shares its field jets and coframe, and its curvature goes
through the same coordinate Christoffel pipeline with signature-aware index
raising, so the curvature relations below are genuine cross-checks; one profile
mesh of the Riemannian metric gives both signatures' criterion, through its partner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .completeness_probe import CurvatureProfile, completeness_verdict, criterion_mesh
from .curvature_engine import quotient_criterion, ricci_tt
from .errors import AlreadyLorentzian
from .frame_calculus import LORENTZIAN
from .metric_family import MetricSpec


@dataclass(frozen=True)
class SignaturePair:
    riemannian: MetricSpec
    lorentzian: MetricSpec


def to_lorentz(spec):
    if spec.signature == LORENTZIAN:
        raise AlreadyLorentzian(f"spec {spec.name!r} is already Lorentzian")
    return SignaturePair(riemannian=spec,
                         lorentzian=spec.with_signature(LORENTZIAN))


def flip_residual(geo, partner):
    """Max |g_L - (g_R - 2 T^b x T^b)| per point, T^b = g_R(T, .), g_L the partner's E^T eta E."""
    g_r = geo.g.value
    flip = g_r - 2.0 * np.einsum("a...,b...->ab...", g_r[0], g_r[0])
    return np.max(np.abs(partner.g.value - flip), axis=(0, 1))


def timelike_residual(partner):
    """|g_L^-1(T^b, T^b) + 1|, T^b = g_L(T, .): the partner's g^-1 (from F) against g (from E)."""
    t_flat = partner.g.value[0]
    return np.abs(np.einsum("a...,ab...,b...->...", t_flat, partner.ginv.value, t_flat) + 1.0)


def lorentz_relations_check(geo):
    """Residuals of Ric_L(T,T) = Ric_R(T,T) and S_L = S_R + 2 Ric_R(T,T) at the points of the
    Riemannian ``geo``, the Lorentzian side read from ``geo.partner``."""
    to_lorentz(geo.spec)  # AlreadyLorentzian on a Lorentzian geo
    s_r, s_l = geo.scalar.value, geo.partner.scalar.value
    ric_r, ric_l = ricci_tt(geo), ricci_tt(geo.partner)
    return np.abs(ric_l - ric_r), np.abs(s_l - (s_r + 2.0 * ric_r))


def lorentz_completeness(pair, r_max, n_r=64, n_theta=32):
    """Verdict from the partner's criterion S_L + g(T,T) Ric_L(T,T) = S_L - Ric_L(T,T).

    Also reports the max pointwise disagreement with the same criterion on the Riemannian
    mesh that the partner is read from, S_R + Ric_R(T,T), which should vanish identically.
    """
    radii, geo = criterion_mesh(pair.riemannian, r_max, n_r, n_theta)
    crit_l = quotient_criterion(geo.partner)
    agreement = float(np.max(np.abs(crit_l - quotient_criterion(geo))))
    profile = CurvatureProfile.from_minima(radii, np.min(crit_l, axis=1), n_theta)
    return completeness_verdict(profile), profile, agreement
