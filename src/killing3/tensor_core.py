"""Signatures and their g(T, T); fixed-size 3x3 tensor utilities: Gram audits, Riemann storage."""

from __future__ import annotations

import numpy as np

from .errors import NonFinite

RIEMANNIAN = "riemannian"
LORENTZIAN = "lorentzian"


def g_tt(signature):
    """g(T, T) of the unit Killing field T: -1 on the Lorentzian partner, where T is timelike."""
    return -1.0 if signature == LORENTZIAN else 1.0


#: Gram matrices of an orthonormal frame per signature (frame order T, X, Y)
GRAM = {sig: np.diag([g_tt(sig), 1.0, 1.0]) for sig in (RIEMANNIAN, LORENTZIAN)}


def gram_residual(frame, g, signature=RIEMANNIAN):
    """Max deviation of g(e_i, e_j) from the signature's Gram matrix.

    ``frame`` is a sequence of three vectors in the coordinate basis; ``g`` is
    the metric matrix at the same point.  Trailing batch axes of both are
    carried through, giving one residual per point.
    """
    e = np.asarray(frame, dtype=float)
    g = np.asarray(g, dtype=float)
    gram = np.einsum("ia...,ab...,jb...->...ij", e, g, e)
    return np.max(np.abs(gram - GRAM[signature]), axis=(-2, -1))


class Riemann4:
    """Covariant curvature tensor R(e_a, e_b, e_c, e_d) in coordinates.

    The constructor accepts the 3x3x3x3 component array, with optional trailing
    batch axes, and records the residuals of the index symmetries and the
    first Bianchi identity, which hold by construction for tensors produced by
    the curvature engine.  Each residual reduces over the four index axes
    only, giving one value per point.
    """

    def __init__(self, components):
        comp = np.asarray(components, dtype=float)
        if comp.shape[:4] != (3, 3, 3, 3):
            raise ValueError("Riemann4 expects a 3x3x3x3 array")
        if not np.all(np.isfinite(comp)):
            raise NonFinite("curvature components not finite")
        self.components = comp

    def _max_abs(self, x):
        return np.max(np.abs(x), axis=(0, 1, 2, 3))

    def antisymmetry_residual(self):
        c = self.components
        return np.maximum(self._max_abs(c + np.swapaxes(c, 0, 1)),
                          self._max_abs(c + np.swapaxes(c, 2, 3)))

    def pair_symmetry_residual(self):
        c = self.components
        return self._max_abs(c - np.einsum("cdab...->abcd...", c))

    def first_bianchi_residual(self):
        c = self.components
        cyc = c + np.einsum("acdb...->abcd...", c) + np.einsum("adbc...->abcd...", c)
        return self._max_abs(cyc)
