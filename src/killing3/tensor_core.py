"""Signatures, their g(T, T), and the Gram audit of a frame against its signature."""

from __future__ import annotations

import numpy as np

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
