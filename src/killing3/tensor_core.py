"""Fixed-size 3x3 tensor utilities: symmetric eigensolves, Gram audits, Riemann storage."""

from __future__ import annotations

import numpy as np

from .errors import NonFinite

RIEMANNIAN = "riemannian"
LORENTZIAN = "lorentzian"

#: Gram matrices of an orthonormal frame per signature (frame order T, X, Y)
GRAM = {
    RIEMANNIAN: np.diag([1.0, 1.0, 1.0]),
    LORENTZIAN: np.diag([-1.0, 1.0, 1.0]),
}


def sym_eig3(m):
    """Eigenvalues (ascending) and eigenvectors of a symmetric 3x3 matrix.

    Cyclic Jacobi rotations: backward stable, so repeated eigenvalues come
    out to machine precision (unlike characteristic-polynomial methods,
    which lose half the digits at a double root).  Eigenvectors are the
    accumulated rotations, hence orthonormal by construction.
    """
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise NonFinite("matrix has non-finite entries")
    a = 0.5 * (m + m.T)
    v = np.eye(3)
    norm = max(1.0, np.sqrt(np.sum(a * a)))

    for _ in range(30):
        off = np.sqrt(a[0, 1]**2 + a[0, 2]**2 + a[1, 2]**2)
        if off <= 1e-15 * norm:
            break
        for p, q in ((0, 1), (0, 2), (1, 2)):
            apq = a[p, q]
            if abs(apq) <= 1e-18 * norm:
                continue
            # rotation angle zeroing a[p, q], smaller-root formula for stability
            tau = (a[q, q] - a[p, p]) / (2.0 * apq)
            t = np.sign(tau) / (abs(tau) + np.hypot(tau, 1.0)) if tau != 0 else 1.0
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            rot = np.eye(3)
            rot[p, p] = rot[q, q] = c
            rot[p, q], rot[q, p] = s, -s
            a = rot.T @ a @ rot
            a = 0.5 * (a + a.T)
            v = v @ rot

    lams = np.diag(a).copy()
    order = np.argsort(lams)
    return lams[order], v[:, order]


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
    """Covariant curvature tensor R(e_a, e_b, e_c, e_d) in a declared basis.

    The constructor accepts the 3x3x3x3 component array, with optional trailing
    batch axes, and records the residuals of the index symmetries and the
    first Bianchi identity, which hold by construction for tensors produced by
    the curvature engine.  Each residual reduces over the four index axes
    only, giving one value per point.
    """

    def __init__(self, components, basis="coordinate"):
        comp = np.asarray(components, dtype=float)
        if comp.shape[:4] != (3, 3, 3, 3):
            raise ValueError("Riemann4 expects a 3x3x3x3 array")
        if not np.all(np.isfinite(comp)):
            raise NonFinite("curvature components not finite")
        self.components = comp
        self.basis = basis

    def __getitem__(self, idx):
        return self.components[idx]

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
