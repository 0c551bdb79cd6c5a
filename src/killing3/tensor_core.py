"""Fixed-size 3x3 tensor utilities: symmetric eigensolves, Gram audits, Riemann storage."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite

RIEMANNIAN = "riemannian"
LORENTZIAN = "lorentzian"

#: Gram matrices of an orthonormal frame per signature (frame order T, X, Y)
GRAM = {
    RIEMANNIAN: np.diag([1.0, 1.0, 1.0]),
    LORENTZIAN: np.diag([-1.0, 1.0, 1.0]),
}


@dataclass(frozen=True)
class Sym3:
    """Symmetric 3x3 matrix stored by its 6 independent entries."""

    a00: float
    a11: float
    a22: float
    a01: float
    a02: float
    a12: float

    @staticmethod
    def from_matrix(m):
        m = np.asarray(m, dtype=float)
        return Sym3(m[0, 0], m[1, 1], m[2, 2],
                    0.5 * (m[0, 1] + m[1, 0]),
                    0.5 * (m[0, 2] + m[2, 0]),
                    0.5 * (m[1, 2] + m[2, 1]))

    def matrix(self):
        return np.array([
            [self.a00, self.a01, self.a02],
            [self.a01, self.a11, self.a12],
            [self.a02, self.a12, self.a22],
        ])

    @property
    def trace(self):
        return self.a00 + self.a11 + self.a22


def sym_eig3(m):
    """Eigenvalues (ascending) and eigenvectors of a symmetric 3x3 matrix.

    Cyclic Jacobi rotations: backward stable, so repeated eigenvalues come
    out to machine precision (unlike characteristic-polynomial methods,
    which lose half the digits at a double root).  Eigenvectors are the
    accumulated rotations, hence orthonormal by construction.
    """
    if isinstance(m, Sym3):
        m = m.matrix()
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
    if isinstance(g, Sym3):
        g = g.matrix()
    e = np.asarray(frame, dtype=float)
    g = np.asarray(g, dtype=float)
    gram = np.einsum("ia...,ab...,jb...->...ij", e, g, e)
    return np.max(np.abs(gram - GRAM[signature]), axis=(-2, -1))


class Riemann4:
    """Covariant curvature tensor R(e_a, e_b, e_c, e_d) in a declared basis.

    The constructor accepts the full 3x3x3x3 component array and records the
    residuals of the index symmetries and the first Bianchi identity, which
    hold by construction for tensors produced by the curvature engine.
    """

    def __init__(self, components, basis="coordinate"):
        comp = np.asarray(components, dtype=float)
        if comp.shape != (3, 3, 3, 3):
            raise ValueError("Riemann4 expects a 3x3x3x3 array")
        if not np.all(np.isfinite(comp)):
            raise NonFinite("curvature components not finite")
        self.components = comp
        self.basis = basis

    def __getitem__(self, idx):
        return self.components[idx]

    def antisymmetry_residual(self):
        c = self.components
        r1 = np.max(np.abs(c + np.swapaxes(c, 0, 1)))
        r2 = np.max(np.abs(c + np.swapaxes(c, 2, 3)))
        return float(max(r1, r2))

    def pair_symmetry_residual(self):
        c = self.components
        return float(np.max(np.abs(c - np.transpose(c, (2, 3, 0, 1)))))

    def first_bianchi_residual(self):
        c = self.components
        cyc = c + np.einsum("acdb->abcd", c) + np.einsum("adbc->abcd", c)
        return float(np.max(np.abs(cyc)))
