import numpy as np
import pytest

from killing3.errors import NonFinite
from killing3.tensor_core import GRAM, LORENTZIAN, RIEMANNIAN, Riemann4, gram_residual


def test_gram_residual_both_signatures():
    frame = np.eye(3)
    assert gram_residual(frame, np.eye(3), RIEMANNIAN) == 0.0
    assert gram_residual(frame, np.diag([-1.0, 1.0, 1.0]), LORENTZIAN) == 0.0
    assert gram_residual(frame, np.eye(3), LORENTZIAN) == 2.0
    assert GRAM[LORENTZIAN][0, 0] == -1.0


def _constant_curvature_riemann(k):
    """R_{abcd} = k (g_ac g_bd - g_ad g_bc) with g = identity, in [a][b][c][d]."""
    g = np.eye(3)
    c = np.zeros((3, 3, 3, 3))
    for a in range(3):
        for b in range(3):
            for cc in range(3):
                for d in range(3):
                    c[a, b, cc, d] = k * (g[a, cc] * g[b, d] - g[a, d] * g[b, cc])
    return c


def test_riemann4_symmetries_on_constant_curvature():
    r4 = Riemann4(_constant_curvature_riemann(1.0))
    assert r4.antisymmetry_residual() < 1e-14
    assert r4.pair_symmetry_residual() < 1e-14
    assert r4.first_bianchi_residual() < 1e-14


def test_riemann4_residuals_per_point():
    # trailing batch axes: one residual per point, the index axes reduced
    good = _constant_curvature_riemann(1.0)
    bad = good.copy()
    bad[0, 1, 0, 1] += 0.5
    r4 = Riemann4(np.stack([good, bad], axis=-1))
    assert r4.antisymmetry_residual().shape == (2,)
    assert r4.antisymmetry_residual()[0] == 0.0 and r4.antisymmetry_residual()[1] == 0.5
    assert r4.pair_symmetry_residual()[0] == 0.0
    assert r4.first_bianchi_residual()[1] == 0.5


def test_riemann4_shape_and_finite_checks():
    with pytest.raises(ValueError):
        Riemann4(np.zeros((3, 3, 3)))
    bad = np.zeros((3, 3, 3, 3))
    bad[0, 1, 0, 1] = np.inf
    with pytest.raises(NonFinite):
        Riemann4(bad)
