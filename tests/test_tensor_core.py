import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from killing3.errors import NonFinite
from killing3.tensor_core import (GRAM, LORENTZIAN, RIEMANNIAN, Riemann4,
                                  gram_residual, sym_eig3)
from oracles import bisect_eigenvalues


def test_sym_eig3_simple():
    lams, vecs = sym_eig3(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(lams, [1.0, 2.0, 3.0], atol=1e-14)
    # eigenvectors satisfy m v = lam v
    m = np.diag([3.0, 1.0, 2.0])
    for i in range(3):
        np.testing.assert_allclose(m @ vecs[:, i], lams[i] * vecs[:, i], atol=1e-12)


def test_sym_eig3_repeated_eigenvalue():
    # the nil Ricci operator has a repeated eigenvalue -1/2
    m = np.diag([0.5, -0.5, -0.5])
    lams, vecs = sym_eig3(m)
    np.testing.assert_allclose(lams, [-0.5, -0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(3), atol=1e-10)


def test_sym_eig3_triple():
    lams, vecs = sym_eig3(2.0 * np.eye(3))
    np.testing.assert_allclose(lams, [2.0, 2.0, 2.0], atol=1e-14)
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(3), atol=1e-12)


def test_sym_eig3_rejects_nan():
    with pytest.raises(NonFinite):
        sym_eig3(np.full((3, 3), np.nan))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-5.0, 5.0), min_size=6, max_size=6))
def test_sym_eig3_against_bisection_oracle(entries):
    a00, a11, a22, a01, a02, a12 = entries
    m = np.array([[a00, a01, a02], [a01, a11, a12], [a02, a12, a22]])
    lams, vecs = sym_eig3(m)
    oracle = bisect_eigenvalues(m)
    np.testing.assert_allclose(lams, oracle, atol=1e-8)
    # residual of the eigen-decomposition
    np.testing.assert_allclose(m @ vecs, vecs @ np.diag(lams), atol=1e-7)


def test_sym_eig3_against_numpy():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = rng.normal(size=(3, 3))
        m = a + a.T
        lams, _ = sym_eig3(m)
        np.testing.assert_allclose(lams, np.linalg.eigvalsh(m), atol=1e-10)


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
