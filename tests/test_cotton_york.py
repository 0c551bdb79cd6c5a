import numpy as np
import pytest

from killing3.cotton_york import (FLAT, NOT_FLAT, cotton_york,
                                  cotton_york_norms, flatness_verdict,
                                  tmg_residual)
from killing3.errors import EmptyGrid, JetOrderError
from killing3.frame_calculus import Geometry
from killing3.metric_family import catalog, to_grid_sampled

POINTS = [(0.35, 0.4), (0.8, 2.1), (1.1, 5.0)]


def _point_grid(n=16, r_lo=0.25, r_hi=1.2):
    """(r, theta) arrays of n seeded points."""
    u, v = np.random.default_rng(5).random((n, 2)).T
    return r_lo + (r_hi - r_lo) * u, 2 * np.pi * v


def test_hopf_cotton_york_vanishes():
    spec = catalog("hopf", {"R": 1.0})
    for p in POINTS:
        assert cotton_york(Geometry(spec, *p)).norm < 1e-12


def test_flat_cotton_york_vanishes():
    spec = catalog("flat")
    assert cotton_york(Geometry(spec, 0.5, 0.5)).norm == pytest.approx(0.0, abs=1e-14)


def test_nil_cotton_york_matrix():
    spec = catalog("nil", {"omega0": 1.0})
    cy = cotton_york(Geometry(spec, 0.7, 0.2))
    np.testing.assert_allclose(cy.raw, np.diag([-1.0, 0.5, 0.5]), atol=1e-12)
    assert cy.norm == pytest.approx(np.sqrt(1.5), rel=1e-12)


def test_cotton_york_matrix_needs_order_three():
    # S carries order n - 2: at n = 2 it has no first derivatives for X(S) and Y(S)
    geo = Geometry(catalog("nil", {"omega0": 1.0}), [0.5, 0.9], [1.0, 4.0], order=2)
    with pytest.raises(JetOrderError, match="^Cotton-York needs scalar-curvature jets to order 1$"):
        geo.cotton_york_matrix


def test_symmetry_and_trace_emerge():
    specs = [catalog("flat"), catalog("hopf", {"R": 1.0}),
             catalog("nil", {"omega0": 1.0}), catalog("hyperbolic"),
             catalog("cf_family", {"B": 0.0, "C": 1.0})]
    for spec in specs:
        for p in POINTS:
            cy = cotton_york(Geometry(spec, *p))
            assert cy.symmetry_residual < 1e-9
            assert cy.trace_residual < 1e-9


def test_batched_norms_match_pointwise():
    spec = catalog("nil", {"omega0": 1.0})
    r = np.array([0.3, 0.8, 1.4])
    th = np.array([0.0, 1.0, 2.0])
    norms = cotton_york_norms(spec, r, th)
    for i in range(3):
        assert norms[i] == pytest.approx(cotton_york(Geometry(spec, r[i], th[i])).norm,
                                         rel=1e-12)


def test_flatness_verdict_hopf():
    fit = flatness_verdict(Geometry(catalog("hopf", {"R": 1.0}), *_point_grid()))
    assert fit.verdict == FLAT
    assert fit.constant_omega and fit.nonunique
    # constant-omega representative: B = 0, C = omega^4 / 4 = 4
    assert fit.B == 0.0
    assert fit.C == pytest.approx(4.0, rel=1e-10)


def test_flatness_verdict_nil():
    fit = flatness_verdict(Geometry(catalog("nil", {"omega0": 1.0}), *_point_grid()))
    assert fit.verdict == NOT_FLAT
    assert fit.cy_max == pytest.approx(np.sqrt(1.5), rel=1e-10)


def test_flatness_verdict_cf_family():
    spec = catalog("cf_family", {"B": 0.0, "C": 1.0})
    fit = flatness_verdict(Geometry(spec, *_point_grid(r_lo=-1.2, r_hi=1.2)))
    assert fit.verdict == FLAT
    assert not fit.constant_omega
    assert fit.B == pytest.approx(0.0, abs=1e-6)
    assert fit.C == pytest.approx(1.0, abs=1e-6)
    assert fit.residual_max < 1e-6


@pytest.mark.parametrize("spec, verdict", [
    (catalog("hopf", {"R": 2.0}), FLAT),
    (catalog("cf_family", {"B": 0.3, "C": 1.0}), FLAT),
    (catalog("nil"), NOT_FLAT),
], ids=["hopf", "cf_family", "nil"])
def test_flatness_verdict_at_one_point(spec, verdict):
    # one point shows no twist spread, so the constant-twist shortcut S = 3 Ric(T,T), false on
    # cf_family, must not fire; the one-point fit is rank 1, and the CY norm decides
    fit = flatness_verdict(Geometry(spec, 0.6, 1.0))
    assert fit.verdict == verdict
    assert not fit.constant_omega and fit.nonunique
    assert fit.B == 0.0 and fit.residual_max == 0.0


def test_flatness_verdict_empty():
    with pytest.raises(EmptyGrid):
        flatness_verdict(Geometry(catalog("flat"), [], []))


def test_constant_omega_shortcut_equivalence():
    # hopf: S = 3 Ric(T,T) (6 = 3*2) -> Flat; nil: -1/2 vs 3/2 -> NotFlat
    hopf_fit = flatness_verdict(Geometry(catalog("hopf", {"R": 2.0}), *_point_grid()))
    assert hopf_fit.verdict == FLAT
    nil_fit = flatness_verdict(Geometry(catalog("nil", {"omega0": 2.0}), *_point_grid()))
    assert nil_fit.verdict == NOT_FLAT


def test_twist_free_product_is_flat():
    # hyperbolic-plane x R: CY = 0 with S = -2, so the constant-twist
    # criterion S = 3 Ric(T,T) must not be applied when omega = 0
    fit = flatness_verdict(Geometry(catalog("hyperbolic"), *_point_grid()))
    assert fit.verdict == FLAT
    assert fit.cy_max < 1e-12


def test_twist_free_nonconstant_s_not_flat():
    # twist-free warped product with non-constant quotient curvature
    from killing3 import fields
    from killing3.metric_family import MetricSpec

    spec = MetricSpec(phi=fields.from_expr(lambda r, t: 1.0 + 0.3 * r * r * r),
                      h=fields.constant(0.0), k=fields.constant(0.0),
                      name="warp")
    fit = flatness_verdict(Geometry(spec, *_point_grid()))
    assert fit.verdict == NOT_FLAT
    assert fit.cy_max > 1e-3


def test_grid_sampled_tolerance_path():
    spec = catalog("hopf", {"R": 1.0})
    gspec = to_grid_sampled(spec, np.linspace(0.15, 1.35, 120),
                            np.linspace(0.0, 2 * np.pi, 40))
    fit = flatness_verdict(Geometry(gspec, *_point_grid(n=10, r_lo=0.3, r_hi=1.1)))
    assert fit.verdict == FLAT  # grid tolerance 1e-4 absorbs spline noise


def test_tmg_residual_einstein_metrics():
    # Einstein metrics with CY = 0 satisfy the TMG condition exactly
    assert tmg_residual(Geometry(catalog("flat"), 0.5, 0.5)) < 1e-13
    assert tmg_residual(Geometry(catalog("hopf", {"R": 1.0}), 0.6, 0.1)) < 1e-12


def test_tmg_residual_nil_nonzero():
    # CY - traceless Ricci for nil: diag(-1,1/2,1/2) - diag(2/3,-1/3,-1/3)
    res = tmg_residual(Geometry(catalog("nil", {"omega0": 1.0}), 0.5, 0.2))
    expected = np.sqrt((5.0 / 3.0) ** 2 + 2 * (5.0 / 6.0) ** 2)
    assert res == pytest.approx(expected, rel=1e-10)
