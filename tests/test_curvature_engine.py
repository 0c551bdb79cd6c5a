import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from killing3 import to_lorentz
from killing3.curvature_engine import (christoffels, curvature_packet,
                                       gaussian_identity_residual, spectrum_closed_form,
                                       spectrum_vs_eigensolve_residual)
from killing3.errors import NonFinite
from killing3.frame_calculus import Geometry
from killing3.jets import Jet2
from killing3.metric_family import catalog
from oracles import (bisect_eigenvalues, fd_christoffels, fd_metric, fd_ricci, fd_riemann,
                     fd_scalar)

POINTS = [(0.35, 0.4), (0.8, 2.1), (1.1, 5.0)]


@pytest.fixture(scope="module")
def catalogs():
    return {
        "flat": catalog("flat"),
        "hopf": catalog("hopf", {"R": 1.0}),
        "nil": catalog("nil", {"omega0": 1.0}),
        "hyperbolic": catalog("hyperbolic"),
    }


def test_christoffels_match_fd_oracle(catalogs):
    for name, spec in catalogs.items():
        for p in POINTS:
            gam = christoffels(Geometry(spec, *p))
            oracle = fd_christoffels(spec, p[0], p[1])
            np.testing.assert_allclose(gam, oracle, atol=5e-9,
                                       err_msg=f"{name} at {p}")


def test_hyperbolic_christoffel_value():
    spec = catalog("hyperbolic")
    gam = christoffels(Geometry(spec, 1.0, 0.0))
    # Gamma^r_theta,theta = -phi phi_r = -cosh(1) sinh(1)
    assert gam[1, 2, 2] == pytest.approx(-np.cosh(1.0) * np.sinh(1.0), rel=1e-12)


def test_ricci_against_fd_oracle(catalogs):
    for name, spec in catalogs.items():
        for p in POINTS[:2]:
            pk = curvature_packet(Geometry(spec, *p))
            s_fd = fd_scalar(spec, p[0], p[1])
            assert pk.scalar_S == pytest.approx(s_fd, abs=5e-6), name


def _frame_sectional(geo):
    """Sectional curvatures of the frame planes (X, Y), (T, X), (T, Y): in three dimensions
    the plane with unit normal n has S/2 - Ric(n, n)."""
    rf, half_s = geo.ric_frame.value, geo.scalar.value / 2.0
    return [half_s - rf[n, n] for n in (0, 2, 1)]


def test_hopf_sectional_curvature():
    # round sphere of radius R: every frame plane has curvature 1/R^2
    for radius in (1.0, 2.0):
        spec = catalog("hopf", {"R": radius})
        geo = Geometry(spec, radius * np.array([0.3, 0.6, 1.1]), np.array([0.1, 2.0, 4.5]))
        for sec in _frame_sectional(geo):
            np.testing.assert_allclose(sec, 1.0 / radius**2, rtol=0, atol=1e-12)


def test_nil_sectional_curvature():
    # nil with omega0 = 1: K(X, Y) = S/2 - Ric(T, T) = -1/4 - 1/2
    geo = Geometry(catalog("nil", {"omega0": 1.0}), 0.7, 0.2)
    assert _frame_sectional(geo)[0] == pytest.approx(-0.75, abs=1e-12)


def _riemann_from_ricci(geo):
    """R(e_a, e_b, e_c, e_w) = -[g_ac R_bw - g_aw R_bc + g_bw R_ac - g_bc R_aw
    - (S/2)(g_ac g_bw - g_aw g_bc)]: in three dimensions the Weyl tensor vanishes."""
    g, ric, s = geo.g.value, geo.ric.value, geo.scalar.value
    gg = np.einsum("ac,bw->abcw", g, g)
    gr = np.einsum("ac,bw->abcw", g, ric) + np.einsum("ac,bw->abcw", ric, g)
    return -(gr - gr.swapaxes(2, 3) - 0.5 * s * (gg - gg.swapaxes(2, 3)))


@pytest.mark.parametrize("spec", [
    catalog("hopf", {"R": 1.0}), catalog("hopf", {"R": 2.0}), catalog("nil"),
    catalog("hyperbolic"), catalog("cf_family", {"B": 0.3, "C": 1.0}),
    to_lorentz(catalog("hopf", {"R": 2.0})).lorentzian,
], ids=["hopf", "hopf_r2", "nil", "hyperbolic", "cf_family", "hopf_lorentzian"])
def test_ricci_determines_riemann_against_fd_oracle(spec):
    # the full Ricci tensor, S and g, against a Riemann tensor by finite differences of g
    for r, theta in POINTS:
        fd = np.einsum("dw,dcab->abcw", fd_metric(spec, r, theta), fd_riemann(spec, r, theta))
        np.testing.assert_allclose(_riemann_from_ricci(Geometry(spec, r, theta)), fd,
                                   rtol=0, atol=1e-6, err_msg=f"{spec.name} at {(r, theta)}")


def test_packet_values_hopf():
    geo = Geometry(catalog("hopf", {"R": 1.0}), np.pi / 4, 0.3)
    pk = curvature_packet(geo)
    assert pk.omega == pytest.approx(2.0, rel=1e-12)
    assert pk.scalar_S == pytest.approx(6.0, rel=1e-12)
    assert pk.ric_of_T.t_component == pytest.approx(2.0, rel=1e-12)
    np.testing.assert_allclose(pk.spectrum, [2.0, 2.0, 2.0], atol=1e-11)
    np.testing.assert_allclose(geo.ric_frame.value, 2.0 * np.eye(3), atol=1e-11)


def test_packet_values_nil():
    pk = curvature_packet(Geometry(catalog("nil", {"omega0": 1.0}), 0.7, 0.2))
    assert pk.scalar_S == pytest.approx(-0.5, abs=1e-12)
    assert sorted(pk.spectrum) == pytest.approx([-0.5, -0.5, 0.5], abs=1e-12)
    assert pk.spectrum[0] >= pk.spectrum[1]  # closed-form ordering


def _closed_form_ricci(ric_t, s, omega):
    """Ricci on (T, X, Y) from the paper's closed forms: Ric(T) in the T row and column,
    S/2 - omega^2/4 on the X-Y diagonal and 0 off it."""
    t, x, y = ric_t
    diag = s / 2.0 - omega * omega / 4.0
    zero = 0.0 * diag
    return np.array([[t, x, y], [x, diag, zero], [y, zero, diag]])


def test_ric_operator_matches_direct_ricci(catalogs):
    for name, spec in catalogs.items():
        for p in POINTS:
            geo = Geometry(spec, *p)
            pk = curvature_packet(geo)
            rt = pk.ric_of_T
            closed = _closed_form_ricci((rt.t_component, rt.x_component, rt.y_component),
                                        pk.scalar_S, pk.omega)
            np.testing.assert_allclose(geo.ric_frame.value, closed, rtol=0, atol=1e-10,
                                       err_msg=f"{name} at {p}")


def test_spectrum_closed_form_vs_eigensolve(catalogs):
    for spec in catalogs.values():
        for p in POINTS:
            assert spectrum_vs_eigensolve_residual(Geometry(spec, *p)) < 1e-9


def _with_ric_frame(geo, change):
    """geo with its ric_frame stage replaced by change(coefficients)."""
    rf = geo.ric_frame
    geo.__dict__["ric_frame"] = Jet2(change(rf.coeffs.copy()), rf.order)
    return geo


@pytest.mark.parametrize("spec", [
    catalog("hopf", {"R": 2.0}), catalog("nil"), catalog("cf_family", {"B": 0.3, "C": 1.0}),
], ids=["hopf", "nil", "cf_family"])
def test_spectrum_residual_reads_the_geometry_ricci(spec):
    # a 1e-3 shift of Ric(X, X) moves the eigensolve away from the closed forms at every point
    def shift_xx(c):
        c[0, 1, 1] += 1e-3
        return c

    r, theta = np.linspace(0.3, 1.1, 9), np.linspace(0.0, 6.0, 9)
    assert np.max(spectrum_vs_eigensolve_residual(Geometry(spec, r, theta))) < 1e-12
    res = spectrum_vs_eigensolve_residual(_with_ric_frame(Geometry(spec, r, theta), shift_xx))
    assert np.min(res) >= 1e-4


def test_spectrum_residual_rejects_non_finite():
    geo = _with_ric_frame(Geometry(catalog("nil"), 0.4, 0.9), lambda c: np.full_like(c, np.nan))
    with pytest.raises(NonFinite):
        spectrum_vs_eigensolve_residual(geo)


def test_bisection_oracle_with_tiny_householder_vector():
    # (m10, m20) ~ 2e-160: formed from the raw column, v.v is a subnormal
    tiny = 1.98e-160
    m = np.array([[0.0, tiny, tiny], [tiny, 0.0, 1.0], [tiny, 1.0, 0.0]])
    np.testing.assert_allclose(bisect_eigenvalues(m), np.linalg.eigvalsh(m), atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4))
def test_closed_form_spectrum_against_bisection_oracle(entries):
    omega, s, x_omega, y_omega = entries
    lams = spectrum_closed_form(omega, s, x_omega**2 + y_omega**2)
    oracle = bisect_eigenvalues(
        _closed_form_ricci((omega * omega / 2.0, -y_omega / 2.0, x_omega / 2.0), s, omega))
    np.testing.assert_allclose(oracle, np.sort(lams), atol=1e-8)


def test_ric_of_t_norm():
    # |Ric(T)|^2 = (omega^4 + |grad omega|^2) / 4
    spec = catalog("nil", {"omega0": 1.0})
    pk = curvature_packet(Geometry(spec, 0.4, 0.9))
    assert pk.ric_of_T.norm_sq == pytest.approx(
        0.25 * (pk.omega**4 + pk.grad_omega_sq), rel=1e-12)


def test_gaussian_identity(catalogs):
    # -phi_rr/phi = (S + g(T,T) Ric(T,T))/2 on each metric and on its Lorentzian partner
    cf_family = catalog("cf_family", {"B": 0.3, "C": 1.0})
    for name, spec in {**catalogs, "cf_family": cf_family}.items():
        for s in (spec, to_lorentz(spec).lorentzian):
            res = gaussian_identity_residual(Geometry(s, np.array([0.4, 0.8, 1.2]),
                                                      np.array([0.0, 2.0, 4.0])))
            assert np.max(res) < 1e-10, (name, s.signature)


TWISTING = {
    "hopf R=1": catalog("hopf", {"R": 1.0}), "hopf R=2": catalog("hopf", {"R": 2.0}),
    "nil": catalog("nil"), "cf B=0.3 C=1": catalog("cf_family", {"B": 0.3, "C": 1.0}),
    "cf B=-0.5 C=2": catalog("cf_family", {"B": -0.5, "C": 2.0}),
    "cf B=-1 C=1": catalog("cf_family", {"B": -1.0, "C": 1.0}),
}


def _sign_geometry(spec, n=400):
    """A Geometry at n seeded points of spec's r range (cf_family's arc, else 0.1 to 1.4)."""
    lo, hi = spec.params.get("r_range", (0.1, 1.4))
    u, v = np.random.default_rng(5).random((2, n))
    return Geometry(spec, lo + (hi - lo) * u, 2.0 * np.pi * v)


@pytest.mark.parametrize("name", sorted(TWISTING))
def test_curvature_signs_match_hamilton_forms_and_eigensolve(name):
    geo = _sign_geometry(TWISTING[name])
    pk = curvature_packet(geo)
    # Hamilton's two forms divide by omega^2, nonzero here; Ric(T) is the T row of the frame Ricci
    rf = geo.ric_frame.value
    ric_tt, ric_t_sq = rf[0, 0], np.sum(rf[0] * rf[0], axis=0)
    s, w2 = pk.scalar_S, pk.omega * pk.omega
    assert np.min(w2) > 0.0
    np.testing.assert_array_equal(pk.ricci_positive, s > 2.0 * ric_t_sq / ric_tt - ric_tt)
    np.testing.assert_array_equal(pk.sectional_positive, s > 2.0 * pk.grad_omega_sq / w2 + w2)
    # the signs of an eigensolve of that Ricci: least eigenvalue > 0, greatest < S/2
    eig = np.linalg.eigvalsh(np.moveaxis(rf, (0, 1), (-2, -1)))
    np.testing.assert_array_equal(pk.ricci_positive, eig[:, 0] > 0.0)
    np.testing.assert_array_equal(pk.sectional_positive, eig[:, 2] < s / 2.0)
    # hopf is a round S^3, nil has S = -omega^2/2 < 0, and cf_family is positive in part
    for flags in (pk.ricci_positive, pk.sectional_positive):
        if name.startswith("cf"):
            assert 0.0 < np.mean(flags) < 1.0
        else:
            assert np.all(flags == name.startswith("hopf"))


@pytest.mark.parametrize("name", ["flat", "hyperbolic"])
def test_curvature_signs_without_twist_read_false(name):
    pk = curvature_packet(_sign_geometry(catalog(name), n=20))
    assert not np.any(pk.ricci_positive) and not np.any(pk.sectional_positive)


def test_fd_ricci_cross_check_hopf():
    spec = catalog("hopf", {"R": 1.0})
    ric = fd_ricci(spec, 0.6, 0.3)
    from killing3.metric_family import metric_components

    # round metric: Ric = 2 g in coordinates
    g = metric_components(spec, (0.6, 0.3))
    np.testing.assert_allclose(ric, 2.0 * g, atol=1e-5)
