import numpy as np
import pytest

from killing3 import fields, jets, to_lorentz
from killing3.errors import EmptyGrid, NotUnitLength
from killing3.frame_calculus import Geometry
from killing3.metric_family import MetricSpec, catalog, frame_gram_residual
from killing3.np_formalism import (_rescaled, conformal_rescale_check, killing_test,
                                   kinematics, rotate_frame,
                                   spin_coefficients, structure_residuals)

POINTS = [(0.35, 0.4), (0.8, 2.1), (1.1, 5.0)]


def test_hopf_spin_coefficients():
    sc = spin_coefficients(Geometry(catalog("hopf", {"R": 1.0}), np.pi / 4, 0.3))
    assert sc.kappa == pytest.approx(0.0, abs=1e-13)
    assert sc.sigma == pytest.approx(0.0, abs=1e-13)
    assert sc.rho == pytest.approx(-1.0j, abs=1e-12)
    assert sc.epsilon == pytest.approx(-1.0j, abs=1e-12)
    assert sc.twist == pytest.approx(2.0, rel=1e-12)
    assert sc.divergence == pytest.approx(0.0, abs=1e-12)


def test_hyperbolic_beta():
    # beta = -(i / sqrt 2) tanh r at r = 1
    sc = spin_coefficients(Geometry(catalog("hyperbolic"), 1.0, 0.0))
    assert sc.beta == pytest.approx(-1j * np.tanh(1.0) / np.sqrt(2.0), abs=1e-12)
    assert sc.rho == pytest.approx(0.0, abs=1e-13)


def test_killing_gauge_relations():
    """kappa = sigma = 0 and rho = epsilon = -i omega / 2 for catalog T fields."""
    for name in ("flat", "hopf", "nil", "hyperbolic"):
        spec = catalog(name)
        for p in POINTS:
            sc = spin_coefficients(Geometry(spec, *p))
            assert abs(sc.kappa) < 1e-12
            assert abs(sc.sigma) < 1e-12
            assert sc.rho == pytest.approx(-0.5j * sc.twist, abs=1e-12)
            assert sc.epsilon == pytest.approx(-0.5j * sc.twist, abs=1e-12)


def test_kinematics_d_matrix():
    kin = kinematics(Geometry(catalog("hopf", {"R": 1.0}), 0.5, 0.2))
    assert kin.twist == pytest.approx(2.0, rel=1e-12)
    assert kin.divergence == pytest.approx(0.0, abs=1e-12)
    assert abs(kin.shear) < 1e-12
    np.testing.assert_allclose(kin.d_matrix, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)


def test_structure_residuals_all_catalogs():
    for name in ("flat", "hopf", "nil", "hyperbolic"):
        spec = catalog(name)
        for p in POINTS:
            res = structure_residuals(Geometry(spec, *p))
            assert res.max_abs() < 1e-12, (name, p)


def test_structure_residuals_fail_on_wrong_sign():
    """A deliberately wrong twist sign breaks the structure equations."""
    spec = catalog("nil", {"omega0": 1.0})
    flipped = MetricSpec(spec.phi,
                         fields.from_expr(lambda r, t: r * 1.0),  # h = +r
                         spec.k, spec.signature, "nil_flipped", {})
    res = structure_residuals(Geometry(flipped, 0.7, 0.2))
    # the Killing-lemma identities still hold (any t-independent h is Killing),
    # but the twist flips sign, which the rho/epsilon gauge values must track
    sc = spin_coefficients(Geometry(flipped, 0.7, 0.2))
    assert sc.twist == pytest.approx(-1.0, rel=1e-12)
    assert res.max_abs() < 1e-12


def test_killing_test_on_catalog_T():
    report = killing_test(Geometry(catalog("hyperbolic"), *np.transpose(POINTS)))
    assert report.is_killing
    assert report.max_geodesic < 1e-12
    assert report.max_divergence < 1e-12
    assert report.max_shear < 1e-12


def test_killing_test_radial_field_closed_form():
    # V = d/dr on dt^2 + dr^2 + cosh(r)^2 dtheta^2: unit and geodesic, with
    # div V = tanh r, |sigma| = tanh(r)/2 and (L_V g)_thth = sinh 2r
    comps = [fields.constant(0.0), fields.constant(1.0), fields.constant(0.0)]
    r = np.array([0.3, 0.8, 1.4])
    report = killing_test(Geometry(catalog("hyperbolic"), r, [0.2, 3.0, 5.0]),
                          components=comps)
    assert report.n_points == 3
    assert report.max_divergence == pytest.approx(np.tanh(1.4), rel=1e-13)
    assert report.max_shear == pytest.approx(np.tanh(1.4) / 2.0, rel=1e-13)
    assert report.max_lie_residual == pytest.approx(np.sinh(2.8), rel=1e-13)
    assert report.max_geodesic == pytest.approx(0.0, abs=1e-13)


def test_killing_test_lorentzian_needs_unit_timelike():
    # d/dr is unit but spacelike for the Lorentzian partner: refused, naming
    # the first point (it reported divergence 0 and shear 0 before)
    comps = [fields.constant(0.0), fields.constant(1.0), fields.constant(0.0)]
    geo = Geometry(to_lorentz(catalog("hyperbolic")).lorentzian, [0.3, 0.8], [0.2, 3.0])
    with pytest.raises(NotUnitLength, match=r"\(0\.3, 0\.2\)"):
        killing_test(geo, components=comps)


def test_killing_test_rejects_non_unit():
    spec = catalog("flat")
    comps = [fields.constant(2.0), fields.constant(0.0), fields.constant(0.0)]
    with pytest.raises(NotUnitLength):
        killing_test(Geometry(spec, 0.5, 0.1), components=comps)


def test_killing_test_empty_grid():
    with pytest.raises(EmptyGrid):
        killing_test(Geometry(catalog("flat"), [], []))


def test_killing_test_detects_non_killing_field():
    # unit field X of the hyperbolic metric: not Killing (sheared flow)
    spec = catalog("hyperbolic")
    comps = [fields.constant(0.0), fields.constant(0.0),
             fields.from_expr(lambda r, t: 1.0 / jets.cosh(r))]
    report = killing_test(Geometry(spec, [0.5, 1.0], [0.2, 1.0]), components=comps)
    assert not report.is_killing
    assert report.max_lie_residual > 1e-4


def test_rotation_laws_seeded_angles():
    rng = np.random.default_rng(3)
    spec = catalog("hyperbolic")
    for _ in range(3):
        a, b, c = rng.normal(size=3)
        angle = fields.from_expr(
            lambda r, t, a=a, b=b, c=c: a * jets.sin(r) + b * jets.cos(t) + c * r * t)
        rot = rotate_frame(Geometry(spec, 0.8, 0.4), angle)
        assert rot.max_law_residual() < 1e-9
        # rho is frame-invariant
        base = spin_coefficients(Geometry(spec, 0.8, 0.4))
        assert rot.coefficients.rho == pytest.approx(base.rho, abs=1e-12)


@pytest.mark.parametrize("name", ["hopf", "nil", "hyperbolic", "cf_family"])
def test_rotated_frame_is_the_same_pipeline(name):
    # a zero angle leaves the frame's bits, so the rotated Geometry's own spin
    # is spin_coefficients' to the bit; a constant angle only multiplies by phases
    geo = Geometry(catalog(name), np.array([0.4, 0.8]), np.array([0.1, 1.0]))
    base = spin_coefficients(geo)
    zero = rotate_frame(geo, fields.constant(0.0)).coefficients
    turned = rotate_frame(geo, fields.constant(0.7)).coefficients
    ph = np.exp(0.7j)
    for key, phase in [("kappa", ph), ("rho", 1.0), ("sigma", ph * ph),
                       ("epsilon", 1.0), ("beta", ph)]:
        assert getattr(zero, key).tobytes() == getattr(base, key).tobytes(), key
        np.testing.assert_allclose(getattr(turned, key), phase * getattr(base, key),
                                   rtol=0, atol=1e-12, err_msg=key)


@pytest.mark.parametrize("name", ["hopf", "nil", "cf_family"])
def test_rotated_and_rescaled_geometries_reuse_the_fields(monkeypatch, name):
    # each call evaluates its own field (the angle, f) once and builds no Geometry: the
    # rotated and the rescaled Geometry take geo's fields and coframe
    geo = Geometry(catalog(name), np.array([0.4, 0.8]), np.array([0.1, 1.0]))
    calls = []
    jet, init = fields.ScalarField.jet, Geometry.__init__
    monkeypatch.setattr(fields.ScalarField, "jet",
                        lambda self, *a, **k: calls.append("jet") or jet(self, *a, **k))
    monkeypatch.setattr(Geometry, "__init__",
                        lambda self, *a, **k: calls.append("init") or init(self, *a, **k))
    angle = fields.from_expr(lambda r, t: 0.3 * jets.sin(r) + 0.2 * r * t)
    f = fields.from_expr(lambda r, t: 0.2 * r + 0.3 * jets.sin(t))
    for check in (lambda: rotate_frame(geo, angle), lambda: conformal_rescale_check(geo, f)):
        calls.clear()
        check()
        assert calls == ["jet"]


def test_conformal_rescaling_laws():
    rng = np.random.default_rng(11)
    for name in ("hopf", "hyperbolic"):
        spec = catalog(name)
        for _ in range(3):
            a, b = rng.normal(scale=0.4, size=2)
            f = fields.from_expr(
                lambda r, t, a=a, b=b: a * r + b * jets.sin(t))
            geo = Geometry(spec, 0.7, 1.3)
            cc = conformal_rescale_check(geo, f)
            assert cc.residual_omega < 1e-10
            assert cc.residual_shear < 1e-10
            # the rescaled metric and frame come from one rescaled coframe
            conf = _rescaled(geo, f.jet(geo.r, geo.theta, geo.order))
            assert frame_gram_residual(conf) <= 1e-13
            np.testing.assert_allclose(conf.g.value,
                                       np.exp(2.0 * f.value(geo.r, geo.theta)) * geo.g.value,
                                       rtol=0, atol=1e-13)


def test_conformal_rescaling_preserves_twist_free():
    f = fields.from_expr(lambda r, t: 0.5 * r)
    cc = conformal_rescale_check(Geometry(catalog("hyperbolic"), 0.9, 0.1), f)
    assert cc.omega == pytest.approx(0.0, abs=1e-13)
    assert cc.omega_rescaled == pytest.approx(0.0, abs=1e-13)
