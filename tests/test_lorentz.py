import numpy as np
import pytest

from cli_matrix import hopf_grid_csv
from test_sym_oracle import CASES

from killing3 import (LORENTZIAN, RIEMANNIAN, cli, fields, lorentz_completeness,
                      lorentz_relations_check, to_lorentz)
from killing3.completeness_probe import COMPLETE, curvature_profile
from killing3.conformal_family import wpde_residual
from killing3.curvature_engine import (gaussian_identity_residual, ricci_tt,
                                       spectrum_vs_eigensolve_residual)
from killing3.errors import AlreadyLorentzian, DomainError
from killing3.frame_calculus import Geometry
from killing3.metric_family import (CATALOG_NAMES, catalog, flip_residual, load_grid_csv,
                                    metric_components, timelike_residual)

POINTS = [(0.35, 0.4), (0.8, 2.1), (1.1, 5.0)]

CATALOGS = ["flat", "hopf", "nil", "hyperbolic"]


def test_to_lorentz_flip_invariants():
    for name in CATALOGS:
        pair = to_lorentz(catalog(name))
        for p in POINTS:
            geo, partner = Geometry(pair.riemannian, *p), Geometry(pair.lorentzian, *p)
            assert flip_residual(geo, partner) < 1e-12
            assert timelike_residual(partner) < 1e-12


def test_lorentz_flip_column_sees_an_unflipped_partner(monkeypatch):
    # a partner that keeps g_R misses the flip by 2 T^b_t T^b_t = 2 at every
    # point (hopf R = 2 has |phi h| < 1 on this grid); a flip column computed
    # from the flip formula itself would still read 0
    unflipped = property(lambda geo: Geometry(geo.spec, geo.r, geo.theta, order=2))  # eta = +1
    monkeypatch.setattr(Geometry, "partner", unflipped)
    config = cli.RunConfig(command="lorentz", spec_path="",
                           grid=(0.3, 1.1, 0.0, 2 * np.pi), n_points=12)
    records, summary, ok = cli._RUNNERS["lorentz"](catalog("hopf", {"R": 2.0}), config)
    np.testing.assert_allclose([rec["flip"] for rec in records], 2.0, rtol=1e-12)
    assert summary["max_timelike"] == pytest.approx(2.0) and not ok


def _partner_specs():
    """hopf (R = 2), nil, hyperbolic, cf_family (B = 0.3, C = 1), the two theta-dependent
    oracle triples and hopf (R = 2) on the 24 x 24 grid."""
    specs = {name: catalog(name, params) for name, params in
             [("hopf", {"R": 2.0}), ("nil", None), ("hyperbolic", None),
              ("cf_family", {"B": 0.3, "C": 1.0})]}
    specs |= {name: CASES[name][0]() for name in ("theta_triple", "theta_triple_2")}
    return specs | {"grid": load_grid_csv(hopf_grid_csv())}


PARTNER_SPECS = _partner_specs()


@pytest.mark.parametrize("order", [3, 2])
@pytest.mark.parametrize("signature", [RIEMANNIAN, LORENTZIAN])
@pytest.mark.parametrize("name", sorted(PARTNER_SPECS))
def test_partner_is_the_other_signatures_geometry_bit_for_bit(name, signature, order):
    # the partner reuses its twin's field and coframe jets, truncated to order min(n, 2);
    # a fresh Geometry of the other signature evaluates them at that order
    spec = PARTNER_SPECS[name].with_signature(signature)
    other = spec.with_signature(LORENTZIAN if signature == RIEMANNIAN else RIEMANNIAN)
    rng = np.random.default_rng(5)
    rs, thetas = rng.uniform(0.3, 1.1, 9), rng.uniform(0.0, 6.2, 9)
    for r, theta in [(rs, thetas)] + list(zip(rs, thetas)):  # the batch, then width 1
        partner = Geometry(spec, r, theta, order).partner
        fresh = Geometry(other, r, theta, min(order, 2))
        assert partner.spec.signature == other.signature and partner.order == fresh.order
        for stage in ("g", "ginv", "gamma", "ric", "scalar"):
            value = getattr(partner, stage).value
            assert value.tobytes() == getattr(fresh, stage).value.tobytes(), (stage, r, theta)
            assert value.shape == getattr(fresh, stage).value.shape


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_timelike_column_checks_g_against_its_inverse(name):
    # g_L^-1(T^b, T^b) = g_L(T, T) = -1 holds only if g^-1 inverts g
    spec = catalog(name, {"B": 0.3, "C": 1.0} if name == "cf_family" else None)
    _, summary, ok = cli._RUNNERS["lorentz"](spec, cli.RunConfig(command="lorentz", spec_path=""))
    assert summary["max_timelike"] <= 1e-15 and ok
    pair = to_lorentz(spec)
    partner = Geometry(pair.lorentzian, [0.4, 0.9], [1.0, 4.0])
    ginv = partner.ginv
    partner.ginv = Geometry(pair.riemannian, partner.r, partner.theta).ginv  # the wrong signature
    np.testing.assert_allclose(timelike_residual(partner), 2.0, rtol=1e-12)
    partner.ginv = ginv * (1.0 + 1e-12)  # off by 1e-12
    assert np.all(timelike_residual(partner) > 1e-13)


def test_to_lorentz_rejects_lorentzian():
    pair = to_lorentz(catalog("flat"))
    with pytest.raises(AlreadyLorentzian):
        to_lorentz(pair.lorentzian)


def test_relations_check_rejects_lorentzian_geometry():
    pair = to_lorentz(catalog("nil", {"omega0": 1.0}))
    with pytest.raises(AlreadyLorentzian):
        lorentz_relations_check(Geometry(pair.lorentzian, 0.5, 1.0))


def _hopf_partner():
    """hopf R = 2's Lorentzian partner at (0.5, 0.1) and (0.9, 2.0)."""
    pair = to_lorentz(catalog("hopf", {"R": 2.0}))
    return Geometry(pair.lorentzian, np.array([0.5, 0.9]), np.array([0.1, 2.0]))


def test_cotton_york_matrix_refuses_lorentzian_geometry():
    with pytest.raises(DomainError, match="^the Cotton-York matrix is defined for the "
                                          "Riemannian case$"):
        _hopf_partner().cotton_york_matrix


def test_wpde_residual_refuses_lorentzian_geometry():
    with pytest.raises(DomainError, match="^the curvature packet is defined for the "
                                          "Riemannian case$"):
        wpde_residual(_hopf_partner(), 0.3, 1.0)


def test_spectrum_check_refuses_lorentzian_geometry():
    # the closed-form spectrum is Riemannian; on the partner it would differ from the
    # eigensolve by a silent 0.5
    with pytest.raises(DomainError, match="^the curvature packet is defined for the "
                                          "Riemannian case$"):
        spectrum_vs_eigensolve_residual(_hopf_partner())


def test_flat_is_minkowski():
    pair = to_lorentz(catalog("flat"))
    g = metric_components(pair.lorentzian, (0.5, 1.0))
    np.testing.assert_allclose(g, np.diag([-1.0, 1.0, 1.0]), atol=1e-15)


def test_relations_all_catalogs():
    for name in CATALOGS:
        pair = to_lorentz(catalog(name))
        for p in POINTS:
            res_ric, res_scalar = lorentz_relations_check(Geometry(pair.riemannian, *p))
            assert res_ric < 1e-10, name
            assert res_scalar < 1e-10, name


def test_hopf_lorentz_scalar():
    pair = to_lorentz(catalog("hopf", {"R": 1.0}))
    geo = Geometry(pair.lorentzian, 0.6, 0.3, 2)
    s_l, ric_l = geo.scalar.value, ricci_tt(geo)
    assert float(s_l) == pytest.approx(10.0, rel=1e-10)
    assert float(ric_l) == pytest.approx(2.0, rel=1e-10)


def test_cf_family_relations():
    pair = to_lorentz(catalog("cf_family", {"B": 0.0, "C": 1.0}))
    for p in [(0.3, 0.7), (-0.9, 2.0)]:
        res_ric, res_scalar = lorentz_relations_check(Geometry(pair.riemannian, *p))
        assert res_ric < 1e-7
        assert res_scalar < 1e-7


def test_lorentz_killing_field():
    from killing3.np_formalism import killing_test

    pair = to_lorentz(catalog("nil", {"omega0": 1.0}))
    r, theta = np.transpose(POINTS)
    report = killing_test(Geometry(pair.lorentzian, r, theta))  # T is unit timelike
    assert report.max_lie_residual < 1e-9


def test_completeness_agreement():
    for name, expected_tail in [("hyperbolic", -2.0), ("flat", 0.0),
                                ("hopf", 8.0)]:
        spec = catalog(name, {"R": 1.0} if name == "hopf" else None)
        pair = to_lorentz(spec)
        r_max = 1.45 if name == "hopf" else 5.0
        verdict, profile, agreement = lorentz_completeness(pair, r_max)
        assert agreement < 1e-8
        assert profile.tail_estimate == pytest.approx(expected_tail, abs=1e-8)
        if name != "hopf":
            assert verdict == COMPLETE
        rprof = curvature_profile(pair.riemannian, r_max)
        np.testing.assert_allclose(rprof.inf_values, profile.inf_values,
                                   atol=1e-8)
        # the partner's own profile is the same criterion, S_L + g(T,T) Ric_L(T,T)
        lprof = curvature_profile(pair.lorentzian, r_max)
        assert lprof.inf_values.tobytes() == profile.inf_values.tobytes()


def test_lorentz_completeness_evaluates_one_mesh(monkeypatch):
    # the Lorentzian criterion is read off the partner of the Riemannian mesh: one build,
    # and phi, h and k evaluated once each
    calls, builds = [], []
    jet, init = fields.ScalarField.jet, Geometry.__init__
    monkeypatch.setattr(fields.ScalarField, "jet",
                        lambda field, *args: calls.append(field) or jet(field, *args))
    monkeypatch.setattr(Geometry, "__init__",
                        lambda geo, *a, **kw: builds.append(geo) or init(geo, *a, **kw))
    spec = catalog("hyperbolic")
    lorentz_completeness(to_lorentz(spec), 5.0)
    assert sorted(map(id, calls)) == sorted(map(id, (spec.phi, spec.h, spec.k)))
    assert len(builds) == 1


#: every catalog at its defaults, and the specs of the partner test above
IDENTITY_SPECS = {f"{name}_default": catalog(name) for name in CATALOG_NAMES} | PARTNER_SPECS


def test_quotient_gaussian_curvature_identity():
    # Gaussian curvature of the quotient = (S_L - Ric_L(T,T)) / 2 at a batch of points, on the
    # partner of a Riemannian Geometry, as lorentz_completeness reads it
    rng = np.random.default_rng(3)
    r, theta = rng.uniform(0.3, 1.1, 16), rng.uniform(0.0, 6.2, 16)
    for name, spec in IDENTITY_SPECS.items():
        partner = Geometry(spec, r, theta).partner
        assert partner.spec.signature == LORENTZIAN, name
        assert np.max(gaussian_identity_residual(partner)) < 1e-10, name
        gauss = -partner.phi.d(2, 0) / partner.phi.value
        s_l, ric_l = partner.scalar.value, ricci_tt(partner)
        np.testing.assert_allclose(gauss, 0.5 * (s_l - ric_l), rtol=0.0, atol=1e-10, err_msg=name)


def test_signature_flag_propagates():
    pair = to_lorentz(catalog("hyperbolic"))
    assert pair.lorentzian.signature == LORENTZIAN
    assert pair.riemannian.phi is pair.lorentzian.phi
