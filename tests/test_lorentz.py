import numpy as np
import pytest

from killing3 import cli
from killing3.completeness_probe import COMPLETE, curvature_profile
from killing3.curvature_engine import scalar_and_ric_tt
from killing3.errors import AlreadyLorentzian
from killing3.frame_calculus import Geometry
from killing3.lorentz_bridge import (flip_residual, lorentz_completeness,
                                     lorentz_relations_check, timelike_residual,
                                     to_lorentz)
from killing3.metric_family import catalog, metric_components
from killing3.tensor_core import LORENTZIAN

POINTS = [(0.35, 0.4), (0.8, 2.1), (1.1, 5.0)]

CATALOGS = ["flat", "hopf", "nil", "hyperbolic"]


def test_to_lorentz_flip_invariants():
    for name in CATALOGS:
        pair = to_lorentz(catalog(name))
        for p in POINTS:
            geo, partner = Geometry(pair.riemannian, *p), Geometry(pair.lorentzian, *p)
            assert flip_residual(geo, partner) < 1e-12
            assert timelike_residual(partner) < 1e-12


class _Unflipped(Geometry):
    """Treats every spec as Riemannian: eta = +1 whatever the signature."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._eta = 1.0


def test_lorentz_flip_column_sees_an_unflipped_partner(monkeypatch):
    # a partner that keeps g_R misses the flip by 2 T^b_t T^b_t = 2 at every
    # point (hopf R = 2 has |phi h| < 1 on this grid); a flip column computed
    # from the flip formula itself would still read 0
    monkeypatch.setattr(cli, "Geometry", _Unflipped)
    config = cli.RunConfig(command="lorentz", spec_path="",
                           grid=(0.3, 1.1, 0.0, 2 * np.pi), n_points=12)
    records, summary, ok = cli._RUNNERS["lorentz"](catalog("hopf", {"R": 2.0}), config)
    np.testing.assert_allclose([rec["flip"] for rec in records], 2.0, rtol=1e-12)
    assert summary["max_timelike"] == pytest.approx(2.0) and not ok


def test_to_lorentz_rejects_lorentzian():
    pair = to_lorentz(catalog("flat"))
    with pytest.raises(AlreadyLorentzian):
        to_lorentz(pair.lorentzian)


def test_relations_check_rejects_lorentzian_geometry():
    pair = to_lorentz(catalog("nil", {"omega0": 1.0}))
    with pytest.raises(AlreadyLorentzian):
        lorentz_relations_check(Geometry(pair.lorentzian, 0.5, 1.0))


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
    s_l, ric_l = scalar_and_ric_tt(pair.lorentzian, 0.6, 0.3)
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


def test_quotient_gaussian_curvature_identity():
    # Gaussian curvature of the quotient = (S_L - Ric_L(T,T)) / 2
    spec = catalog("hyperbolic")
    pair = to_lorentz(spec)
    s_l, ric_l = scalar_and_ric_tt(pair.lorentzian, 0.8, 0.0)
    gauss = -float(spec.phi.jet(0.8, 0.0).d(2, 0) / spec.phi.value(0.8, 0.0))
    assert gauss == pytest.approx(0.5 * (float(s_l) - float(ric_l)), abs=1e-10)


def test_signature_flag_propagates():
    pair = to_lorentz(catalog("hyperbolic"))
    assert pair.lorentzian.signature == LORENTZIAN
    assert pair.riemannian.phi is pair.lorentzian.phi
