"""The jet pipeline against the symbolic oracle of ``sym_oracle``.

One batched Geometry per metric is held to the sympy derivation at 1e-12,
relative to the scale of each quantity: Christoffel symbols, S, Ric(T, T),
the twist, the Ricci tensor on the frame {T, X, Y}, the packet's closed-form
Ricci spectrum against the eigenvalues of that symbolic Ricci, and the
Cotton-York norm, plus S and Ric(T, T) of each Lorentzian partner, and the
Lorentz relations between the two signatures on every oracle metric.
"""

import numpy as np
import pytest
import sympy as sp

from killing3 import LORENTZIAN, fields, jets, lorentz_relations_check
from killing3.cotton_york import cotton_york
from killing3.curvature_engine import christoffels, curvature_packet, ricci_tt
from killing3.frame_calculus import Geometry
from killing3.metric_family import MetricSpec, catalog
from sym_oracle import Derivation, r, theta

RTOL = 1e-12


def _theta_triple_spec():
    return MetricSpec(
        fields.from_expr(lambda r, t: jets.sin(r) * (1.0 + jets.cos(t) * 0.2)),
        fields.from_expr(lambda r, t: r * r * (1.0 / 3.0) + jets.sin(t) * (1.0 / 7.0)),
        fields.from_expr(lambda r, t: jets.cos(r) * jets.sin(t) * 0.2),
        name="theta_triple")


def _theta_triple_2_spec():
    return MetricSpec(
        fields.from_expr(lambda r, t: jets.cosh(r) * (1.0 + jets.sin(t) * 0.25)),
        fields.from_expr(lambda r, t: jets.exp(-r) * jets.cos(t) * (1.0 / 3.0)),
        fields.from_expr(lambda r, t: r * jets.sin(t * 2.0) * (1.0 / 6.0)),
        name="theta_triple_2")


#: name -> (spec factory, the same (phi, h, k) in sympy)
CASES = {
    "hopf": (lambda: catalog("hopf", {"R": 2.0}), (sp.sin(r), -sp.tan(r / 2), 0)),
    "nil": (lambda: catalog("nil", {"omega0": 1.0}), (1, -r, 0)),
    "hyperbolic": (lambda: catalog("hyperbolic"), (sp.cosh(r), 0, 0)),
    "theta_triple": (_theta_triple_spec,
                     (sp.sin(r) * (1 + sp.cos(theta) / 5), r**2 / 3 + sp.sin(theta) / 7,
                      sp.cos(r) * sp.sin(theta) / 5)),
    "theta_triple_2": (_theta_triple_2_spec,
                       (sp.cosh(r) * (1 + sp.sin(theta) / 4), sp.exp(-r) * sp.cos(theta) / 3,
                        r * sp.sin(2 * theta) / 6)),
}

_rng = np.random.default_rng(11)
R_PTS = _rng.uniform(0.3, 2.6, 12)
THETA_PTS = _rng.uniform(0.0, 2.0 * np.pi, 12)


@pytest.fixture(scope="module")
def riemannian():
    return Derivation(eta=1)


@pytest.fixture(scope="module")
def lorentzian():
    return Derivation(eta=-1, cotton_york=False)


def _assert_close(actual, expected, what):
    scale = max(1.0, float(np.max(np.abs(expected))))
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=RTOL * scale, err_msg=what)


@pytest.mark.parametrize("name", sorted(CASES))
def test_geometry_matches_sympy(riemannian, name):
    make_spec, triple = CASES[name]
    geo = Geometry(make_spec(), R_PTS, THETA_PTS)
    oracle = riemannian.at(triple, R_PTS, THETA_PTS)
    _assert_close(christoffels(geo), oracle["gamma"], f"{name} Gamma")
    _assert_close(geo.scalar.value, oracle["scalar"], f"{name} S")
    _assert_close(ricci_tt(geo), oracle["ric_tt"], f"{name} Ric(T,T)")
    _assert_close(geo.omega.value, oracle["omega"], f"{name} omega")
    _assert_close(geo.ric_frame.value, oracle["ric_frame"], f"{name} Ricci on the frame")
    eig = np.linalg.eigvalsh(np.moveaxis(oracle["ric_frame"], (0, 1), (-2, -1)))
    _assert_close(np.sort(np.stack(curvature_packet(geo).spectrum, axis=-1), axis=-1), eig,
                  f"{name} closed-form spectrum")
    _assert_close(cotton_york(geo).norm, oracle["cy_norm"], f"{name} |CY|")


@pytest.mark.parametrize("name", sorted(CASES))
def test_lorentzian_partner_matches_sympy(lorentzian, name):
    make_spec, triple = CASES[name]
    geo = Geometry(make_spec().with_signature(LORENTZIAN), R_PTS, THETA_PTS)
    oracle = lorentzian.at(triple, R_PTS, THETA_PTS)
    _assert_close(geo.scalar.value, oracle["scalar"], f"{name} S_L")
    _assert_close(ricci_tt(geo), oracle["ric_tt"], f"{name} Ric_L(T,T)")


@pytest.mark.parametrize("name", sorted(CASES))
def test_lorentz_relations_on_oracle_metrics(name):
    # Ric_L(T,T) = Ric_R(T,T) and S_L = S_R + 2 Ric_R(T,T), with no oracle needed
    geo = Geometry(CASES[name][0](), R_PTS, THETA_PTS)
    scale = max(1.0, float(np.max(np.abs(geo.scalar.value))), float(np.max(np.abs(ricci_tt(geo)))))
    ric_res, s_res = lorentz_relations_check(geo)
    assert np.max(ric_res) <= RTOL * scale and np.max(s_res) <= RTOL * scale


def test_nil_cotton_york_norm_is_exact(riemannian):
    # nil with omega0 = 1 has |CY| = sqrt(3/2) at every point
    oracle = riemannian.at(CASES["nil"][1], [0.7], [0.2])
    assert oracle["cy_norm"][0] == pytest.approx(np.sqrt(1.5), rel=1e-15)
