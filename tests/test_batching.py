"""Batched analyses must reproduce their width-1 calls.

Every point-level analysis takes a ``Geometry`` and returns values of its
batch shape, so a sweep over n points builds one batched ``Geometry`` per
signature and the same function called on a one-point ``Geometry`` is the
per-point view.  These tests hold the batched columns to the width-1 calls
at 1e-13, for the analyses themselves, for the reductions over the points
(``flatness_verdict`` and ``killing_test``), and for the ``analyze``,
``verify`` and ``lorentz`` sweep records; they also count the ``Geometry``
builds of each sweep.
"""

import dataclasses

import numpy as np
import pytest

from killing3 import fields, jets
from killing3.cli import _RUNNERS, RunConfig
from killing3.conformal_family import wpde_residual
from killing3.cotton_york import cotton_york, flatness_verdict, tmg_residual
from killing3.curvature_engine import (christoffels, curvature_packet,
                                       gaussian_identity_residual,
                                       hamilton_inequality, riemann,
                                       spectrum_vs_eigensolve_residual,
                                       twist_data)
from killing3.frame_calculus import Geometry
from killing3.lorentz_bridge import (flip_residual, lorentz_relations_check,
                                     timelike_residual, to_lorentz)
from killing3.metric_family import (MetricSpec, catalog, frame_gram_residual,
                                    to_grid_sampled)
from killing3.np_formalism import (conformal_rescale_check, killing_test,
                                   kinematics, rotate_frame, spin_coefficients,
                                   structure_residuals)

TOL = 1e-13


def _theta_dependent():
    return MetricSpec(
        phi=fields.from_expr(lambda r, t: 1.0 + 0.2 * jets.sin(r) * jets.cos(t)),
        h=fields.from_expr(lambda r, t: r * (-0.5) + 0.1 * jets.sin(t)),
        k=fields.from_expr(lambda r, t: 0.1 * r * jets.sin(t)),
        name="theta_dependent")


SPECS = {
    "hopf": lambda: catalog("hopf", {"R": 1.0}),
    "grid": lambda: to_grid_sampled(catalog("hopf", {"R": 1.0}),
                                    np.linspace(0.15, 1.35, 40),
                                    np.linspace(0.0, 2 * np.pi, 24)),
    "theta_dependent": _theta_dependent,
}


def _points(n=12):
    rng = np.random.default_rng(11)
    return [(0.3 + 0.8 * u, 2 * np.pi * v) for u, v in rng.random((n, 2))]


def _close(batched, pointwise):
    np.testing.assert_allclose(batched, pointwise, rtol=TOL, atol=TOL)


ANGLE = fields.from_expr(lambda r, t: 0.7 * jets.sin(r) + 0.4 * jets.cos(t) + 0.2 * r * t)
CONFORMAL_F = fields.from_expr(lambda r, t: 0.3 * r + 0.2 * jets.sin(t))


def _riemann(geo):
    r4 = riemann(geo)
    return (r4.components, r4.antisymmetry_residual(), r4.pair_symmetry_residual(),
            r4.first_bianchi_residual())


def _rotate_frame(geo):
    rot = rotate_frame(geo, ANGLE)
    return rot, rot.max_law_residual()


ANALYSES = {
    "curvature_packet": curvature_packet,
    "kinematics": kinematics,
    "spin_coefficients": spin_coefficients,
    "structure_residuals": structure_residuals,
    "cotton_york": cotton_york,
    "gaussian_identity_residual": gaussian_identity_residual,
    "tmg_residual": tmg_residual,
    "wpde_residual": lambda geo: wpde_residual(geo, 0.3, 1.0),
    "lorentz_relations_check": lorentz_relations_check,
    "spectrum_vs_eigensolve_residual":
        lambda geo: spectrum_vs_eigensolve_residual(curvature_packet(geo)),
    "christoffels": christoffels,
    "riemann": _riemann,
    "rotate_frame": _rotate_frame,
    "conformal_rescale_check": lambda geo: conformal_rescale_check(geo, CONFORMAL_F),
    "hamilton_inequality": lambda geo: hamilton_inequality(geo)[0],
}


def _leaves(result):
    """The arrays of an analysis result, dataclass fields and tuples flattened."""
    if dataclasses.is_dataclass(result):
        return [leaf for f in dataclasses.fields(result)
                for leaf in _leaves(getattr(result, f.name))]
    if isinstance(result, tuple):
        return [leaf for item in result for leaf in _leaves(item)]
    if isinstance(result, dict):
        return [leaf for item in result.values() for leaf in _leaves(item)]
    return [np.asarray(result)]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_analyses_batch_matches_width_one(name):
    spec, pts = SPECS[name](), np.asarray(_points())
    geo = Geometry(spec, pts[:, 0], pts[:, 1])
    batched = {key: _leaves(f(geo)) for key, f in ANALYSES.items()}
    for i, (r, theta) in enumerate(pts):
        one = Geometry(spec, r, theta)
        for key, f in ANALYSES.items():
            single = _leaves(f(one))
            assert len(single) == len(batched[key]), key
            for b, s in zip(batched[key], single):
                assert b.shape == s.shape + (len(pts),), key
                _close(b[..., i], s)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_flatness_batch_matches_pointwise(name):
    spec, pts = SPECS[name](), _points()
    fit = flatness_verdict(Geometry(spec, *np.transpose(pts)))
    _close(fit.cy_norms, [cotton_york(Geometry(spec, *p)).norm for p in pts])
    _close(fit.cy_norms, [flatness_verdict(Geometry(spec, *p)).cy_norms for p in pts])
    assert fit.cy_max == max(fit.cy_norms)

    packets = [curvature_packet(Geometry(spec, *p)) for p in pts]
    arr = np.asarray(pts)
    omega, s, xw, yw, ric_t = twist_data(Geometry(spec, arr[:, 0], arr[:, 1]))
    _close(omega, [pk.omega for pk in packets])
    _close(s, [pk.scalar_S for pk in packets])
    _close(xw**2 + yw**2, [pk.grad_omega_sq for pk in packets])
    _close(ric_t.norm_sq, [pk.ric_of_T.norm_sq for pk in packets])


@pytest.mark.parametrize("name", sorted(SPECS))
def test_hamilton_batch_matches_pointwise(name):
    spec, pts = SPECS[name](), _points()
    verdict, ok = hamilton_inequality(Geometry(spec, *np.transpose(pts)))
    assert verdict.holds.shape == (len(pts),)
    for i, p in enumerate(pts):
        pk = curvature_packet(Geometry(spec, *p))
        ric_tt = pk.omega**2 / 2.0
        rhs = 2.0 * pk.ric_of_T.norm_sq / ric_tt - ric_tt
        rhs_strict = 2.0 * pk.grad_omega_sq / pk.omega**2 + pk.omega**2
        assert (verdict.point[0][i], verdict.point[1][i]) == p
        _close([verdict.scalar_S[i], verdict.rhs[i], verdict.rhs_strict[i]],
               [pk.scalar_S, rhs, rhs_strict])
        assert verdict.holds[i] == (pk.scalar_S > rhs)
        assert verdict.holds_strict[i] == (pk.scalar_S > rhs_strict)
    assert ok == all(verdict.holds)


def _tilted_field(spec):
    """Components of (T + 0.3 X) / |T + 0.3 X|: unit, and not Killing."""
    n = np.sqrt(1.09)
    return [fields.ScalarField(lambda r, t, o: (1.0 + 0.3 * spec.h.jet(r, t, o)) * (1.0 / n)),
            fields.constant(0.0),
            fields.ScalarField(lambda r, t, o: (0.3 / n) / spec.phi.jet(r, t, o))]


@pytest.mark.parametrize("tilted", [False, True])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_killing_test_batch_matches_width_one(name, tilted):
    spec, pts = SPECS[name](), _points()
    comps = _tilted_field(spec) if tilted else None
    report = killing_test(Geometry(spec, *np.transpose(pts)), comps)
    singles = [killing_test(Geometry(spec, *p), comps) for p in pts]
    assert report.n_points == len(pts) and {s.n_points for s in singles} == {1}
    for key in ("max_lie_residual", "max_geodesic", "max_divergence", "max_shear"):
        _close(getattr(report, key), max(getattr(s, key) for s in singles))
    if tilted:
        assert report.max_lie_residual > 1e-4 and report.max_shear > 1e-4


def _pointwise_record(command, spec, p):
    """The record a sweep command reports at p, from width-1 calls."""
    geo = Geometry(spec, *p)
    if command == "analyze":
        pk, kin = curvature_packet(geo), kinematics(geo)
        return {"S": pk.scalar_S, "ric_TT": pk.ric_of_T.t_component,
                "omega": pk.omega, "div": kin.divergence,
                "shear": abs(kin.shear), "spectrum": list(pk.spectrum),
                "cy_norm": cotton_york(geo).norm}
    partner = Geometry(to_lorentz(spec).lorentzian, *p)
    ric_res, s_res = lorentz_relations_check(geo, partner)
    if command == "verify":
        return {"structure": structure_residuals(geo).max_abs(),
                "gaussian": gaussian_identity_residual(geo),
                "spectrum_agreement": spectrum_vs_eigensolve_residual(
                    curvature_packet(geo)),
                "gram": frame_gram_residual(spec, p),
                "lorentz_ric": ric_res, "lorentz_scalar": s_res}
    return {"flip": flip_residual(geo, partner), "timelike": timelike_residual(partner),
            "ric_TT": ric_res, "scalar": s_res}


def _sweep_config(command):
    return RunConfig(command=command, spec_path="",
                     grid=(0.3, 1.1, 0.0, 2 * np.pi), n_points=12)


@pytest.mark.parametrize("command", ["analyze", "verify", "lorentz"])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_sweep_records_match_pointwise(command, name):
    spec = SPECS[name]()
    records, _, _ = _RUNNERS[command](spec, _sweep_config(command))
    assert len(records) == 12
    for rec in records:
        p = tuple(rec.pop("point"))
        ref = _pointwise_record(command, spec, p)
        assert rec.keys() == ref.keys()
        for key, value in ref.items():
            _close(rec[key], value)


def _count_builds(monkeypatch):
    """A list that grows by one on each Geometry build."""
    count = []
    init = Geometry.__init__

    def counting_init(self, *args, **kwargs):
        count.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Geometry, "__init__", counting_init)
    return count


@pytest.mark.parametrize("command, builds",
                         [("analyze", 1), ("verify", 2), ("lorentz", 2), ("flatness", 1)])
def test_sweep_geometry_builds(monkeypatch, command, builds):
    """One Geometry per signature: the Riemannian sweep, plus its Lorentzian partner."""
    count = _count_builds(monkeypatch)
    _RUNNERS[command](SPECS["hopf"](), _sweep_config(command))
    assert len(count) == builds


def test_killing_test_geometry_builds(monkeypatch):
    count = _count_builds(monkeypatch)
    report = killing_test(Geometry(SPECS["hopf"](), *np.transpose(_points())))
    assert report.n_points == 12 and len(count) == 1
