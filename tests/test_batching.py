"""Batched analyses must reproduce their width-1 calls.

Every point-level analysis takes a ``Geometry`` and returns values of its
batch shape, so a sweep over n points builds one batched ``Geometry`` per
signature and the same function called on a one-point ``Geometry`` is the
per-point view.  These tests hold the batched columns to the width-1 calls
at 1e-13, for the analyses themselves, for ``flatness_verdict`` and
``hamilton_inequality`` (which take a grid), and for the ``analyze``,
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
from killing3.curvature_engine import (curvature_packet,
                                       gaussian_identity_residual,
                                       hamilton_inequality,
                                       spectrum_vs_eigensolve_residual,
                                       twist_data)
from killing3.frame_calculus import Geometry
from killing3.lorentz_bridge import lorentz_relations_check, to_lorentz
from killing3.metric_family import (MetricSpec, catalog, frame_gram_residual,
                                    to_grid_sampled)
from killing3.np_formalism import (kinematics, spin_coefficients,
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
}


def _leaves(result):
    """The arrays of an analysis result, dataclass fields and tuples flattened."""
    if dataclasses.is_dataclass(result):
        return [leaf for f in dataclasses.fields(result)
                for leaf in _leaves(getattr(result, f.name))]
    if isinstance(result, tuple):
        return [leaf for item in result for leaf in _leaves(item)]
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
    fit = flatness_verdict(spec, pts)
    _close(fit.cy_norms, [cotton_york(Geometry(spec, *p)).norm for p in pts])
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
    verdicts, ok = hamilton_inequality(spec, pts)
    assert len(verdicts) == len(pts)
    for v, p in zip(verdicts, pts):
        pk = curvature_packet(Geometry(spec, *p))
        ric_tt = pk.omega**2 / 2.0
        rhs = 2.0 * pk.ric_of_T.norm_sq / ric_tt - ric_tt
        rhs_strict = 2.0 * pk.grad_omega_sq / pk.omega**2 + pk.omega**2
        assert v.point == p
        _close([v.scalar_S, v.rhs, v.rhs_strict], [pk.scalar_S, rhs, rhs_strict])
        assert v.holds == (pk.scalar_S > rhs)
        assert v.holds_strict == (pk.scalar_S > rhs_strict)
    assert ok == all(v.holds for v in verdicts)


def _pointwise_record(command, spec, p):
    """The record a sweep command reports at p, from width-1 calls."""
    geo = Geometry(spec, *p)
    if command == "analyze":
        pk, kin = curvature_packet(geo), kinematics(geo)
        return {"S": pk.scalar_S, "ric_TT": pk.ric_of_T.t_component,
                "omega": pk.omega, "div": kin.divergence,
                "shear": abs(kin.shear), "spectrum": list(pk.spectrum),
                "cy_norm": cotton_york(geo).norm}
    ric_res, s_res = lorentz_relations_check(geo)
    if command == "verify":
        return {"structure": structure_residuals(geo).max_abs(),
                "gaussian": gaussian_identity_residual(geo),
                "spectrum_agreement": spectrum_vs_eigensolve_residual(
                    curvature_packet(geo)),
                "gram": frame_gram_residual(spec, p),
                "lorentz_ric": ric_res, "lorentz_scalar": s_res}
    pair = to_lorentz(spec)
    return {"flip": pair.flip_residual(p), "timelike": pair.timelike_residual(p),
            "ric_TT": ric_res, "scalar": s_res}


def _sweep_config(command):
    return RunConfig(command=command, spec_path="",
                     grid=(0.3, 1.1, 8, 0.0, 2 * np.pi, 8), n_points=12)


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


@pytest.mark.parametrize("command, builds",
                         [("analyze", 1), ("verify", 2), ("lorentz", 2)])
def test_sweep_geometry_builds(monkeypatch, command, builds):
    """One Geometry per signature: the Riemannian sweep, plus its Lorentzian partner."""
    count = []
    init = Geometry.__init__

    def counting_init(self, *args, **kwargs):
        count.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Geometry, "__init__", counting_init)
    _RUNNERS[command](SPECS["hopf"](), _sweep_config(command))
    assert len(count) == builds
