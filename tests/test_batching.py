"""Batched analyses must reproduce the per-point APIs they replace.

``flatness_verdict`` and ``hamilton_inequality`` evaluate their whole grid as
one batched ``Geometry``; the per-point ``curvature_packet`` and
``cotton_york`` stay the reference.
"""

import numpy as np
import pytest

from killing3 import fields, jets
from killing3.cotton_york import cotton_york, flatness_verdict
from killing3.curvature_engine import (curvature_packet, hamilton_inequality,
                                       twist_data)
from killing3.frame_calculus import Geometry
from killing3.metric_family import MetricSpec, catalog, to_grid_sampled

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


@pytest.mark.parametrize("name", sorted(SPECS))
def test_flatness_batch_matches_pointwise(name):
    spec, pts = SPECS[name](), _points()
    fit = flatness_verdict(spec, pts)
    _close(fit.cy_norms, [cotton_york(spec, p).norm for p in pts])
    assert fit.cy_max == max(fit.cy_norms)

    packets = [curvature_packet(spec, p) for p in pts]
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
        pk = curvature_packet(spec, p)
        ric_tt = pk.omega**2 / 2.0
        rhs = 2.0 * pk.ric_of_T.norm_sq / ric_tt - ric_tt
        rhs_strict = 2.0 * pk.grad_omega_sq / pk.omega**2 + pk.omega**2
        assert v.point == pk.point
        _close([v.scalar_S, v.rhs, v.rhs_strict], [pk.scalar_S, rhs, rhs_strict])
        assert v.holds == (pk.scalar_S > rhs)
        assert v.holds_strict == (pk.scalar_S > rhs_strict)
    assert ok == all(v.holds for v in verdicts)
