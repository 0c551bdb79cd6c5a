"""Batched analyses must reproduce their width-1 calls.

Every point-level analysis takes a ``Geometry`` and returns values of its
batch shape, so a sweep over n points builds one batched ``Geometry``, whose
``partner`` is its Lorentzian side, and the same function called on a
one-point ``Geometry`` is the per-point view.  These tests hold the batched
columns to the width-1 calls at 1e-13, for the analyses themselves, for the
reductions over the points (``flatness_verdict`` and ``killing_test``), and
for the ``analyze``, ``verify`` and ``lorentz`` sweep records; they also count
the ``Geometry`` builds and field evaluations of each sweep.  The ``Geometry``
stages themselves match bit for bit.
"""

import dataclasses

import numpy as np
import pytest
from cli_matrix import hopf_grid_csv
from hypothesis import given, settings
from hypothesis import strategies as st

from killing3 import RIEMANNIAN, fields, jets, lorentz_relations_check, to_lorentz
from killing3.cli import _RUNNERS, RunConfig
from killing3.conformal_family import wpde_residual
from killing3.cotton_york import cotton_york, flatness_verdict, tmg_residual
from killing3.curvature_engine import (christoffels, curvature_packet,
                                       gaussian_identity_residual, ricci_tt,
                                       spectrum_vs_eigensolve_residual)
from killing3.frame_calculus import Geometry
from killing3.jets import NCOEFFS
from killing3.metric_family import (CATALOG_NAMES, MetricSpec, catalog, flip_residual,
                                    frame_gram_residual, load_grid_csv, timelike_residual,
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
    "spectrum_vs_eigensolve_residual": spectrum_vs_eigensolve_residual,
    "christoffels": christoffels,
    "rotate_frame": _rotate_frame,
    "conformal_rescale_check": lambda geo: conformal_rescale_check(geo, CONFORMAL_F),
    "ricci_positive": lambda geo: curvature_packet(geo).ricci_positive,
    "sectional_positive": lambda geo: curvature_packet(geo).sectional_positive,
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
    batch = curvature_packet(Geometry(spec, *np.transpose(pts)))
    _close(batch.omega, [pk.omega for pk in packets])
    _close(batch.scalar_S, [pk.scalar_S for pk in packets])
    _close(batch.grad_omega_sq, [pk.grad_omega_sq for pk in packets])
    _close(batch.ric_of_T.norm_sq, [pk.ric_of_T.norm_sq for pk in packets])


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
    partner = geo.partner
    ric_res, s_res = lorentz_relations_check(geo)
    if command == "verify":
        return {"structure": structure_residuals(geo).max_abs(),
                "gaussian": gaussian_identity_residual(geo),
                "spectrum_agreement": spectrum_vs_eigensolve_residual(geo),
                "gram": frame_gram_residual(geo),
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
                         [("analyze", 1), ("verify", 1), ("lorentz", 1), ("flatness", 1)])
def test_sweep_geometry_builds(monkeypatch, command, builds):
    """One Geometry per sweep: its Lorentzian partner is derived from it, not built."""
    count = _count_builds(monkeypatch)
    _RUNNERS[command](SPECS["hopf"](), _sweep_config(command))
    assert len(count) == builds


@pytest.mark.parametrize("command", ["analyze", "verify", "lorentz", "flatness"])
def test_sweep_evaluates_each_field_once(monkeypatch, command):
    # phi, h and k once each: the Lorentzian partner reuses the sweep's field jets
    calls, jet = [], fields.ScalarField.jet
    monkeypatch.setattr(fields.ScalarField, "jet",
                        lambda field, *args: calls.append(field) or jet(field, *args))
    spec = SPECS["hopf"]()
    _RUNNERS[command](spec, _sweep_config(command))
    assert sorted(map(id, calls)) == sorted(map(id, (spec.phi, spec.h, spec.k)))


def test_killing_test_geometry_builds(monkeypatch):
    count = _count_builds(monkeypatch)
    report = killing_test(Geometry(SPECS["hopf"](), *np.transpose(_points())))
    assert report.n_points == 12 and len(count) == 1


def _stage_specs():
    """Every catalog, cf_family also at the CLI's (B, C) = (0.3, 1), each one's Lorentzian
    partner, and hopf (R = 2) on the 24 x 24 grid."""
    specs = {name: catalog(name) for name in CATALOG_NAMES}
    specs["cf_family_b03"] = catalog("cf_family", {"B": 0.3, "C": 1.0})
    specs |= {f"{name}_lorentzian": to_lorentz(spec).lorentzian for name, spec in specs.items()}
    return specs | {"grid": load_grid_csv(hopf_grid_csv())}


STAGE_SPECS = _stage_specs()
STAGES = ("g", "ginv", "gamma", "ric", "scalar", "omega", "connection")


def _stage_values(geo):
    """Each stage's values, then, on a Riemannian spec, Cotton-York, spin, structure, the
    curvature packet and the TMG residual (the Lorentzian partner refuses them)."""
    values = {stage: getattr(geo, stage).value for stage in STAGES}
    if geo.spec.signature == RIEMANNIAN:
        pk = curvature_packet(geo)
        values |= {"cotton_york_matrix": geo.cotton_york_matrix, "cy_norm": cotton_york(geo).norm,
                   "spin": np.array([j.value for j in geo.spin]),
                   "structure": structure_residuals(geo).max_abs(),
                   "grad_omega_sq": pk.grad_omega_sq, "ric_of_T.norm_sq": pk.ric_of_T.norm_sq,
                   "spectrum": np.array(pk.spectrum), "ric_frame": geo.ric_frame.value,
                   "tmg_residual": tmg_residual(geo)}
    return values


@pytest.mark.parametrize("name", sorted(STAGE_SPECS))
@settings(max_examples=25, deadline=None)
@given(st.floats(0.2, 1.2), st.floats(0.0, 6.0), st.sampled_from((2, 7, 64)), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_geometry_stages_do_not_depend_on_batch_width(name, r, theta, width, strided, seed):
    # a point's values at width 1 (a geodesic's right-hand side) are column i of any batch
    spec, rng = STAGE_SPECS[name], np.random.default_rng(seed)
    i = int(rng.integers(width))
    rs, thetas = rng.uniform(0.2, 1.2, width), rng.uniform(0.0, 6.0, width)
    rs[i], thetas[i] = r, theta
    if strided:  # the (r, theta) columns of an (n, 6) state array
        state = rng.random((width, 6))
        state[:, 1], state[:, 2] = rs, thetas
        rs, thetas = state[:, 1], state[:, 2]
    one = _stage_values(Geometry(spec, r, theta))
    batch = _stage_values(Geometry(spec, rs, thetas))
    assert one.keys() == batch.keys()
    for stage, single in one.items():
        assert np.asarray(single).tobytes() == batch[stage][..., i].tobytes(), stage


def _full_order_connection(geo):
    """C of the frame with nabla and every factor at order n - 1, one above the stage's."""
    e = jets.stack(geo.frame)
    nab = geo.grad(e).einsum("ajc->jac") + jets.contract("cab,jb->jac", geo.gamma, e)
    e = e.truncated(nab.order)
    dual = jets.contract("ka,ab->kb", e, geo.g)
    return jets.contract("ia,jak->ijk", e, jets.contract("jac,kc->jak", nab, dual))


def _full_order_ric(geo):
    """Ricci with its GG products from the full-order Gamma; the sum keeps order n - 2."""
    gam = geo.gamma
    trace = gam.einsum("aac->c")
    return (geo.grad(gam).einsum("aabc->bc") - geo.grad(trace)
            + jets.contract("e,ebc->bc", trace, gam) - jets.contract("abe,eac->bc", gam, gam))


@pytest.mark.parametrize("name", sorted(STAGE_SPECS))
def test_truncated_stages_keep_their_full_order_rows(name):
    # a stage cut to the order its readers take holds the first rows of the uncut stage
    spec, rng = STAGE_SPECS[name], np.random.default_rng(19)
    rs, thetas = rng.uniform(0.2, 1.2, 7), rng.uniform(0.0, 6.0, 7)
    for r, theta in ((rs, thetas), (rs[3], thetas[3])):
        geo = Geometry(spec, r, theta)
        full = _full_order_connection(geo)
        assert (geo.connection.order, full.order) == (1, 2)
        assert geo.connection.coeffs.tobytes() == full.coeffs[:NCOEFFS[1]].tobytes()
        assert geo.ric.order == 1
        assert geo.ric.coeffs.tobytes() == _full_order_ric(geo).coeffs.tobytes()
        # the Lorentz relations and the lorentz command read values at order 2
        low = Geometry(spec, r, theta, order=2)
        for value in (lambda geo: geo.g.value, lambda geo: geo.ginv.value,
                      lambda geo: geo.scalar.value, ricci_tt):
            assert value(low).tobytes() == value(geo).tobytes()


def test_twist_point_where_pow_and_product_differed():
    # here a scalar w**2 (pow) and an array one (a product) gave phi_r 2.8e-17 apart
    spec, (r, theta) = STAGE_SPECS["cf_family_b03"], (-0.4249195626598282, 5.348575191191961)
    one, pair = Geometry(spec, r, theta, order=1), Geometry(spec, [r, 0.5], [theta, 1.0], order=1)
    assert one.phi.coeffs.tobytes() == pair.phi.coeffs[..., 0].tobytes()
    assert one.gamma.value.tobytes() == pair.gamma.value[..., 0].tobytes()
