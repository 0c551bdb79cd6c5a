from functools import cached_property

import numpy as np
import pytest

from conftest import GEODESIC_PINS
from killing3 import completeness_probe, jets, lorentz_completeness, to_lorentz
from killing3.cli import parse_metric_spec
from killing3.completeness_probe import (COMPLETE, INCOMPLETE, INCONCLUSIVE,
                                         CurvatureProfile, GeodesicState, completeness_verdict,
                                         curvature_profile, integrate_geodesic, make_state)
from killing3.errors import (BadParams, BlowUp, EmptyGrid, EmptyProfile, NonFinite,
                             NotUnitLength)
from killing3.fields import ScalarField, from_expr
from killing3.frame_calculus import Geometry
from killing3.metric_family import CATALOG_NAMES, MetricSpec, catalog
from oracles import fd_metric, gamma_geodesic, gamma_rhs


def test_hyperbolic_profile_constant():
    prof = curvature_profile(catalog("hyperbolic"), r_max=5.0)
    np.testing.assert_allclose(prof.inf_values, -2.0, atol=1e-10)
    assert prof.tail_estimate == pytest.approx(-2.0, abs=1e-10)
    assert completeness_verdict(prof) == COMPLETE


def test_flat_profile_boundary_case():
    prof = curvature_profile(catalog("flat"), r_max=5.0)
    np.testing.assert_allclose(prof.inf_values, 0.0, atol=1e-12)
    assert completeness_verdict(prof) == COMPLETE


def test_hopf_profile_constant_eight():
    prof = curvature_profile(catalog("hopf", {"R": 1.0}), r_max=1.45)
    np.testing.assert_allclose(prof.inf_values, 8.0, atol=1e-9)


def test_synthetic_incomplete_profile():
    prof = CurvatureProfile.from_minima(np.linspace(1.0, 10.0, 40), np.ones(40), 0)
    assert completeness_verdict(prof) == INCOMPLETE


_ZERO, _TEN = completeness_probe.TOL_ZERO, completeness_probe.TOL_INCOMPLETE


@pytest.mark.parametrize("tail, verdict", [
    (-1.0, COMPLETE), (0.0, COMPLETE), (_ZERO, COMPLETE),
    (np.nextafter(_ZERO, 1.0), INCONCLUSIVE), (5e-6, INCONCLUSIVE), (_TEN, INCONCLUSIVE),
    (np.nextafter(_TEN, 1.0), INCOMPLETE), (1.0, INCOMPLETE)])
def test_calm_tail_verdict_bands(tail, verdict):
    """Complete up to 1e-6 (TOL_ZERO), Inconclusive up to 1e-5 (TOL_INCOMPLETE), then Incomplete."""
    assert _TEN == 1e-5
    prof = CurvatureProfile.from_minima(np.linspace(1.0, 10.0, 40), np.full(40, tail), 0)
    assert prof.tail_estimate == tail and prof.tail_oscillation == 0.0
    assert completeness_verdict(prof) == verdict


def test_oscillating_tail_is_inconclusive():
    radii = np.linspace(1.0, 10.0, 40)
    prof = CurvatureProfile.from_minima(radii, 1.0 + 0.8 * np.sin(radii * 3.0), 0)
    assert completeness_verdict(prof) == INCONCLUSIVE


def test_empty_profile_raises():
    prof = CurvatureProfile.from_minima(np.array([1.0]), np.array([0.0]), 0)
    object.__setattr__(prof, "radii", np.array([]))
    with pytest.raises(EmptyProfile):
        completeness_verdict(prof)


@pytest.mark.parametrize("n_r, n_theta", [(0, 32), (64, 0), (-1, 32), (64, -3), (0, 0)])
def test_empty_mesh_is_refused(n_r, n_theta):
    # n_r = 0 divided by zero, n_theta = 0 took numpy's min of an empty array
    pair = to_lorentz(catalog("hopf", {"R": 2.0}))
    with pytest.raises(EmptyGrid, match="has no point"):
        curvature_profile(pair.riemannian, 2.9, n_r=n_r, n_theta=n_theta)
    with pytest.raises(EmptyGrid, match="has no point"):
        lorentz_completeness(pair, 2.9, n_r, n_theta)


@pytest.mark.parametrize("r_max", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_bad_r_max_is_refused(r_max):
    # a NaN r_max read Inconclusive from a NaN tail; r_max <= 0 gave descending radii,
    # which from_minima does not take, and read CompleteCriterion on nil
    pair = to_lorentz(catalog("nil"))
    with pytest.raises(BadParams, match="finite positive r_max"):
        curvature_profile(pair.riemannian, r_max)
    with pytest.raises(BadParams, match="finite positive r_max"):
        lorentz_completeness(pair, r_max)


@pytest.mark.parametrize("profile", [
    lambda pair: curvature_profile(pair.riemannian, 5e4),
    lambda pair: lorentz_completeness(pair, 5e4)], ids=["riemannian", "lorentzian"])
def test_non_finite_profile_is_refused(profile):
    # past r ~ 710 hyperbolic's phi = cosh r has a NaN value row, and every radius of this
    # mesh (from 781.25) lies there: the NaN tail read Inconclusive
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFinite, match=r"^non-finite criterion at r = 781\.25$"):
            profile(to_lorentz(catalog("hyperbolic")))


def test_profile_refinement_consistency():
    coarse = curvature_profile(catalog("hyperbolic"), 4.0, n_r=32, n_theta=8)
    fine = curvature_profile(catalog("hyperbolic"), 4.0, n_r=32, n_theta=64)
    assert np.all(fine.inf_values <= coarse.inf_values + 1e-12)


def test_make_state_normalizes():
    st = make_state(catalog("flat"), (0.0, 0.5, 0.0), (3.0, 4.0, 0.0))
    assert st.speed == pytest.approx(1.0, abs=1e-14)


def test_flat_radial_geodesic_is_straight():
    spec = catalog("flat")
    st = make_state(spec, (0.0, 0.5, 0.3), (0.0, 1.0, 0.0))
    traj = integrate_geodesic(spec, st, 10.0)
    assert traj.max_c_drift < 1e-12
    assert traj.max_speed_drift < 1e-12
    np.testing.assert_allclose(traj.states[:, 1], 0.5 + traj.s, atol=1e-10)
    np.testing.assert_allclose(traj.states[:, 2], 0.3, atol=1e-12)


def test_hyperbolic_long_geodesic_drift():
    spec = catalog("hyperbolic")
    st = make_state(spec, (0.0, 0.5, 0.2), (0.3, 0.8, 0.4))
    traj = integrate_geodesic(spec, st, 100.0)
    assert traj.max_c_drift < 1e-8
    assert traj.max_speed_drift < 1e-8


def test_drift_tightens_with_tolerance():
    """Halved-tolerance audit: tighter step control cannot worsen the drift floor."""
    spec = catalog("hyperbolic")
    st = make_state(spec, (0.0, 0.5, 0.2), (0.1, 0.9, 0.3))
    loose = integrate_geodesic(spec, st, 50.0, step_tol=1e-8)
    tight = integrate_geodesic(spec, st, 50.0, step_tol=1e-11)
    assert tight.max_speed_drift <= max(loose.max_speed_drift, 1e-12)


def test_unit_speed_required():
    spec = catalog("flat")
    st = make_state(spec, (0.0, 0.5, 0.0), (0.0, 1.0, 0.0))
    bad = type(st)(st.t, st.r, st.theta, st.velocities * 2.0,
                   st.conserved_c, 4.0)
    with pytest.raises(NotUnitLength):
        integrate_geodesic(spec, bad, 1.0)


def test_hopf_equatorial_geodesic_period():
    # horizontal great circle on the quotient sphere of radius 1/2:
    # r stays at pi/4 and theta advances by 2 per unit affine length
    spec = catalog("hopf", {"R": 1.0})
    st = make_state(spec, (0.0, np.pi / 4, 0.0), (-1.0, 0.0, 2.0))
    assert abs(st.conserved_c) < 1e-12
    traj = integrate_geodesic(spec, st, 2 * np.pi)
    np.testing.assert_allclose(traj.states[:, 1], np.pi / 4, atol=1e-9)
    # closes after affine length pi (= 2 pi * quotient radius 1/2)
    i = np.argmin(np.abs(traj.s - np.pi))
    assert traj.states[i, 2] == pytest.approx(2.0 * np.pi, abs=1e-6)


def test_projection_consistency_hopf():
    # the horizontal (c = 0) geodesic is the quotient's geodesic; it follows the 3-D one
    spec = catalog("hopf", {"R": 1.0})
    st = make_state(spec, (0.0, np.pi / 4, 0.0), (-1.0, 0.0, 2.0))
    traj = integrate_geodesic(spec, st, 20.0, n_samples=201)
    _, oracle = gamma_geodesic(spec, st, 20.0, n_samples=201)
    assert np.max(np.hypot(*(traj.states[:, 1:3] - oracle[:, 1:3]).T)) < 1e-6
    assert traj.max_c_drift < 1e-8


def test_quotient_geodesic_standalone():
    # radial lines are geodesics of dr^2 + phi^2 dtheta^2, and a horizontal start stays so
    spec = catalog("hyperbolic")
    traj = integrate_geodesic(spec, make_state(spec, (0.0, 0.3, 1.0), (0.0, 1.0, 0.0)), 5.0)
    np.testing.assert_allclose(traj.states[:, 1], 0.3 + traj.s, atol=1e-10)
    np.testing.assert_array_equal(traj.states[:, [0, 2, 3]], [[0.0, 1.0, 0.0]] * len(traj.s))


def test_blowup_on_domain_exit():
    # hopf coordinates degenerate at r = pi/2; a radial geodesic hits it
    spec = catalog("hopf", {"R": 1.0})
    st = make_state(spec, (0.0, 1.0, 0.0), (0.0, 1.0, 0.0))
    with pytest.raises(BlowUp):
        integrate_geodesic(spec, st, 3.0)


@pytest.mark.parametrize("length", [0.0, np.nan, np.inf])
@pytest.mark.parametrize("lorentzian", [False, True])
def test_zero_or_non_finite_length_refused(lorentzian, length):
    spec = catalog("hopf", {"R": 2.0})
    spec = to_lorentz(spec).lorentzian if lorentzian else spec
    with pytest.raises(BadParams, match="^geodesic length must be finite and nonzero, got "):
        integrate_geodesic(spec, make_state(spec, (0.0, 0.8, 0.0), (0.3, 0.8, 0.4)), length)


def test_hyperbolic_runs_long_matching_verdict():
    # criterion consistency: the complete catalog integrates far without exit
    # (length capped by float range: phi^2 = cosh^2 r overflows near r = 355)
    spec = catalog("hyperbolic")
    st = make_state(spec, (0.0, 0.5, 0.2), (0.0, 1.0, 0.0))
    traj = integrate_geodesic(spec, st, 300.0, n_samples=31)
    assert traj.s[-1] == pytest.approx(300.0)


def test_trajectory_csv_roundtrip(tmp_path):
    spec = catalog("flat")
    st = make_state(spec, (0.0, 0.5, 0.0), (0.6, 0.8, 0.0))
    traj = integrate_geodesic(spec, st, 2.0, n_samples=11)
    out = tmp_path / "traj.csv"
    traj.to_csv(out)
    data = np.genfromtxt(out, delimiter=",", names=True)
    assert list(data.dtype.names) == traj.CSV_HEADER
    np.testing.assert_allclose(data["r"], traj.states[:, 1], atol=1e-12)


def test_criterion_10_hyperbolic_orbit_step_count(solver_nfev):
    # the hyperbolic orbit of acceptance criterion 10 moves its step count and its speed
    # drift (5.8e-9 against a 1e-8 gate) with the last bit of the right-hand side
    hyp, pin = catalog("hyperbolic"), GEODESIC_PINS["hyperbolic"]
    traj = integrate_geodesic(hyp, make_state(hyp, (0.0, 0.5, 0.2), (0.3, 0.8, 0.4)), 100.0)
    assert solver_nfev == [pin["nfev"]]
    assert (traj.max_c_drift, traj.max_speed_drift) == (pin["c_drift"], pin["speed_drift"])


def test_rhs_geometry_jet_budget(monkeypatch):
    """Jets built for the width-1, order-1 Christoffel symbols: per-call dispatch is most of
    the time of a small Geometry."""
    from killing3 import jets

    built = []
    init = jets.Jet2.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(jets.Jet2, "__init__", counted)
    Geometry(catalog("hopf", {"R": 2.0}), 0.7, 0.1, order=1).gamma
    assert len(built) <= 28


class _Captured(Exception):
    pass


def _geodesic_rhs(monkeypatch, spec, init):
    """The right-hand side integrate_geodesic hands its solver from ``init``, caught before the
    solve."""
    rhs = []

    def capture(fun, *args):
        rhs.append(fun)
        raise _Captured

    monkeypatch.setattr(completeness_probe, "solve_ivp", capture)
    with pytest.raises(_Captured):
        integrate_geodesic(spec, init, 1.0)
    return rhs[0]


def _rhs_specs():
    """Every catalog, each one's Lorentzian partner and a theta-dependent triple with k != 0."""
    specs = [catalog(name) for name in CATALOG_NAMES]
    specs += [to_lorentz(spec).lorentzian for spec in specs]
    return specs + [MetricSpec(from_expr(lambda r, t: 1.0 + 0.2 * jets.sin(r) * jets.cos(t)),
                               from_expr(lambda r, t: r * (-0.5) + 0.1 * jets.sin(t)),
                               from_expr(lambda r, t: 0.1 * r * jets.sin(t)))]


def test_reduced_rhs_is_the_gamma_acceleration():
    # at random states (t, r, theta, v), c = g(T, v), the reduced right-hand side gives
    # t' = v_t and the (r, theta) rows of -Gamma(v, v) from the 3-D Christoffel symbols
    rng, worst = np.random.default_rng(2021), 0.0
    for spec in _rhs_specs():
        with pytest.MonkeyPatch.context() as mp:
            for _ in range(100):
                y = np.concatenate([rng.normal(size=1), rng.uniform([0.2, 0.0], [1.2, 6.0]),
                                    rng.normal(size=3) * 10.0 ** rng.uniform(-3, 3)])
                v, c = y[3:], float(fd_metric(spec, y[1], y[2])[0] @ y[3:])
                rhs = _geodesic_rhs(mp, spec, GeodesicState(*y[:3], v, c, 1.0))
                out, acc = rhs(0.0, np.delete(y, 3)), gamma_rhs(spec)(0.0, y)[3:]
                assert out[1:3].tobytes() == v[1:].tobytes()
                scale = max(np.max(np.abs(acc)), v @ v)
                worst = max(worst, abs(out[0] - v[0]) / np.max(np.abs(v)),
                            np.max(np.abs(out[3:] - acc[1:])) / scale)
    assert worst < 1e-13


@pytest.mark.parametrize("name", ["hopf", "nil", "cf_family", "hopf_lorentzian"])
def test_reduced_geodesic_follows_the_gamma_oracle(name):
    pin = GEODESIC_PINS[name]
    spec = parse_metric_spec(pin["spec"])
    st = make_state(spec, (0.0, 0.7, 0.0), (0.3, 0.8, 0.4))
    traj = integrate_geodesic(spec, st, 20.0)
    s, oracle = gamma_geodesic(spec, st, 20.0)
    assert np.array_equal(traj.s, s)
    assert np.max(np.abs(traj.states[:, :3] - oracle[:, :3])) < 1e-8


def test_rhs_builds_one_geometry_and_reads_no_stage(monkeypatch):
    # the reduced system takes phi, h and k's order-1 jets from the Geometry, which checks
    # the domain, and no Christoffel symbol or other stage
    spec = catalog("hopf", {"R": 2.0})
    rhs = _geodesic_rhs(monkeypatch, spec, make_state(spec, (0.0, 0.7, 0.0), (0.3, 0.8, 0.4)))
    builds, stages, fields = [], [], []
    init, jet = Geometry.__init__, ScalarField.jet
    monkeypatch.setattr(Geometry, "__init__", lambda geo, *a, **kw: builds.append(a[1:]) or
                        init(geo, *a, **kw))
    monkeypatch.setattr(ScalarField, "jet", lambda f, *a: fields.append(a) or jet(f, *a))
    for name, stage in vars(Geometry).items():
        if isinstance(stage, cached_property):
            monkeypatch.setattr(stage, "func", lambda geo, f=stage.func, name=name:
                                stages.append(name) or f(geo))
    rhs(0.0, np.array([0.0, 0.7, 0.1, 0.8, 0.4]))
    assert builds == [(0.7, 0.1)] and stages == [] and len(fields) == 3


def test_geometry_stages_are_cached_properties_computed_once(monkeypatch):
    stages = {name: attr for name, attr in vars(Geometry).items()
              if isinstance(attr, cached_property)}
    assert {"coframe", "g", "ginv", "gamma", "ric", "scalar", "ric_frame", "omega",
            "spin", "cotton_york_matrix"} <= stages.keys()
    calls = []
    for name, stage in stages.items():
        monkeypatch.setattr(stage, "func", lambda geo, f=stage.func, name=name:
                            calls.append(name) or f(geo))
    geo = Geometry(catalog("hopf", {"R": 2.0}), np.array([0.7, 0.9]), np.array([0.1, 2.0]))
    first = {name: getattr(geo, name) for name in stages}
    assert all(getattr(geo, name) is value for name, value in first.items())
    assert sorted(calls) == sorted(stages)
