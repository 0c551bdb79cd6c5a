import time

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from killing3 import conformal_family
from killing3.conformal_family import (SEPARATRIX_GAP, FamilyParams, OmegaSolution, _agm,
                                       _ellipf, _ellipj, build_cf_metric, solve_omega_ode,
                                       wpde_residual)
from killing3.curvature_engine import curvature_packet
from killing3.errors import EnergyDriftExceeded, InadmissibleParams, PhiVanishes
from killing3.frame_calculus import Geometry
from killing3.metric_family import catalog
from killing3 import fields, jets


def test_admissibility_rejection():
    # C + B^2 < potential at omega0
    with pytest.raises(InadmissibleParams):
        FamilyParams(B=0.0, C=0.1, omega0=2.0)
    with pytest.raises(InadmissibleParams):
        FamilyParams(B=0.0, C=1.0, omega_r0_sign=0)
    # C + B^2 or the potential at omega0 not finite, C + B^2 above 1e6, or a
    # well of B < -1e3, whose period 2 pi / sqrt(-2B) shrinks whatever C + B^2 is
    for params in [{"B": 1e200, "C": 1.0}, {"B": 0.0, "C": 1.0, "omega0": 1e200},
                   {"B": -1e308, "C": 1.0, "omega0": 1e200}, {"B": 0.0, "C": 1e300},
                   {"B": 0.0, "C": 1.0001e6},
                   {"B": -1e4, "C": -99999999.0, "omega0": 141.42135623730951}]:
        with pytest.raises(InadmissibleParams):
            FamilyParams(**params)


def test_zero_energy_rest_solution():
    sol = solve_omega_ode(FamilyParams(B=0.0, C=0.0, omega0=0.0))
    assert np.max(np.abs(sol.omega)) == 0.0
    assert sol.energy_drift == 0.0
    assert sol.period is None


def test_solution_off_its_energy_surface_is_refused():
    # omega = 1, omega_r = 0 has energy (1 + 0)^2 / 4 = 1/4, not C + B^2 = 1
    params = FamilyParams(B=0.0, C=1.0)
    with pytest.raises(EnergyDriftExceeded, match="^energy drift 7.500e-01 exceeds 1e-08$"):
        OmegaSolution(params, lambda r: (np.ones_like(r), 0.0 * r), 5.0, np.empty(0), None)


def test_turning_points_B0_C1():
    sol = solve_omega_ode(FamilyParams(B=0.0, C=1.0))
    w_at_turning = sol._eval(sol.turning_points)[0]
    np.testing.assert_allclose(np.abs(w_at_turning), np.sqrt(2.0), atol=1e-9)
    assert sol.energy_drift < 1e-8


def _quadrature_period_b0_c1():
    # T = 4 * int_0^{sqrt 2} domega / sqrt(C - omega^4 / 4) for B = 0, C = 1
    integrand = lambda w: 1.0 / np.sqrt(1.0 - w**4 / 4.0)
    period, _ = quad(integrand, 0.0, np.sqrt(2.0) * (1 - 1e-12), limit=200)
    return 4.0 * period


def test_period_against_quadrature_oracle():
    sol = solve_omega_ode(FamilyParams(B=0.0, C=1.0))
    assert sol.period == pytest.approx(_quadrature_period_b0_c1(), rel=1e-6)


def test_period_scaling_law_B0():
    # omega -> lambda omega(lambda r) maps C to lambda^4 C at B = 0: P(C) = P(1) C^(-1/4)
    sol = solve_omega_ode(FamilyParams(B=0.0, C=1e4))
    assert sol.period == pytest.approx(_quadrature_period_b0_c1() / 10.0, rel=1e-6)
    # every turning point is found: consecutive ones are half a period apart
    np.testing.assert_allclose(np.diff(sol.turning_points), sol.period / 2.0, rtol=1e-8)
    assert sol.turning_points[-1] - sol.turning_points[0] > 2.0 * sol.span - sol.period


def test_turning_point_at_origin_counted_once():
    # omega0 = sqrt(2) is a turning point: both solves start on it
    sol = solve_omega_ode(FamilyParams(B=0.0, C=1.0, omega0=np.sqrt(2.0)))
    assert np.count_nonzero(sol.turning_points == 0.0) == 1
    np.testing.assert_allclose(np.diff(sol.turning_points), sol.period / 2.0, rtol=1e-8)


def test_energy_over_ten_periods():
    sol = solve_omega_ode(FamilyParams(B=0.0, C=1.0))
    assert sol.span >= 10.0 * sol.period
    assert sol.energy_drift < 1e-8


def test_single_well_confinement_B_negative():
    # B = -1: double well with minima at omega = +-sqrt(2); energy below the
    # central barrier (height B^2 = 1) keeps the orbit in one well
    params = FamilyParams(B=-1.0, C=-0.5, omega0=np.sqrt(2.0))
    sol = solve_omega_ode(params)
    assert np.min(sol.omega) > 0.0  # never crosses the barrier at omega = 0


def _dop853(params, r):
    """(omega, omega_r) at r from DOP853 runs each way from (omega0, omega_r0)."""
    def rhs(_, y):
        return [y[1], -0.5 * y[0] * (y[0]**2 + 2.0 * params.B)]

    out = np.empty((2, r.size))
    for side in (r < 0.0, r >= 0.0):
        end = r[side][np.argmax(np.abs(r[side]))]
        sol = solve_ivp(rhs, (0.0, end), [params.omega0, params.omega_r0], method="DOP853",
                        rtol=1e-12, atol=1e-14, dense_output=True)
        assert sol.success
        out[:, side] = sol.sol(r[side])
    return out


@pytest.mark.parametrize("m1", [0.7, 1e-9, 1e-11, 1e-13, SEPARATRIX_GAP])
def test_elliptic_functions_against_mpmath(m1):
    # m = 1 - m1 in 50 digits (m1 is a binary float, so this m is exact)
    with mpmath.workdps(50):
        m = 1 - mpmath.mpf(m1)
        K = _agm(m1)[0]
        u = np.linspace(-4.0 * K, 4.0 * K, 81)
        snd = [[float(mpmath.ellipfun(f, mpmath.mpf(x), m=m)) for x in u] for f in ("sn", "cn", "dn")]
        phi = np.linspace(-3.0, 3.0, 24)  # |phi| > pi / 2 adds 2K per half turn
        F = [float(mpmath.ellipf(mpmath.mpf(p), m)) for p in phi]
        assert K == pytest.approx(float(mpmath.ellipk(m)), rel=1e-15)
    np.testing.assert_allclose(_ellipj(u, m1), snd, rtol=0.0, atol=5e-13)
    np.testing.assert_allclose([_ellipf(p, m1) for p in phi], F, rtol=1e-15)


# (B, C, omega0, sign of omega_r0, reach of the oracle comparison); the oracle
# leaves the separatrix's saddle at omega = 0 after a few e-folds, so that case,
# and the orbits just above the barrier and just inside a well (m1 ~ 1e-15 and
# 1e-13), compare over |r| <= 10 only
_REGIMES = {
    "cn": (0.3, 1.0, 0.7, -1, None),
    "cn-negative": (0.3, 1.0, -1.1, 1, None),
    "cn-above-the-barrier": (-1.0, 0.5, 0.2, 1, None),
    "dn-right-well": (-1.0, -0.5, 1.2, 1, None),
    "dn-left-well": (-1.0, -0.5, -1.6, -1, None),
    "separatrix": (-1.0, 0.0, 1.0, 1, 10.0),
    "near-separatrix-cn": (-1.0, 4.4e-15, 1.0, 1, 10.0),
    "near-separatrix-dn": (-1.0, -4e-13, 1.0, -1, 10.0),
    "rest": (0.0, 0.0, 0.0, 1, None),
    "rest-at-well-bottom": (-1.0, -1.0, np.sqrt(2.0), 1, None),
}


@pytest.mark.parametrize("regime", sorted(_REGIMES))
def test_closed_form_against_dop853_oracle(regime):
    B, C, omega0, sign, reach = _REGIMES[regime]
    params = FamilyParams(B=B, C=C, omega0=omega0, omega_r0_sign=sign)
    sol = solve_omega_ode(params)
    inside = np.abs(sol.r_samples) <= (reach or sol.span)
    oracle = _dop853(params, sol.r_samples[inside])
    np.testing.assert_allclose(sol.omega[inside], oracle[0], rtol=0.0, atol=1e-8)
    np.testing.assert_allclose(sol.omega_r[inside], oracle[1], rtol=0.0, atol=1e-8)
    assert sol.energy_drift <= 1e-13
    np.testing.assert_allclose(np.diff(sol.turning_points), (sol.period or 0.0) / 2.0,
                               rtol=1e-8)
    np.testing.assert_allclose(sol._eval(sol.turning_points)[1], 0.0, atol=1e-12)
    if sol.period is not None:
        assert sol.span >= 10.0 * sol.period
    if regime.startswith("near-separatrix"):  # an orbit with a period, not the separatrix
        assert sol.period is not None and len(sol.turning_points) > 1


def test_separatrix_is_homoclinic():
    # B = -1, C = 0: omega = 2 sech(r - r_peak) peaks once at omega = 2 and never returns
    sol = solve_omega_ode(FamilyParams(B=-1.0, C=0.0, omega0=1.0))
    assert sol.period is None
    (peak,) = sol.turning_points
    assert sol._eval(peak)[0] == pytest.approx(2.0, rel=1e-14)
    np.testing.assert_allclose(sol.omega, 2.0 / np.cosh(sol.r_samples - peak),
                               rtol=1e-12)


def test_separatrix_metric_stays_above_phi_cutoff():
    from killing3.cotton_york import FLAT, flatness_verdict
    from killing3.frame_calculus import PHI_CUTOFF

    # the tail without a turning point lies at r < 0 for omega0 = 1, at r > 0 for -1
    for omega0 in (1.0, -1.0):
        params = FamilyParams(B=-1.0, C=0.0, omega0=omega0)
        spec = build_cf_metric(params)
        lo, hi = spec.params["r_range"]
        assert (lo < -10.0) == (omega0 > 0.0) and (hi > 10.0) == (omega0 < 0.0)
        r = np.linspace(lo, hi, 2001)
        assert np.min(solve_omega_ode(params)._eval(r)[1]) > PHI_CUTOFF
        fit = flatness_verdict(Geometry(spec, np.linspace(0.9 * lo, 0.9 * hi, 16),
                                        np.linspace(0.0, 6.0, 16)))
        assert fit.verdict == FLAT
        assert fit.B == pytest.approx(-1.0, abs=1e-6) and fit.C == pytest.approx(0.0, abs=1e-6)


@pytest.mark.parametrize("B, C, omega0, n_turning", [(0.0, 1e6, 0.0, 852),
                                                     (-1e3, 1.0 - 1e6, np.sqrt(2e3), 1424)])
def test_extreme_admitted_params_are_fast(B, C, omega0, n_turning):
    # the largest admitted energy, and the deepest admitted well
    params = FamilyParams(B=B, C=C, omega0=omega0)
    start = time.perf_counter()
    sol = solve_omega_ode(params)
    solved = time.perf_counter()
    build_cf_metric(params)
    built = time.perf_counter()
    assert solved - start < 0.5 and built - solved < 0.5
    assert len(sol.turning_points) == n_turning
    np.testing.assert_allclose(np.diff(sol.turning_points), sol.period / 2.0, rtol=1e-8)
    assert sol.turning_points[-1] - sol.turning_points[0] > 2.0 * sol.span - sol.period


def test_ode_derivative_stack_consistency():
    sol = solve_omega_ode(FamilyParams(B=0.25, C=1.0, omega0=0.3))
    resid = sol.omega_rr + 0.5 * sol.omega * (sol.omega**2 + 0.5)
    assert np.max(np.abs(resid)) < 1e-8
    # exact recurrences obtained by differentiating the equation of motion
    resid3 = sol.omega_rrr + 0.5 * sol.omega_r * (3.0 * sol.omega**2 + 0.5)
    assert np.max(np.abs(resid3)) < 1e-8
    # FD sanity on omega_rr samples (second-order np.gradient, coarse grid)
    fd = np.gradient(sol.omega_rr, sol.r_samples)
    inner = slice(10, -10)
    np.testing.assert_allclose(sol.omega_rrr[inner], fd[inner], atol=3e-2)


def test_build_cf_metric_scalar_curvature_law():
    # S = (5/2) omega^2 + 2B along the built family
    for B, C in [(0.0, 1.0), (0.3, 2.0), (-0.2, 1.5)]:
        spec = build_cf_metric(FamilyParams(B=B, C=C))
        sol = solve_omega_ode(FamilyParams(B=B, C=C))
        for r in (0.2, 0.6, -0.4):
            pk = curvature_packet(Geometry(spec, r, 1.0))
            w = sol._eval(r)[0].item()
            assert pk.scalar_S == pytest.approx(2.5 * w**2 + 2.0 * B, abs=1e-7)
            assert pk.omega == pytest.approx(w, abs=1e-9)


def test_one_twist_evaluation_per_field_jet(monkeypatch):
    # phi and h each take omega and omega_r from one evaluation of the closed form
    spec = build_cf_metric(FamilyParams(B=0.3, C=1.0))
    calls = []

    def counted(u, m1):
        calls.append(np.shape(u))
        return _ellipj(u, m1)

    monkeypatch.setattr(conformal_family, "_ellipj", counted)
    r = np.linspace(-1.0, 1.0, 5)
    Geometry(spec, r, np.zeros(5))
    assert calls == [(5,), (5,)]


def test_build_rejects_zero_omega_r():
    with pytest.raises(PhiVanishes):
        build_cf_metric(FamilyParams(B=0.0, C=0.0))


def test_build_rejects_omega_r_the_closed_form_zeroes():
    # just over the hump omega = 0 of B = -1, m1 = C / (C + s^2) ~ C / 4 falls below SEPARATRIX_GAP:
    # the closed form would rest at omega0 = 0 with omega_r = 0, though omega_r(0) = sqrt C > 1e-8
    for C, m1 in [(1e-15, "2.4999999999999987e-16"), (4e-15, "9.999999999999971e-16")]:
        params = FamilyParams(B=-1.0, C=C)
        assert params.omega_r0 > 1e-8
        with pytest.raises(InadmissibleParams, match=rf"^m1 = C/\(C \+ s\^2\) = {m1} is below "
                                                     r"SEPARATRIX_GAP = 1e-15: too near the"):
            solve_omega_ode(params)
    # m1 = 1.25e-15 is at or above the gap: the orbit swings, with a period
    assert solve_omega_ode(FamilyParams(B=-1.0, C=5e-15)).period == pytest.approx(74.18, abs=0.01)


def test_wpde_residual_values():
    spec = catalog("cf_family", {"B": 0.0, "C": 1.0})
    for p in [(0.3, 0.7), (-0.9, 2.0), (1.2, 4.4)]:
        assert wpde_residual(Geometry(spec, *p), 0.0, 1.0) < 1e-8
    assert wpde_residual(Geometry(catalog("hopf", {"R": 1.0}), 0.5, 0.1), 0.0, 4.0) < 1e-10
    assert wpde_residual(Geometry(catalog("flat"), 0.5, 0.1), 0.0, 0.0) < 1e-14


def test_grad_omega_identity():
    # |grad omega|^2 = C - omega^4/4 - B omega^2 along solutions
    B, C = 0.2, 1.3
    spec = build_cf_metric(FamilyParams(B=B, C=C))
    for r in (0.1, 0.5, -0.6):
        pk = curvature_packet(Geometry(spec, r, 0.3))
        assert pk.grad_omega_sq == pytest.approx(
            C - pk.omega**4 / 4.0 - B * pk.omega**2, abs=1e-8)


def test_quotient_curvature_profile():
    # -phi_rr / phi = B + (3/2) omega^2
    B, C = 0.1, 0.9
    spec = build_cf_metric(FamilyParams(B=B, C=C))
    sol = solve_omega_ode(FamilyParams(B=B, C=C))
    for r in (0.2, -0.3):
        geo = Geometry(spec, r, 0.0)
        w = sol._eval(r)[0].item()
        lhs = -float(geo.phi.d(2, 0) / geo.phi.value)
        assert lhs == pytest.approx(B + 1.5 * w**2, abs=1e-7)


def test_h_theta_freedom_stays_flat():
    from killing3.cotton_york import FLAT, flatness_verdict

    h = fields.from_expr(lambda r, t: 1.0 + 0.1 * jets.sin(t))
    spec = build_cf_metric(FamilyParams(B=0.0, C=1.0, h_theta=h))
    grid = [(-0.8 + 1.6 * u, 6.2 * v)
            for u, v in np.random.default_rng(2).random((12, 2))]
    fit = flatness_verdict(Geometry(spec, *np.transpose(grid)))
    assert fit.verdict == FLAT


def test_omega_theta_independent():
    spec = build_cf_metric(FamilyParams(B=0.0, C=1.0))
    geo = Geometry(spec, 0.5, 1.0)
    assert abs(float(geo.omega.d(0, 1))) < 1e-12
