import numpy as np
import pytest
from scipy.integrate import quad

from killing3.conformal_family import (FamilyParams, build_cf_metric,
                                       solve_omega_ode, wpde_residual)
from killing3.curvature_engine import curvature_packet
from killing3.errors import InadmissibleParams, PhiVanishes
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


def test_build_rejects_zero_omega_r():
    with pytest.raises(PhiVanishes):
        build_cf_metric(FamilyParams(B=0.0, C=0.0))


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
