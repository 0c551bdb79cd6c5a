"""Acceptance criteria, one test per numbered criterion.

Each test prints a single PASS/FAIL line with the measured figure of merit
before asserting, so the acceptance status is readable straight from the
pytest -s output.
"""

import time

import numpy as np
import pytest

from killing3 import fields, jets
from killing3.cli import sample_points
from killing3.completeness_probe import (COMPLETE, INCOMPLETE,
                                         completeness_verdict,
                                         curvature_profile, integrate_geodesic,
                                         make_state, projection_residual,
                                         synthetic_profile)
from killing3.conformal_family import FamilyParams, solve_omega_ode
from killing3.cotton_york import (FLAT, NOT_FLAT, cotton_york,
                                  cotton_york_norms, flatness_verdict)
from killing3.curvature_engine import (curvature_packet,
                                       gaussian_identity_residual,
                                       scalar_and_ric_tt,
                                       spectrum_vs_eigensolve_residual)
from killing3.frame_calculus import Geometry
from killing3.lorentz_bridge import lorentz_relations_check, to_lorentz
from killing3.metric_family import catalog, to_grid_sampled
from killing3.np_formalism import (conformal_rescale_check, killing_test,
                                   rotate_frame, structure_residuals)

GRID_BOX = (0.25, 1.3, 8, 0.0, 6.28, 8)
CF_BOX = (-1.3, 1.3, 8, 0.0, 6.28, 8)


def _box_for(name):
    return CF_BOX if name == "cf_family" else GRID_BOX


def _catalogs():
    return {
        "flat": catalog("flat"),
        "hopf": catalog("hopf", {"R": 1.0}),
        "nil": catalog("nil", {"omega0": 1.0}),
        "hyperbolic": catalog("hyperbolic"),
        "cf_family": catalog("cf_family", {"B": 0.0, "C": 1.0, "omega0": 0.0}),
    }


def _verdict(num, ok, detail):
    print(f"\nACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_01_hopf_values():
    """Ric(T,T) = 2/R^2, S = 6/R^2, omega^2 = 4/R^2 to rel 1e-8; < 1 s per radius."""
    worst, slowest = 0.0, 0.0
    for radius in (1.0, 2.0, 0.5):
        spec = catalog("hopf", {"R": radius})
        t0 = time.perf_counter()
        pk = curvature_packet(spec, (0.4 * radius, 0.7))
        elapsed = time.perf_counter() - t0
        worst = max(worst,
                    abs(pk.ric_of_T.t_component - 2.0 / radius**2) * radius**2 / 2,
                    abs(pk.scalar_S - 6.0 / radius**2) * radius**2 / 6,
                    abs(pk.omega**2 - 4.0 / radius**2) * radius**2 / 4)
        slowest = max(slowest, elapsed)
    _verdict(1, worst < 1e-8 and slowest < 1.0,
             f"max rel err {worst:.2e}, max time {slowest:.3f}s, tol 1e-8 / 1s")


def test_criterion_02_hopf_conformally_flat_32x32():
    """||CY|| < 1e-8 on a 32x32 grid via both the shortcut and the full path; < 5 s."""
    spec = catalog("hopf", {"R": 1.0})
    r = np.linspace(0.1, 1.45, 32)
    th = np.linspace(0.0, 2 * np.pi, 32)
    rr, tt = np.meshgrid(r, th, indexing="ij")
    t0 = time.perf_counter()
    cy_max = float(np.max(cotton_york_norms(spec, rr, tt)))   # full Y1-Y3 path
    geo = Geometry(spec, rr, tt, order=2)
    shortcut = float(np.max(np.abs(geo.scalar.value
                                   - 3.0 * geo.ric_frame["TT"].value)))
    elapsed = time.perf_counter() - t0
    ok = cy_max < 1e-8 and shortcut < 1e-8 and elapsed < 5.0
    _verdict(2, ok, f"cy {cy_max:.2e}, S-3Ric(T,T) {shortcut:.2e}, "
                    f"{elapsed:.2f}s, tol 1e-8 / 5s")


def test_criterion_03_nil_counterexample():
    """nil omega0=1: S = -1/2, CY = diag(-1, 1/2, 1/2) to 1e-8, NotFlat."""
    spec = catalog("nil", {"omega0": 1.0})
    pk = curvature_packet(spec, (0.7, 0.2))
    cy = cotton_york(spec, (0.7, 0.2))
    cy_err = float(np.max(np.abs(cy.raw - np.diag([-1.0, 0.5, 0.5]))))
    fit = flatness_verdict(spec, sample_points(GRID_BOX, 16, 42))
    ok = (abs(pk.scalar_S + 0.5) < 1e-8 and cy_err < 1e-8
          and fit.verdict == NOT_FLAT)
    _verdict(3, ok, f"S {pk.scalar_S:.12f}, CY err {cy_err:.2e}, "
                    f"verdict {fit.verdict}, tol 1e-8")


def test_criterion_04_structure_equations():
    """Structure/bracket/Bianchi residuals: < 1e-8 analytic (100 pts x 5 catalogs);
    < 1e-4 on the grid-sampled path (200x200 spline fit)."""
    worst_analytic = 0.0
    for name, spec in _catalogs().items():
        for p in sample_points(_box_for(name), 100, 42):
            worst_analytic = max(worst_analytic,
                                 structure_residuals(spec, p).max_abs())
    worst_grid = 0.0
    for name, spec in _catalogs().items():
        lo, hi = (-1.4, 1.4) if name == "cf_family" else (0.08, 1.5)
        gspec = to_grid_sampled(spec, np.linspace(lo, hi, 200),
                                np.linspace(0.0, 2 * np.pi, 200))
        box = (lo + 0.15, hi - 0.15, 8, 0.3, 6.0, 8)
        for p in sample_points(box, 12, 7):
            worst_grid = max(worst_grid, structure_residuals(gspec, p).max_abs())
    ok = worst_analytic < 1e-8 and worst_grid < 1e-4
    _verdict(4, ok, f"analytic {worst_analytic:.2e} (tol 1e-8), "
                    f"grid {worst_grid:.2e} (tol 1e-4)")


def test_criterion_05_gaussian_identity():
    """|-phi_rr/phi - (S + Ric(T,T))/2| < 1e-8 at all sampled points."""
    worst = 0.0
    for name, spec in _catalogs().items():
        pts = sample_points(_box_for(name), 50, 42)
        r = np.array([p[0] for p in pts])
        th = np.array([p[1] for p in pts])
        worst = max(worst, float(np.max(gaussian_identity_residual(spec, r, th))))
    _verdict(5, worst < 1e-8, f"max residual {worst:.2e}, tol 1e-8")


def test_criterion_06_spectrum_agreement():
    """Closed-form spectrum vs direct eigensolve to 1e-9 over 100 points/catalog."""
    worst = 0.0
    for name, spec in _catalogs().items():
        for p in sample_points(_box_for(name), 100, 42):
            worst = max(worst,
                        spectrum_vs_eigensolve_residual(curvature_packet(spec, p)))
    pk = curvature_packet(catalog("hopf", {"R": 1.0}), (0.6, 0.3))
    hopf_err = float(np.max(np.abs(np.asarray(pk.spectrum) - 2.0)))
    ok = worst < 1e-9 and hopf_err < 1e-9
    _verdict(6, ok, f"max multiset dist {worst:.2e}, hopf (2,2,2) err "
                    f"{hopf_err:.2e}, tol 1e-9")


def test_criterion_07_cy_structural_invariants():
    """CY symmetry and tracelessness emerge to 1e-9 on all catalogs + cf instances."""
    specs = list(_catalogs().values())
    specs.append(catalog("cf_family", {"B": 0.3, "C": 2.0}))
    specs.append(catalog("cf_family", {"B": -0.2, "C": 1.5}))
    worst = 0.0
    for spec in specs:
        box = CF_BOX if spec.name == "cf_family" else GRID_BOX
        for p in sample_points(box, 25, 42):
            cy = cotton_york(spec, p)
            worst = max(worst, cy.symmetry_residual, cy.trace_residual)
    _verdict(7, worst < 1e-9, f"max symmetry/trace residual {worst:.2e}, tol 1e-9")


def test_criterion_08_theorem3_round_trip():
    """cf_family(0,1,0): ||CY|| < 1e-6, fitted (B,C) within 1e-4 of (0,1),
    energy drift < 1e-8 over 10 periods."""
    sol = solve_omega_ode(FamilyParams(B=0.0, C=1.0), min_periods=10.0)
    spec = catalog("cf_family", {"B": 0.0, "C": 1.0})
    fit = flatness_verdict(spec, sample_points(CF_BOX, 32, 42))
    ok = (sol.span >= 10.0 * sol.period and sol.energy_drift < 1e-8
          and fit.cy_max < 1e-6 and abs(fit.B) < 1e-4
          and abs(fit.C - 1.0) < 1e-4 and fit.verdict == FLAT)
    _verdict(8, ok, f"drift {sol.energy_drift:.2e} over "
                    f"{sol.span / sol.period:.1f} periods, cy {fit.cy_max:.2e}, "
                    f"(B,C) = ({fit.B:.2e}, {fit.C:.6f})")


def test_criterion_09_lorentz_bridge():
    """|S_L - S_R - 2Ric_R(T,T)|, |Ric_L - Ric_R| < 1e-8 on all catalogs; hopf S_L = 10."""
    worst = 0.0
    for name, spec in _catalogs().items():
        pair = to_lorentz(spec)
        for p in sample_points(_box_for(name), 20, 42):
            res_ric, res_s = lorentz_relations_check(pair, p)
            worst = max(worst, res_ric, res_s)
    s_l, _ = scalar_and_ric_tt(
        to_lorentz(catalog("hopf", {"R": 1.0})).lorentzian, 0.6, 0.3)
    ok = worst < 1e-8 and abs(float(s_l) - 10.0) < 1e-8
    _verdict(9, ok, f"max residual {worst:.2e}, hopf S_L = {float(s_l):.10f}, tol 1e-8")


def test_criterion_10_geodesic_conservation():
    """Drift of g(T,y') and speed < 1e-8 over length 100 (hyperbolic, hopf);
    quotient projection residual < 1e-6 over length 20."""
    hyp = catalog("hyperbolic")
    t1 = integrate_geodesic(hyp, make_state(hyp, (0.0, 0.5, 0.2),
                                            (0.3, 0.8, 0.4)), 100.0)
    hopf = catalog("hopf", {"R": 1.0})
    st = make_state(hopf, (0.0, np.pi / 4, 0.0), (-1.0, 0.0, 2.0))
    t2 = integrate_geodesic(hopf, st, 100.0)
    proj, _ = projection_residual(hopf, st, 20.0)
    drift = max(t1.max_c_drift, t1.max_speed_drift,
                t2.max_c_drift, t2.max_speed_drift)
    ok = drift < 1e-8 and proj < 1e-6
    _verdict(10, ok, f"max drift {drift:.2e} (tol 1e-8), "
                     f"projection {proj:.2e} (tol 1e-6)")


def test_criterion_11_completeness_criterion():
    """hyperbolic -> Complete (tail -2), flat -> Complete (tail 0),
    constant +1 synthetic -> Incomplete."""
    hyp = curvature_profile(catalog("hyperbolic"), 5.0)
    flat = curvature_profile(catalog("flat"), 5.0)
    synth = synthetic_profile(np.linspace(1.0, 10.0, 32), np.ones(32))
    ok = (completeness_verdict(hyp) == COMPLETE
          and abs(hyp.tail_estimate + 2.0) < 1e-9
          and completeness_verdict(flat) == COMPLETE
          and abs(flat.tail_estimate) < 1e-12
          and completeness_verdict(synth) == INCOMPLETE)
    _verdict(11, ok, f"tails: hyperbolic {hyp.tail_estimate:.6f}, "
                     f"flat {flat.tail_estimate:.1e}, synthetic +1")


def test_criterion_12_killing_characterization():
    """All four residuals < 1e-9 on catalog T fields; jointly > 1e-4 on a
    perturbed non-Killing unit field."""
    pts = [(0.4, 0.3), (0.8, 2.0), (1.2, 5.5)]
    worst = 0.0
    for name in ("flat", "hopf", "nil", "hyperbolic"):
        rep = killing_test(catalog(name), pts)
        worst = max(worst, rep.max_lie_residual, rep.max_geodesic,
                    rep.max_divergence, rep.max_shear)
    # perturbed field: unit-normalized T + 0.3 X on the hyperbolic catalog
    eps, n = 0.3, np.sqrt(1.0 + 0.3**2)
    comps = [fields.constant(1.0 / n), fields.constant(0.0),
             fields.from_expr(lambda r, t: (eps / n) / jets.cosh(r))]
    bad = killing_test(catalog("hyperbolic"), pts, components=comps)
    # "jointly": the Lie-derivative residual and the kinematic triple must
    # detect the failure together, not just one side of the equivalence
    kin = max(bad.max_geodesic, bad.max_divergence, bad.max_shear)
    joint = min(bad.max_lie_residual, kin)
    ok = worst < 1e-9 and joint > 1e-4
    _verdict(12, ok, f"catalog residuals {worst:.2e} (tol 1e-9), "
                     f"perturbed joint {joint:.2e} (> 1e-4)")


def test_criterion_13_conformal_rescaling():
    """sigma and omega scale by e^-f to 1e-8 for three seeded f on hopf/hyperbolic."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for name in ("hopf", "hyperbolic"):
        spec = catalog(name)
        for _ in range(3):
            a, b = rng.normal(scale=0.5, size=2)
            f = fields.from_expr(lambda r, t, a=a, b=b:
                                 a * jets.sin(r) + b * jets.cos(t))
            cc = conformal_rescale_check(spec, f, (0.7, 1.1))
            worst = max(worst, cc.residual_omega, cc.residual_shear)
    _verdict(13, worst < 1e-8, f"max law residual {worst:.2e}, tol 1e-8")


def test_criterion_14_gauge_rotation():
    """kappa/sigma/rho/epsilon/beta rotation-law residuals < 1e-9, 3 seeded angles."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(3):
        a, b, c = rng.normal(size=3)
        angle = fields.from_expr(lambda r, t, a=a, b=b, c=c:
                                 a * r + b * jets.sin(t) + c * jets.cos(r) * t)
        for name in ("hopf", "nil", "hyperbolic"):
            rot = rotate_frame(catalog(name), (0.8, 0.4), angle)
            worst = max(worst, rot.max_law_residual())
    _verdict(14, worst < 1e-9, f"max law residual {worst:.2e}, tol 1e-9")
