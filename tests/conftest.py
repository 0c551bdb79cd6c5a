import pytest

from killing3 import completeness_probe

#: Spec, step count and first-integral drifts of the pinned geodesic solves.  Each moves with
#: the last bit of the right-hand side or of DOP853's stage sums.  The first four are the
#: ``geodesic`` command at its defaults (length 20 from (0, 0.7, 0) along (0.3, 0.8, 0.4));
#: "hyperbolic" is acceptance criterion 10's orbit, length 100 from (0, 0.5, 0.2).
GEODESIC_PINS = {
    "hopf": {"spec": "catalog = hopf\nR = 2", "nfev": 3785,
             "c_drift": 1.6653345369377348e-16, "speed_drift": 1.8677415170031958e-10},
    "hopf_lorentzian": {"spec": "catalog = hopf\nR = 2\nsignature = lorentzian", "nfev": 5468,
                        "c_drift": 1.1102230246251565e-16,
                        "speed_drift": 2.273261578977781e-10},
    "nil": {"spec": "catalog = nil", "nfev": 599,
            "c_drift": 2.220446049250313e-16, "speed_drift": 3.525713054841617e-10},
    "cf_family": {"spec": "catalog = cf_family\nB = 0.3\nC = 1", "nfev": 4949,
                  "c_drift": 1.1102230246251565e-16, "speed_drift": 1.1063372440389685e-10},
    "hyperbolic": {"spec": "catalog = hyperbolic", "nfev": 1436,
                   "c_drift": 0.0, "speed_drift": 5.819362880465917e-09},
}


@pytest.fixture
def solver_nfev(monkeypatch):
    """The nfev of every geodesic solve, in call order."""
    nfev, solve = [], completeness_probe.solve_ivp

    def counted(*args):
        sol = solve(*args)
        nfev.append(sol.nfev)
        return sol

    monkeypatch.setattr(completeness_probe, "solve_ivp", counted)
    return nfev
