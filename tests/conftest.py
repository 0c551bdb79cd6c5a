import pytest

from killing3 import completeness_probe

#: Spec, step count, first-integral drifts and last sampled state (t, r, theta, t', r',
#: theta') of the pinned geodesic solves.  Each moves with the last bit of the right-hand side
#: or of DOP853's stage sums, and ``last`` holds exact floats, compared with ==.  The first four
#: are the ``geodesic`` command at its defaults (length 20 from (0, 0.7, 0) along
#: (0.3, 0.8, 0.4)); "hyperbolic" is acceptance criterion 10's orbit, length 100 from
#: (0, 0.5, 0.2).
GEODESIC_PINS = {
    "hopf": {"spec": "catalog = hopf\nR = 2", "nfev": 3785,
             "c_drift": 1.6653345369377348e-16, "speed_drift": 1.8677415170031958e-10,
             "last": (19.364333757976848, 1.7295600070729473, 0.03735644012858935,
                      0.6774702747126335, 0.8793588222754175, -0.21842510621014072)},
    "hopf_lorentzian": {"spec": "catalog = hopf\nR = 2\nsignature = lorentzian", "nfev": 5468,
                        "c_drift": 1.1102230246251565e-16,
                        "speed_drift": 2.273261578977781e-10,
                        "last": (-3.8358379927560264, 0.592553323551141, 25.076059532155416,
                                 0.42735385529250497, 1.0802279048226688, 0.6068775723051418)},
    "nil": {"spec": "catalog = nil", "nfev": 599,
            "c_drift": 2.220446049250313e-16, "speed_drift": 3.525713054841617e-10,
            "last": (25.887837767606985, 0.09773477441791506, -2.2213691132019444,
                     0.47538102345631406, -0.45814693298186326, 0.7029074338139075)},
    "cf_family": {"spec": "catalog = cf_family\nB = 0.3\nC = 1", "nfev": 4949,
                  "c_drift": 1.1102230246251565e-16, "speed_drift": 1.1063372440389685e-10,
                  "last": (-1.8005127144786623, -0.5261677917632177, 18.41871206845619,
                           0.35225249866213304, -0.8225616552002546, 0.41701402170437124)},
    "hyperbolic": {"spec": "catalog = hyperbolic", "nfev": 1436,
                   "c_drift": 0.0, "speed_drift": 5.819362880465917e-09,
                   "last": (31.05106857504623, 95.46468814792671, 0.5211407159265458,
                            0.3105106857504622, 0.9505698891313775, 5.323551829230044e-49)},
}

#: The one-line stderr of ``analyze``, ``verify``, ``flatness`` and ``lorentz`` on hyperbolic
#: past phi = cosh r's range, by ``--grid`` band.  On 800:900 phi overflows and the coframe
#: refuses the point by name; on 354.5:355 phi^2 is finite and the curvature is not.
HYPERBOLIC_BANDS = {
    "800:900,0:1": dict.fromkeys(
        ["analyze", "verify", "flatness", "lorentz"],
        "DomainError: metric entries overflow at (r, theta) = (855.131, 0.151768)"),
    "354.5:355,0:1": {
        "analyze": "NonFinite: the analyze report holds non-finite numbers",
        "verify": "NonFinite: Ricci on the frame has non-finite entries",
        "flatness": "NonFinite: non-finite curvature at (r, theta) = (354.776, 0.151768)",
        "lorentz": "NonFinite: the lorentz report holds non-finite numbers"},
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
