import pytest

from killing3 import completeness_probe


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
