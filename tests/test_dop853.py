"""The numpy DOP853 against scipy's solve_ivp(method="DOP853"), its independent oracle.

Every comparison is bit for bit except the event root, which scipy finds by its
compiled Brent iteration; both must agree to brentq's own 4 EPS |t| tolerance.
Where scipy ends in status -1, the numpy solver raises StepFailure with scipy's message.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients, rk

from killing3 import completeness_probe, dop853
from killing3.cli import parse_metric_spec
from killing3.completeness_probe import integrate_geodesic, make_state
from killing3.dop853 import DOP853
from killing3.errors import BlowUp, StepFailure

EPS = np.finfo(float).eps


def _never(t, y):
    return 1.0


def _scipy(fun, t_span, y0, rtol, atol, t_eval, event):
    event.terminal = True
    return scipy_solve_ivp(fun, t_span, y0, method="DOP853", rtol=rtol, atol=atol,
                           t_eval=t_eval, events=event)


def _assert_same(ours, theirs):
    assert (ours.nfev, ours.status) == (theirs.nfev, theirs.status)
    for mine, ref in ((ours.t, theirs.t), (ours.y, theirs.y)):
        assert mine.shape == ref.shape and mine.tobytes() == ref.tobytes()


class _OverBudget(Exception):
    pass


def _counted(fun, calls, max_nfev):
    """``fun`` that logs each call's (t, y) and raises _OverBudget on call max_nfev + 1."""
    def counted(t, y):
        calls.append((float(t), np.asarray(y).tobytes()))
        if len(calls) > max_nfev:
            raise _OverBudget
        return fun(t, y)
    return counted


def _solve_like_scipy(fun, t_span, y0, rtol, atol, t_eval, event, max_nfev=np.inf):
    """Both solvers on one problem: the same result, or scipy's status -1 as StepFailure.

    Past ``max_nfev`` right-hand-side calls both stop, at the same call: scipy by a
    counting right-hand side that raises, the numpy solver by its own budget.
    """
    mine, theirs_calls = [], []
    try:
        theirs = _scipy(_counted(fun, theirs_calls, max_nfev), t_span, y0, rtol, atol, t_eval,
                        event)
    except _OverBudget:
        with pytest.raises(StepFailure, match=f"^stopped at s = {theirs_calls[-1][0]:.6g}: "
                                              f"over {max_nfev} rhs calls$"):
            DOP853(_counted(fun, mine, np.inf), t_span, y0, rtol, atol, t_eval, event, max_nfev)
        assert mine == theirs_calls[:-1]
        return None, None
    if theirs.status == -1:
        with pytest.raises(StepFailure, match=f"^integration failed: {re.escape(theirs.message)}$"):
            DOP853(fun, t_span, y0, rtol, atol, t_eval, event, max_nfev)
        return None, theirs
    ours = DOP853(fun, t_span, y0, rtol, atol, t_eval, event, max_nfev)
    _assert_same(ours, theirs)
    return ours, theirs


def test_coefficients_are_scipys_bit_for_bit():
    ref = dop853_coefficients
    for mine, theirs in ((dop853.A, ref.A), (dop853.B, ref.B), (dop853.C, ref.C),
                         (dop853.E3, ref.E3), (dop853.E5, ref.E5), (dop853.D, ref.D)):
        assert mine.shape == theirs.shape and mine.tobytes() == theirs.tobytes()
    assert (dop853.SAFETY, dop853.MIN_FACTOR, dop853.MAX_FACTOR) == (
        rk.SAFETY, rk.MIN_FACTOR, rk.MAX_FACTOR)
    assert dop853.ERROR_EXPONENT == -1 / (rk.DOP853.error_estimator_order + 1)


@pytest.fixture
def twin(monkeypatch):
    """Run every geodesic solve through both integrators on one memoized right-hand side."""
    pairs = []

    def solve(fun, t_span, y0, rtol, atol, t_eval, event, max_nfev):
        memo = {}

        def cached(t, y):
            key = (float(t), y.tobytes())
            if key not in memo:
                memo[key] = np.asarray(fun(t, y), dtype=float)
            return memo[key]

        ours = DOP853(cached, t_span, y0, rtol, atol, t_eval, event, max_nfev)
        pairs.append((ours, _scipy(cached, t_span, y0, rtol, atol, t_eval, event)))
        return ours

    monkeypatch.setattr(completeness_probe, "solve_ivp", solve)
    return pairs


@pytest.mark.parametrize("text, point, length", [
    ("catalog = hopf\nR = 2", (0.0, 0.8, 0.0), 20.0),
    ("catalog = hopf\nR = 1", (0.0, 0.8, 0.0), 5.0),
    ("catalog = hyperbolic", (0.0, 0.5, 0.2), 100.0),   # criterion 10's orbit
    ("catalog = nil", (0.0, 0.8, 0.0), 20.0),
    ("catalog = cf_family\nB = 0.3\nC = 1", (0.0, 0.5, 0.0), 5.0),
])
def test_pinned_orbits_match_scipy_bit_for_bit(twin, text, point, length):
    spec = parse_metric_spec(text)
    integrate_geodesic(spec, make_state(spec, point, (0.3, 0.8, 0.4)), length)
    (ours, theirs), = twin
    _assert_same(ours, theirs)
    assert ours.status == 0 and ours.steps > 0


def test_terminal_event_root_matches_scipy(twin):
    # a geodesic of hopf (R = 2) with angular momentum phi^2 theta' ~ 5e-8 passes the axis
    # r = 0 at phi ~ 5e-8: the event at phi = 1e-7 fires before a trial step reaches the
    # cutoff 1e-8; a radial one overshoots to the cutoff first and ends in a DomainError
    spec = parse_metric_spec("catalog = hopf\nR = 2")
    with pytest.raises(BlowUp, match="left the admissible domain at s = "):
        integrate_geodesic(spec, make_state(spec, (0.0, 0.8, 0.0), (0.0, -1.0, 1e-7)), 20.0)
    (ours, theirs), = twin
    _assert_same(ours, theirs)
    (ref,) = theirs.t_events[0]
    assert ours.status == 1 and abs(ours.t_event - ref) <= 4 * EPS * abs(ref)


def test_backward_integration_and_event_on_a_pendulum():
    def pendulum(t, y):
        return [y[1], -np.sin(y[0]) + 0.1 * np.cos(t)]

    def event(t, y):
        return y[0] - 0.3

    t_eval = np.linspace(0.0, -8.0, 57)
    for ev in (_never, event):
        ours, theirs = _solve_like_scipy(pendulum, (0.0, -8.0), [1.0, 0.0], 1e-9, 1e-11,
                                         t_eval, ev)
        assert ours.status == (0 if ev is _never else 1)
    (ref,) = theirs.t_events[0]
    assert abs(ours.t_event - ref) <= 4 * EPS * abs(ref)


def test_step_size_underflow_raises_scipys_message():
    def blow_up(t, y):   # y = 1 / (1 - t): no step reaches past t = 1
        return y * y

    ours, theirs = _solve_like_scipy(blow_up, (0.0, 2.0), [1.0], 1e-8, 1e-10,
                                     np.linspace(0.0, 2.0, 9), _never)
    assert ours is None and theirs.status == -1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_initial_state_raises_scipys_message(bad):
    args = (lambda t, y: -y, (0.0, 1.0), [1.0, bad], 1e-8, 1e-10, None, _never)
    with pytest.raises(ValueError) as theirs:
        _scipy(*args)
    with pytest.raises(ValueError, match=f"^{re.escape(str(theirs.value))}$"):
        DOP853(*args, np.inf)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
           st.lists(st.floats(-2.0, 2.0), min_size=n * n, max_size=n * n),
           st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))),
       st.floats(-12.0, -6.0), st.floats(-4.0, 4.0).filter(lambda x: abs(x) > 0.1),
       st.integers(2, 40))
def test_random_nonlinear_odes_match_scipy(system, log_rtol, end, n_eval):
    m, y0 = system
    m = np.reshape(m, (len(y0), len(y0)))

    def fun(t, y):
        return np.sin(m @ y + 0.5 * t) - 0.1 * y ** 3

    # for end < 0 the -0.1 y^3 term blows up, and both solvers would shrink the step
    # to an underflow over 2 000 to 55 000 calls; a regular draw takes at most ~500
    rtol, t_eval = 10.0 ** log_rtol, np.linspace(0.0, end, n_eval)
    _solve_like_scipy(fun, (0.0, end), y0, rtol, rtol * 1e-2, t_eval, _never, max_nfev=5000)
