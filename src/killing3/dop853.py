"""Dormand-Prince 8(5,3) (Hairer, Norsett & Wanner, *Solving ODEs I*, 1993, sec. II.10).

scipy's ``solve_ivp(method="DOP853")`` with ``t_eval`` and one terminal event, in numpy:
the same operations in the same order on arrays of the same layout, so every state is
scipy's to the last bit (``tests/test_dop853.py``); the event's root is a bisection within
brentq's 4 EPS |t|.  The event is required, a step-size underflow (scipy's status -1)
raises StepFailure, and ``completeness_probe`` loads this module with the first geodesic.
"""

from __future__ import annotations

import numpy as np

from .errors import StepFailure

EPS = np.finfo(float).eps
SAFETY, MIN_FACTOR, MAX_FACTOR, ERROR_EXPONENT = 0.9, 0.2, 10, -1 / (7 + 1)  # error order 7

# the 12 stages, 3 more for the dense output, the error weights and the interpolant,
# as the doubles of scipy's dop853_coefficients; A row by row below the diagonal
C = np.array([0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
              0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6,
              0.8571428571428571, 1.0, 1.0, 0.1, 0.2, 0.7777777777777778])
A = np.zeros((16, 16))
A[np.tril_indices(16, -1)] = (
    0.05260015195876773, 0.0197250569845379, 0.0591751709536137, 0.02958758547680685, 0,
    0.08876275643042054, 0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792,
    0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242, 0.037109375, 0, 0,
    0.17025221101954405, 0.06021653898045596, -0.017578125, 0.03709200011850479, 0, 0,
    0.17038392571223998, 0.10726203044637328, -0.015319437748624402, 0.008273789163814023,
    0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
    20.154067550477894, -43.48988418106996, 0.47766253643826434, 0, 0, -2.4881146199716677,
    -0.590290826836843, 21.230051448181193, 15.279233632882423, -33.28821096898486,
    -0.020331201708508627, -0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
    -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
    -3.0467644718982196, 2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625,
    -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
    12.360567175794303, 0.6433927460157636, 0.054293734116568765, 0, 0, 0, 0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
    0.20136540080403034, 0.04471061572777259, 0.056167502283047954, 0, 0, 0, 0, 0,
    0.25350021021662483, -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
    0.00820105229563469, 0.007567897660545699, -0.008298, 0.03183464816350214, 0, 0, 0, 0,
    0.028300909672366776, 0.053541988307438566, -0.05492374857139099, 0, 0,
    -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325,
    -0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599, 4.06898981839711,
    0.3567271874552811, 0, 0, 0, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987)
B = A[12, :12]
E3 = np.array([-0.18980075407240762, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
               -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
               0.02265179219836082, 0])
E5 = np.array([0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
               1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
               -0.022355307863886294, 0])
D = np.array([
    [-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564]])


def _bisect(f, a, b):
    """A root of f in [a, b] (either order) to one ulp: a where f is 0, else b's side of a
    sign change.  f is read at a and at midpoints only, so nothing but a return ends it."""
    fa = f(a)
    while fa != 0 and (m := a + (b - a) / 2) not in (a, b):
        fm = f(m)
        if fm == 0 or np.signbit(fm) == np.signbit(fa):
            a, fa = m, fm
        else:
            b = m
    return a if fa == 0 else b


class DOP853:
    """Solve ``y' = fun(t, y)`` over ``t_span`` at the times ``t_eval``; constructing integrates.

    A sign change of ``event(t, y)`` ends it at the root ``t_event`` (status 1, else 0); a
    right-hand-side call past ``max_nfev`` raises StepFailure.  Holds ``t``, ``y``, ``nfev``
    and the counts ``steps`` and ``rejected_steps``.
    """

    def __init__(self, fun, t_span, y0, rtol, atol, t_eval, event, max_nfev):
        self._rhs, self.max_nfev, self.t_event = fun, max_nfev, None
        self.nfev = self.steps = self.rejected_steps = 0
        self.y = y = np.asarray(y0).astype(float, copy=False)
        if not np.isfinite(y).all():
            raise ValueError("All components of the initial state `y0` must be finite.")
        self.rtol, self.atol = max(rtol, 100 * EPS), np.asarray(atol)   # scipy's rtol floor
        t, t_bound = map(float, t_span)
        self.t, self.t_bound = t, t_bound
        self.direction = direction = np.sign(t_bound - t)
        self.f = f = self._fun(t, y)
        # the initial step: scipy's select_initial_step (Hairer, Norsett & Wanner, II.4)
        scale, length, rms = self.atol + np.abs(y) * self.rtol, abs(t_bound - t), y.size ** 0.5
        d0, d1 = np.linalg.norm(y / scale) / rms, np.linalg.norm(f / scale) / rms
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, length)
        f1 = self._fun(t + h0 * direction, y + h0 * direction * f)
        d2 = np.linalg.norm((f1 - f) / scale) / rms / h0
        h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (
            0.01 / max(d1, d2)) ** (1 / 8)
        self.h_abs = min(100 * h0, h1, length)
        self.K_extended = np.empty((16, y.size))   # stages; the first 13 make a step
        # scipy's solve_ivp loop: step, find the event's root, sample the step at t_eval
        forward, t_eval = t_bound > t, np.asarray(t_eval)
        t_eval, i_eval = (t_eval, 0) if forward else (t_eval[::-1], len(t_eval))
        g, ts, ys, status = event(t, y0), [], [], None
        while status is None:
            self._step()
            status = 0 if direction * (self.t - t_bound) >= 0 else None
            t, sol, g_new = self.t, None, event(self.t, self.y)
            if g <= 0 <= g_new or g >= 0 >= g_new:
                sol, status = self._dense_output(), 1
                t = self.t_event = _bisect(lambda s: event(s, sol(np.array([s]))[:, 0]),
                                           self.t_old, t)
            g = g_new
            i_new = np.searchsorted(t_eval, t, side="right" if direction > 0 else "left")
            t_step = t_eval[i_eval:i_new] if direction > 0 else t_eval[i_new:i_eval][::-1]
            if t_step.size > 0:
                sol = sol or self._dense_output()
                ts.append(t_step)
                ys.append(sol(t_step))
                i_eval = i_new
        self.status, self.t, self.y = status, np.hstack(ts), np.hstack(ys)

    def _fun(self, t, y):
        self.nfev += 1
        if self.nfev > self.max_nfev:
            raise StepFailure(f"stopped at s = {t:.6g}: over {self.max_nfev} rhs calls")
        return np.asarray(self._rhs(t, y), dtype=float)

    def _stages(self, t, y, h, stages):
        """K[s] = fun(t + C[s] h, y + h K[:s]^T A[s, :s]) for s in stages, in order."""
        K = self.K_extended
        for s in stages:
            K[s] = self._fun(t + C[s] * h, y + np.dot(K[:s].T, A[s, :s]) * h)

    def _step(self):
        """One accepted step, retrying smaller steps."""
        t, y, K = self.t, self.y, self.K_extended[:13]
        min_step = 10 * np.abs(np.nextafter(t, self.direction * np.inf) - t)
        h_abs, rejected = max(self.h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise StepFailure("integration failed: "
                                  "Required step size is less than spacing between numbers.")
            t_new = t + h_abs * self.direction
            if self.direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = self.f
            self._stages(t, y, h, range(1, 12))
            y_new = y + h * np.dot(K[:-1].T, B)
            K[-1] = f_new = self._fun(t + h, y_new)
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            err5 = np.linalg.norm(np.dot(K.T, E5) / scale)**2
            err3 = np.linalg.norm(np.dot(K.T, E3) / scale)**2
            error_norm = 0.0 if err5 == 0 and err3 == 0 else (
                np.abs(h) * err5 / np.sqrt((err5 + 0.01 * err3) * len(scale)))
            if error_norm < 1:
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected, self.rejected_steps = True, self.rejected_steps + 1
        factor = MAX_FACTOR if error_norm == 0 else min(
            MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
        self.h_abs = h_abs * (min(1, factor) if rejected else factor)
        self.h_previous, self.t_old, self.y_old = h, t, y
        self.t, self.y, self.f, self.steps = t_new, y_new, f_new, self.steps + 1

    def _dense_output(self):
        """The last step's degree-7 interpolant from 3 more stages: 1-D times -> y columns."""
        K, h, t_old, y_old = self.K_extended, self.h_previous, self.t_old, self.y_old
        self._stages(t_old, y_old, h, range(13, 16))
        F = np.empty((7, y_old.size))
        F[0] = delta_y = self.y - y_old
        F[1] = h * K[0] - delta_y
        F[2] = 2 * delta_y - h * (self.f + K[0])
        F[3:] = h * np.dot(D, K)
        h_step = self.t - t_old

        def sol(t):
            x = ((t - t_old) / h_step)[:, None]
            y = np.zeros((len(t), y_old.size))
            for i, f in enumerate(reversed(F)):
                y += f
                y *= x if i % 2 == 0 else 1 - x
            return (y + y_old).T
        return sol
