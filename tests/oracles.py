"""Independent oracles used across the test suite.

Everything here recomputes quantities through a route that shares as little
code as possible with the library: plain central finite differences on the
coordinate metric matrix, a bisection eigenvalue solver, and direct
integral/series checks.  Accuracy is limited (FD steps), so oracle
tolerances are looser than the library's analytic-jet tolerances.  The geodesic
oracle is the 3-D equation y'' = -Gamma(y', y') on the library's Christoffel
symbols, solved by scipy: the route the Killing-reduced geodesic replaced.
"""

import numpy as np
from scipy.integrate import solve_ivp

from killing3 import LORENTZIAN, Geometry, christoffels


def fd_metric(spec, r, theta):
    """g = (T^b)^2 + dr^2 + phi^2 dtheta^2, T^b = dt - k dr - phi h dtheta, written out.

    Shape (3, 3) + the broadcast shape of r and theta; the Lorentzian partner
    is g - 2 T^b (x) T^b.
    """
    phi, h, k = (f.value(r, theta) for f in (spec.phi, spec.h, spec.k))
    phi, h, k = np.broadcast_arrays(phi, h, k)
    ph = phi * h
    one = np.ones_like(phi)
    g = np.array([
        [one, -k, -ph],
        [-k, 1.0 + k**2, ph * k],
        [-ph, ph * k, phi**2 * (1.0 + h**2)],
    ])
    if spec.signature == LORENTZIAN:
        tb = np.array([one, -k, -ph])
        g = g - 2.0 * np.einsum("a...,b...->ab...", tb, tb)
    return g


def fd_christoffels(spec, r, theta, step=1e-5):
    """Gamma^c_{ab} by central differences of the metric matrix."""
    g0 = fd_metric(spec, r, theta)
    dg = np.zeros((3, 3, 3))  # dg[a] = d_a g (a = t, r, theta)
    dg[1] = (fd_metric(spec, r + step, theta) - fd_metric(spec, r - step, theta)) / (2 * step)
    dg[2] = (fd_metric(spec, r, theta + step) - fd_metric(spec, r, theta - step)) / (2 * step)
    ginv = np.linalg.inv(g0)
    gam = np.zeros((3, 3, 3))
    for c in range(3):
        for a in range(3):
            for b in range(3):
                gam[c, a, b] = 0.5 * sum(
                    ginv[c, d] * (dg[a, d, b] + dg[b, d, a] - dg[d, a, b])
                    for d in range(3))
    return gam


def fd_riemann(spec, r, theta, step=1e-4):
    """R^d_{cab} by central differences of FD Christoffel symbols."""
    gam0 = fd_christoffels(spec, r, theta)
    dgam = np.zeros((3, 3, 3, 3))  # dgam[a] = d_a Gamma
    dgam[1] = (fd_christoffels(spec, r + step, theta)
               - fd_christoffels(spec, r - step, theta)) / (2 * step)
    dgam[2] = (fd_christoffels(spec, r, theta + step)
               - fd_christoffels(spec, r, theta - step)) / (2 * step)
    riem = np.zeros((3, 3, 3, 3))  # [d][c][a][b]
    for d in range(3):
        for c in range(3):
            for a in range(3):
                for b in range(3):
                    acc = dgam[a, d, b, c] - dgam[b, d, a, c]
                    for e in range(3):
                        acc += gam0[d, a, e] * gam0[e, b, c]
                        acc -= gam0[d, b, e] * gam0[e, a, c]
                    riem[d, c, a, b] = acc
    return riem


def fd_ricci(spec, r, theta, step=1e-4):
    riem = fd_riemann(spec, r, theta, step)
    ric = np.zeros((3, 3))
    for b in range(3):
        for c in range(3):
            ric[b, c] = sum(riem[a, c, a, b] for a in range(3))
    return ric


def fd_scalar(spec, r, theta, step=1e-4):
    ginv = np.linalg.inv(fd_metric(spec, r, theta))
    return float(np.sum(ginv * fd_ricci(spec, r, theta, step)))


def fd_twist(spec, r, theta, step=1e-6):
    """omega = -(phi h)_r / phi by a central difference on phi * h."""
    ph = lambda rr: spec.phi.value(rr, theta) * spec.h.value(rr, theta)
    d = (ph(r + step) - ph(r - step)) / (2 * step)
    return -d / spec.phi.value(r, theta)


def bisect_eigenvalues(m, lo=None, hi=None, tol=1e-12):
    """Eigenvalues of a symmetric 3x3 matrix by Sturm-count bisection.

    Householder tridiagonalization followed by the tridiagonal pivot
    recurrence (tiny-pivot substitution keeps the inertia count valid, which
    plain unpivoted LDL on a full matrix does not).
    """
    m = 0.5 * (m + m.T)
    # reflect (m10, m20) onto (r, 0): exact one-step tridiagonalization
    x = m[1:, 0]
    nx = np.hypot(x[0], x[1])
    if nx > 0.0:
        # v from the unit vector x / |x|: for a tiny x, v.v would underflow to
        # a subnormal and the reflection would not be orthogonal
        v = x / nx
        v[0] += 1.0 if x[0] >= 0 else -1.0
        h2 = np.eye(2) - 2.0 * np.outer(v, v) / np.dot(v, v)
        house = np.eye(3)
        house[1:, 1:] = h2
        m = house @ m @ house
    d = np.diag(m).copy()
    e = np.array([m[0, 1], m[1, 2]])

    radius = np.max(np.abs(d)) + 2.0 * np.max(np.abs(e)) if e.size else np.max(np.abs(d))
    lo = -radius - 1.0 if lo is None else lo
    hi = radius + 1.0 if hi is None else hi

    pivmin = 1e-30 * max(1.0, float(np.max(e**2)))

    def count_below(x):
        # number of eigenvalues <= x via signs of the tridiagonal pivots;
        # a vanishing pivot is replaced by -pivmin *before* its sign is read,
        # so the substitution and the count stay consistent
        n_neg = 0
        q = d[0] - x
        for i in range(1, 4):
            if abs(q) < pivmin:
                q = -pivmin
            if q < 0:
                n_neg += 1
            if i < 3:
                q = d[i] - x - e[i - 1] ** 2 / q
        return n_neg

    lams = []
    for k in range(1, 4):
        a, b = lo, hi
        while b - a > tol * max(1.0, abs(a), abs(b)):
            mid = 0.5 * (a + b)
            if count_below(mid) >= k:
                b = mid
            else:
                a = mid
        lams.append(0.5 * (a + b))
    return np.array(lams)


def gamma_rhs(spec):
    """The 3-D geodesic right-hand side (t, r, theta, v) -> (v, -Gamma^c_ab v^a v^b)."""
    def rhs(_, y):
        gam, v = christoffels(Geometry(spec, y[1], y[2], order=1)), y[3:]
        return np.concatenate((v, -np.einsum("cab,a,b->c", gam, v, v)))
    return rhs


def gamma_geodesic(spec, init, length, step_tol=1e-10, n_samples=401):
    """Samples (s, (n, 6) states) of the 3-D geodesic from a GeodesicState, by scipy's DOP853
    at the library's tolerances."""
    s = np.linspace(0.0, length, n_samples)
    y0 = [init.t, init.r, init.theta, *init.velocities]
    sol = solve_ivp(gamma_rhs(spec), (0.0, length), y0, method="DOP853", rtol=step_tol,
                    atol=step_tol * 1e-2, t_eval=s)
    assert sol.status == 0, sol.message
    return sol.t, sol.y.T
