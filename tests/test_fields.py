"""The numpy grid spline against FITPACK's RectBivariateSpline and the exact partials."""

import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline

from killing3 import fields, jets
from killing3.jets import INDEX
from killing3.metric_family import catalog

_HOPF = catalog("hopf", {"R": 2.0})
#: hopf's two fields and a theta-dependent one; each has exact jets
_FIELDS = {
    "hopf_phi": _HOPF.phi,
    "hopf_h": _HOPF.h,
    "theta_dependent": fields.from_expr(
        lambda r, t: jets.sin(2.0 * r) * jets.cos(t) + 0.3 * r * r * r * t),
}
_R_BOX, _T_BOX = (0.2, 1.2), (0.0, 6.0)


def _grid(name, n_r, n_t):
    """Nodes (unevenly spaced in r), values, and the two fits: quintic, quartic on 5 nodes."""
    r_nodes = _R_BOX[0] + (_R_BOX[1] - _R_BOX[0]) * np.linspace(0.0, 1.0, n_r) ** 1.2
    t_nodes = np.linspace(*_T_BOX, n_t)
    values = _FIELDS[name].value(*np.meshgrid(r_nodes, t_nodes, indexing="ij"))
    fitpack = RectBivariateSpline(r_nodes, t_nodes, values, kx=min(5, n_r - 1),
                                  ky=min(5, n_t - 1), s=0)
    return r_nodes, t_nodes, values, fields.from_grid(r_nodes, t_nodes, values), fitpack


def _points():
    """64 points, 13 of them on the box's edges: the closed right and top edges fall in
    the last cell of their axis."""
    rng = np.random.default_rng(0)
    r, t = rng.uniform(*_R_BOX, 64), rng.uniform(*_T_BOX, 64)
    r[:8] = _R_BOX[1]
    t[4:12] = _T_BOX[1]
    r[12], t[12] = _R_BOX[0], _T_BOX[0]
    return r, t


def _errors(jet_coeffs, reference):
    """The largest |difference| of each of the 10 partials over the points."""
    return np.max(np.abs(jet_coeffs - reference), axis=1)


# k = 4 on an axis of 5 nodes, k = 5 on more
@pytest.mark.parametrize("n_r, n_t", [(5, 5), (5, 24), (8, 8), (24, 5), (24, 24)])
@pytest.mark.parametrize("name", sorted(_FIELDS))
def test_grid_spline_is_fitpacks_interpolant(name, n_r, n_t):
    _, _, values, spline, fitpack = _grid(name, n_r, n_t)
    r, t = _points()
    theirs = np.array([fitpack.ev(r, t, dx=i, dy=j) for i, j in INDEX])
    # relative to each partial's size, or the field's where the partial vanishes
    scale = np.maximum(np.max(np.abs(theirs), axis=1), np.max(np.abs(values)))
    assert np.all(_errors(spline.jet(r, t, 3).coeffs, theirs) <= 1e-9 * scale)


@pytest.mark.parametrize("name", sorted(_FIELDS))
def test_grid_spline_as_close_to_exact_partials_as_fitpack(name):
    # at 200 nodes the high partials of both fits are round-off bound: each may
    # beat the other by the round-off of a difference quotient of order (i, j)
    r_nodes, t_nodes, values, spline, fitpack = _grid(name, 200, 200)
    r, t = _points()
    exact = _FIELDS[name].jet(r, t, 3).coeffs
    theirs = np.array([fitpack.ev(r, t, dx=i, dy=j) for i, j in INDEX])
    i, j = np.array(INDEX).T
    h_r, h_t = np.min(np.diff(r_nodes)), np.min(np.diff(t_nodes))
    roundoff = 64.0 * np.finfo(float).eps * np.max(np.abs(values)) / (h_r**i * h_t**j)
    assert np.all(_errors(spline.jet(r, t, 3).coeffs, exact)
                  <= _errors(theirs, exact) + roundoff)


def test_grid_jet_of_lower_order_is_the_leading_partials():
    _, _, _, spline, _ = _grid("theta_dependent", 24, 24)
    r, t = _points()
    full = spline.jet(r.reshape(8, 8), t.reshape(8, 8), 3).coeffs
    for order in range(3):
        np.testing.assert_array_equal(spline.jet(r.reshape(8, 8), t.reshape(8, 8), order).coeffs,
                                      full[:jets.NCOEFFS[order]])


@pytest.mark.parametrize("r_nodes", [np.linspace(1.0, 0.2, 8),
                                     np.r_[0.2, 0.2, np.linspace(0.3, 1.0, 6)]])
def test_grid_nodes_must_increase_strictly(r_nodes):
    with pytest.raises(ValueError, match="increase strictly"):
        fields.from_grid(r_nodes, np.linspace(0.0, 1.0, 8), np.zeros((8, 8)))
