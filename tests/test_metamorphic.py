"""Metamorphic relations of the Geometry pipeline.

A metric whose (phi, h, k) do not depend on theta has every local invariant
unchanged under theta -> theta + delta; the round-sphere (hopf) family has
S = 6/R^2, Ric(T, T) = 2/R^2 and |omega| = 2/R at every point for every R.
"""

import numpy as np
import pytest

from killing3.cotton_york import cotton_york
from killing3.curvature_engine import ricci_tt
from killing3.frame_calculus import Geometry
from killing3.metric_family import catalog

R_PTS = np.array([0.3, 0.55, 0.8, 1.05])
THETA_PTS = np.array([0.1, 1.7, 4.0, 5.9])


@pytest.fixture(scope="module")
def theta_free_catalogs():
    return {"flat": catalog("flat"), "hopf": catalog("hopf", {"R": 2.0}),
            "nil": catalog("nil", {"omega0": 1.3}), "hyperbolic": catalog("hyperbolic"),
            "cf_family": catalog("cf_family", {"B": 0.3, "C": 1.0})}


def _invariants(geo):
    kappa, rho, sigma, eps, beta = geo.spin
    return {"S": geo.scalar.value, "Ric(T,T)": ricci_tt(geo), "omega": geo.omega.value,
            "|CY|": cotton_york(geo).norm, "div T": geo.div_T.value,
            "|shear|": np.abs(geo.shear.value), "|rho|": np.abs(rho.value),
            "|epsilon|": np.abs(eps.value), "|beta|": np.abs(beta.value)}


@pytest.mark.parametrize("name", ["flat", "hopf", "nil", "hyperbolic", "cf_family"])
@pytest.mark.parametrize("delta", [0.7, -2.9, 2.0 * np.pi])
def test_theta_shift_invariance(theta_free_catalogs, name, delta):
    spec = theta_free_catalogs[name]
    before = _invariants(Geometry(spec, R_PTS, THETA_PTS))
    after = _invariants(Geometry(spec, R_PTS, THETA_PTS + delta))
    for key, value in before.items():
        np.testing.assert_allclose(after[key], value, rtol=1e-13, atol=1e-13,
                                   err_msg=f"{name} {key}")


@pytest.mark.parametrize("radius", [0.5, 1.0, 2.0, 3.7])
def test_hopf_invariants_scale_with_radius(radius):
    # phi = (R/2) sin(2r/R) is positive on 0 < r < pi R / 2
    geo = Geometry(catalog("hopf", {"R": radius}), radius * np.array([0.1, 0.6, 1.1, 1.5]),
                   THETA_PTS)
    np.testing.assert_allclose(geo.scalar.value, 6.0 / radius**2, rtol=1e-12)
    np.testing.assert_allclose(ricci_tt(geo), 2.0 / radius**2, rtol=1e-12)
    np.testing.assert_allclose(np.abs(geo.omega.value), 2.0 / radius, rtol=1e-12)
