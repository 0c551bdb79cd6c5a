"""Numerical toolkit for 3-manifolds carrying a unit-length Killing vector field.

The canonical metric is g = (T^b)^2 + dr^2 + phi^2 dtheta^2 in coordinates
(t, r, theta) with T = d/dt the Killing field; every metric in the package is
specified by the scalar profile triple (phi, h, k).  Modules:

* ``jets`` / ``fields``     exact derivative-carrying scalar and tensor jets
* ``frame_calculus``        the signatures and g(T, T); the batched Geometry: domain check,
                            metric, connection, Ricci, frame data
* ``metric_family``         the (phi, h, k) spec, its Lorentzian partner, catalog, CSV grids, audits
* ``curvature_engine``      Christoffels, Ricci spectrum, curvature signs, cross-signature relations
* ``np_formalism``          spin coefficients, kinematics, structure equations
* ``cotton_york``           conformal-flatness tests and the (B, C) fit
* ``conformal_family``      the twist ODE and conformally flat built metrics
* ``completeness_probe``    curvature-profile criterion of either signature and geodesics
* ``dop853``                the Dormand-Prince 8(5,3) integrator the geodesics run on
* ``errors``                the exception hierarchy
* ``cli``                   the ``killing3`` command-line front end
"""

from .conformal_family import (FamilyParams, OmegaSolution, build_cf_metric,
                               solve_omega_ode, wpde_residual)
from .completeness_probe import (CurvatureProfile, GeodesicState,
                                 GeodesicTrajectory, completeness_verdict,
                                 curvature_profile, integrate_geodesic,
                                 lorentz_completeness, make_state)
from .cotton_york import (CottonYorkMatrix, FlatnessFit, cotton_york,
                          flatness_verdict, tmg_residual)
from .curvature_engine import (CurvaturePacket, RicciOfT, christoffels, curvature_packet,
                               gaussian_identity_residual, lorentz_relations_check)
from .errors import Killing3Error
from .fields import ScalarField, constant, from_expr, from_grid
from .frame_calculus import LORENTZIAN, RIEMANNIAN, Geometry
from .jets import Jet2
from .metric_family import (MetricSpec, SignaturePair, catalog, load_grid_csv,
                            metric_components, to_lorentz)
from .np_formalism import (KinematicData, SpinCoefficients, StructureResiduals,
                           conformal_rescale_check, killing_test, kinematics,
                           rotate_frame, spin_coefficients,
                           structure_residuals)

__version__ = "0.1.0"

__all__ = [
    "CottonYorkMatrix", "CurvaturePacket", "CurvatureProfile", "FamilyParams",
    "FlatnessFit", "GeodesicState", "GeodesicTrajectory", "Geometry", "Jet2",
    "Killing3Error", "KinematicData", "LORENTZIAN", "MetricSpec",
    "OmegaSolution", "RIEMANNIAN", "RicciOfT", "ScalarField",
    "SignaturePair", "SpinCoefficients", "StructureResiduals",
    "build_cf_metric", "catalog", "christoffels", "completeness_verdict",
    "conformal_rescale_check", "constant", "cotton_york", "curvature_packet",
    "curvature_profile", "flatness_verdict", "from_expr", "from_grid",
    "gaussian_identity_residual", "integrate_geodesic", "killing_test",
    "kinematics", "load_grid_csv", "lorentz_completeness",
    "lorentz_relations_check", "make_state", "metric_components",
    "rotate_frame",
    "solve_omega_ode", "spin_coefficients", "structure_residuals",
    "tmg_residual", "to_lorentz", "wpde_residual",
]
