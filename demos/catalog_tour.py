"""Tour of the model catalog: curvature, twist, and conformal flatness.

Prints, for each model, the scalar curvature, Ric(T,T), the twist, the
Ricci-operator spectrum and the Cotton-York norm at a sample point, then the
flatness verdict over a small sweep.
"""

import argparse

import numpy as np

from killing3.cli import sample_points
from killing3.cotton_york import cotton_york, flatness_verdict
from killing3.curvature_engine import curvature_packet
from killing3.frame_calculus import Geometry
from killing3.metric_family import catalog

MODELS = [
    ("flat", None, (0.8, 0.5)),
    ("hopf", {"R": 1.0}, (np.pi / 4, 0.3)),
    ("nil", {"omega0": 1.0}, (0.7, 0.2)),
    ("hyperbolic", None, (0.8, 0.5)),
    ("cf_family", {"B": 0.0, "C": 1.0}, (0.4, 0.5)),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=24,
                    help="sweep size for the flatness verdict")
    args = ap.parse_args()

    for name, params, point in MODELS:
        spec = catalog(name, params)
        geo = Geometry(spec, *point)
        pk = curvature_packet(geo)
        cy = cotton_york(geo)
        box = (-1.2, 1.2, 0.0, 6.0) if name == "cf_family" else (0.2, 1.2, 0.0, 6.0)
        sweep = np.transpose(sample_points(box, args.points, seed=42))
        fit = flatness_verdict(Geometry(spec, *sweep))
        print(f"== {name} {params or ''}")
        print(f"   S = {pk.scalar_S:+.6f}   Ric(T,T) = {pk.ric_of_T.t_component:+.6f}"
              f"   omega = {pk.omega:+.6f}")
        print(f"   Ricci spectrum: ({pk.spectrum[0]:+.6f}, {pk.spectrum[1]:+.6f},"
              f" {pk.spectrum[2]:+.6f})")
        print(f"   ||CY|| = {cy.norm:.3e}   verdict: {fit.verdict}"
              + (f"   fitted (B, C) = ({fit.B:+.4f}, {fit.C:+.4f})"
                 if fit.verdict == "Flat" else ""))


if __name__ == "__main__":
    main()
