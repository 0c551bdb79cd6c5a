"""Round trip through the conformally flat family.

Solves the twist ODE omega'' = -omega (omega^2 + 2B) / 2 for chosen (B, C),
builds the corresponding metric, then checks that the Cotton-York tensor
vanishes and that the least-squares fit recovers the constants that were put
in.
"""

import argparse
import sys

import numpy as np

from killing3.cli import sample_points
from killing3.conformal_family import (FamilyParams, build_cf_metric,
                                       solve_omega_ode)
from killing3.cotton_york import flatness_verdict
from killing3.errors import PhiVanishes
from killing3.frame_calculus import Geometry


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--B", type=float, default=0.0)
    ap.add_argument("--C", type=float, default=1.0)
    ap.add_argument("--omega0", type=float, default=0.0)
    args = ap.parse_args()

    params = FamilyParams(B=args.B, C=args.C, omega0=args.omega0)
    sol = solve_omega_ode(params)
    print(f"params: B = {params.B}, C = {params.C}, omega(0) = {params.omega0}")
    print(f"energy E = C + B^2 = {params.energy:.6f}")
    if sol.turning_points.size:
        print(f"turning points: {np.round(sol.turning_points, 6)}")
    if sol.period is None:
        # the rest point and the separatrix do not close
        print(f"energy drift over |r| <= {sol.span:g}: {sol.energy_drift:.3e}")
    else:
        print(f"period: {sol.period:.6f}")
        print(f"energy drift over {sol.span / sol.period:.1f} periods: "
              f"{sol.energy_drift:.3e}")

    try:
        spec = build_cf_metric(params)
    except PhiVanishes as exc:
        sys.exit(f"no metric: {exc}")
    r_lo, r_hi = spec.params["r_range"]
    box = (0.9 * r_lo, 0.9 * r_hi, 0.0, 6.0)
    fit = flatness_verdict(Geometry(spec, *np.transpose(sample_points(box, 32, seed=42))))
    print(f"verdict: {fit.verdict}   max ||CY|| = {fit.cy_max:.3e}")
    print(f"recovered (B, C) = ({fit.B:+.6f}, {fit.C:+.6f})"
          f"   fit residual = {fit.residual_max:.3e}")


if __name__ == "__main__":
    main()
