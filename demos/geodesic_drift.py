"""Geodesic conservation demo.

Integrates an equatorial geodesic on the round-sphere model (it closes after
affine length pi) and a long geodesic on the hyperbolic model, reporting the
drift of the conserved quantity g(T, gamma') and of the speed, plus how far the
horizontal geodesic strays from the equator r = pi/4 of the quotient sphere
dr^2 + phi^2 dtheta^2 over length 20.
"""

import argparse

import numpy as np

from killing3.completeness_probe import integrate_geodesic, make_state
from killing3.metric_family import catalog


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--length", type=float, default=50.0,
                    help="affine length for the hyperbolic run")
    ap.add_argument("--csv", help="optional trajectory CSV output path")
    args = ap.parse_args()

    hopf = catalog("hopf", {"R": 1.0})
    st = make_state(hopf, (0.0, np.pi / 4, 0.0), (-1.0, 0.0, 2.0))
    traj = integrate_geodesic(hopf, st, 2 * np.pi)
    i = np.argmin(np.abs(traj.s - np.pi))
    print("hopf equatorial geodesic (horizontal, c = 0):")
    print(f"  theta after length pi: {traj.states[i, 2]:.8f}"
          f"  (closes at 2 pi = {2 * np.pi:.8f})")
    print(f"  c drift {traj.max_c_drift:.3e}   speed drift "
          f"{traj.max_speed_drift:.3e}")
    res = np.max(np.abs(integrate_geodesic(hopf, st, 20.0).states[:, 1] - np.pi / 4))
    print(f"  max |r - pi/4| over length 20: {res:.3e}")

    hyp = catalog("hyperbolic")
    st = make_state(hyp, (0.0, 0.5, 0.2), (0.3, 0.8, 0.4))
    traj = integrate_geodesic(hyp, st, args.length)
    print(f"hyperbolic geodesic, length {args.length}:")
    print(f"  final (r, theta) = ({traj.states[-1, 1]:.4f}, "
          f"{traj.states[-1, 2]:.4f})")
    print(f"  c drift {traj.max_c_drift:.3e}   speed drift "
          f"{traj.max_speed_drift:.3e}")
    if args.csv:
        traj.to_csv(args.csv)
        print(f"  trajectory written to {args.csv}")


if __name__ == "__main__":
    main()
