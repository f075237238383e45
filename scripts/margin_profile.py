"""Profile how the inequality margin closes near the excluded boundary.

Two views:

1. min_margin of the full scan as the grid inset delta shrinks.  Both the
   phi edge and the r edge track delta, so the worst margin sits at
   (phi, r) = (delta, delta) and scales like delta^3/6 — one power of
   delta from r, two from 1 - cos(phi).  The ratio column should approach
   1000 per decade.

2. margin(phi, r=1) against phi at fixed r, where the scaling is purely
   quadratic: margin / phi^2 tends to a constant (half the x-derivative
   of f at x = 1, r = 1).
"""

import argparse

from cosmax.series import Tolerance
from cosmax.verify import ScanGrid, default_grid, dispatch_eval, inequality_scan, margins


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tol", type=float, default=1e-10,
                    help="absolute tolerance handed to the evaluation routes")
    args = ap.parse_args(argv)
    tol = Tolerance(args.tol)

    print("scan min_margin vs grid inset")
    print(f"{'delta':>8} {'min_margin':>14} {'worst phi':>12} {'worst r':>10} {'ratio':>8}")
    prev = None
    ok = True
    for delta in (1e-1, 1e-2, 1e-3):
        rep = inequality_scan(default_grid("inequality", delta), tol)
        ok = ok and rep.passed
        ratio = "" if prev is None else f"{prev / rep.min_margin:8.1f}"
        print(f"{delta:8.0e} {rep.min_margin:14.6e} {rep.worst_point[0]:12.6g} "
              f"{rep.worst_point[1]:10.6g} {ratio}")
        prev = rep.min_margin

    print()
    print("margin(phi, 1) vs phi  (margin / phi^2 -> constant)")
    print(f"{'phi':>8} {'margin':>14} {'margin/phi^2':>14}")
    for phi in (1e-1, 1e-2, 1e-3, 1e-4):
        # a one-point grid; its inset is phi, so the grid admits it
        [(_, _, m, _, _)] = margins(ScanGrid("phi_grid", phi, phi, 1, 1.0, 1.0, 1, phi),
                                    tol, dispatch_eval)
        ok = ok and m > 0.0
        print(f"{phi:8.0e} {m:14.6e} {m / (phi * phi):14.6f}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
