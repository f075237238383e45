"""Set-up time of one workload, measured inside a fresh interpreter.

    python3 setup_probe.py SRC_DIR WORKLOAD WORK_DIR

Times the import of the cosmax modules the workload calls plus one
warm-up call of each route it uses, then times one speed.py kernel
sample, and prints both in seconds.  Interpreter start-up is not
included.  Only cosmax is imported between the first two clock reads, so
work moved into import or first use shows here; speed.py is imported
only after them, so the modules it needs are not pre-loaded for cosmax.
"""

import sys
import time


def _routes(p, tol) -> None:
    from cosmax import dfdx_quad, dispatch_eval, f_closed, f_quad, f_series

    f_series(p, tol)
    f_quad(p, tol)
    f_closed(p)
    dispatch_eval(p, tol)
    dfdx_quad(p, tol)


def _closed(p, tol) -> None:
    from cosmax import dispatch_eval, f_at_one, f_at_one_error_bound, generating_partial_sum

    dispatch_eval(p, tol)
    f_at_one(p.r)
    f_at_one_error_bound(p.r)
    generating_partial_sum(p, 5)


def _cli(workdir: str) -> None:
    import os

    from cosmax.cli import main

    out = os.path.join(workdir, f"setup-{os.getpid()}.json")
    main(["eval", "--x", "0.5", "--r", "0.5", "--format", "json", "--out", out])
    os.remove(out)


def main() -> None:
    src, workload, workdir = sys.argv[1:4]
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from cosmax import EvalPoint, Tolerance

    p, tol = EvalPoint(0.5, 0.5), Tolerance(1e-12)
    if workload in ("scan-quad", "eval-mix"):
        _routes(p, tol)
    elif workload == "scan-closed":
        _closed(p, tol)
    elif workload == "cli-table":
        _cli(workdir)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    elapsed = time.perf_counter() - t0
    from speed import kernel_seconds

    print(elapsed, kernel_seconds())


if __name__ == "__main__":
    main()
