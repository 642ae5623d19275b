"""Work counters and time per solve of the full-order steady state.

``column.steady_state_solve`` on the default column at two points:

* ``relaxation``: the benchmark's offline design point whose continuation
  stalls from the nominal steady state (a stage on a bound, a zero
  fraction-to-boundary step), so the solve relaxes once;
* ``nominal``: the nominal inputs from the flat start, a continuation
  that converges.

It runs on each backend:

* ``c``: the C core of this checkout (``_native.LIB``);
* ``c_baseline``: with ``--baseline-core``, the core built from another
  ``_core.c`` (another revision's) with the build line
  ``--baseline-flags`` (by default this checkout's, ``_native._FLAGS``),
  bound the same way and swapped in for ``_native.LIB``;
* ``numpy``: the numpy code (``_native.LIB`` None).

The work counters come from the numpy code: continuations, their
Jacobians and linear solves, and relaxations.  Every backend's state must
be byte-identical to the numpy code's; otherwise no record is printed.
The times are the minimum over ROUNDS rounds of one solve's wall time
(the numpy code's over a third of them), the backends taking turns within
a round, in milliseconds, with one BLAS thread.  The record is printed as
JSON.  Run from the repository root:

    git show HEAD~1:src/colnmpc/_core.c > /tmp/core_baseline.c
    python3 bench/steady_state.py --baseline-core /tmp/core_baseline.c \\
        > BENCH_steady_state.json

The committed ``BENCH_steady_state.json`` builds the baseline core on its
own ``-O2`` line, ``--baseline-flags "-O2 -ffp-contract=off
-fno-builtin-pow -shared -fPIC"``.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np

from colnmpc import _native, column
from colnmpc.column import ColumnInputs, ColumnParams, steady_state_solve
from full_segment import (NOMINAL_L, NOMINAL_V, NOMINAL_XF, _baseline_args,
                          _baseline_core)

RELAXATION_POINT = (2.238631485146057, 2.4678819673676182,
                    0.35225670939428416)
ROUNDS = 60
WORK = ("continuations", "jacobians", "solves", "relaxations")


def _numpy_work(u, params, init):
    """(state, work counters) of one solve on the numpy code."""
    work = dict.fromkeys(WORK, 0)
    ptc, relax, solve = column._ptc_steady, column.integrate, np.linalg.solve

    def counted_solve(a, b):
        work["solves"] += 1
        return solve(a, b)

    def counted_ptc(fun, jac, x0, tol):
        def counted_jac(x):
            work["jacobians"] += 1
            return jac(x)

        work["continuations"] += 1
        np.linalg.solve = counted_solve
        try:
            return ptc(fun, counted_jac, x0, tol)
        finally:
            np.linalg.solve = solve

    def counted_relax(problem):
        work["relaxations"] += 1
        return relax(problem)

    own = _native.LIB
    _native.LIB = None
    column._ptc_steady, column.integrate = counted_ptc, counted_relax
    try:
        x = steady_state_solve(u, params, init)
    finally:
        column._ptc_steady, column.integrate = ptc, relax
        _native.LIB = own
    return x, work


def _solve(lib, u, params, init):
    """(state, wall seconds) of one solve on lib."""
    own = _native.LIB
    _native.LIB = lib
    try:
        start = time.perf_counter()
        x = steady_state_solve(u, params, init)
        return x, time.perf_counter() - start
    finally:
        _native.LIB = own


def measure(backends):
    """The record of ``backends`` (name -> core, None for the numpy code,
    which is named "numpy") at both points, over ROUNDS rounds.  Exits
    with an error when a backend's state differs from the numpy code's."""
    params = ColumnParams()
    nominal = ColumnInputs(NOMINAL_L, NOMINAL_V, params.feed_flow,
                           NOMINAL_XF)
    L, V, x_F = RELAXATION_POINT
    points = {
        "relaxation": (ColumnInputs(L, V, params.feed_flow, x_F),
                       steady_state_solve(nominal, params)),
        "nominal": (nominal, None),
    }
    record = {"points": {}, "work": {}, "ms_per_solve_min": {},
              "rounds": dict.fromkeys(backends, 0)}
    for point, (u, init) in points.items():
        x_ref, record["work"][point] = _numpy_work(u, params, init)
        for name, lib in backends.items():
            if _solve(lib, u, params, init)[0].tobytes() != x_ref.tobytes():
                sys.exit(f"error: {name}'s steady state at the {point} "
                         "point differs from the numpy code's")
        record["points"][point] = {
            "column": "ColumnParams()", "L": u.L, "V": u.V, "x_F": u.x_F,
            "init": "flat" if init is None else "nominal steady state"}
    best = {point: dict.fromkeys(backends, np.inf) for point in points}
    for r in range(ROUNDS):
        for name, lib in backends.items():
            if name == "numpy" and r % 3:
                continue
            for point, (u, init) in points.items():
                best[point][name] = min(best[point][name],
                                        _solve(lib, u, params, init)[1])
            record["rounds"][name] += 1
    record["ms_per_solve_min"] = {
        point: {name: 1e3 * t for name, t in times.items()}
        for point, times in best.items()}
    record["host"] = {"machine": platform.machine(), "nproc": os.cpu_count(),
                      "python": platform.python_version(),
                      "numpy": np.__version__,
                      "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}
    return record


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    _baseline_args(ap)
    args = ap.parse_args()
    if _native.LIB is None:
        sys.exit("error: the C core of this checkout is not available")
    backends = {"c": _native.LIB}
    if args.baseline_core:
        backends["c_baseline"] = _baseline_core(args.baseline_core,
                                                args.baseline_flags)
    backends["numpy"] = None
    print(json.dumps(measure(backends), indent=2))


if __name__ == "__main__":
    main()
