"""Work counters and time per solve of the full-order steady state.

``column.steady_state_solve`` on the default column at two points:

* ``relaxation``: the benchmark's offline design point whose continuation
  stalls from the nominal steady state (a stage on a bound, a zero
  fraction-to-boundary step), so the solve relaxes once;
* ``nominal``: the nominal inputs from the flat start, a continuation
  that converges.

It runs on each backend (``bench/harness.py``: ``c``, ``c_baseline`` with
``--baseline``, ``numpy``).  The work counters come from the numpy code:
continuations, their Jacobians and linear solves, and relaxations.  Every
backend's state must be byte-identical to the numpy code's.  The times
are minima over ROUNDS rounds of one solve's wall time, in milliseconds.
Run from the repository root:

    mkdir -p /tmp/base
    git archive HEAD~1 src | tar -x -C /tmp/base
    python3 bench/steady_state.py --baseline /tmp/base \\
        > BENCH_steady_state.json
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # one BLAS thread, and this checkout's colnmpc first

import time

import numpy as np

from full_segment import NOMINAL_L, NOMINAL_V, NOMINAL_XF

RELAXATION_POINT = (2.238631485146057, 2.4678819673676182,
                    0.35225670939428416)
ROUNDS = 60
WORK = ("continuations", "jacobians", "solves", "relaxations")


def _numpy_work(backend, u, params, init):
    """(state, work counters) of one solve on the numpy backend."""
    column = backend.column
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

    column._ptc_steady, column.integrate = counted_ptc, counted_relax
    try:
        with backend.running():
            x = column.steady_state_solve(u, params, init)
    finally:
        column._ptc_steady, column.integrate = ptc, relax
    return x, work


def _solve(backend, u, params, init):
    """(state, wall seconds) of one solve on backend."""
    with backend.running():
        start = time.perf_counter()
        x = backend.column.steady_state_solve(u, params, init)
        return x, time.perf_counter() - start


def _points(backend):
    """{point: (inputs, params, initial state or None)} made with
    backend's package."""
    column = backend.column
    params = column.ColumnParams()
    nominal = column.ColumnInputs(NOMINAL_L, NOMINAL_V, params.feed_flow,
                                  NOMINAL_XF)
    L, V, x_F = RELAXATION_POINT
    return {"relaxation": (column.ColumnInputs(L, V, params.feed_flow, x_F),
                           params, column.steady_state_solve(nominal, params)),
            "nominal": (nominal, params, None)}


def measure(backends):
    """The record of ``backends`` (``harness.backends``) at both points,
    over ROUNDS rounds.  Exits with an error when a backend's state
    differs from the numpy code's."""
    points = {name: _points(b) for name, b in backends.items()}
    record = {"points": {}, "work": {}, "ms_per_solve_min": {},
              "rounds": {}}
    for point, (u, params, init) in points["numpy"].items():
        x_ref, record["work"][point] = _numpy_work(backends["numpy"], u,
                                                   params, init)
        for name, b in backends.items():
            if _solve(b, *points[name][point])[0].tobytes() \
                    != x_ref.tobytes():
                sys.exit(f"error: {name}'s steady state at the {point} "
                         "point differs from the numpy code's")
        record["points"][point] = {
            "column": "ColumnParams()", "L": u.L, "V": u.V, "x_F": u.x_F,
            "init": "flat" if init is None else "nominal steady state"}
    best, record["rounds"] = harness.best_times(
        backends, lambda name: [_solve(backends[name], *args)[1]
                                for args in points[name].values()], ROUNDS)
    record["ms_per_solve_min"] = {
        point: {name: 1e3 * times[i] for name, times in best.items()}
        for i, point in enumerate(points["numpy"])}
    record["host"] = harness.host()
    return harness.with_ratios(record)


if __name__ == "__main__":
    harness.main(__doc__, measure)
