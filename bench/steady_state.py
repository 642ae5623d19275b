"""Work counters and time per solve of the steady states of the set-up.

``column.steady_state_solve`` on the default column at two points:

* ``relaxation``: the benchmark's offline design point whose continuation
  stalls from the nominal steady state (a stage on a bound, a zero
  fraction-to-boundary step), so the solve relaxes once;
* ``nominal``: the nominal inputs from the flat start, a continuation
  that converges.

The oracle-hybrid point (``oracle``) is ``column.hybrid_steady_state``
of the oracle hybrid of the default layout at the relaxation point's
inputs, from the aggregated full-order steady state there, as the
benchmark's set-up starts each of its offline points; one model is
made per backend and reused by every solve.

It runs on each backend (``bench/harness.py``: ``c``, ``c_baseline`` with
``--baseline``, ``numpy``).  The work counters come from the numpy code:
continuations, their Jacobians and linear solves, and relaxations.  Every
backend's state must be byte-identical to the numpy code's, at every
point.  The times are minima over ROUNDS rounds of one solve's wall time,
in milliseconds.  For each core, ``us_outside_core_per_solve_min`` is the
minimum over the rounds of the solve's wall time less the time inside the
core's calls (``colnmpc_full_steady``, ``colnmpc_full_relax``,
``colnmpc_oracle_steady``), in microseconds: the Python around them (and
the timer's own call, about 0.3 us each).  ``us_per_from_params_min`` is
the minimum over the rounds of ``AggregationLayout.from_params`` of the
default column, FROM_PARAMS_CALLS calls per round, in microseconds per
call; it calls no core.  Run from the repository root:

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
FROM_PARAMS_CALLS = 100
WORK = ("continuations", "jacobians", "solves", "relaxations")
# the core's steady-state calls
CALLS = ("colnmpc_full_steady", "colnmpc_full_relax", "colnmpc_oracle_steady")


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


def _solve(backend, solve, *args):
    """(state, wall seconds, wall seconds outside the core) of one
    ``solve(*args)``, a function of backend's ``column``, on backend; the
    last is None on the numpy code."""
    with backend.running(*CALLS) as timer:
        start = time.perf_counter()
        x = getattr(backend.column, solve)(*args)
        wall = time.perf_counter() - start
    return x, wall, None if timer is None else wall - timer.seconds


def _from_params(backend, params):
    """Wall seconds per call of FROM_PARAMS_CALLS calls of backend's
    ``AggregationLayout.from_params``."""
    from_params = backend.column.AggregationLayout.from_params
    start = time.perf_counter()
    for _ in range(FROM_PARAMS_CALLS):
        from_params(params)
    return (time.perf_counter() - start) / FROM_PARAMS_CALLS


def _points(backend):
    """{point: (solve, its arguments)} of the full-order points and the
    oracle-hybrid point, made with backend's package."""
    column = backend.column
    params = column.ColumnParams()
    nominal = column.ColumnInputs(NOMINAL_L, NOMINAL_V, params.feed_flow,
                                  NOMINAL_XF)
    L, V, x_F = RELAXATION_POINT
    u = column.ColumnInputs(L, V, params.feed_flow, x_F)
    x_nominal = column.steady_state_solve(nominal, params)
    layout = column.AggregationLayout.from_params(params)
    z0 = layout.state_from_plant(column.steady_state_solve(u, params,
                                                           x_nominal))
    return {"relaxation": ("steady_state_solve", u, params, x_nominal),
            "nominal": ("steady_state_solve", nominal, params, None),
            "oracle": ("hybrid_steady_state",
                       column.oracle_hybrid(params, layout), u, z0)}


def measure(backends):
    """The record of ``backends`` (``harness.backends``) at every point,
    over ROUNDS rounds.  Exits with an error when a backend's state
    differs from the numpy code's."""
    points = {name: _points(b) for name, b in backends.items()}
    record = {"points": {}, "work": {}}
    for point, (solve, *args) in points["numpy"].items():
        x_ref = _solve(backends["numpy"], solve, *args)[0]
        for name, b in backends.items():
            if _solve(b, *points[name][point])[0].tobytes() \
                    != x_ref.tobytes():
                sys.exit(f"error: {name}'s steady state at the {point} "
                         "point differs from the numpy code's")
        if solve == "steady_state_solve":
            u, params, init = args
            record["work"][point] = _numpy_work(backends["numpy"], *args)[1]
            record["points"][point] = {
                "column": "ColumnParams()", "L": u.L, "V": u.V, "x_F": u.x_F,
                "init": "flat" if init is None else "nominal steady state"}
        else:
            u = args[1]
            record["points"][point] = {
                "model": "oracle hybrid, default layout", "L": u.L, "V": u.V,
                "x_F": u.x_F, "init": "aggregated full-order steady state"}

    def run(name):
        timed = [_solve(backends[name], *args)[1:]
                 for args in points[name].values()]
        params = points[name]["nominal"][2]
        return (*(wall for wall, _ in timed),
                *(outside for _, outside in timed),
                _from_params(backends[name], params))

    best, record["rounds"] = harness.best_times(backends, run, ROUNDS)
    names = list(points["numpy"])
    k = len(names)
    record["ms_per_solve_min"] = {
        point: {name: 1e3 * times[i] for name, times in best.items()}
        for i, point in enumerate(names)}
    record["us_outside_core_per_solve_min"] = {
        point: {name: 1e6 * times[k + i] for name, times in best.items()
                if times[k + i] is not None}
        for i, point in enumerate(names)}
    record["us_per_from_params_min"] = {
        name: 1e6 * times[-1] for name, times in best.items()}
    record["host"] = harness.host()
    return harness.with_ratios(record)


if __name__ == "__main__":
    harness.main(__doc__, measure)
