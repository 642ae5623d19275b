"""Work counters and times of the compiled prediction horizons.

Two points, each one objective+gradient (``ocp.objective_and_gradient``)
of three constant moves at the nominal inputs over a 180 s / 360 s
horizon, integrated to rtol 1e-6, atol 1e-9, with x_F stepped to 0.357:

* the full-order point, ideal NMPC at the first solve point of the
  full-order work-counter pins in the tests: the default column from its
  nominal steady state;
* the hybrid point (``hybrid``), the packed-ANN hybrid of the hybrid
  work-counter pins in the tests (four fixed-seed random section nets)
  from the aggregated nominal steady state.

Each point runs on each backend (``bench/harness.py``: ``c``,
``c_baseline`` with ``--baseline``, ``numpy``).  The work counters
(steps, rejected, Newton failures, rhs and Jacobian evaluations, LUs) are
deterministic.  At the full-order point they must be equal on every
backend, and every backend's objective and gradient must agree with the
numpy loop's to PARITY_RTOL (relative; the gradient's against its largest
entry).  At the hybrid point the objective and gradient must be bitwise
the numpy loop's on every backend, and the counters of this checkout's
core must be the numpy loop's; the baseline's counters are reported
beside them (``work_c_baseline``), since a core with other work, the same
values, is what the comparison is for.  Each core's compiled prediction
calls per evaluation are counted (``compiled_calls``): a core that runs
the whole horizon in one call makes one, a core with one call per
segment one per segment (4 here).  The times are minima over ROUNDS
rounds of one evaluation's wall time: at the full-order point divided by
the steps (microseconds per step), at the hybrid point per evaluation
(microseconds per objective+gradient).  For each core,
``us_outside_core_per_eval_min`` is the minimum over the rounds of the
evaluation's wall time less the time inside the core's prediction calls:
the Python of ``objective_and_gradient``, the integrator's dispatch and
the horizon or segment object around each call (and the timer's own
call, about 0.3 us each).

The optimizer layer (``optimizer``) is one ``ocp.solve_ocp`` from those
moves at the full-order point, on the cores only (``c``, ``c_baseline``;
its Python is the same on every backend, and a solve on the numpy loop
would take seconds).  Its evaluations and iterations are recorded per
core, and ``us_outside_objective_per_eval_min`` is the minimum over
SOLVE_ROUNDS rounds of the solve's wall time less its evaluations'
(``OcpSolution.eval_s``), per evaluation: L-BFGS-B, the loop around it and
``solve_ocp``'s own bookkeeping.  Run from the repository root:

    mkdir -p /tmp/base
    git archive HEAD~1 src | tar -x -C /tmp/base
    python3 bench/full_segment.py --baseline /tmp/base \\
        > BENCH_full_segment.json
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # one BLAS thread, and this checkout's colnmpc first

import time

import numpy as np

NOMINAL_L = 2.0346651819
NOMINAL_V = 2.3546471803
NOMINAL_XF = 0.32
X_F = 0.357
SPEC = dict(horizon_control=180.0, horizon_prediction=360.0, n_intervals=3,
            sampling_time=60.0, integration_rtol=1e-6,
            integration_atol=1e-9)
ROUNDS = 90
SOLVE_ROUNDS = 30
PARITY_RTOL = 1e-10
WORK = ("steps", "rejected", "newton_failures", "nfev", "njev", "nlu")
# the prediction calls of the core, this revision's and earlier ones
CALLS = ("colnmpc_full_horizon", "colnmpc_hybrid_horizon",
         "colnmpc_full_segment", "colnmpc_hybrid_segment")


def _evaluate(backend, x0, model, spec, moves):
    """(objective, gradient, work counters, compiled calls, wall seconds,
    wall seconds outside the core) of one objective+gradient on backend;
    the last two are None on the numpy loop."""
    with backend.running(*CALLS) as timer:
        work = dict.fromkeys(WORK, 0)
        start = time.perf_counter()
        phi, grad = backend.ocp.objective_and_gradient(moves, x0, model,
                                                       spec, work)
        wall = time.perf_counter() - start
    if timer is None:
        return phi, grad, work, None, wall, None
    return phi, grad, work, timer.calls, wall, wall - timer.seconds


def _solve(backend, x0, model, spec, moves):
    """(evaluations, iterations) and (seconds outside the objective per
    evaluation,) of one ``solve_ocp`` on backend."""
    with backend.running():
        start = time.perf_counter()
        sol = backend.ocp.solve_ocp(x0, model, spec, moves)
        wall = time.perf_counter() - start
    outside = (wall - sum(sol.eval_s)) / sol.n_evaluations
    return (sol.n_evaluations, sol.iterations), (outside,)


def _calls(results):
    """{core: compiled calls} of the ``_evaluate`` results."""
    return {name: out[3] for name, out in results.items()
            if out[3] is not None}


def _points(backend):
    """(x0, model, spec, moves) of the full-order and of the hybrid point,
    made with backend's package."""
    column, ocp, surrogate = backend.column, backend.ocp, backend.surrogate
    params = column.ColumnParams()
    x0 = column.steady_state_solve(
        column.ColumnInputs(NOMINAL_L, NOMINAL_V, params.feed_flow,
                            NOMINAL_XF), params)
    spec = ocp.OcpSpec(**SPEC)
    moves = ocp.ControlMoves.constant(NOMINAL_L, NOMINAL_V, spec.n_intervals)
    layout = column.AggregationLayout.from_params(params)
    rng = np.random.default_rng(7)
    hybrid = column.HybridModel(params, layout, [
        surrogate.SurrogateModel.new_random(
            k, rng, hidden=4,
            scaling=surrogate.ScalingSpec(r_lo=0.3, r_hi=4.0))
        for k in range(4)])
    return ((x0, ocp.FullPrediction(params, X_F), spec, moves),
            (layout.state_from_plant(x0), ocp.HybridPrediction(hybrid, X_F),
             spec, moves))


def measure(backends):
    """The record of ``backends`` (``harness.backends``) at both points,
    over ROUNDS rounds.  Exits with an error when a check of the module
    docstring fails."""
    points = {name: _points(b) for name, b in backends.items()}
    out = {name: _evaluate(b, *points[name][0])  # warm-up, and checks
           for name, b in backends.items()}
    phi_r, grad_r, work_r, *_ = out["numpy"]
    for name, (phi, grad, work, *_) in out.items():
        if work != work_r:
            sys.exit(f"error: {name}'s work counters {work} differ from "
                     f"the numpy loop's {work_r}")
        if (abs(phi - phi_r) > PARITY_RTOL * abs(phi_r)
                or np.max(np.abs(grad - grad_r))
                > PARITY_RTOL * np.max(np.abs(grad_r))):
            sys.exit(f"error: {name}'s objective or gradient differs from "
                     f"the numpy loop's beyond {PARITY_RTOL:g}")
    hyb = {name: _evaluate(b, *points[name][1])
           for name, b in backends.items()}
    hphi_r, hgrad_r, hwork_r, *_ = hyb["numpy"]
    for name, (phi, grad, work, *_) in hyb.items():
        if phi != hphi_r or grad.tobytes() != hgrad_r.tobytes():
            sys.exit(f"error: {name}'s hybrid objective or gradient is not "
                     "bitwise the numpy loop's")
        if name != "c_baseline" and work != hwork_r:
            sys.exit(f"error: {name}'s hybrid work counters {work} differ "
                     f"from the numpy loop's {hwork_r}")
    best, rounds = harness.best_times(
        backends, lambda name: _evaluate(backends[name],
                                         *points[name][0])[4:], ROUNDS)
    hbest, hrounds = harness.best_times(
        backends, lambda name: _evaluate(backends[name],
                                         *points[name][1])[4:], ROUNDS)
    hybrid_record = {
        "point": {"model": "packed-ANN hybrid, 4 random sections "
                           "(hidden 4, seed 7), default layout",
                  "x0": "aggregated nominal steady state"},
        "work": hwork_r,
        "compiled_calls": _calls(hyb),
        "us_per_eval_min": {name: 1e6 * t for name, (t, _) in hbest.items()},
        "us_outside_core_per_eval_min": {
            name: 1e6 * t for name, (_, t) in hbest.items()
            if t is not None},
        "rounds": hrounds}
    if "c_baseline" in hyb:
        hybrid_record["work_c_baseline"] = hyb["c_baseline"][2]
    cores = {name: b for name, b in backends.items() if b.lib is not None}
    solves = {name: _solve(b, *points[name][0]) for name, b in cores.items()}
    sbest, srounds = harness.best_times(
        cores, lambda name: _solve(cores[name], *points[name][0])[1],
        SOLVE_ROUNDS)
    optimizer_record = {
        "work": {name: dict(zip(("evaluations", "iterations"), work))
                 for name, (work, _) in solves.items()},
        "us_outside_objective_per_eval_min": {
            name: 1e6 * t for name, (t,) in sbest.items()},
        "rounds": srounds}
    steps = work_r["steps"]
    return harness.with_ratios({
        "point": {"column": "ColumnParams()", "x0": "nominal steady state",
                  "L": NOMINAL_L, "V": NOMINAL_V, "x_F": X_F,
                  "horizon_control_s": SPEC["horizon_control"],
                  "horizon_prediction_s": SPEC["horizon_prediction"],
                  "n_intervals": SPEC["n_intervals"],
                  "rtol": SPEC["integration_rtol"],
                  "atol": SPEC["integration_atol"]},
        "work": work_r,
        "parity_rtol": PARITY_RTOL,
        "compiled_calls": _calls(out),
        "us_per_step_min": {name: 1e6 * t / steps
                            for name, (t, _) in best.items()},
        "us_outside_core_per_eval_min": {
            name: 1e6 * t for name, (_, t) in best.items() if t is not None},
        "rounds": rounds,
        "hybrid": hybrid_record,
        "optimizer": optimizer_record,
        "host": harness.host(),
    })


if __name__ == "__main__":
    harness.main(__doc__, measure)
