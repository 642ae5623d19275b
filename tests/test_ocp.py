import dataclasses

import numpy as np
import pytest

from colnmpc import _native, kernels, ocp
from colnmpc.column import (AggregationLayout, ColumnInputs, ColumnParams,
                            HybridModel, hybrid_steady_state, oracle_hybrid,
                            steady_state_solve)
from colnmpc.integrate import IntegrationError
from colnmpc.ocp import (ControlMoves, FullPrediction, HybridPrediction,
                         OcpSpec, first_move, objective_and_gradient,
                         solve_ocp, warm_start_shift)
from colnmpc.surrogate import ScalingSpec, SurrogateModel

from conftest import NOMINAL_L, NOMINAL_V, NOMINAL_XF

# short horizons and few intervals keep these unit tests fast
SPEC3 = OcpSpec(horizon_control=180.0, horizon_prediction=360.0,
                n_intervals=3, sampling_time=60.0,
                integration_rtol=1e-10, integration_atol=1e-12)


def _surrogate_hybrid(params, layout, rng):
    models = [SurrogateModel.new_random(k, rng, hidden=4,
                                        scaling=ScalingSpec(r_lo=0.3, r_hi=4.0))
              for k in range(4)]
    return HybridModel(params, layout, models)


# ---------------------------------------------------------------------------
# move plumbing
# ---------------------------------------------------------------------------

def test_warm_start_shift():
    mv = ControlMoves(np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0]))
    sh = warm_start_shift(mv)
    assert np.array_equal(sh.L, [2.0, 3.0, 3.0])
    assert np.array_equal(sh.V, [5.0, 6.0, 6.0])
    const = ControlMoves.constant(2.2, 2.6, 5)
    sh2 = warm_start_shift(const)
    assert np.array_equal(sh2.L, const.L) and np.array_equal(sh2.V, const.V)
    assert sh.within_bounds(SPEC3) == mv.within_bounds(SPEC3)


def test_move_vector_roundtrip():
    mv = ControlMoves(np.array([1.5, 2.5]), np.array([3.5, 4.5]))
    assert np.array_equal(ControlMoves.from_vector(mv.as_vector()).L, mv.L)


def test_ocp_spec_validation():
    # integer fields are integers (numpy's too): a float n_intervals used to
    # pass and raise TypeError in segment_bounds, a float max_evaluations
    # to reach scipy
    spec = OcpSpec(n_intervals=np.int64(10), max_iterations=np.int32(40),
                   max_evaluations=np.int64(120))
    assert all(type(v) is int for v in (spec.n_intervals, spec.max_iterations,
                                        spec.max_evaluations))
    nan, inf = float("nan"), float("inf")
    for bad in (dict(n_intervals=10.0), dict(max_iterations=40.0),
                dict(max_evaluations=2.5),
                dict(horizon_control=1200.0, horizon_prediction=600.0),
                dict(n_intervals=20),  # interval 30 s < sampling time 60 s
                dict(n_intervals=0), dict(sampling_time=0.0),
                dict(sampling_time=-60.0), dict(bounds_L=(3.0, 3.0)),
                dict(bounds_V=(6.0, 2.0)), dict(integration_rtol=0.0),
                dict(integration_atol=-1e-9), dict(max_iterations=0),
                dict(max_evaluations=0), dict(horizon_control=nan),
                dict(horizon_prediction=nan), dict(sampling_time=nan),
                dict(horizon_prediction=inf), dict(integration_rtol=inf),
                dict(setpoint_x_D=nan), dict(setpoint_x_B=nan),
                dict(setpoint_x_D=1.5), dict(setpoint_x_B=-0.1)):
        with pytest.raises(ValueError):
            OcpSpec(**bad)


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------

def test_objective_zero_at_tracked_setpoints(params, nominal_u, nominal_steady):
    spec = OcpSpec(horizon_control=180.0, horizon_prediction=360.0,
                   n_intervals=3,
                   setpoint_x_D=float(nominal_steady[-1]),
                   setpoint_x_B=float(nominal_steady[0]),
                   integration_rtol=1e-10, integration_atol=1e-12)
    model = FullPrediction(params, NOMINAL_XF)
    moves = ControlMoves.constant(NOMINAL_L, NOMINAL_V, 3)
    phi, grad = objective_and_gradient(moves, nominal_steady, model, spec)
    assert phi <= 1e-12
    assert np.max(np.abs(grad)) <= 1e-6


def test_objective_constant_deviation_closed_form():
    # alpha = 1 with uniform composition: products stay at c for any moves,
    # so a set-point offset integrates exactly to delta^2 * T_P
    p = ColumnParams(alpha=1.0)
    c, delta = 0.4, 0.015
    spec = OcpSpec(horizon_control=180.0, horizon_prediction=360.0,
                   n_intervals=3, setpoint_x_D=c, setpoint_x_B=c - delta,
                   integration_rtol=1e-11, integration_atol=1e-13)
    model = FullPrediction(p, c)
    moves = ControlMoves.constant(2.2, 2.7, 3)
    phi = objective_and_gradient(moves, np.full(p.n_total, c), model,
                                 spec)[0]
    assert phi == pytest.approx(delta ** 2 * 360.0, rel=1e-8)


def _fd_gradient(moves, x0, model, spec, h=1e-5):
    xv = moves.as_vector()
    fd = np.empty_like(xv)
    for j in range(xv.size):
        xp, xm = xv.copy(), xv.copy()
        xp[j] += h
        xm[j] -= h
        fp = objective_and_gradient(ControlMoves.from_vector(xp), x0, model,
                                    spec)[0]
        fm = objective_and_gradient(ControlMoves.from_vector(xm), x0, model,
                                    spec)[0]
        fd[j] = (fp - fm) / (2 * h)
    return fd


def test_gradient_matches_fd_full_model(params, nominal_steady, rng):
    model = FullPrediction(params, 0.29)
    moves = ControlMoves(NOMINAL_L + rng.uniform(-0.2, 0.2, 3),
                         NOMINAL_V + rng.uniform(-0.2, 0.2, 3))
    phi, grad = objective_and_gradient(moves, nominal_steady, model, SPEC3)
    fd = _fd_gradient(moves, nominal_steady, model, SPEC3)
    assert np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-10) <= 1e-4


def test_gradient_matches_fd_hybrid_model(params, layout, rng):
    hm = _surrogate_hybrid(params, layout, rng)
    model = HybridPrediction(hm, 0.32)
    z0 = np.sort(rng.uniform(0.05, 0.95, 5))
    moves = ControlMoves(NOMINAL_L + rng.uniform(-0.2, 0.2, 3),
                         NOMINAL_V + rng.uniform(-0.2, 0.2, 3))
    phi, grad = objective_and_gradient(moves, z0, model, SPEC3)
    fd = _fd_gradient(moves, z0, model, SPEC3)
    assert np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-10) <= 1e-4


SPEC_LOOSE = OcpSpec(horizon_control=180.0, horizon_prediction=360.0,
                     n_intervals=3, sampling_time=60.0,
                     integration_rtol=1e-6, integration_atol=1e-9)


def _prediction_cases(params, layout, nominal_steady, rng):
    hm = _surrogate_hybrid(params, layout, rng)
    return [(FullPrediction(params, 0.30), nominal_steady),
            (HybridPrediction(hm, 0.32), np.sort(rng.uniform(0.05, 0.95, 5)))]


def test_one_model_jacobian_per_integrator_jacobian(params, layout,
                                                    nominal_steady, rng,
                                                    monkeypatch, no_core):
    # every point where the integrator needs Jacobians (njev) costs
    # exactly one model.rhs_jac call (the numpy loop: the compiled
    # segments call no Python model code)
    njev = []
    run = ocp.integrate_with_sensitivities

    def counted(problem):
        tr = run(problem)
        njev.append(tr.stats["njev"])
        return tr
    monkeypatch.setattr(ocp, "integrate_with_sensitivities", counted)
    for model, x0 in _prediction_cases(params, layout, nominal_steady, rng):
        calls = []
        rhs_jac = model.rhs_jac
        model.rhs_jac = lambda *a: calls.append(1) or rhs_jac(*a)
        njev.clear()
        moves = ControlMoves(NOMINAL_L + rng.uniform(-0.2, 0.2, 3),
                             NOMINAL_V + rng.uniform(-0.2, 0.2, 3))
        objective_and_gradient(moves, x0, model, SPEC_LOOSE)
        assert len(njev) == len(SPEC_LOOSE.segment_bounds())
        assert len(calls) == sum(njev) > 0


def test_full_prediction_work_counters(params, nominal_steady, monkeypatch,
                                       no_core):
    # the work of one ideal-NMPC objective+gradient at the closed-loop
    # benchmark's spec (N = 3, T_C = 180 s, T_P = 360 s, rtol 1e-6, nominal
    # moves, x_F = 0.357) is pinned: a change that alters a step, a Newton
    # iteration or an LU shows here.  njev = 5 * steps + segments: each
    # step after a segment's first reuses the stage-5 Jacobians.
    stats = []
    run = ocp.integrate_with_sensitivities

    def counted(problem):
        tr = run(problem)
        stats.append(tr.stats)
        return tr
    monkeypatch.setattr(ocp, "integrate_with_sensitivities", counted)
    rhs_calls = []
    full_rhs = kernels.full_rhs
    monkeypatch.setattr(kernels, "full_rhs",
                        lambda *a: rhs_calls.append(1) or full_rhs(*a))
    model = FullPrediction(params, 0.357)
    jac_calls = []
    rhs_jac = model.rhs_jac
    model.rhs_jac = lambda *a: jac_calls.append(1) or rhs_jac(*a)
    objective_and_gradient(ControlMoves.constant(NOMINAL_L, NOMINAL_V, 3),
                           nominal_steady, model, SPEC_LOOSE)
    summed = {k: sum(st[k] for st in stats)
              for k in ("steps", "rejected", "newton_failures", "nfev",
                        "njev", "nlu")}
    assert summed == {"steps": 214, "rejected": 0, "newton_failures": 0,
                      "nfev": 2665, "njev": 1074, "nlu": 1284}
    assert len(jac_calls) == 1074
    # the model runs full_rhs only where the integrator asks for the rhs,
    # never at Jacobian points (3949 calls when rhs_jac also returned it)
    assert len(rhs_calls) == summed["nfev"]


def test_hybrid_prediction_work_counters(params, layout, nominal_steady,
                                         monkeypatch, no_core):
    # twin of test_full_prediction_work_counters for the packed-ANN hybrid
    # (fixed-seed random surrogates, from the aggregated nominal steady
    # state): every step, rejection, Newton failure and LU is pinned, and
    # the packed kernel runs once per rhs and once per Jacobian point.
    # njev = segment starts + 5 * accepted (4 + 5 * 222): only a segment's
    # first step evaluates its start Jacobian, later ones (and retries
    # after a rejection) reuse one, and only a step that passes the error
    # test runs its five sensitivity stages.  nlu = steps - singular step
    # factors + 5 * accepted (282 - 0 + 5 * 222).  (The numpy loop: the
    # compiled hybrid segment calls no Python kernel.)
    stats = []
    run = ocp.integrate_with_sensitivities

    def counted(problem):
        tr = run(problem)
        stats.append(tr.stats)
        return tr
    monkeypatch.setattr(ocp, "integrate_with_sensitivities", counted)
    calls = []
    hybrid_rhs_jac = kernels.hybrid_rhs_jac
    monkeypatch.setattr(kernels, "hybrid_rhs_jac",
                        lambda *a: calls.append(1) or hybrid_rhs_jac(*a))
    hm = _surrogate_hybrid(params, layout, np.random.default_rng(7))
    objective_and_gradient(ControlMoves.constant(NOMINAL_L, NOMINAL_V, 3),
                           layout.state_from_plant(nominal_steady),
                           HybridPrediction(hm, 0.357), SPEC_LOOSE)
    summed = {k: sum(st[k] for st in stats)
              for k in ("steps", "rejected", "newton_failures", "nfev",
                        "njev", "nlu")}
    assert summed == {"steps": 282, "rejected": 60, "newton_failures": 2,
                      "nfev": 3565, "njev": 1114, "nlu": 1392}
    assert len(calls) == summed["nfev"] + summed["njev"]


def test_oracle_start_outside_unit_interval_is_an_integration_error(
        params, layout, nominal_steady):
    # a start state with a composition below 0 has no oracle section
    # solution: a typed IntegrationError (an infeasible point for
    # solve_ocp), not the section solver's domain error
    spec = OcpSpec(horizon_control=180.0, horizon_prediction=180.0,
                   n_intervals=3, sampling_time=60.0)
    z0 = layout.state_from_plant(nominal_steady)
    z0[0] = -1e-4
    model = HybridPrediction(oracle_hybrid(params, layout), 0.32)
    with pytest.raises(IntegrationError):
        objective_and_gradient(ControlMoves.constant(NOMINAL_L, NOMINAL_V, 3),
                               z0, model, spec)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def test_solve_warm_start_already_optimal(params, nominal_steady):
    spec = OcpSpec(horizon_control=180.0, horizon_prediction=360.0,
                   n_intervals=3,
                   setpoint_x_D=float(nominal_steady[-1]),
                   setpoint_x_B=float(nominal_steady[0]))
    model = FullPrediction(params, NOMINAL_XF)
    warm = ControlMoves.constant(NOMINAL_L, NOMINAL_V, 3)
    sol = solve_ocp(nominal_steady, model, spec, warm)
    assert sol.status == "converged"
    assert sol.iterations <= 1
    assert np.max(np.abs(sol.moves.as_vector() - warm.as_vector())) <= 1e-10
    assert first_move(sol) == (NOMINAL_L, NOMINAL_V)


@pytest.mark.parametrize("compiled", [True, False])
def test_solve_refuses_a_non_finite_warm_start(compiled, params,
                                               nominal_steady, monkeypatch):
    # np.clip keeps a NaN, so a NaN move would reach the predictions and
    # come back as the solution's move; an infinite one would be clipped
    # to a bound.  Both are refused before any evaluation, on the
    # compiled path and on the numpy loop
    if not compiled:
        monkeypatch.setattr(_native, "LIB", None)
    calls = []
    run = ocp.integrate_with_sensitivities
    monkeypatch.setattr(ocp, "integrate_with_sensitivities",
                        lambda problem: calls.append(1) or run(problem))
    model = FullPrediction(params, NOMINAL_XF)
    for L0, V0 in ((np.nan, NOMINAL_V), (NOMINAL_L, np.inf),
                   (NOMINAL_L, -np.inf)):
        warm = ControlMoves(np.array([L0, NOMINAL_L, NOMINAL_L]),
                            np.array([V0, NOMINAL_V, NOMINAL_V]))
        with pytest.raises(ValueError, match="finite"):
            solve_ocp(nominal_steady, model, SPEC3, warm)
    assert calls == []
    solve_ocp(nominal_steady, model, dataclasses.replace(
        SPEC3, max_iterations=1, max_evaluations=1),
        ControlMoves.constant(NOMINAL_L, NOMINAL_V, 3))
    assert calls  # a finite warm start is evaluated


def test_solve_improves_after_feed_step(params, nominal_steady):
    # disturbance: true feed drops; ideal NMPC sees it and must beat the
    # no-action rollout by at least 50 %
    x_f_new = 0.26
    spec = OcpSpec(horizon_control=300.0, horizon_prediction=600.0,
                   n_intervals=5, max_iterations=60, max_evaluations=150)
    model = FullPrediction(params, x_f_new)
    warm = ControlMoves.constant(NOMINAL_L, NOMINAL_V, 5)
    phi_noaction = objective_and_gradient(warm, nominal_steady, model,
                                          spec)[0]
    sol = solve_ocp(nominal_steady, model, spec, warm)
    assert sol.objective < 0.5 * phi_noaction
    assert sol.moves.within_bounds(spec)


def test_solve_objective_never_above_warm_start(params, layout, rng):
    hm = _surrogate_hybrid(params, layout, rng)
    model = HybridPrediction(hm, 0.3)
    z0 = np.sort(rng.uniform(0.1, 0.9, 5))
    warm = ControlMoves.constant(2.2, 2.6, 3)
    phi0 = objective_and_gradient(warm, z0, model, SPEC3)[0]
    sol = solve_ocp(z0, model, SPEC3, warm)
    assert sol.objective <= phi0 + 1e-12
    assert sol.moves.within_bounds(SPEC3)


def test_solve_budget_status(params, nominal_steady):
    spec = OcpSpec(horizon_control=180.0, horizon_prediction=360.0,
                   n_intervals=3, max_iterations=1, max_evaluations=2)
    model = FullPrediction(params, 0.26)
    warm = ControlMoves.constant(NOMINAL_L, NOMINAL_V, 3)
    sol = solve_ocp(nominal_steady, model, spec, warm)
    assert sol.status == "budget"
    assert sol.objective < 1e12


def test_solve_sums_integrator_counters(params, nominal_steady, monkeypatch):
    # OcpSolution.integrator sums every prediction segment's counters,
    # those of segments that raise IntegrationError included
    keys = ("steps", "rejected", "newton_failures", "nfev", "njev", "nlu")
    seen = dict.fromkeys(keys, 0)
    outcomes = []
    run = ocp.integrate_with_sensitivities

    def add(stats, outcome):
        outcomes.append(outcome)
        for k in keys:
            seen[k] += stats[k]

    def counted(problem):
        problem.max_steps = 100   # long segments fail on the step cap
        try:
            tr = run(problem)
        except IntegrationError as exc:
            add(exc.stats, "error")
            raise
        add(tr.stats, "ok")
        return tr
    monkeypatch.setattr(ocp, "integrate_with_sensitivities", counted)
    spec = dataclasses.replace(SPEC_LOOSE, max_iterations=2, max_evaluations=3)
    sol = solve_ocp(nominal_steady, FullPrediction(params, 0.357), spec,
                    ControlMoves.constant(NOMINAL_L, NOMINAL_V, 3))
    assert "error" in outcomes and "ok" in outcomes
    assert sol.integrator == seen
    assert seen["steps"] > 0 and seen["nlu"] > 0


def test_solve_with_no_successful_evaluation_is_infeasible_start(
        params, nominal_steady, monkeypatch):
    # a 1-step cap fails every prediction, so L-BFGS-B sees a zero
    # gradient at the warm start; the solve says so instead of
    # "converged", and returns the warm start with the failure objective
    run = ocp.integrate_with_sensitivities

    def capped(problem):
        problem.max_steps = 1
        return run(problem)
    monkeypatch.setattr(ocp, "integrate_with_sensitivities", capped)
    warm = ControlMoves.constant(NOMINAL_L, NOMINAL_V, 3)
    sol = solve_ocp(nominal_steady, FullPrediction(params, 0.357),
                    SPEC_LOOSE, warm)
    assert sol.status == "infeasible_start"
    assert sol.objective == ocp._FAIL_OBJECTIVE
    assert np.array_equal(sol.moves.as_vector(), warm.as_vector())
    assert sol.n_evaluations >= 1 and sol.integrator["steps"] > 0


def _minimize_reference(x0, model, spec, warm):
    """The solve's moves (bytes), objective, projected-gradient norm,
    iterations, evaluations and status as solve_ocp found them when it
    entered L-BFGS-B through scipy.optimize.minimize."""
    from scipy.optimize import minimize
    if not warm.within_bounds(spec):
        warm = warm.clipped(spec)
    x_init = warm.as_vector()
    N = spec.n_intervals
    bounds = [spec.bounds_L] * N + [spec.bounds_V] * N
    best = {"phi": np.inf, "x": x_init, "grad_norm": np.inf}
    n_eval = 0

    def fun(xv):
        nonlocal n_eval
        n_eval += 1
        try:
            phi, grad = objective_and_gradient(ControlMoves.from_vector(xv),
                                               x0, model, spec)
        except IntegrationError:
            return ocp._FAIL_OBJECTIVE, np.zeros(2 * N)
        if phi < best["phi"]:
            pg = np.array(grad)
            for i, (lo, hi) in enumerate(bounds):
                if (xv[i] <= lo + 1e-12 and pg[i] > 0.0
                        or xv[i] >= hi - 1e-12 and pg[i] < 0.0):
                    pg[i] = 0.0
            best.update(phi=phi, x=xv.copy(),
                        grad_norm=float(np.max(np.abs(pg))))
        return phi, grad

    res = minimize(fun, x_init, jac=True, method="L-BFGS-B", bounds=bounds,
                   options={"maxiter": spec.max_iterations,
                            "maxfun": spec.max_evaluations,
                            "gtol": ocp._GRADIENT_TOL,
                            "ftol": ocp._OBJECTIVE_TOL})
    feasible = best["phi"] < np.inf
    return (ControlMoves.from_vector(best["x"]).clipped(spec)
            .as_vector().tobytes(),
            float(best["phi"]) if feasible else ocp._FAIL_OBJECTIVE,
            best["grad_norm"], int(res.nit), n_eval,
            {0: "converged", 1: "budget"}.get(res.status, "fail")
            if feasible else "infeasible_start")


@pytest.mark.parametrize("point", ["full", "hybrid", "infeasible"])
def test_solve_is_bitwise_the_minimize_front_end(point, params, layout,
                                                 nominal_steady, monkeypatch):
    # solve_ocp drives scipy's L-BFGS-B routine (setulb) in its own loop
    # and shoots from the move vector: every figure of the solve is what
    # minimize(method="L-BFGS-B") gave, at a full-order point, at a
    # packed-hybrid point with moves outside the bounds, and at a start
    # where no prediction succeeds; under a budget of 40 evaluations, and
    # when the evaluation budget (1 and 2) or the iteration budget (1)
    # stops the solve.  The full-order point's first iteration ends after
    # 4 evaluations, which a budget of 4 lets go on: the stop needs more
    # evaluations than the budget.  Last, a box open above in L and below
    # in V (setulb's bound kinds for one finite bound)
    warm = ControlMoves.constant(NOMINAL_L, NOMINAL_V, 3)
    model, x0 = FullPrediction(params, 0.357), nominal_steady
    if point == "hybrid":
        rng = np.random.default_rng(11)
        model = HybridPrediction(_surrogate_hybrid(params, layout, rng), 0.3)
        x0 = np.sort(rng.uniform(0.1, 0.9, 5))
        warm = ControlMoves(np.array([0.5, 2.2, 2.4]),
                            np.array([2.6, 7.0, 2.5]))
    elif point == "infeasible":
        run = ocp.integrate_with_sensitivities

        def capped(problem):
            problem.max_steps = 1
            return run(problem)
        monkeypatch.setattr(ocp, "integrate_with_sensitivities", capped)
    for change in ({}, {"max_evaluations": 1}, {"max_evaluations": 2},
                   {"max_evaluations": 4}, {"max_iterations": 1},
                   {"bounds_L": (1.0, np.inf), "bounds_V": (-np.inf, 6.0)}):
        spec = dataclasses.replace(SPEC_LOOSE,
                                   **{"max_evaluations": 40, **change})
        sol = solve_ocp(x0, model, spec, warm)
        got = (sol.moves.as_vector().tobytes(), sol.objective,
               sol.grad_norm, sol.iterations, sol.n_evaluations, sol.status)
        assert got == _minimize_reference(x0, model, spec, warm), change
        if point == "infeasible":
            assert sol.status == "infeasible_start"
        elif not change:
            assert sol.status == {"full": "converged",
                                  "hybrid": "budget"}[point]
        elif "bounds_L" not in change:
            assert sol.status == "budget", change


def test_solve_records_one_wall_time_per_evaluation(params, nominal_steady):
    spec = dataclasses.replace(SPEC_LOOSE, max_iterations=2, max_evaluations=3)
    sol = solve_ocp(nominal_steady, FullPrediction(params, 0.357), spec,
                    ControlMoves.constant(NOMINAL_L, NOMINAL_V, 3))
    assert len(sol.eval_s) == sol.n_evaluations > 0
    assert all(t >= 0.0 for t in sol.eval_s)
    # timings stay out of equality checks
    assert dataclasses.replace(sol, eval_s=()) == sol


def test_solve_counts_only_its_own_clamps(params, layout, rng):
    # section 0 always saturates, so every evaluation adds clamp flags;
    # those of an evaluation made before the solve are not the solve's
    sc = ScalingSpec(r_lo=0.3, r_hi=4.0)
    extreme = SurrogateModel(0, np.zeros((1, 3)), np.zeros(1), np.zeros(1),
                             40.0, sc)
    models = [extreme] + [SurrogateModel.new_random(k, rng, scaling=sc)
                          for k in range(1, 4)]
    model = HybridPrediction(HybridModel(params, layout, models), 0.32)
    z0 = np.sort(rng.uniform(0.1, 0.9, 5))
    warm = ControlMoves.constant(2.2, 2.6, 3)
    spec = OcpSpec(horizon_control=180.0, horizon_prediction=360.0,
                   n_intervals=3, integration_rtol=1e-6,
                   max_iterations=1, max_evaluations=2)
    objective_and_gradient(warm, z0, model, spec)
    before = model.clamp_count
    assert before > 0
    sol = solve_ocp(z0, model, spec, warm)
    assert 0 < sol.n_clamped == model.clamp_count - before


def _projected_grad_norm_loop(x, g, bounds):
    """The loop over the 2N bounds that ocp._projected_grad_norm replaced,
    kept as its reference."""
    pg = np.array(g, dtype=float)
    for i, (lo, hi) in enumerate(bounds):
        if x[i] <= lo + 1e-12 and pg[i] > 0.0:
            pg[i] = 0.0
        elif x[i] >= hi - 1e-12 and pg[i] < 0.0:
            pg[i] = 0.0
    return float(np.max(np.abs(pg)))


def test_projected_grad_norm_is_the_loop(rng):
    # random moves on the bounds, within 1e-12 of them, just beyond that,
    # and inside, with gradients of either sign, zeros and NaNs: the array
    # masks give the loop's float, bit for bit
    for case in range(400):
        N = int(rng.integers(1, 12))
        spec = OcpSpec(n_intervals=N, horizon_control=60.0 * N,
                       horizon_prediction=60.0 * N,
                       bounds_L=tuple(np.sort(rng.uniform(0.5, 5.0, 2))),
                       bounds_V=tuple(np.sort(rng.uniform(1.0, 6.0, 2))))
        bounds = [spec.bounds_L] * N + [spec.bounds_V] * N
        lo = np.repeat([spec.bounds_L[0], spec.bounds_V[0]], N)
        hi = np.repeat([spec.bounds_L[1], spec.bounds_V[1]], N)
        x = np.empty(2 * N)
        for i, (a, b) in enumerate(bounds):
            near = rng.uniform(0.0, 2e-12)
            x[i] = (a, b, a + near, b - near, a - near, b + near,
                    rng.uniform(a, b))[rng.integers(7)]
        g = rng.standard_normal(2 * N) * rng.choice([0.0, 1.0, 1e3], 2 * N)
        if case % 10 == 0:
            g[rng.integers(2 * N)] = np.nan
        got = ocp._projected_grad_norm(x, g, lo + 1e-12, hi - 1e-12)
        assert got.hex() == _projected_grad_norm_loop(x, g, bounds).hex(), \
            case


@pytest.mark.parametrize("numpy_code", [False, True])
def test_moves_must_cover_the_control_intervals(numpy_code, params,
                                                nominal_steady, monkeypatch):
    # the compiled horizon would hold the last of too many moves over the
    # tail, and the numpy loop would leave it out: both refuse it, and too
    # few moves, before any integration
    if numpy_code:
        monkeypatch.setattr(ocp._native, "LIB", None)
    model = FullPrediction(params, 0.357)
    for n in (2, 4):
        moves = ControlMoves.constant(NOMINAL_L, NOMINAL_V, n)
        for given in (moves, moves.as_vector()):
            with pytest.raises(ValueError, match="per control interval"):
                objective_and_gradient(given, nominal_steady, model,
                                       SPEC_LOOSE)
