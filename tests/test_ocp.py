import dataclasses

import numpy as np
import pytest

from colnmpc import kernels, ocp
from colnmpc.column import (AggregationLayout, ColumnInputs, ColumnParams,
                            HybridModel, hybrid_steady_state, oracle_hybrid,
                            steady_state_solve)
from colnmpc.integrate import IntegrationError
from colnmpc.ocp import (ControlMoves, FullPrediction, HybridPrediction,
                         OcpSpec, first_move, objective_and_gradient,
                         objective_value, solve_ocp, warm_start_shift)
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
    for bad in (dict(horizon_control=1200.0, horizon_prediction=600.0),
                dict(n_intervals=20),  # interval 30 s < sampling time 60 s
                dict(n_intervals=0), dict(sampling_time=0.0),
                dict(sampling_time=-60.0), dict(bounds_L=(3.0, 3.0)),
                dict(bounds_V=(6.0, 2.0)), dict(integration_rtol=0.0),
                dict(integration_atol=-1e-9), dict(gradient_tol=0.0),
                dict(objective_tol=float("nan")), dict(max_iterations=0),
                dict(max_evaluations=0)):
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
    phi = objective_value(moves, np.full(p.n_total, c), model, spec)
    assert phi == pytest.approx(delta ** 2 * 360.0, rel=1e-8)


def _fd_gradient(moves, x0, model, spec, h=1e-5):
    xv = moves.as_vector()
    fd = np.empty_like(xv)
    for j in range(xv.size):
        xp, xm = xv.copy(), xv.copy()
        xp[j] += h
        xm[j] -= h
        fp = objective_value(ControlMoves.from_vector(xp), x0, model, spec)
        fm = objective_value(ControlMoves.from_vector(xm), x0, model, spec)
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
                                                    monkeypatch, numpy_loop):
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
                                       numpy_loop):
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


def test_objective_value_needs_no_input_jacobian(params, nominal_steady,
                                                monkeypatch, numpy_loop):
    # the no-gradient path integrates the states only, so it never asks
    # for d rhs / d(L, V), and its objective is the gradient path's
    input_jac = []
    full_input_jac = kernels.full_input_jac
    monkeypatch.setattr(kernels, "full_input_jac",
                        lambda *a: input_jac.append(1) or full_input_jac(*a))
    model = FullPrediction(params, 0.357)
    moves = ControlMoves.constant(NOMINAL_L, NOMINAL_V, 3)
    phi = objective_value(moves, nominal_steady, model, SPEC_LOOSE)
    assert input_jac == []
    assert phi == objective_and_gradient(moves, nominal_steady, model,
                                         SPEC_LOOSE)[0]
    assert len(input_jac) == 1074


def test_hybrid_prediction_work_counters(params, layout, nominal_steady,
                                         monkeypatch, numpy_loop):
    # twin of test_full_prediction_work_counters for the packed-ANN hybrid
    # (fixed-seed random surrogates, from the aggregated nominal steady
    # state): every step, rejection, Newton failure and LU is pinned, and
    # the packed kernel runs once per rhs and once per Jacobian point; only
    # a segment's first step evaluates its start Jacobian, later ones (and
    # retries after a rejection) reuse one (the numpy loop: the compiled
    # hybrid segment calls no Python kernel)
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
                      "nfev": 3565, "njev": 1410, "nlu": 1688}
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
        objective_value(ControlMoves.constant(NOMINAL_L, NOMINAL_V, 3), z0,
                        model, spec)


def test_objective_value_equals_gradient_path_objective(params, layout,
                                                        nominal_steady, rng):
    # carrying sensitivities never changes the state trajectory
    for model, x0 in _prediction_cases(params, layout, nominal_steady, rng):
        moves = ControlMoves(NOMINAL_L + rng.uniform(-0.2, 0.2, 3),
                             NOMINAL_V + rng.uniform(-0.2, 0.2, 3))
        phi = objective_value(moves, x0, model, SPEC_LOOSE)
        assert phi == objective_and_gradient(moves, x0, model, SPEC_LOOSE)[0]


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


def test_solve_improves_after_feed_step(params, nominal_steady):
    # disturbance: true feed drops; ideal NMPC sees it and must beat the
    # no-action rollout by at least 50 %
    x_f_new = 0.26
    spec = OcpSpec(horizon_control=300.0, horizon_prediction=600.0,
                   n_intervals=5, max_iterations=60, max_evaluations=150)
    model = FullPrediction(params, x_f_new)
    warm = ControlMoves.constant(NOMINAL_L, NOMINAL_V, 5)
    phi_noaction = objective_value(warm, nominal_steady, model, spec)
    sol = solve_ocp(nominal_steady, model, spec, warm)
    assert sol.objective < 0.5 * phi_noaction
    assert sol.moves.within_bounds(spec)


def test_solve_objective_never_above_warm_start(params, layout, rng):
    hm = _surrogate_hybrid(params, layout, rng)
    model = HybridPrediction(hm, 0.3)
    z0 = np.sort(rng.uniform(0.1, 0.9, 5))
    warm = ControlMoves.constant(2.2, 2.6, 3)
    phi0 = objective_value(warm, z0, model, SPEC3)
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
    objective_value(warm, z0, model, spec)
    before = model.clamp_count
    assert before > 0
    sol = solve_ocp(z0, model, spec, warm)
    assert 0 < sol.n_clamped == model.clamp_count - before
