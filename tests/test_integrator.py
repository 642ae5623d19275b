import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from colnmpc import kernels
from colnmpc.column import ColumnInputs, full_rhs, full_state_jacobian
from colnmpc.integrate import (IntegrationError, IvpProblem, ModelDomainError,
                               Trajectory, integrate,
                               integrate_with_sensitivities)


def _decay_problem(rtol=1e-8, atol=1e-12):
    return IvpProblem(
        rhs=lambda t, y, p: -y,
        state_jacobian=lambda t, y, p: -np.eye(1),
        initial_state=np.array([1.0]),
        time_grid=np.array([0.0, 1.0]),
        rel_tol=rtol, abs_tol=atol)


def test_exponential_decay():
    tr = integrate(_decay_problem())
    assert tr.states[-1, 0] == pytest.approx(np.exp(-1.0), abs=1e-7)


def test_constant_trajectory_at_steady_state(params, nominal_u, nominal_steady):
    prob = IvpProblem(
        rhs=lambda t, y, p: full_rhs(y, nominal_u, params),
        state_jacobian=lambda t, y, p: full_state_jacobian(y, nominal_u, params),
        initial_state=nominal_steady,
        time_grid=np.linspace(0.0, 3600.0, 7),
        rel_tol=1e-9, abs_tol=1e-12)
    tr = integrate(prob)
    drift = np.max(np.abs(tr.states - nominal_steady[None, :]))
    assert drift <= 1e-8


def test_self_convergence_on_column(params, nominal_steady):
    # step in reflux, compare against a tight-tolerance reference
    u = ColumnInputs(2.3, 2.5, params.feed_flow, 0.32)

    def make(rtol):
        return IvpProblem(
            rhs=lambda t, y, p: full_rhs(y, u, params),
            state_jacobian=lambda t, y, p: full_state_jacobian(y, u, params),
            initial_state=nominal_steady,
            time_grid=np.array([0.0, 600.0]),
            rel_tol=rtol, abs_tol=rtol * 1e-2)

    ref = integrate(make(1e-12)).states[-1]
    errs = [np.max(np.abs(integrate(make(rt)).states[-1] - ref))
            for rt in (1e-5, 1e-7, 1e-9)]
    assert errs[0] > errs[1] > errs[2]


def test_integration_hits_grid_exactly():
    grid = np.array([0.0, 0.3, 1.0, 2.5])
    tr = integrate(IvpProblem(
        rhs=lambda t, y, p: -y,
        state_jacobian=lambda t, y, p: -np.eye(1),
        initial_state=np.array([1.0]), time_grid=grid))
    assert np.array_equal(tr.t, grid)
    assert np.allclose(tr.states[:, 0], np.exp(-grid), atol=1e-7)


def test_nonfinite_rhs_aborts():
    prob = IvpProblem(
        rhs=lambda t, y, p: np.array([np.inf]),
        state_jacobian=lambda t, y, p: np.zeros((1, 1)),
        initial_state=np.array([1.0]),
        time_grid=np.array([0.0, 1.0]))
    with pytest.raises(IntegrationError):
        integrate(prob)


def test_deterministic_repeat(params, nominal_u, nominal_steady):
    def run():
        prob = IvpProblem(
            rhs=lambda t, y, p: full_rhs(y, nominal_u, params),
            state_jacobian=lambda t, y, p: full_state_jacobian(y, nominal_u, params),
            initial_state=nominal_steady + 1e-3,
            time_grid=np.array([0.0, 300.0]))
        return integrate(prob).states[-1]
    a, b = run(), run()
    assert np.array_equal(a, b)


def test_singular_stage_matrix_is_a_newton_failure():
    # y' = 2 y with h_init = 2: hg * lambda = 0.25 * 2 * 2 = 1, so the
    # first step-start matrix I - hg J is exactly zero.  The failed
    # factorization cuts the step; no warning is raised and no NaN flows
    # into the stage Newton iteration.
    lam = np.array([[2.0]])
    prob = IvpProblem(
        rhs=lambda t, y, p: p[0] * y,
        state_jacobian=lambda t, y, p: lam,
        jacobians=lambda t, y, p: (lam, np.array([[y[0]]])),
        initial_state=np.array([1.0]),
        parameter_vector=np.array([2.0]),
        time_grid=np.array([0.0, 2.0]), h_init=2.0,
        rel_tol=1e-10, abs_tol=1e-13)
    for run in (integrate, integrate_with_sensitivities):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tr = run(prob)
        assert caught == []
        assert tr.stats["newton_failures"] >= 1
        assert tr.states[-1, 0] == pytest.approx(np.exp(4.0), rel=1e-6)
    assert tr.sens[-1, 0, 0] == pytest.approx(2.0 * np.exp(4.0), rel=1e-6)


def test_singular_sensitivity_stage_matrix_rejects_the_step():
    # y' = (1 + 2t) y + p with y(0) = 0 and p = 0 stays at y = 0, so every
    # stage Newton solve converges; z' = -z sets the step size.  With
    # h_init = 2 the first stage (t = 0.5, dy'/dy = 2, hg = 0.5) has an
    # exactly singular sensitivity matrix: the step is rejected and
    # retried shorter, with no warning.
    prob = IvpProblem(
        rhs=lambda t, y, p: np.array([(1.0 + 2.0 * t) * y[0] + p[0], -y[1]]),
        jacobians=lambda t, y, p: (np.diag([1.0 + 2.0 * t, -1.0]),
                                   np.array([[1.0], [0.0]])),
        initial_state=np.array([0.0, 1.0]),
        parameter_vector=np.array([0.0]),
        time_grid=np.array([0.0, 2.0]), h_init=2.0,
        rel_tol=1e-10, abs_tol=1e-13)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tr = integrate_with_sensitivities(prob)
    assert caught == []
    assert tr.stats["newton_failures"] >= 1 and tr.stats["rejected"] >= 1
    # dy/dp solves S' = (1 + 2t) S + 1, S(0) = 0
    want = np.exp(6.0) * quad(lambda s: np.exp(-s - s * s), 0.0, 2.0)[0]
    assert tr.sens[-1, 0, 0] == pytest.approx(want, rel=1e-6)


def _unit_interval_relaxation(h_init):
    # y' = p (1 - y), y(0) = 0, p = 10: the model is defined on [0, 1] only.
    # The first stage guess y + hg f = 2.5 (h_init = 1) lies outside it.
    def rhs(t, y, p):
        if not 0.0 <= y[0] <= 1.0:
            raise ModelDomainError("composition outside [0, 1]")
        return p[0] * (1.0 - y)
    return IvpProblem(
        rhs=rhs,
        state_jacobian=lambda t, y, p: np.array([[-p[0]]]),
        jacobians=lambda t, y, p: (np.array([[-p[0]]]),
                                   np.array([[1.0 - y[0]]])),
        initial_state=np.array([0.0]), parameter_vector=np.array([10.0]),
        time_grid=np.array([0.0, 0.5]), h_init=h_init,
        rel_tol=1e-10, abs_tol=1e-13)


def test_model_domain_error_is_a_newton_failure():
    for run in (integrate, integrate_with_sensitivities):
        tr = run(_unit_interval_relaxation(h_init=1.0))
        assert tr.stats["newton_failures"] >= 1
        assert tr.states[-1, 0] == pytest.approx(1.0 - np.exp(-5.0), rel=1e-8)
    # dy/dp = t exp(-p t)
    assert tr.sens[-1, 0, 0] == pytest.approx(0.5 * np.exp(-5.0), rel=1e-6)


def test_model_domain_error_at_the_start_is_an_integration_error():
    prob = _unit_interval_relaxation(h_init=None)
    prob.initial_state = np.array([-1e-3])
    for run in (integrate, integrate_with_sensitivities):
        with pytest.raises(IntegrationError, match="model undefined"):
            run(prob)


# ---------------------------------------------------------------------------
# forward sensitivities
# ---------------------------------------------------------------------------

def test_sensitivity_linear_growth_closed_form():
    # x' = p x, x(0) = 1  ->  dx/dp at t = t * exp(p t)
    pval = -0.7
    prob = IvpProblem(
        rhs=lambda t, y, p: p[0] * y,
        jacobians=lambda t, y, p: (np.array([[p[0]]]), np.array([[y[0]]])),
        initial_state=np.array([1.0]),
        parameter_vector=np.array([pval]),
        time_grid=np.array([0.0, 2.0]),
        rel_tol=1e-10, abs_tol=1e-13)
    tr = integrate_with_sensitivities(prob)
    assert tr.sens[-1, 0, 0] == pytest.approx(2.0 * np.exp(2.0 * pval), abs=1e-6)


def test_sensitivity_of_ignored_parameter():
    prob = IvpProblem(
        rhs=lambda t, y, p: -y,
        jacobians=lambda t, y, p: (-np.eye(1), np.zeros((1, 1))),
        initial_state=np.array([1.0]),
        parameter_vector=np.array([3.33]),
        time_grid=np.array([0.0, 1.5]))
    tr = integrate_with_sensitivities(prob)
    assert np.all(tr.sens == 0.0)


def _column_problem(params, u, x0, p_names, rtol=1e-10):
    # parameters p = (L, V); rhs closes over the rest
    def rhs(t, y, p):
        return full_rhs(y, ColumnInputs(p[0], p[1], u.F, u.x_F), params)

    def jac(t, y, p):
        return full_state_jacobian(y, ColumnInputs(p[0], p[1], u.F, u.x_F),
                                   params)

    def jacobians(t, y, p):
        return jac(t, y, p), kernels.full_input_jac(
            y, p[0], p[1], u.F, params.alpha, params.holdups, params.feed_idx)

    return IvpProblem(rhs=rhs, state_jacobian=jac, jacobians=jacobians,
                      initial_state=x0,
                      parameter_vector=np.array([u.L, u.V]),
                      time_grid=np.array([0.0, 240.0]),
                      rel_tol=rtol, abs_tol=rtol * 1e-2)


def test_column_sensitivity_matches_finite_difference(params, nominal_u,
                                                      nominal_steady):
    prob = _column_problem(params, nominal_u, nominal_steady, ("L", "V"))
    tr = integrate_with_sensitivities(prob)
    dL = 1e-6
    for j, (eL, eV) in enumerate([(dL, 0.0), (0.0, dL)]):
        up = ColumnInputs(nominal_u.L + eL, nominal_u.V + eV, nominal_u.F,
                          nominal_u.x_F)
        um = ColumnInputs(nominal_u.L - eL, nominal_u.V - eV, nominal_u.F,
                          nominal_u.x_F)
        hi = integrate(_column_problem(params, up, nominal_steady, ()))
        lo = integrate(_column_problem(params, um, nominal_steady, ()))
        fd = (hi.states[-1] - lo.states[-1]) / (2 * dL)
        sens = tr.sens[-1, :, j]
        denom = max(np.max(np.abs(fd)), 1e-8)
        assert np.max(np.abs(sens - fd)) / denom <= 1e-5


def test_initial_sensitivities_carried():
    # with S0 = I and no parameter forcing, S(t) is the fundamental matrix;
    # for x' = -x it is exp(-t) I
    prob = IvpProblem(
        rhs=lambda t, y, p: -y,
        jacobians=lambda t, y, p: (-np.eye(2), np.zeros((2, 2))),
        initial_state=np.array([1.0, 2.0]),
        parameter_vector=np.zeros(2),
        initial_sensitivities=np.eye(2),
        time_grid=np.array([0.0, 1.0]),
        rel_tol=1e-10, abs_tol=1e-13)
    tr = integrate_with_sensitivities(prob)
    assert np.allclose(tr.sens[-1], np.exp(-1.0) * np.eye(2), atol=1e-8)


def test_time_grid_validation():
    with pytest.raises(ValueError):
        IvpProblem(rhs=lambda t, y, p: -y, initial_state=np.array([1.0]),
                   time_grid=np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        IvpProblem(rhs=lambda t, y, p: -y, initial_state=np.array([1.0]),
                   time_grid=np.array([0.0, 1.0]), rel_tol=-1.0)


def test_missing_jacobian_callback_is_rejected():
    # each entry point needs its own callback; there is no FD fallback
    prob = IvpProblem(rhs=lambda t, y, p: -y,
                      state_jacobian=lambda t, y, p: -np.eye(1),
                      initial_state=np.array([1.0]),
                      parameter_vector=np.zeros(1),
                      time_grid=np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="jacobians"):
        integrate_with_sensitivities(prob)
    prob.state_jacobian = None
    prob.jacobians = lambda t, y, p: (-np.eye(1), np.zeros((1, 1)))
    with pytest.raises(ValueError, match="state_jacobian"):
        integrate(prob)
