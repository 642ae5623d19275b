"""Stiff-capable IVP integration with forward parametric sensitivities.

A single adaptive L-stable SDIRK stepper (Hairer & Wanner's 5-stage,
order-4 method with gamma = 1/4 and an embedded third-order error
estimate) serves both the full-order plant model and the hybrid
controller model.  The order conditions of the tableau are asserted in
the test suite.  Sensitivities are propagated by applying the same
Runge-Kutta formula to the forward variational system; each sensitivity
stage is linear and solved directly with the factored stage matrix, so
the result is the exact SDIRK discretization of the variational ODE.
Stage matrices are factored and solved by LAPACK's getrf/getrs directly
(no scipy wrapper layer); an exactly singular stage matrix is a failed
factorization, handled like a failed Newton solve.

A callback that raises ModelDomainError says the model has no value at
that point (a composition outside [0, 1], a failed inner solve).  At a
stage iterate this is a failed stage, handled like a failed Newton solve
or a singular sensitivity-stage matrix; at the initial state or at an
accepted step's state no smaller step can help, so it raises
IntegrationError.

Each entry point takes its Jacobians from one callback: `integrate` from
`state_jacobian`, `integrate_with_sensitivities` from `jacobians`, which
returns the state and parameter Jacobians of one model evaluation, so
every point where both are needed costs one evaluation.  The method is
stiffly accurate (c_5 = 1 and the last stage is the step solution), so
the last sensitivity stage's Jacobians are those at the next step's
start, and that step reuses them; a step retried after a rejection
reuses its own start Jacobian.  `njev` counts the points evaluated.

A problem may carry `compiled`, an integrator of that same problem in
compiled code; both entry points then hand the problem to it instead of
running the loop here.  `ocp` sets it for full-order predictions and for
packed-ANN hybrid predictions when the C core is built, and
`column.steady_state_solve` for its relaxation segment when the core is
built and bound (see `colnmpc._native`); the loop here stays the
reference they are tested against (the hybrid and relaxation segments
bitwise, the full-order prediction segment to rounding).

Controls that are piecewise constant are handled by the callers
restarting the integration at each control-interval boundary; the
`h_init` hint carries the accepted step size across restarts.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

__all__ = ["IvpProblem", "Trajectory", "IntegrationError", "ModelDomainError",
           "integrate", "integrate_with_sensitivities",
           "SDIRK_A", "SDIRK_B", "SDIRK_BHAT", "SDIRK_C"]

_G = 0.25
SDIRK_C = np.array([0.25, 0.75, 11.0 / 20.0, 0.5, 1.0])
SDIRK_A = np.array([
    [_G, 0.0, 0.0, 0.0, 0.0],
    [0.5, _G, 0.0, 0.0, 0.0],
    [17.0 / 50.0, -1.0 / 25.0, _G, 0.0, 0.0],
    [371.0 / 1360.0, -137.0 / 2720.0, 15.0 / 544.0, _G, 0.0],
    [25.0 / 24.0, -49.0 / 48.0, 125.0 / 16.0, -85.0 / 12.0, _G],
])
SDIRK_B = SDIRK_A[4]
SDIRK_BHAT = np.array([59.0 / 48.0, -17.0 / 96.0, 225.0 / 32.0,
                       -85.0 / 12.0, 0.0])
_E = SDIRK_B - SDIRK_BHAT
_STAGES = 5
_ERR_EXP = -0.25  # embedded order 3 -> local order 4

_MIN_FACTOR = 0.1
_MAX_FACTOR = 10.0
_SAFETY = 0.9
_NEWTON_MAXITER = 8


class IntegrationError(RuntimeError):
    """Raised on step-size underflow, non-finite model output, or a model
    with no value at the initial state or at an accepted state."""

    def __init__(self, message, t=None, stats=None):
        super().__init__(message)
        self.t = t
        self.stats = stats or {}


class ModelDomainError(ValueError):
    """Raised by a model callback at a point where the model has no value;
    the integrator treats it as a failed stage (see the module docstring)."""


@dataclass
class IvpProblem:
    """Initial-value problem with analytic Jacobians.

    rhs(t, y, p) -> (n,).  Each entry point needs one Jacobian callback:
    `integrate` calls state_jacobian(t, y, p) -> (n, n);
    `integrate_with_sensitivities` calls jacobians(t, y, p) -> (d rhs/d y
    (n, n), d rhs/d p (n, n_p)), both from one model evaluation.  A
    missing callback raises ValueError.  time_grid must be strictly
    increasing; the trajectory is reported exactly at those times.
    Callbacks may reuse output buffers: results are consumed before the
    next callback invocation.  When set, compiled(problem, with_sens) ->
    Trajectory integrates the problem in place of this module's loop
    (see the module docstring).
    """

    rhs: Callable
    initial_state: np.ndarray
    time_grid: np.ndarray
    parameter_vector: np.ndarray = field(default_factory=lambda: np.zeros(0))
    state_jacobian: Optional[Callable] = None
    jacobians: Optional[Callable] = None
    initial_sensitivities: Optional[np.ndarray] = None
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_steps: int = 200_000
    h_init: Optional[float] = None
    compiled: Optional[Callable] = None

    def __post_init__(self):
        self.initial_state = np.asarray(self.initial_state, dtype=float)
        self.time_grid = np.asarray(self.time_grid, dtype=float)
        self.parameter_vector = np.asarray(self.parameter_vector, dtype=float)
        if self.time_grid.ndim != 1 or self.time_grid.size < 1:
            raise ValueError("time_grid must be a 1-D array")
        if np.any(np.diff(self.time_grid) <= 0.0):
            raise ValueError("time_grid must be strictly increasing")
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")


@dataclass
class Trajectory:
    t: np.ndarray
    states: np.ndarray                 # (len(grid), n)
    sens: Optional[np.ndarray] = None  # (len(grid), n, n_p)
    stats: dict = field(default_factory=dict)


def integrate(problem: IvpProblem) -> Trajectory:
    """Integrate the states over the problem's time grid."""
    if problem.compiled is not None:
        return problem.compiled(problem, False)
    if problem.state_jacobian is None:
        raise ValueError("integration needs the state_jacobian callback")
    return _run(problem, problem.state_jacobian, None)


def integrate_with_sensitivities(problem: IvpProblem) -> Trajectory:
    """Integrate states plus forward sensitivities d state / d parameter."""
    if problem.compiled is not None:
        return problem.compiled(problem, True)
    jacobians = problem.jacobians
    if jacobians is None:
        raise ValueError("sensitivity integration needs the jacobians callback")
    return _run(problem, lambda t, y, p: jacobians(t, y, p)[0], jacobians)


def _initial_step(rhs, t0, y0, p, f0, span, rtol, atol):
    sc = atol + rtol * np.abs(y0)
    d0 = np.sqrt(np.mean((y0 / sc) ** 2))
    d1 = np.sqrt(np.mean((f0 / sc) ** 2))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, 0.1 * span)
    f1 = np.asarray(rhs(t0 + h0, y0 + h0 * f0, p), dtype=float)
    d2 = np.sqrt(np.mean(((f1 - f0) / sc) ** 2)) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, span)


def _run(problem: IvpProblem, jac, jacobians) -> Trajectory:
    """SDIRK loop; `jac` gives the step-start Newton matrix and, when
    sensitivities are carried, `jacobians` gives each stage's pair.  The
    step-start Jacobian Jn is an owned copy, valid at (t_jn, y)."""
    rhs = problem.rhs
    with_sens = jacobians is not None
    p = problem.parameter_vector
    grid = problem.time_grid
    rtol, atol = problem.rel_tol, problem.abs_tol

    y = problem.initial_state.copy()
    n = y.shape[0]
    n_p = p.shape[0] if with_sens else 0
    if with_sens:
        if problem.initial_sensitivities is not None:
            S = np.array(problem.initial_sensitivities, dtype=float)
            if S.shape != (n, n_p):
                raise ValueError("initial_sensitivities must have shape (n, n_p)")
        else:
            S = np.zeros((n, n_p))
    else:
        S = None

    stats = {"steps": 0, "accepted": 0, "rejected": 0, "newton_failures": 0,
             "nfev": 0, "njev": 0, "nlu": 0, "h_last": 0.0}

    out_states = np.empty((grid.size, n))
    out_sens = np.empty((grid.size, n, n_p)) if with_sens else None
    out_states[0] = y
    if with_sens:
        out_sens[0] = S
    if grid.size == 1:
        return Trajectory(grid.copy(), out_states, out_sens, stats)

    t = grid[0]
    span = grid[-1] - grid[0]
    stats["nfev"] += 1
    try:
        f0 = np.array(rhs(t, y, p), dtype=float)  # owned copy
        if not np.all(np.isfinite(f0)):
            raise IntegrationError("non-finite rhs at initial state", t, stats)
        if problem.h_init is not None and problem.h_init > 0.0:
            h = min(problem.h_init, span)
        else:
            stats["nfev"] += 1
            h = _initial_step(rhs, t, y, p, f0, span, rtol, atol)
    except ModelDomainError as exc:
        raise IntegrationError(
            f"model undefined at the start of the integration: {exc}",
            t, stats) from exc

    gi = 1
    eye = np.eye(n)
    K = np.empty((_STAGES, n))
    Ks = np.empty((_STAGES, n * n_p)) if with_sens else None
    h_accepted = h
    Jn, t_jn = None, None

    while gi < grid.size:
        if stats["steps"] >= problem.max_steps:
            raise IntegrationError(
                f"step limit {problem.max_steps} exceeded", t, stats)
        t_target = grid[gi]
        clipped = h > t_target - t
        if clipped:
            h = t_target - t
        if h < 16.0 * np.finfo(float).eps * max(abs(t), 1.0):
            raise IntegrationError("step size underflow", t, stats)

        stats["steps"] += 1
        hg = h * _G
        if t_jn != t:
            stats["njev"] += 1
            try:
                Jn = np.array(jac(t, y, p), dtype=float)
            except ModelDomainError as exc:
                raise IntegrationError(
                    f"model undefined at accepted state: {exc}",
                    t, stats) from exc
            t_jn = t
        M = eye - hg * Jn
        try:
            lu = _lu_factor(M)
        except np.linalg.LinAlgError:
            stats["newton_failures"] += 1
            h *= 0.3
            continue
        stats["nlu"] += 1

        sc = atol + rtol * np.abs(y)
        Y = None
        S_new = None
        failed = False
        for i in range(_STAGES):
            ti = t + SDIRK_C[i] * h
            pred = y + h * (SDIRK_A[i, :i] @ K[:i]) if i else y.copy()
            guess = pred + hg * (K[i - 1] if i else f0)
            Y, ok = _newton_stage(rhs, ti, guess, pred, hg, lu, p, sc, stats)
            if not ok:
                failed = True
                break
            K[i] = (Y - pred) / hg
            if with_sens and n_p:
                stats["njev"] += 1
                try:
                    Ji, Fpi = jacobians(ti, Y, p)
                except ModelDomainError:
                    failed = True
                    break
                base = S.reshape(-1) + h * (SDIRK_A[i, :i] @ Ks[:i]) if i \
                    else S.reshape(-1).copy()
                try:
                    lui = _lu_factor(eye - hg * Ji)
                except np.linalg.LinAlgError:
                    failed = True
                    break
                stats["nlu"] += 1
                Si = _lu_solve(lui, base.reshape(n, n_p) + hg * Fpi)
                Ks[i] = (Si.reshape(-1) - base) / hg
                if i == _STAGES - 1:
                    S_new = Si
                    J_end, t_end = Ji.copy(), ti
        if failed:
            stats["newton_failures"] += 1
            stats["rejected"] += 1
            h *= 0.3
            continue

        y_new = Y  # stiffly accurate: the last stage is the step solution
        if not np.all(np.isfinite(y_new)):
            stats["rejected"] += 1
            h *= 0.3
            continue

        # filtered embedded error estimate
        e = _lu_solve(lu, h * (_E @ K))
        sc_new = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = np.sqrt(np.sum((e / sc_new) ** 2) / n)

        if err <= 1.0:
            t = t + h
            y = y_new
            # f0 is a view of K[4], kept on purpose.  Here it is the rhs at
            # the new y (stage 5 has c = 1); but a next step that is
            # rejected after its last stage overwrites K[4], and the retry
            # then reads that slope for its first stage's guess.  Making
            # f0 a copy changes the steps taken (the hybrid work-counter
            # pin moves from 282 to 292 steps).
            f0 = K[_STAGES - 1]
            if with_sens:
                S = S_new
            # the stage-5 Jacobian is the one at (t, y); without it, none
            Jn, t_jn = (J_end, t_end) if with_sens and n_p else (None, None)
            stats["accepted"] += 1
            factor = _SAFETY * err ** _ERR_EXP if err > 0.0 else _MAX_FACTOR
            h_next = h * min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            if not clipped:
                h_accepted = h_next
            if t >= t_target - 1e-12 * max(abs(t_target), 1.0):
                t = t_target
                out_states[gi] = y
                if with_sens:
                    out_sens[gi] = S
                gi += 1
            h = h_next if not clipped else max(h_accepted, h_next)
        else:
            stats["rejected"] += 1
            factor = _SAFETY * err ** _ERR_EXP
            h *= min(0.5, max(_MIN_FACTOR, factor))
            h_accepted = h

    stats["h_last"] = h_accepted
    return Trajectory(grid.copy(), out_states, out_sens, stats)


def _newton_stage(rhs, ti, guess, pred, hg, lu, p, sc, stats):
    """Solve Y = pred + hg * rhs(ti, Y) by modified Newton."""
    Y = guess
    norm_prev = None
    for _ in range(_NEWTON_MAXITER):
        stats["nfev"] += 1
        try:
            f = rhs(ti, Y, p)
        except ModelDomainError:
            return Y, False
        g = Y - pred - hg * f
        if not np.isfinite(g).all():
            return Y, False
        d = _lu_solve(lu, -g)
        Y = Y + d
        q = d / sc
        norm = math.sqrt((q * q).sum() / q.size)
        if norm < 0.03:
            return Y, True
        if norm_prev is not None and norm > 2.0 * norm_prev:
            return Y, False  # diverging
        norm_prev = norm
    return Y, False


def _lu_factor(M):
    """LU factors (lu, piv) of M by LAPACK getrf.  Raises LinAlgError when
    M is exactly singular (a zero pivot), ValueError on an illegal
    argument."""
    lu, piv, info = dgetrf(M)
    if info > 0:
        raise np.linalg.LinAlgError(f"stage matrix singular: pivot {info} is zero")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrf")
    return lu, piv


def _lu_solve(lu_piv, b):
    """Solve M x = b with the factors of _lu_factor (LAPACK getrs); b is a
    temporary and may be overwritten."""
    x, info = dgetrs(lu_piv[0], lu_piv[1], b, overwrite_b=True)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of getrs")
    return x
