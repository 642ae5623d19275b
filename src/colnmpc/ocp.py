"""Regulatory NMPC by single shooting.

The set-point tracking objective (integral of squared product
deviations) is evaluated by augmenting the prediction model with a
quadrature state and integrating it together with forward sensitivities
with respect to the piecewise-constant control moves.  The resulting
bound-constrained problem in the 2N move variables is solved with a
projected quasi-Newton method (L-BFGS-B); bounds are the only
constraints.  Controls beyond the control horizon hold the last move.

The prediction model is either the hybrid stage-aggregation model
(approaches with surrogate sections) or the full-order model (ideal
NMPC); the unmeasured feed composition is held at its latest estimate
over the whole prediction horizon.

Every prediction is single shooting with forward sensitivities:
`objective_and_gradient` is the one entry point, and `solve_ocp` calls it
for every evaluation.  Each segment runs through this module's
`integrate_with_sensitivities`, looked up at call time so that a step cap
or a tracer can wrap it; `integrate` is never called here but stays
importable, because such wrappers patch both names.  When the C core is
built and bound, a full-order segment carries the compiled loop
`_native.FullSegment` as `IvpProblem.compiled`, and a hybrid segment whose
`HybridModel` is packed (ANN sections) carries `_native.HybridSegment`, so
the whole segment is one call; oracle hybrids run the numpy loop.  The
compiled segment is built once per prediction and spec, and kept by the
prediction for every later evaluation with that spec.  It calls no
callback, so an evaluation on the compiled path builds no callback
closures and its problems carry none; each segment still gets a new
problem and returns a trajectory the caller owns.  Which path a segment
takes depends only on the model's class and packing and on whether the
core is there, never on the model's or the kernels' callables.  The
hybrid segment's numbers are bitwise those of the numpy loop.
"""

import operator
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from . import _native, kernels
from .column import ColumnParams, HybridModel
# integrate is not called here; wrappers patch it by name, so it stays
from .integrate import IntegrationError, IvpProblem, integrate, \
    integrate_with_sensitivities

__all__ = ["OcpSpec", "ControlMoves", "OcpSolution", "HybridPrediction",
           "FullPrediction", "objective_and_gradient", "solve_ocp",
           "warm_start_shift", "first_move"]

_FAIL_OBJECTIVE = 1e12  # returned when prediction integration fails
# integrator work counters summed per solve (OcpSolution.integrator)
_WORK_COUNTERS = ("steps", "rejected", "newton_failures", "nfev", "njev",
                  "nlu")


@dataclass(frozen=True)
class OcpSpec:
    horizon_control: float = 600.0        # T_C [s]
    horizon_prediction: float = 1200.0    # T_P [s]
    n_intervals: int = 10                 # N
    sampling_time: float = 60.0           # T_s [s]
    setpoint_x_D: float = 0.99995
    setpoint_x_B: float = 0.00005
    bounds_L: tuple = (1.0, 5.0)
    bounds_V: tuple = (2.0, 6.0)
    integration_rtol: float = 1e-7
    integration_atol: float = 1e-9
    gradient_tol: float = 1e-6            # projected-gradient stop
    objective_tol: float = 1e-10          # objective-decrease stop
    max_iterations: int = 40              # iteration-equivalent budget
    max_evaluations: int = 120

    def __post_init__(self):
        for name in ("n_intervals", "max_iterations", "max_evaluations"):
            try:
                object.__setattr__(self, name,
                                   operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
        if self.n_intervals < 1:
            raise ValueError("need n_intervals >= 1")
        for name in ("horizon_control", "horizon_prediction", "sampling_time"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("setpoint_x_D", "setpoint_x_B"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        for name in ("bounds_L", "bounds_V"):
            lo, hi = getattr(self, name)
            if not lo < hi:
                raise ValueError(f"{name}: need lo < hi")
        for name in ("integration_rtol", "integration_atol", "gradient_tol",
                     "objective_tol"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.max_iterations < 1 or self.max_evaluations < 1:
            raise ValueError("need max_iterations and max_evaluations >= 1")
        if self.horizon_prediction < self.horizon_control:
            raise ValueError("prediction horizon shorter than control horizon")
        dt = self.horizon_control / self.n_intervals
        if abs(self.n_intervals * dt - self.horizon_control) > 1e-9:
            raise ValueError("control horizon must split into N intervals")
        if dt < self.sampling_time - 1e-9:
            raise ValueError("control interval shorter than the sampling time")

    @property
    def interval(self):
        return self.horizon_control / self.n_intervals

    def segment_bounds(self):
        """Integration segments [(t0, t1, move_index), ...] covering T_P."""
        dt = self.interval
        segs = [(k * dt, (k + 1) * dt, k) for k in range(self.n_intervals)]
        if self.horizon_prediction > self.horizon_control + 1e-9:
            segs.append((self.horizon_control, self.horizon_prediction,
                         self.n_intervals - 1))
        return segs


@dataclass(frozen=True)
class ControlMoves:
    """Piecewise-constant reflux/boilup moves on N control intervals."""

    L: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        L = np.asarray(self.L, dtype=float)
        V = np.asarray(self.V, dtype=float)
        if L.shape != V.shape or L.ndim != 1:
            raise ValueError("L and V must be 1-D arrays of equal length")
        L.flags.writeable = False
        V.flags.writeable = False
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "V", V)

    @classmethod
    def constant(cls, L, V, n):
        return cls(np.full(n, float(L)), np.full(n, float(V)))

    @classmethod
    def from_vector(cls, x):
        x = np.asarray(x, dtype=float)
        n = x.size // 2
        return cls(x[:n], x[n:])

    def as_vector(self):
        return np.concatenate([self.L, self.V])

    def clipped(self, spec: OcpSpec):
        return ControlMoves(np.clip(self.L, *spec.bounds_L),
                            np.clip(self.V, *spec.bounds_V))

    def within_bounds(self, spec: OcpSpec, tol=1e-9):
        return (np.all(self.L >= spec.bounds_L[0] - tol)
                and np.all(self.L <= spec.bounds_L[1] + tol)
                and np.all(self.V >= spec.bounds_V[0] - tol)
                and np.all(self.V <= spec.bounds_V[1] + tol))


@dataclass
class OcpSolution:
    moves: ControlMoves
    objective: float
    grad_norm: float
    iterations: int
    n_evaluations: int
    wall_time: float
    # converged | budget | fail, or infeasible_start when no evaluation
    # of the solve succeeded
    status: str
    n_clamped: int = 0               # surrogate clamp flags in this solve
    integrator: dict = field(default_factory=dict)  # summed work counters
    # wall time of each objective+gradient evaluation [s]
    eval_s: tuple = field(default=(), compare=False)


def warm_start_shift(previous: ControlMoves) -> ControlMoves:
    """Receding-horizon initialization: drop the applied interval, shift
    left, duplicate the final interval."""
    return ControlMoves(np.append(previous.L[1:], previous.L[-1]),
                        np.append(previous.V[1:], previous.V[-1]))


def first_move(solution: OcpSolution):
    """The move applied to the plant for the next sampling period."""
    return float(solution.moves.L[0]), float(solution.moves.V[0])


# ---------------------------------------------------------------------------
# prediction-model adapters
# ---------------------------------------------------------------------------

class HybridPrediction:
    """Hybrid controller model with the feed estimate frozen."""

    def __init__(self, model: HybridModel, x_f_hat: float):
        self.model = model
        self.F = model.params.feed_flow
        self.x_F = float(x_f_hat)
        self.n = model.n_states
        self.idx_B = 0
        self.idx_D = self.n - 1
        self.clamp_count = 0
        self._compiled = (None, None)  # (spec, segment): _compiled_segment

    def rhs(self, x, L, V):
        f, _, _, nc = self.model.evaluate(x, L, V, self.F, self.x_F, False)
        self.clamp_count += nc
        return f

    def rhs_jac(self, x, L, V):
        """State and input Jacobians (Jx, Ju) at one point."""
        _, Jx, Ju, nc = self.model.evaluate(x, L, V, self.F, self.x_F, True)
        self.clamp_count += nc
        return Jx, Ju


class FullPrediction:
    """Full-order controller model (ideal NMPC without model mismatch)."""

    def __init__(self, params: ColumnParams, x_F: float):
        self.params = params
        self.F = params.feed_flow
        self.x_F = float(x_F)
        self.n = params.n_total
        self.idx_B = 0
        self.idx_D = self.n - 1
        self.clamp_count = 0
        self._compiled = (None, None)  # (spec, segment): _compiled_segment
        self._holdup = params.holdups
        self._alpha = params.alpha
        self._feed_idx = params.feed_idx

    def rhs(self, x, L, V):
        return kernels.full_rhs(x, L, V, self.F, self.x_F, self._alpha,
                                self._holdup, self._feed_idx)

    def rhs_jac(self, x, L, V):
        """State and input Jacobians (Jx, Ju) at one point."""
        return (kernels.full_state_jac(x, L, V, self.F, self._alpha,
                                       self._holdup, self._feed_idx),
                kernels.full_input_jac(x, L, V, self.F, self._alpha,
                                       self._holdup, self._feed_idx))


# ---------------------------------------------------------------------------
# shooting
# ---------------------------------------------------------------------------

def _augmented_callbacks(model, spec):
    """rhs and jacobians closures for [states, quadrature] on one segment.

    jacobians(t, y, p) returns the augmented state Jacobian and the
    parameter Jacobian (nonzero only in the last two columns, the active
    moves L and V) from one model.rhs_jac call.  Buffers are reused across
    calls (the integrator consumes each result before the next callback
    fires).
    """
    n = model.n
    iB, iD = model.idx_B, model.idx_D
    spB, spD = spec.setpoint_x_B, spec.setpoint_x_D
    f_buf = np.empty(n + 1)
    J_buf = np.zeros((n + 1, n + 1))

    def rhs(t, y, p):
        f_buf[:n] = model.rhs(y[:n], p[-2], p[-1])
        dev_b = spB - y[iB]
        dev_d = spD - y[iD]
        f_buf[n] = dev_b * dev_b + dev_d * dev_d
        return f_buf

    def jacobians(t, y, p):
        Jx, Ju = model.rhs_jac(y[:n], p[-2], p[-1])
        J_buf[:n, :n] = Jx
        J_buf[n, iB] = -2.0 * (spB - y[iB])
        J_buf[n, iD] = -2.0 * (spD - y[iD])
        G = np.zeros((n + 1, p.size))
        G[:n, -2] = Ju[:, 0]
        G[:n, -1] = Ju[:, 1]
        return J_buf, G

    return rhs, jacobians


def _compiled_segment(model, spec):
    """The compiled integrator of the model's segments, or None for the
    numpy loop; chosen by the model's class and packing and by
    _native.LIB, never by the model's or the kernels' callables.  It is
    built once per prediction and spec: the prediction keeps the last one
    built, with its spec (a frozen OcpSpec), and a prediction's model and
    feed composition do not change once it is made."""
    if _native.LIB is None:
        return None
    built_for, segment = model._compiled
    if built_for is not spec:
        segment = None
        if isinstance(model, FullPrediction):
            segment = _native.FullSegment(model, spec)
        elif isinstance(model, HybridPrediction) \
                and model.model.packed is not None:
            segment = _native.HybridSegment(model, spec)
        model._compiled = (spec, segment)
    return segment


def objective_and_gradient(moves: ControlMoves, x0, model, spec: OcpSpec,
                           work=None):
    """Tracking objective and its gradient w.r.t. the flattened moves
    [L_1..L_N, V_1..V_N], by single shooting with forward sensitivities.

    Integrates the augmented system over the prediction horizon and
    returns (phi, grad).  Sensitivities are expanded segment by segment:
    moves not yet active have identically zero sensitivity and are
    skipped until their interval begins.  The accepted step size is
    carried across the control-boundary restarts.  When given, `work`
    accumulates every segment's integrator counters (_WORK_COUNTERS),
    including those of a segment that raises IntegrationError.  On the
    compiled path the segments' problems carry no callbacks (see the
    module docstring).
    """
    n = model.n
    y = np.append(np.asarray(x0, dtype=float), 0.0)
    S = np.zeros((n + 1, 0))
    compiled = _compiled_segment(model, spec)
    rhs, jacobians = _augmented_callbacks(model, spec) if compiled is None \
        else (None, None)
    L, V = moves.L.tolist(), moves.V.tolist()
    h_carry = None
    for t0, t1, k in spec.segment_bounds():
        n_p = 2 * (k + 1)
        if S.shape[1] < n_p:
            grown = np.zeros((n + 1, n_p))
            grown[:, :-2] = S
            S = grown
        pvec = np.zeros(n_p)
        pvec[-2] = L[k]  # the rhs reads only the last two slots
        pvec[-1] = V[k]
        prob = IvpProblem(
            rhs=rhs, jacobians=jacobians,
            initial_state=y, parameter_vector=pvec,
            initial_sensitivities=S,
            time_grid=np.array([t0, t1]), h_init=h_carry,
            rel_tol=spec.integration_rtol, abs_tol=spec.integration_atol,
            compiled=compiled)
        try:
            tr = integrate_with_sensitivities(prob)
        except IntegrationError as exc:
            _add_work(work, exc.stats)
            raise
        _add_work(work, tr.stats)
        y = tr.states[-1]
        S = tr.sens[-1]
        h_carry = tr.stats["h_last"]
    # S holds (L_k, V_k) column pairs, k = 0..N-1; its last row is d phi
    return float(y[n]), np.concatenate([S[n, 0::2], S[n, 1::2]])


def _add_work(work, stats):
    if work is not None:
        for key in _WORK_COUNTERS:
            work[key] += stats.get(key, 0)


def solve_ocp(x0, model, spec: OcpSpec, warm_start: ControlMoves) -> OcpSolution:
    """Projected quasi-Newton descent from the warm start.

    Terminates on projected-gradient norm, objective decrease, or the
    iteration-equivalent budget; the best iterate seen is returned (the
    accepted-iterate objective sequence is non-increasing).  A failed
    prediction integration marks the point as infeasible and the line
    search backs off.  When no evaluation succeeded the status is
    "infeasible_start", whatever L-BFGS-B reported, and the solution is
    the (clipped) warm start with the failure objective.
    """
    t_start = time.perf_counter()
    if not warm_start.within_bounds(spec):
        warm_start = warm_start.clipped(spec)
    x_init = warm_start.as_vector()
    N = spec.n_intervals
    bounds = [spec.bounds_L] * N + [spec.bounds_V] * N
    best = {"phi": np.inf, "x": x_init, "grad_norm": np.inf}
    n_eval = 0
    eval_s = []
    clamps_before = model.clamp_count
    work = dict.fromkeys(_WORK_COUNTERS, 0)

    def fun(xv):
        nonlocal n_eval
        n_eval += 1
        t0 = time.perf_counter()
        mv = ControlMoves.from_vector(xv)
        try:
            phi, grad = objective_and_gradient(mv, x0, model, spec, work)
        except IntegrationError:
            return _FAIL_OBJECTIVE, np.zeros(2 * N)
        finally:
            eval_s.append(time.perf_counter() - t0)
        if phi < best["phi"]:
            best["phi"] = phi
            best["x"] = xv.copy()
            best["grad_norm"] = _projected_grad_norm(xv, grad, bounds)
        return phi, grad

    res = minimize(fun, x_init, jac=True, method="L-BFGS-B", bounds=bounds,
                   options={"maxiter": spec.max_iterations,
                            "maxfun": spec.max_evaluations,
                            "gtol": spec.gradient_tol,
                            "ftol": spec.objective_tol})
    if best["phi"] == np.inf:
        status = "infeasible_start"
    elif res.status == 0:
        status = "converged"
    elif res.status == 1:
        status = "budget"
    else:
        status = "fail"
    xv = best["x"] if best["phi"] < np.inf else x_init
    return OcpSolution(
        moves=ControlMoves.from_vector(xv).clipped(spec),
        objective=float(best["phi"]) if best["phi"] < np.inf else _FAIL_OBJECTIVE,
        grad_norm=float(best["grad_norm"]),
        iterations=int(res.nit),
        n_evaluations=n_eval,
        wall_time=time.perf_counter() - t_start,
        status=status,
        n_clamped=model.clamp_count - clamps_before,
        integrator=work,
        eval_s=tuple(eval_s))


def _projected_grad_norm(x, g, bounds):
    pg = np.array(g, dtype=float)
    for i, (lo, hi) in enumerate(bounds):
        if x[i] <= lo + 1e-12 and pg[i] > 0.0:
            pg[i] = 0.0
        elif x[i] >= hi - 1e-12 and pg[i] < 0.0:
            pg[i] = 0.0
    return float(np.max(np.abs(pg)))
