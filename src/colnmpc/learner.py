"""Adaptive learning of the section surrogates.

Per sampling period each section receives freshly reconstructed data
points.  All seen data is kept in a per-section store of columns (the
points' inputs, targets and weights, not the points); each training cycle
mixes the new points with a latin-hypercube replay sample of the storage
(nearest stored neighbor per LHS draw) so performance on previously seen
regions is retained, and gathers that training set from the columns by
index.  Training is weighted Levenberg-Marquardt (Marquardt 1963) in
scaled space, starting from the current model; when the performance goal
is missed the hidden layer grows by one node, initialized by a
multi-start fit of its five weights to the prediction error, and
training repeats.  A training set's problem in scaled space (scaled
inputs and targets, normalized weights and their square roots) is one
``_native.FitProblem``, made once per training set, at its first fit,
and kept on the set: every retrain and node fit after growth reuses it.
One damped Gauss-Newton driver runs both fits.  Its damping (LM_LAMBDA0
up to LM_LAMBDA_MAX) and the node fit's budget (NODE_INIT_RESTARTS,
NODE_INIT_ITERATIONS) are constants: no caller sets them, and changing
one changes every trained model.

Training runs on weight vectors (``SurrogateModel.as_weight_vector``),
through two operations: fitting all weights (``_fit_weights``) and growing
one node (``_grow_node``: the zero node, the residual, the node's
multi-start fit from one block of NODE_INIT_RESTARTS x 4 standard
normals, and the refit of all weights).  ``lm_train`` is the first,
``init_new_node`` the second without its refit (kept for callers that
grow a model themselves; the program grows through ``grow_and_train``),
and ``grow_and_train`` runs ``lm_train`` once and then grows on vectors,
building the grown model once, at its end.
Each operation has a numpy body, the reference, on the
``SurrogateModel`` methods, which reads the problem's arrays by name
(``Z``, ``zeta``, ``wn``, ``sw``); where the C core is built and bound
(``colnmpc._native.LIB`` is set) each is one compiled call instead
(``_native.fit_net``, ``_native.grow_node``) on the same problem, whose
arrays were checked once, when it was made, with results bitwise those
of the numpy body.
"""

import math
import operator
import time
from dataclasses import dataclass, field

import numpy as np

from . import _native
from .sampling import latin_hypercube
from .surrogate import SurrogateModel, transform

__all__ = ["DataPoint", "DataStore", "TrainingSet", "LearnerConfig",
           "TrainReport", "replay_sample", "lm_train", "grow_and_train",
           "adapt"]

SOURCES = ("open-loop", "closed-loop", "offline-oracle")

LM_LAMBDA0 = 1e-3
LM_LAMBDA_MAX = 1e10
NODE_INIT_RESTARTS = 6
NODE_INIT_ITERATIONS = 60


def _check_finite_nonnegative(name, value):
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and non-negative")


@dataclass(frozen=True)
class DataPoint:
    """One reconstructed section sample: inputs (x_upper, y_lower, r),
    target x_bot and a steadiness weight."""

    t: float
    x_upper: float
    y_lower: float
    r: float
    x_bot: float
    weight: float
    source: str = "closed-loop"

    def __post_init__(self):
        for name in ("t", "x_upper", "y_lower", "r", "x_bot", "weight"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (0.0 <= self.x_upper <= 1.0 and 0.0 <= self.y_lower <= 1.0
                and 0.0 <= self.x_bot <= 1.0):
            raise ValueError("compositions outside [0, 1]")
        if not (0.0 < self.r < math.inf and math.isfinite(self.t)):
            raise ValueError("need a finite t and a finite r > 0")
        if not 0.0 <= self.weight < math.inf:
            raise ValueError("weight must be finite and >= 0")
        if self.source not in SOURCES:
            raise ValueError(f"unknown source {self.source!r}")

    @property
    def inputs(self):
        return np.array([self.x_upper, self.y_lower, self.r])


class DataStore:
    """Append-only storage of one section's data, as columns.

    Keeps the inputs (n, 3), targets and weights of the points it is
    given, not the points, and ``training_set`` gathers a training set
    from them by index; maintains the input bounding box incrementally;
    points below the weight floor are discarded at append time.  A NaN,
    infinite or negative floor raises ValueError.
    """

    def __init__(self, weight_floor=1e-3):
        _check_finite_nonnegative("weight_floor", weight_floor)
        self.weight_floor = weight_floor
        self._inputs = np.empty((0, 3))
        self._targets = np.empty(0)
        self._weights = np.empty(0)
        self.box_lo = None
        self.box_hi = None
        self.n_discarded = 0

    def __len__(self):
        return self._targets.size

    def inputs(self):
        return self._inputs

    def append(self, points):
        """Append points (discarding sub-floor weights); returns the
        store indices of the points that were kept."""
        kept = [p for p in points if p.weight >= self.weight_floor]
        self.n_discarded += len(points) - len(kept)
        if not kept:
            return []
        start = len(self)
        X = np.array([(p.x_upper, p.y_lower, p.r) for p in kept])
        self._inputs = np.concatenate([self._inputs, X])
        self._targets = np.concatenate(
            [self._targets, [p.x_bot for p in kept]])
        self._weights = np.concatenate(
            [self._weights, [p.weight for p in kept]])
        lo, hi = X.min(axis=0), X.max(axis=0)
        self.box_lo = lo if self.box_lo is None else np.minimum(self.box_lo, lo)
        self.box_hi = hi if self.box_hi is None else np.maximum(self.box_hi, hi)
        return list(range(start, len(self)))

    def training_set(self, new_idx, replay_idx=()):
        """The TrainingSet of the stored points ``new_idx`` (new) and
        ``replay_idx`` (replayed), in that order, gathered from the
        columns."""
        idx = [*new_idx, *replay_idx]
        if not idx:
            raise ValueError("empty training set")
        mask = np.zeros(len(idx), dtype=bool)
        mask[:len(new_idx)] = True
        return TrainingSet(self._inputs[idx], self._targets[idx],
                           self._weights[idx], mask)


def replay_sample(store: DataStore, count, rng):
    """Select up to `count` stored points by LHS over the input bounding
    box plus nearest stored neighbor (box-normalized Euclidean metric).
    Duplicates are removed; the result is a list of store indices."""
    n = len(store)
    if n == 0:
        raise ValueError("replay from an empty store")
    if count < 1:
        raise ValueError("need count >= 1")
    if n == 1:
        return [0]
    lo, hi = store.box_lo, store.box_hi
    extent = np.where(hi - lo > 0.0, hi - lo, 1.0)
    U = (store.inputs() - lo) / extent
    draws = latin_hypercube(rng, count, 3)
    # box-degenerate dimensions collapse to the stored value
    draws = np.where((hi - lo)[None, :] > 0.0, draws, U[0][None, :])
    # squared distances (count, n), summed over the dimensions as
    # (d0 + d1) + d2, the order of numpy's sum over a length-3 axis
    d2 = np.subtract.outer(draws[:, 0], U[:, 0])
    d2 *= d2
    for j in (1, 2):
        dj = np.subtract.outer(draws[:, j], U[:, j])
        dj *= dj
        d2 += dj
    return np.unique(np.argmin(d2, axis=1)).tolist()


@dataclass
class TrainingSet:
    """Raw-space training data; new points carry the weight factor.

    Its arrays are not changed once it has been trained on: the training
    problem (a ``_native.FitProblem``) of the last model scaling and
    weight factor it was trained with is kept on it
    (``_scaled_problem``)."""

    inputs: np.ndarray          # (n, 3)
    targets: np.ndarray         # (n,)
    weights: np.ndarray         # (n,)
    new_mask: np.ndarray        # (n,) bool
    # ((scaling, new-data weight factor), the FitProblem it made) of the
    # last _scaled_problem call: one problem per training set, as a grown
    # model keeps its scaling
    _scaled: tuple = field(default=(None, None), init=False, repr=False,
                           compare=False)

    def __len__(self):
        return self.inputs.shape[0]


@dataclass
class LearnerConfig:
    goal_mse: float = 1e-6            # weighted MSE in scaled space
    max_iterations: int = 200         # accepted LM steps per cycle
    new_data_weight_factor: float = 5.0
    replay_count: int = 200           # LHS draws per adapt cycle
    max_nodes: int = 30
    weight_floor: float = 1e-3

    def __post_init__(self):
        for name in ("max_iterations", "replay_count", "max_nodes"):
            try:
                setattr(self, name, operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
        if self.replay_count < 1:
            raise ValueError("need replay_count >= 1")
        if self.max_iterations < 0:
            raise ValueError("need max_iterations >= 0")
        for name in ("goal_mse", "weight_floor", "new_data_weight_factor"):
            _check_finite_nonnegative(name, getattr(self, name))


@dataclass
class TrainReport:
    initial_mse: float
    final_mse: float
    iterations: int
    goal_met: bool
    nodes_added: int = 0
    wall_time: float = 0.0
    error: str = ""


def _scaled_problem(model, data: TrainingSet, config):
    """The training problem (``_native.FitProblem``) of ``data`` for
    ``model``'s scaling and the config's new-data weight factor, made once
    and kept on ``data``: the retrains and node fits after growth, on the
    numpy code and the core alike, reuse it (a grown model keeps its
    scaling)."""
    key = (model.scaling, config.new_data_weight_factor)
    if data._scaled[0] != key:
        Z = model.scale_inputs(data.inputs)
        zeta = transform(data.targets, model.scaling.eps)
        w = data.weights * np.where(data.new_mask,
                                    config.new_data_weight_factor, 1.0)
        wsum = w.sum()
        if wsum <= 0.0:
            raise ValueError("training set has zero total weight")
        wn = w / wsum
        data._scaled = (key, _native.FitProblem(Z, zeta, wn, np.sqrt(wn)))
    return data._scaled[1]


def _wmse(model, Z, zeta, wn):
    e = model.eval_scaled(Z) - zeta
    return float(np.dot(wn, e * e))


def _levenberg_marquardt(x, objective, linearize, try_step, max_steps, goal):
    """Damped Gauss-Newton from ``x`` (objective value ``objective``).

    ``linearize(x)`` gives the weighted residual and its Jacobian,
    ``try_step(x, delta)`` the trial point and its objective, accepted when
    finite and lower.  Returns (x, objective, accepted steps) after
    ``max_steps`` steps, at ``goal`` or when the damping overflows.
    """
    lam = LM_LAMBDA0
    accepted = 0
    while objective > goal and accepted < max_steps:
        r, J = linearize(x)
        A = J.T @ J
        g = J.T @ r
        d = np.maximum(np.diag(A), 1e-12)
        while lam <= LM_LAMBDA_MAX:
            try:
                delta = np.linalg.solve(A + lam * np.diag(d), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial, objective_t = try_step(x, delta)
            if np.isfinite(objective_t) and objective_t < objective:
                x, objective = trial, objective_t
                lam = max(lam / 3.0, 1e-14)
                accepted += 1
                break
            lam *= 10.0
        else:
            break  # damping overflow: keep the best point found
    return x, objective, accepted


def _net_steps(Z, zeta, wn, sw):
    """(linearize, try_step) of lm_train's model for _levenberg_marquardt:
    points are (model, weight vector); a trial adds the step to the
    vector."""
    def linearize(x):
        resid = (x[0].eval_scaled(Z) - zeta) * sw
        return resid, x[0].weight_jacobian_scaled(Z) * sw[:, None]

    def try_step(x, delta):
        wvec = x[1] + delta
        trial = x[0].with_weight_vector(wvec)
        return (trial, wvec), _wmse(trial, Z, zeta, wn)

    return linearize, try_step


def _node_steps(Z, res, wn, sw):
    """(linearize, try_step) of _fit_residual_node's model
    v * tanh(w.z + b) on theta = (w, b, v) for _levenberg_marquardt."""
    def linearize(theta):
        a = np.tanh(Z @ theta[:3] + theta[3])
        da = theta[4] * (1.0 - a * a)
        J = np.column_stack([da[:, None] * Z, da, a]) * sw[:, None]
        return (theta[4] * a - res) * sw, J

    def try_step(theta, delta):
        tt = theta + delta
        et = tt[4] * np.tanh(Z @ tt[:3] + tt[3]) - res
        return tt, float(np.dot(wn, et * et))

    return linearize, try_step


def _fit_weights(model, prob: _native.FitProblem, w, max_steps, goal):
    """Fit all weights of the net ``w`` (a weight vector; ``model`` gives
    its section and scaling) by weighted Levenberg-Marquardt, at most
    ``max_steps`` accepted steps, stopping at the objective ``goal``.
    Returns (w, objective at the start, objective, accepted steps).  One
    compiled call (``_native.fit_net``) where the core is bound."""
    if _native.LIB is not None:
        return _native.fit_net(prob, w, max_steps, goal,
                               (LM_LAMBDA0, LM_LAMBDA_MAX))
    net = model.with_weight_vector(w)
    initial = _wmse(net, prob.Z, prob.zeta, prob.wn)
    (_, w), objective, accepted = _levenberg_marquardt(
        (net, w), initial, *_net_steps(prob.Z, prob.zeta, prob.wn, prob.sw),
        max_steps, goal)
    return w, initial, objective, accepted


def _fit_residual_node(prob: _native.FitProblem, res, normals):
    """Weighted fit of a single tanh node v*tanh(w.z + b) to the residual
    ``res`` on the scaled problem ``prob``.

    Multi-start LM over the 5 node parameters, one start per row of
    ``normals`` (4 standard normals, scaled by a spread that grows with
    the row); the output weight is solved in closed form at each start
    (linear in v).
    """
    Z, wn = prob.Z, prob.wn
    fits = []
    for attempt, normal in enumerate(normals):
        spread = 0.3 * (1.0 + attempt)
        w = spread * normal[:3]
        b = spread * normal[3]
        a = np.tanh(Z @ w + b)
        den = np.dot(wn, a * a)
        v = np.dot(wn, a * res) / den if den > 1e-300 else 0.0
        err = v * a - res
        # goal 0: a weighted sum of squares goes no lower
        fits.append(_levenberg_marquardt(
            np.array([w[0], w[1], w[2], b, v]), float(np.dot(wn, err * err)),
            *_node_steps(Z, res, wn, prob.sw), NODE_INIT_ITERATIONS, 0.0))
    return min(fits, key=lambda fit: fit[1])[0]  # ties: the earliest start


def _grow_node(model, prob: _native.FitProblem, w, normals, max_steps,
               goal):
    """Grow the net ``w`` by one node and fit all weights: append a zero
    node (the outputs stay the same), fit it to the residual from the
    starts ``normals`` (``_fit_residual_node``), then fit all weights as
    ``_fit_weights`` does.  Returns (grown, fitted, objective, accepted
    steps): the grown net before and after that fit.  One compiled call
    (``_native.grow_node``) where the core is bound."""
    if _native.LIB is not None:
        return _native.grow_node(prob, w, normals,
                                 NODE_INIT_ITERATIONS, max_steps, goal,
                                 (LM_LAMBDA0, LM_LAMBDA_MAX))[:4]
    net = model.with_weight_vector(w).add_node()
    res = prob.zeta - net.eval_scaled(prob.Z)
    grown = net.as_weight_vector()  # the new node is grown[-6:-1]
    grown[-6:-1] = _fit_residual_node(prob, res, normals)
    fitted, _, objective, accepted = _fit_weights(model, prob, grown,
                                                  max_steps, goal)
    return grown, fitted, objective, accepted


def _node_starts(rng):
    """The standard normals of a node fit's starts: one row of
    (w0, w1, w2, b) per start, drawn as one block."""
    return rng.standard_normal((NODE_INIT_RESTARTS, 4))


def lm_train(model: SurrogateModel, data: TrainingSet, config: LearnerConfig):
    """Weighted Levenberg-Marquardt over all model weights.

    Minimizes sum w_j (scaled_target_j - scaled_output_j)^2 / sum w_j;
    damping decreases on accepted steps and increases on rejections.
    Never returns a model with higher training MSE than the input model.
    """
    t0 = time.perf_counter()
    w, initial_mse, mse, accepted = _fit_weights(
        model, _scaled_problem(model, data, config),
        model.as_weight_vector(), config.max_iterations, config.goal_mse)
    if accepted:
        model = model.with_weight_vector(w)
    return model, TrainReport(
        initial_mse=initial_mse, final_mse=mse, iterations=accepted,
        goal_met=mse <= config.goal_mse,
        wall_time=time.perf_counter() - t0)


def init_new_node(model: SurrogateModel, data: TrainingSet,
                  config: LearnerConfig, rng):
    """Initialize a freshly added (all-zero) node by an LM cycle over only
    its five weights, i.e. a one-node fit of the prediction error (exact
    because the output layer is linear): the growth of ``grow_and_train``
    without its fit of all weights."""
    wvec = model.as_weight_vector()  # the last node is wvec[-6:-1]
    if np.any(wvec[-6:-1] != 0.0):
        raise ValueError("last node is not freshly added")
    grown, *_ = _grow_node(model, _scaled_problem(model, data, config),
                           np.append(wvec[:-6], wvec[-1]), _node_starts(rng),
                           0, config.goal_mse)
    return model.with_weight_vector(grown)


def grow_and_train(model: SurrogateModel, data: TrainingSet,
                   config: LearnerConfig, rng):
    """Constructive training: LM cycle, then grow-initialize-retrain until
    the goal is met or the node cap is reached.

    After a failed cycle the net is restored to the cycle's starting
    point before a node is added.  Returns the goal-meeting model, or the
    best model seen when the cap is reached.  The growth runs on weight
    vectors and builds its model once, at the end.
    """
    t0 = time.perf_counter()
    trained, report = lm_train(model, data, config)
    goal = config.goal_mse
    # w None: the model lm_train returned
    w, mse, iterations = None, report.final_mse, report.iterations
    best = (w, mse)
    start, hidden = model.as_weight_vector(), model.hidden_count
    prob = _scaled_problem(model, data, config)  # lm_train's, kept on data
    while not mse <= goal and hidden < config.max_nodes:
        start, w, mse, accepted = _grow_node(
            model, prob, start, _node_starts(rng), config.max_iterations,
            goal)
        hidden += 1
        iterations += accepted
        if mse < best[1]:
            best = (w, mse)
    if not mse <= goal:
        w, mse = best
    return (trained if w is None else model.with_weight_vector(w)), \
        TrainReport(initial_mse=report.initial_mse, final_mse=mse,
                    iterations=iterations, goal_met=mse <= goal,
                    nodes_added=hidden - model.hidden_count,
                    wall_time=time.perf_counter() - t0)


def adapt(models, new_points_per_section, stores, config: LearnerConfig, rng):
    """One adaptation cycle over the four section learners.

    Per section: append the new points to the store, assemble the
    training set (new points + LHS replay of the store), grow-and-train.
    Sections without new points above the weight floor are skipped; a
    section's failure does not block the others.
    """
    n_sec = len(models)
    if not (len(new_points_per_section) == len(stores) == n_sec):
        raise ValueError("models, new points and stores must align")
    rngs = rng.spawn(n_sec)
    out_models = list(models)
    reports = [None] * n_sec
    for k in range(n_sec):
        new_idx = stores[k].append(new_points_per_section[k])
        if not new_idx:
            continue
        new_set = set(new_idx)
        try:
            replay_idx = [i for i in replay_sample(stores[k],
                                                   config.replay_count, rngs[k])
                          if i not in new_set]
            data = stores[k].training_set(new_idx, replay_idx)
            out_models[k], reports[k] = grow_and_train(models[k], data,
                                                       config, rngs[k])
        except Exception as exc:  # fault isolation across sections
            reports[k] = TrainReport(initial_mse=np.nan, final_mse=np.nan,
                                     iterations=0, goal_met=False,
                                     error=f"{type(exc).__name__}: {exc}")
    return out_models, reports
