"""Adaptive learning of the section surrogates.

Per sampling period each section receives freshly reconstructed data
points.  All seen data is kept in a per-section store; each training
cycle mixes the new points with a latin-hypercube replay sample of the
storage (nearest stored neighbor per LHS draw) so performance on
previously seen regions is retained.  Training is weighted
Levenberg-Marquardt (Marquardt 1963) in scaled space, starting from the
current model; when the performance goal is missed the hidden layer grows
by one node, initialized by a multi-start fit of its five weights to the
prediction error, and training repeats.  One damped Gauss-Newton driver
runs both fits.  Its damping (LM_LAMBDA0 up to LM_LAMBDA_MAX) and the node
fit's budget (NODE_INIT_RESTARTS, NODE_INIT_ITERATIONS) are constants: no
caller sets them, and changing one changes every trained model.

Where the C core bound numpy's routines (``colnmpc._native.ready()``), each
fit, an ``lm_train`` cycle or one restart of a node fit, is one compiled
call (``_native.fit_net``, ``_native.fit_node``) whose results are
bitwise those of the numpy loop ``_levenberg_marquardt``; otherwise that
loop runs, on the ``SurrogateModel`` methods.
"""

import csv
import time
from dataclasses import dataclass

import numpy as np

from . import _native
from .sampling import latin_hypercube
from .surrogate import SurrogateModel, transform

__all__ = ["DataPoint", "DataStore", "TrainingSet", "LearnerConfig",
           "TrainReport", "replay_sample", "lm_train", "init_new_node",
           "grow_and_train", "adapt"]

SOURCES = ("open-loop", "closed-loop", "offline-oracle")

LM_LAMBDA0 = 1e-3
LM_LAMBDA_MAX = 1e10
NODE_INIT_RESTARTS = 6
NODE_INIT_ITERATIONS = 60


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
        if not np.isfinite(self.weight) or self.weight < 0.0:
            raise ValueError("weight must be finite and >= 0")
        if self.source not in SOURCES:
            raise ValueError(f"unknown source {self.source!r}")

    @property
    def inputs(self):
        return np.array([self.x_upper, self.y_lower, self.r])


class DataStore:
    """Append-only storage of one section's data points.

    Maintains the input bounding box incrementally; points below the
    weight floor are discarded at append time.
    """

    CSV_HEADER = ["t", "x_upper", "y_lower", "r", "x_bot", "weight", "source"]

    def __init__(self, weight_floor=1e-3):
        self.weight_floor = weight_floor
        self._points = []
        self._inputs = np.empty((0, 3))
        self.box_lo = None
        self.box_hi = None
        self.n_discarded = 0

    def __len__(self):
        return len(self._points)

    @property
    def points(self):
        return self._points

    def inputs(self):
        return self._inputs

    def append(self, points):
        """Append points (discarding sub-floor weights); returns the
        store indices of the points that were kept."""
        kept = [p for p in points if p.weight >= self.weight_floor]
        self.n_discarded += len(points) - len(kept)
        if not kept:
            return []
        start = len(self._points)
        self._points.extend(kept)
        X = np.array([p.inputs for p in kept])
        self._inputs = np.vstack([self._inputs, X])
        lo, hi = X.min(axis=0), X.max(axis=0)
        self.box_lo = lo if self.box_lo is None else np.minimum(self.box_lo, lo)
        self.box_hi = hi if self.box_hi is None else np.maximum(self.box_hi, hi)
        return list(range(start, len(self._points)))

    # -- persistence -------------------------------------------------------

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(self.CSV_HEADER)
            for p in self._points:
                w.writerow([repr(p.t), repr(p.x_upper), repr(p.y_lower),
                            repr(p.r), repr(p.x_bot), repr(p.weight), p.source])

    @classmethod
    def read_csv(cls, path, weight_floor=1e-3):
        store = cls(weight_floor=weight_floor)
        with open(path, newline="") as fh:
            rd = csv.reader(fh)
            header = next(rd)
            if header != cls.CSV_HEADER:
                raise ValueError(f"unexpected store header: {header}")
            pts = []
            for r in rd:
                if len(r) != len(header):
                    raise ValueError(
                        f"store line {rd.line_num}: {len(r)} fields, "
                        f"expected {len(header)}")
                pts.append(DataPoint(float(r[0]), float(r[1]), float(r[2]),
                                     float(r[3]), float(r[4]), float(r[5]),
                                     r[6]))
        store.append(pts)
        return store


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
    d2 = ((draws[:, None, :] - U[None, :, :]) ** 2).sum(axis=2)
    nearest = np.argmin(d2, axis=1)
    return sorted(set(int(i) for i in nearest))


@dataclass
class TrainingSet:
    """Raw-space training data; new points carry the weight factor."""

    inputs: np.ndarray          # (n, 3)
    targets: np.ndarray         # (n,)
    weights: np.ndarray         # (n,)
    new_mask: np.ndarray        # (n,) bool

    @classmethod
    def assemble(cls, new_points, replay_points=()):
        pts = list(new_points) + list(replay_points)
        if not pts:
            raise ValueError("empty training set")
        X = np.array([p.inputs for p in pts])
        y = np.array([p.x_bot for p in pts])
        w = np.array([p.weight for p in pts])
        mask = np.zeros(len(pts), dtype=bool)
        mask[:len(list(new_points))] = True
        return cls(X, y, w, mask)

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
    Z = model.scale_inputs(data.inputs)
    zeta = transform(data.targets, model.scaling.eps)
    w = data.weights * np.where(data.new_mask, config.new_data_weight_factor, 1.0)
    wsum = w.sum()
    if wsum <= 0.0:
        raise ValueError("training set has zero total weight")
    return Z, zeta, w / wsum


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


def lm_train(model: SurrogateModel, data: TrainingSet, config: LearnerConfig):
    """Weighted Levenberg-Marquardt over all model weights.

    Minimizes sum w_j (scaled_target_j - scaled_output_j)^2 / sum w_j;
    damping decreases on accepted steps and increases on rejections.
    Never returns a model with higher training MSE than the input model.
    """
    t0 = time.perf_counter()
    Z, zeta, wn = _scaled_problem(model, data, config)
    sw = np.sqrt(wn)
    initial_mse = _wmse(model, Z, zeta, wn)
    if _native.ready():
        wvec, mse, accepted = _native.fit_net(
            model.as_weight_vector(), initial_mse, Z, zeta, wn, sw,
            config.max_iterations, config.goal_mse,
            (LM_LAMBDA0, LM_LAMBDA_MAX))
        if accepted:
            model = model.with_weight_vector(wvec)
    else:
        (model, _), mse, accepted = _levenberg_marquardt(
            (model, model.as_weight_vector()), initial_mse,
            *_net_steps(Z, zeta, wn, sw), config.max_iterations,
            config.goal_mse)
    return model, TrainReport(
        initial_mse=initial_mse, final_mse=mse, iterations=accepted,
        goal_met=mse <= config.goal_mse,
        wall_time=time.perf_counter() - t0)


def _fit_residual_node(Z, res, wn, rng):
    """Weighted fit of a single tanh node v*tanh(w.z + b) to a residual.

    Multi-start LM over the 5 node parameters; the output weight is
    solved in closed form at each start (linear in v).
    """
    sw = np.sqrt(wn)
    fits = []
    for attempt in range(NODE_INIT_RESTARTS):
        spread = 0.3 * (1.0 + attempt)
        w = spread * rng.standard_normal(3)
        b = spread * rng.standard_normal()
        a = np.tanh(Z @ w + b)
        den = np.dot(wn, a * a)
        v = np.dot(wn, a * res) / den if den > 1e-300 else 0.0
        err = v * a - res
        start = np.array([w[0], w[1], w[2], b, v])
        objective = float(np.dot(wn, err * err))
        # goal 0: a weighted sum of squares goes no lower
        if _native.ready():
            fits.append(_native.fit_node(
                start, objective, Z, res, wn, sw, NODE_INIT_ITERATIONS, 0.0,
                (LM_LAMBDA0, LM_LAMBDA_MAX)))
        else:
            fits.append(_levenberg_marquardt(
                start, objective, *_node_steps(Z, res, wn, sw),
                NODE_INIT_ITERATIONS, 0.0))
    return min(fits, key=lambda fit: fit[1])[0]  # ties: the earliest start


def init_new_node(model: SurrogateModel, data: TrainingSet,
                  config: LearnerConfig, rng):
    """Initialize a freshly added (all-zero) node by an LM cycle over only
    its five weights, i.e. a one-node fit of the prediction error (exact
    because the output layer is linear)."""
    wvec = model.as_weight_vector()  # the last node is wvec[-6:-1]
    if np.any(wvec[-6:-1] != 0.0):
        raise ValueError("last node is not freshly added")
    Z, zeta, wn = _scaled_problem(model, data, config)
    res = zeta - model.eval_scaled(Z)  # zero node contributes nothing
    wvec[-6:-1] = _fit_residual_node(Z, res, wn, rng)
    return model.with_weight_vector(wvec)


def grow_and_train(model: SurrogateModel, data: TrainingSet,
                   config: LearnerConfig, rng):
    """Constructive training: LM cycle, then grow-initialize-retrain until
    the goal is met or the node cap is reached.

    After a failed cycle the model is restored to the cycle's starting
    point before a node is added.  Returns the goal-meeting model, or the
    best model seen when the cap is reached.
    """
    t0 = time.perf_counter()
    start = model
    trained, report = lm_train(model, data, config)
    best = (trained, report.final_mse)
    initial_mse = report.initial_mse
    nodes_added = 0
    iterations = report.iterations
    while not report.goal_met and start.hidden_count < config.max_nodes:
        grown = start.add_node()           # restore pre-cycle, then grow
        grown = init_new_node(grown, data, config, rng)
        nodes_added += 1
        start = grown
        trained, report = lm_train(grown, data, config)
        iterations += report.iterations
        if report.final_mse < best[1]:
            best = (trained, report.final_mse)
    if report.goal_met:
        final_model, final_mse = trained, report.final_mse
    else:
        final_model, final_mse = best
    return final_model, TrainReport(
        initial_mse=initial_mse, final_mse=final_mse,
        iterations=iterations, goal_met=final_mse <= config.goal_mse,
        nodes_added=nodes_added, wall_time=time.perf_counter() - t0)


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
            new_pts = [stores[k].points[i] for i in new_idx]
            replay_pts = [stores[k].points[i] for i in replay_idx]
            data = TrainingSet.assemble(new_pts, replay_pts)
            out_models[k], reports[k] = grow_and_train(models[k], data,
                                                       config, rngs[k])
        except Exception as exc:  # fault isolation across sections
            reports[k] = TrainReport(initial_mse=np.nan, final_mse=np.nan,
                                     iterations=0, goal_met=False,
                                     error=f"{type(exc).__name__}: {exc}")
    return out_models, reports
