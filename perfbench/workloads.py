"""The benchmark's three workloads, composed from colnmpc's public API.

* ``ideal_feedstep``: ideal full-order NMPC (FullPrediction with the true
  feed composition) on the full-order plant after a feed step.
* ``hybrid_feedstep``: the same plant, schedule and OcpSpec under adaptive
  hybrid NMPC (ANN section surrogates, one reconstruction and one
  ``adapt`` cycle per period, the estimated feed composition).
* ``learn_stream``: no OCP; an open-loop step-test stream from the
  full-order plant, made at set-up, goes through reconstruction plus one
  ``adapt`` cycle per sampling period.

Every workload is a closed loop in the benchmark sense: one controller
(or learner), and each period starts when the previous one has ended.
Set-up builds a state object; an episode runs a fixed number of periods
or cycles from it.  The inputs are fixed, not drawn from the run's seed,
so every count and every quality figure of an episode is the same in
every run.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from colnmpc import column, kernels, ocp
from colnmpc.column import (AggregationLayout, ColumnInputs, ColumnParams,
                            HybridModel, full_rhs, full_state_jacobian,
                            oracle_hybrid)
from colnmpc.integrate import IvpProblem, integrate
from colnmpc.learner import DataPoint, DataStore, LearnerConfig, adapt
from colnmpc.ocp import (ControlMoves, FullPrediction, HybridPrediction,
                         OcpSpec, first_move, solve_ocp, warm_start_shift)
from colnmpc.pipeline import (Measurement, estimate_derivatives,
                              reconstruct_training_points)
from colnmpc.sampling import latin_hypercube, scale_design
from colnmpc.surrogate import SurrogateModel, transform

from reference import no_probe
from tracing import NULL_TRACER

# Nominal operating point: the steady products sit at the OcpSpec
# set-points (0.99995 / 0.00005) for the default column.
NOMINAL_L = 2.0346651819
NOMINAL_V = 2.3546471803
NOMINAL_XF = 0.32

# One reduced spec shared by both closed loops: N=3, T_C=180 s,
# T_P=360 s.  The optimizer budget (5 iterations, 8 evaluations) and
# rtol 1e-6 are tighter than a full-quality controller would use: with
# 15 iterations and 20 evaluations one hybrid episode took 60-280 s on
# the python kernel backend, more than a repeated run can afford.  The
# move bounds frame the region the offline surrogate data covers; with
# the default box the line search tries moves where the surrogates
# extrapolate and predictions crawl.
SPEC = OcpSpec(horizon_control=180.0, horizon_prediction=360.0,
               n_intervals=3, sampling_time=60.0,
               bounds_L=(1.85, 2.25), bounds_V=(2.15, 2.65),
               integration_rtol=1e-6, integration_atol=1e-9,
               max_iterations=5, max_evaluations=8)

# Step limit per prediction segment (IvpProblem.max_steps, default
# 200 000).  A hybrid prediction whose surrogates extrapolate can creep
# along at tiny steps for minutes without failing; capped, it raises
# IntegrationError, which solve_ocp treats as an infeasible point.  Sound
# predictions take 30-100 steps per segment.
PRED_MAX_STEPS = 300

# Plant integration is tighter than the controller's predictions.
PLANT_RTOL = 1e-8
PLANT_ATOL = 1e-12

# Feed-step schedule of the closed loops: the plant runs open loop at the
# nominal moves for one period, then the feed composition steps from 0.32
# to 0.357 and the controller takes over for CONTROL_PERIODS periods.
# The scenario does not depend on the run's seed.  With seeded step
# sizes (0.034-0.040, even 0.0365-0.0375) the budget-limited solves took
# different paths and the controller time of ideal NMPC spread by 45%
# (IQR over median, five seeds); with a seeded lead-in of 1-3 periods
# the hybrid loop turned the lead-in's last-digit drift into three
# different runs, 4.2 to 6.6 s of controller time.  No bound could then
# tell a regression from the seed.
FEED_STEP = 0.037
LEAD_IN = 1
CONTROL_PERIODS = 4
# Band around the set-points that ideal NMPC must reach by the end.
SETTLE_BAND = 2e-5

# Offline training of the hybrid loop's surrogates on oracle section data
# at operating points from a latin hypercube.  The design and the
# learner's random stream are fixed (the controller as commissioned).
# With a design drawn per run seed one hybrid episode took from 24 to
# 280 s, depending on the seed.
SURROGATE_SEED = (0, 2)
OFFLINE_POINTS = 100
OFFLINE_CONFIG = LearnerConfig(max_iterations=200, replay_count=50)
# One adapt cycle per closed-loop period.
LOOP_CONFIG = LearnerConfig(max_iterations=50, replay_count=50)

# Open-loop step-test stream of learn_stream: STREAM_HOLDS holds of
# (L, D, x_F) from a latin hypercube, each sampled for STREAM_HOLD_PERIODS
# periods.  The stream is fixed: with a design drawn per run seed the
# learner's time ranged from 10 to 18 s and the prequential error from
# 0.10 to 12 over three seeds.
STREAM_SEED = (0, 3)
STREAM_HOLDS = 8
STREAM_HOLD_PERIODS = 25
STREAM_PLANT_RTOL = 1e-6
STREAM_CONFIG = LearnerConfig(max_iterations=50, replay_count=100)


@dataclass
class Column:
    params: ColumnParams
    layout: AggregationLayout
    x_nominal: np.ndarray


def make_column():
    params = ColumnParams()
    layout = AggregationLayout.from_params(params)
    x_nom = column.steady_state_solve(
        ColumnInputs(NOMINAL_L, NOMINAL_V, params.feed_flow, NOMINAL_XF),
        params)
    return Column(params, layout, x_nom)


# ---------------------------------------------------------------------------
# plant
# ---------------------------------------------------------------------------

class Plant:
    """Full-order column integrated with ``integrate`` on ``full_rhs`` and
    ``full_state_jacobian``, with the tracking ISE carried as a
    quadrature state."""

    def __init__(self, params, x0, rtol=PLANT_RTOL):
        self.params = params
        self.rtol = rtol
        self.x = np.array(x0, dtype=float)
        self.t = 0.0
        self.ise = 0.0

    def _problem(self, u, grid):
        p = self.params
        n = p.n_total
        spB, spD = SPEC.setpoint_x_B, SPEC.setpoint_x_D

        def rhs(t, y, q):
            x = y[:n]
            return np.append(full_rhs(x, u, p),
                             (x[0] - spB) ** 2 + (x[-1] - spD) ** 2)

        def jac(t, y, q):
            J = np.zeros((n + 1, n + 1))
            J[:n, :n] = full_state_jacobian(y[:n], u, p)
            J[n, 0] = 2.0 * (y[0] - spB)
            J[n, n - 1] = 2.0 * (y[n - 1] - spD)
            return J

        return IvpProblem(rhs=rhs, state_jacobian=jac,
                          initial_state=np.append(self.x, 0.0),
                          time_grid=grid, rel_tol=self.rtol,
                          abs_tol=PLANT_ATOL)

    def advance(self, L, V, x_F, periods=1, tracer=NULL_TRACER):
        """Hold (L, V, x_F) for `periods` sampling periods.  Returns the
        states at the period ends, shape (periods, n)."""
        u = ColumnInputs(L, V, self.params.feed_flow, x_F)
        grid = self.t + SPEC.sampling_time * np.arange(periods + 1)
        with tracer.span("integrate.plant") as sp:
            tr = integrate(self._problem(u, grid))
            sp.stats = tr.stats
        self.x = tr.states[-1, :-1].copy()
        self.t = float(grid[-1])
        self.ise += float(tr.states[-1, -1])
        return tr.states[1:, :-1]


# ---------------------------------------------------------------------------
# closed loops
# ---------------------------------------------------------------------------

def feed_schedule():
    """Per-period true feed composition of the closed loops, lead-in
    first."""
    x_F = np.full(LEAD_IN + CONTROL_PERIODS, NOMINAL_XF + FEED_STEP)
    x_F[:LEAD_IN] = NOMINAL_XF
    return x_F


def offline_oracle_points(col, rng, count=OFFLINE_POINTS):
    """Oracle section data: at each operating point the oracle hybrid
    steady state gives the section boundaries and ``section_steady_solve``
    the target."""
    p, lay = col.params, col.layout
    oracle = oracle_hybrid(p, lay)
    design = scale_design(latin_hypercube(rng, count, 3),
                          [SPEC.bounds_L[0], SPEC.bounds_V[0], 0.30],
                          [SPEC.bounds_L[1], SPEC.bounds_V[1], 0.37])
    per_section = [[] for _ in lay.sections]
    n = len(lay.agg_stages)
    for L, V, x_F in design:
        if not p.is_admissible(L, V, margin=0.02):
            continue
        u = ColumnInputs(L, V, p.feed_flow, x_F)
        init = lay.state_from_plant(column.steady_state_solve(
            u, p, init=col.x_nominal))
        z = column.hybrid_steady_state(oracle, u, init=init)
        for k, sec in enumerate(lay.sections):
            up, lo = n - 1 - k, n - 2 - k        # sections run top-down
            y_lo = float(kernels.equilibrium(z[lo], p.alpha))
            r = sec.flow_ratio(u.L, u.V, u.F)
            x_bot, _ = column.section_steady_solve(z[up], y_lo, r,
                                                   sec.tray_count, p.alpha)
            per_section[k].append(DataPoint(0.0, z[up], y_lo, r, x_bot, 1.0,
                                            "offline-oracle"))
    return per_section


@dataclass
class LoopState:
    col: Column
    schedule: np.ndarray        # true feed composition per period
    hybrid: bool
    models: list = None
    stores: list = None
    rng: object = None


def setup_loop(hybrid, tracer=NULL_TRACER):
    col = make_column()
    st = LoopState(col=col, schedule=feed_schedule(), hybrid=hybrid)
    if hybrid:
        rng = np.random.default_rng(SURROGATE_SEED)
        data = offline_oracle_points(col, rng)
        models = [SurrogateModel.new_random(k, rng)
                  for k in range(len(col.layout.sections))]
        stores = [DataStore(OFFLINE_CONFIG.weight_floor) for _ in models]
        with tracer.span("learner.adapt"):
            models, _ = adapt(models, data, stores, OFFLINE_CONFIG, rng)
        st.models, st.stores, st.rng = models, stores, rng
    return st


@dataclass
class EpisodeResult:
    """What one episode measured and counted."""

    periods: int = 0
    failed: int = 0
    ctl_s: list = field(default_factory=list)   # CPU s per period or cycle
    wall_s: list = field(default_factory=list)  # the same, wall clock
    ref_s: list = field(default_factory=list)   # reference sample around it
    err: float = 0.0                              # ISE or preq MSE
    checks: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)  # (period, type)
    counts: dict = field(default_factory=dict)

    def same(self, other):
        """Bitwise agreement on every count, quality figure and check."""
        return (self.periods == other.periods and self.failed == other.failed
                and repr(self.err) == repr(other.err)
                and self.counts == other.counts
                and self.failures == other.failures
                and self.checks == other.checks)


_LOOP_ERRORS = (ArithmeticError, LookupError, RuntimeError, ValueError)


def run_loop(st, tracer=NULL_TRACER, probe=no_probe):
    """One closed-loop episode: the open-loop lead-in, then one controlled
    period per sampling period.

    An exception escaping reconstruction, ``adapt``, ``solve_ocp`` or the
    plant, or a move that ``ColumnParams.is_admissible`` rejects, fails
    the period: it is counted and its type recorded.  After a controller
    failure the plant holds the previous move; after a plant failure the
    plant cannot go on, so the episode ends there and the check
    ``plant_integrates`` fails the run.
    """
    col, p, lay = st.col, st.col.params, st.col.layout
    plant = Plant(p, col.x_nominal)
    res = EpisodeResult()
    L, V = NOMINAL_L, NOMINAL_V
    history = []
    for x_F in st.schedule[:LEAD_IN]:
        history.append(Measurement.from_plant(plant.t, plant.x, lay, L, V,
                                              p.feed_flow))
        plant.advance(L, V, x_F, tracer=tracer)
    warm = ControlMoves.constant(L, V, SPEC.n_intervals)
    x_f_hat = NOMINAL_XF
    models, stores, rng = st.models, st.stores, st.rng
    moves_in_bounds = plant_ok = True
    lm_cycles = 0
    for k, x_F in enumerate(st.schedule[LEAD_IN:]):
        tracer.period = k
        ref0 = probe()
        t0, c0 = time.perf_counter(), time.process_time()
        failure = None
        try:
            m = Measurement.from_plant(plant.t, plant.x, lay, L, V,
                                       p.feed_flow)
            history.append(m)
            if st.hybrid:
                d = estimate_derivatives(history)
                with tracer.span("pipeline.reconstruct"):
                    rec = reconstruct_training_points(m, d, lay, p)
                tracer.reconstruction(rec, x_F)
                x_f_hat = rec.x_f_hat
                pts = [[q] if q is not None else [] for q in rec.points]
                with tracer.span("learner.adapt"):
                    models, reports = adapt(models, pts, stores, LOOP_CONFIG,
                                            rng)
                tracer.train_reports(reports)
                lm_cycles += any(r is not None and r.iterations > 0
                                 for r in reports)
                hm = HybridModel(p, lay, models)
                tracer.count("column.hybrid_model.builds")
                pred, x0 = HybridPrediction(hm, x_f_hat), m.x_agg
            else:
                pred, x0 = FullPrediction(p, x_F), plant.x
            with tracer.span("ocp.solve") as sp:
                sol = solve_ocp(x0, pred, SPEC, warm)
                sp.solution = sol
            L_new, V_new = first_move(sol)
            moves_in_bounds &= bool(sol.moves.within_bounds(SPEC))
            if not p.is_admissible(L_new, V_new):
                failure = "InadmissibleMove"
            else:
                L, V = L_new, V_new
                warm = warm_start_shift(sol.moves)
        except _LOOP_ERRORS as exc:
            failure = type(exc).__name__
        res.ctl_s.append(time.process_time() - c0)
        res.wall_s.append(time.perf_counter() - t0)
        res.ref_s.append((ref0 + probe()) / 2)
        res.periods += 1
        try:
            plant.advance(L, V, x_F, tracer=tracer)
        except _LOOP_ERRORS as exc:
            failure = failure or type(exc).__name__
            plant_ok = False
        if failure is not None:
            res.failed += 1
            res.failures.append((k, failure))
            tracer.failure(failure)
        if not plant_ok:
            break
    tracer.period = None
    res.err = plant.ise
    sp_B, sp_D = SPEC.setpoint_x_B, SPEC.setpoint_x_D
    res.checks["ise_finite"] = bool(math.isfinite(plant.ise))
    res.checks["plant_integrates"] = plant_ok
    res.checks["moves_in_bounds"] = moves_in_bounds
    if st.hybrid:
        res.checks["adapt_lm_iterations"] = lm_cycles > 0
    else:
        res.checks["settled"] = bool(abs(plant.x[-1] - sp_D) <= SETTLE_BAND
                                     and abs(plant.x[0] - sp_B) <= SETTLE_BAND)
    res.counts = {"x_D_end": float(plant.x[-1]), "x_B_end": float(plant.x[0])}
    if models is not None:
        res.counts["hidden_max"] = max(m.hidden_count for m in models)
        res.counts["store_points"] = sum(len(s) for s in stores)
    return res


# ---------------------------------------------------------------------------
# learner stream
# ---------------------------------------------------------------------------

@dataclass
class StreamState:
    col: Column
    measurements: list
    feed: np.ndarray            # true feed composition per measurement
    models: list
    stores: list
    rng: object


def setup_stream(tracer=NULL_TRACER):
    """Open-loop step tests on the full-order plant, sampled every
    period."""
    col = make_column()
    p, lay = col.params, col.layout
    rng = np.random.default_rng(STREAM_SEED)
    design = scale_design(latin_hypercube(rng, STREAM_HOLDS, 3),
                          [NOMINAL_L - 0.3, 0.28, 0.28],
                          [NOMINAL_L + 0.3, 0.36, 0.36])
    plant = Plant(p, col.x_nominal, rtol=STREAM_PLANT_RTOL)
    meas = [Measurement.from_plant(0.0, plant.x, lay, NOMINAL_L, NOMINAL_V,
                                   p.feed_flow)]
    feed = [NOMINAL_XF]
    for L, D, x_F in design:
        states = plant.advance(L, L + D, x_F, STREAM_HOLD_PERIODS,
                               tracer=tracer)
        for x in states:
            meas.append(Measurement.from_plant(
                SPEC.sampling_time * len(meas), x, lay, L, L + D,
                p.feed_flow))
            feed.append(x_F)
    models = [SurrogateModel.new_random(k, rng)
              for k in range(len(lay.sections))]
    stores = [DataStore(STREAM_CONFIG.weight_floor) for _ in models]
    return StreamState(col, meas, np.array(feed), models, stores, rng)


def run_stream(st, tracer=NULL_TRACER, probe=no_probe):
    """Test-then-train over the stream: each new point is first predicted
    by its section's current model, then used in one ``adapt`` cycle.
    The prequential error skips the first hold, where the random initial
    models would dominate it."""
    p, lay = st.col.params, st.col.layout
    models, stores, rng = st.models, st.stores, st.rng
    res = EpisodeResult()
    floor = STREAM_CONFIG.weight_floor
    sq_err, n_err = 0.0, 0
    kept = [0] * len(models)
    mse_ok = True
    for k in range(1, len(st.measurements)):
        tracer.period = k
        ref0 = probe()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            d = estimate_derivatives(st.measurements[k - 1:k + 1])
            with tracer.span("pipeline.reconstruct"):
                rec = reconstruct_training_points(
                    st.measurements[k], d, lay, p, source="open-loop")
            tracer.reconstruction(rec, st.feed[k])
            pts = []
            for j, q in enumerate(rec.points):
                if q is None:
                    pts.append([])
                    continue
                if q.weight >= floor:
                    kept[j] += 1
                    if k > STREAM_HOLD_PERIODS:
                        pred = models[j].eval_batch(q.inputs[None, :])[0]
                        diff = transform(pred) - transform(q.x_bot)
                        sq_err += diff * diff
                        n_err += 1
                pts.append([q])
            with tracer.span("learner.adapt"):
                models, reports = adapt(models, pts, stores, STREAM_CONFIG,
                                        rng)
            tracer.train_reports(reports)
            for r in reports:
                if r is not None and not r.error \
                        and r.final_mse > r.initial_mse:
                    mse_ok = False
            if any(r is not None and r.error for r in reports):
                res.failed += 1
                res.failures.append((k, "SectionTrainError"))
                tracer.failure("SectionTrainError")
        except _LOOP_ERRORS as exc:
            res.failed += 1
            res.failures.append((k, type(exc).__name__))
            tracer.failure(type(exc).__name__)
        res.ctl_s.append(time.process_time() - c0)
        res.wall_s.append(time.perf_counter() - t0)
        res.ref_s.append((ref0 + probe()) / 2)
        res.periods += 1
    tracer.period = None
    res.err = sq_err / n_err if n_err else math.nan
    res.checks["preq_mse_finite"] = bool(math.isfinite(res.err))
    res.checks["train_mse_never_up"] = mse_ok
    res.checks["store_sizes_match"] = [len(s) for s in stores] == kept
    res.counts = {"store_points": int(sum(kept)), "preq_points": n_err,
                  "hidden_max": max(m.hidden_count for m in models)}
    return res


def cap_prediction_steps():
    """Apply PRED_MAX_STEPS to the integrations solve_ocp runs; returns
    a function that removes the cap."""
    originals = {name: getattr(ocp, name)
                 for name in ("integrate", "integrate_with_sensitivities")}

    def capped(fn):
        def run(problem):
            problem.max_steps = min(problem.max_steps, PRED_MAX_STEPS)
            return fn(problem)
        return run

    for name, fn in originals.items():
        setattr(ocp, name, capped(fn))

    def remove():
        for name, fn in originals.items():
            setattr(ocp, name, fn)
    return remove


WORKLOADS = {
    "ideal_feedstep": (lambda tr: setup_loop(False, tr), run_loop),
    "hybrid_feedstep": (lambda tr: setup_loop(True, tr), run_loop),
    "learn_stream": (setup_stream, run_stream),
}


def settings(name):
    """The workload's fixed settings, for the result stamp."""
    if name == "learn_stream":
        return {"holds": STREAM_HOLDS, "hold_periods": STREAM_HOLD_PERIODS,
                "step_tests_and_learner_seed": list(STREAM_SEED),
                "learner": STREAM_CONFIG.__dict__}
    out = {"lead_in": LEAD_IN, "control_periods": CONTROL_PERIODS,
           "feed_step": FEED_STEP, "settle_band": SETTLE_BAND,
           "plant_tol": [PLANT_RTOL, PLANT_ATOL],
           "pred_max_steps": PRED_MAX_STEPS}
    if name == "hybrid_feedstep":
        out.update(offline_points=OFFLINE_POINTS,
                   offline_data_and_learner_seed=list(SURROGATE_SEED),
                   offline_learner=OFFLINE_CONFIG.__dict__,
                   loop_learner=LOOP_CONFIG.__dict__)
    return out
