"""Work counters and times of one adaptation cycle (``learner.adapt``).

The cycle: four sections, each with a store of STORED points labelled by
its own random teacher net (hidden 5) and a random student net (hidden
3); one new point per section, then one ``adapt`` with CONFIG (50 LM
steps per fit, 50 replay draws, at most MAX_NODES hidden nodes), so each
section trains, misses the goal and grows.  Everything is drawn from
SEED, and every round starts from the same models and stores.

It runs on each backend (``bench/harness.py``: ``c``, ``c_baseline`` with
``--baseline``, ``numpy``).  The work counters are deterministic: the
fits (runs of the Levenberg-Marquardt loop, ``learner._levenberg_marquardt``
on the numpy code; a compiled call makes one, or as many as the core
reports for a growth), the accepted LM steps and the nodes added of the
cycle's reports, and the scaled problems built (``learner._ScaledProblem``,
one per training set).  They must be equal on every backend, and every
backend's trained weight vectors must be byte-identical.  Each core's
compiled fit calls are counted too (``compiled_calls``); a core that
grows a node in one call makes one per growth.  The times are minima over ROUNDS rounds of
one cycle's wall time and, of each core, of the time inside its fit
calls, in microseconds.  Run from the repository root:

    mkdir -p /tmp/base
    git archive HEAD~1 src | tar -x -C /tmp/base
    python3 bench/adapt_cycle.py --baseline /tmp/base > BENCH_adapt.json
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # one BLAS thread, and this checkout's colnmpc first

import time

import numpy as np

SEED = 2011
SECTIONS = 4
STORED = 60
MAX_NODES = 6
CONFIG = dict(max_iterations=50, replay_count=50, max_nodes=MAX_NODES)
SCALING = dict(r_lo=0.3, r_hi=3.0)
ROUNDS = 30
WORK = ("fits", "lm_iterations", "nodes_added", "scaled_problems")
# the fit calls of _native and of the core, this revision's and earlier ones
CALLS = ("fit_net", "fit_node", "grow_node")
FITS = tuple(f"colnmpc_{name}" for name in CALLS)


def _problem(backend):
    """(models, stored points per section, new points per section, config)
    made with backend's package."""
    SurrogateModel = backend.surrogate.SurrogateModel
    scaling = backend.surrogate.ScalingSpec(**SCALING)
    rng = np.random.default_rng(SEED)
    models, stored, new = [], [], []
    for k in range(SECTIONS):
        teacher = SurrogateModel.new_random(k, rng, hidden=5, scaling=scaling)
        models.append(SurrogateModel.new_random(k, rng, hidden=3,
                                                scaling=scaling))
        X = np.column_stack([rng.uniform(0.02, 0.98, STORED + 1),
                             rng.uniform(0.02, 0.98, STORED + 1),
                             rng.uniform(0.4, 2.5, STORED + 1)])
        y = teacher.eval_batch(X)
        w = rng.uniform(0.2, 1.0, STORED + 1)
        points = [backend.learner.DataPoint(float(i), *X[i], y[i], w[i],
                                            "closed-loop")
                  for i in range(STORED + 1)]
        stored.append(points[:STORED])
        new.append(points[STORED:])
    return models, stored, new, backend.learner.LearnerConfig(**CONFIG)


def _cycle(backend, problem):
    """(trained weight bytes, work counters, compiled fit calls or None,
    wall seconds, seconds inside the core's fits or None) of one cycle on
    backend; None stands for the numpy loop."""
    learner, native = backend.learner, backend._native
    models, stored, new, config = problem
    stores = [learner.DataStore(config.weight_floor) for _ in models]
    for store, points in zip(stores, stored):
        store.append(points)
    work = dict.fromkeys(WORK, 0)
    own = (learner._levenberg_marquardt, learner._ScaledProblem)
    calls = {name: getattr(native, name) for name in CALLS
             if hasattr(native, name)}

    def lm(*args):
        work["fits"] += 1
        return own[0](*args)

    def runs(name, call):
        def counted(*args):
            out = call(*args)
            work["fits"] += out[4] if name == "grow_node" else 1
            return out
        return counted

    class Counted(own[1]):
        __slots__ = ()

        def __init__(self, *args):
            work["scaled_problems"] += 1
            super().__init__(*args)

    learner._levenberg_marquardt, learner._ScaledProblem = lm, Counted
    for name, call in calls.items():
        setattr(native, name, runs(name, call))
    try:
        with backend.running(*FITS) as timer:
            start = time.perf_counter()
            out, reports = learner.adapt(models, new, stores, config,
                                         np.random.default_rng(SEED + 1))
            wall = time.perf_counter() - start
    finally:
        learner._levenberg_marquardt, learner._ScaledProblem = own
        for name, call in calls.items():
            setattr(native, name, call)
    if any(r is None or r.error for r in reports):
        sys.exit(f"error: a section did not train: {reports}")
    work["lm_iterations"] = sum(r.iterations for r in reports)
    work["nodes_added"] = sum(r.nodes_added for r in reports)
    weights = b"".join(m.as_weight_vector().tobytes() for m in out)
    if timer is None:
        return weights, work, None, wall, None
    return weights, work, timer.calls, wall, timer.seconds


def measure(backends):
    """The record of ``backends`` (``harness.backends``) over ROUNDS
    rounds.  Exits with an error when a check of the module docstring
    fails."""
    problems = {name: _problem(b) for name, b in backends.items()}
    out = {name: _cycle(b, problems[name]) for name, b in backends.items()}
    weights_r, work_r, *_ = out["numpy"]
    for name, (weights, work, *_) in out.items():
        if weights != weights_r:
            sys.exit(f"error: {name}'s trained weights are not bitwise the "
                     "numpy loop's")
        if work != work_r:
            sys.exit(f"error: {name}'s work counters {work} differ from the "
                     f"numpy loop's {work_r}")
    best, rounds = harness.best_times(
        backends, lambda name: _cycle(backends[name], problems[name])[3:],
        ROUNDS)
    return harness.with_ratios({
        "cycle": {"sections": SECTIONS, "stored_points": STORED,
                  "new_points": 1, "seed": SEED,
                  "max_iterations": CONFIG["max_iterations"],
                  "replay_count": CONFIG["replay_count"],
                  "max_nodes": CONFIG["max_nodes"],
                  "hidden": {"teacher": 5, "start": 3}},
        "work": work_r,
        "compiled_calls": {name: calls for name, (_, _, calls, *_)
                           in out.items() if calls is not None},
        "us_per_cycle_min": {name: 1e6 * t for name, (t, _) in best.items()},
        "us_in_fits_min": {name: 1e6 * t for name, (_, t) in best.items()
                           if t is not None},
        "rounds": rounds,
        "host": harness.host(),
    })


if __name__ == "__main__":
    harness.main(__doc__, measure)
