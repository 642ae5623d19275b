"""Work counters and times of one adaptation cycle (``learner.adapt``).

The cycle: four sections, each with a store of STORED points labelled by
its own random teacher net (hidden 5) and a random student net (hidden
3); one new point per section, then one ``adapt`` with CONFIG (50 LM
steps per fit, 50 replay draws, at most MAX_NODES hidden nodes), so each
section trains, misses the goal and grows.  Everything is drawn from
SEED, and every round starts from the same models and stores.

It runs on each backend:

* ``c``: the C core of this checkout (``_native.LIB``);
* ``c_baseline``: with ``--baseline-core``, the core built from the
  ``_core.c`` of the revision before the fits took their start objective
  themselves (``--baseline-flags`` as in ``bench/full_segment.py``).  Its
  fit entry points take the start objective as an argument, so they are
  called through an adapter that takes it on the numpy code
  (``learner._wmse`` and its node twin) outside the timed core call;
* ``numpy``: the numpy loop (``_native.LIB`` None).

The work counters are deterministic: the fits (compiled fit calls, or
runs of ``learner._levenberg_marquardt``), the accepted LM steps and the
nodes added of the cycle's reports, and the scaled problems built
(``learner._ScaledProblem``, one per training set).  They must be equal
on every backend, and every backend's trained weight vectors must be
byte-identical; otherwise no record is printed.  The times are the
minimum over ROUNDS rounds of one cycle's wall time (the numpy loop's
over a third of them), the backends taking turns within a round, and of
each core the minimum of the time inside its fit calls, in microseconds,
with one BLAS thread.  The record is printed as JSON.  Run from the
repository root:

    git show HEAD~1:src/colnmpc/_core.c > /tmp/core_baseline.c
    python3 bench/adapt_cycle.py --baseline-core /tmp/core_baseline.c \\
        > BENCH_adapt.json
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import ctypes
import json
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np

from colnmpc import _native, learner
from colnmpc.learner import DataPoint, DataStore, LearnerConfig, adapt
from colnmpc.surrogate import ScalingSpec, SurrogateModel

from full_segment import _baseline_args, _baseline_core

SEED = 2011
SECTIONS = 4
STORED = 60
MAX_NODES = 6
CONFIG = LearnerConfig(max_iterations=50, replay_count=50,
                       max_nodes=MAX_NODES)
SCALING = ScalingSpec(r_lo=0.3, r_hi=3.0)
ROUNDS = 30
WORK = ("fits", "lm_iterations", "nodes_added", "scaled_problems")


class _PreviousFits:
    """A core whose fit entry points take the start objective as an
    argument (and the damping as an array, the net's hidden count first),
    called as this checkout's are: the start objective is taken on the
    numpy code from the arrays at the call's addresses."""

    def __init__(self, lib):
        self._lib = lib
        ptr, dbl, i64 = ctypes.c_void_p, ctypes.c_double, ctypes.c_longlong
        fit = [i64, ptr, ptr, ptr, ptr, ptr, ptr, i64, dbl, ptr, ptr]
        lib.colnmpc_fit_net.argtypes = [i64] + fit
        lib.colnmpc_fit_node.argtypes = fit

    def __getattr__(self, name):
        return getattr(self._lib, name)

    @staticmethod
    def _array(address, count):
        return np.ctypeslib.as_array(
            (ctypes.c_double * count).from_address(address))

    def colnmpc_fit_net(self, n, Z, zeta, wn, sw, hidden, w, max_steps, goal,
                        lambda0, lambda_max, objectives, accepted):
        def start(Za, ta, wa, x):
            net = SurrogateModel(0, np.zeros((hidden, 3)), np.zeros(hidden),
                                 np.zeros(hidden), 0.0, SCALING)
            return learner._wmse(net.with_weight_vector(x), Za, ta, wa)
        return self._run(self._lib.colnmpc_fit_net, (hidden,), n, Z, zeta,
                         wn, sw, w, 5 * hidden + 1, max_steps, goal, lambda0,
                         lambda_max, objectives, accepted, start)

    def colnmpc_fit_node(self, n, Z, res, wn, sw, t, max_steps, goal,
                         lambda0, lambda_max, objectives, accepted):
        def start(Za, ta, wa, x):
            e = x[4] * np.tanh(Za @ x[:3] + x[3]) - ta
            return float(np.dot(wa, e * e))
        return self._run(self._lib.colnmpc_fit_node, (), n, Z, res, wn, sw,
                         t, 5, max_steps, goal, lambda0, lambda_max,
                         objectives, accepted, start)

    def _run(self, entry, head, n, Z, target, wn, sw, x, m, max_steps, goal,
             lambda0, lambda_max, objectives, accepted, start):
        Za = self._array(Z, 3 * n).reshape(n, 3)
        first = start(Za, self._array(target, n), self._array(wn, n),
                      self._array(x, m).copy())
        objective = np.array([first])
        damping = np.array([lambda0, lambda_max])
        status = entry(n, *head, Z, target, wn, sw, x, objective.ctypes.data,
                       max_steps, goal, damping.ctypes.data, accepted)
        out = self._array(objectives, 2)
        out[0], out[1] = first, objective[0]
        return status


class _FitTimer:
    """A core whose fit entry points add their wall time to ``seconds``
    and count their calls in ``calls``."""

    def __init__(self, lib):
        self._lib = lib
        self.seconds = 0.0
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._lib, name)

    def _timed(name):
        def call(self, *args):
            start = time.perf_counter()
            try:
                return getattr(self._lib, name)(*args)
            finally:
                self.seconds += time.perf_counter() - start
                self.calls += 1
        return call

    colnmpc_fit_net = _timed("colnmpc_fit_net")
    colnmpc_fit_node = _timed("colnmpc_fit_node")


def _problem():
    """(models, stored points per section, new points per section)."""
    rng = np.random.default_rng(SEED)
    models, stored, new = [], [], []
    for k in range(SECTIONS):
        teacher = SurrogateModel.new_random(k, rng, hidden=5, scaling=SCALING)
        models.append(SurrogateModel.new_random(k, rng, hidden=3,
                                                scaling=SCALING))
        X = np.column_stack([rng.uniform(0.02, 0.98, STORED + 1),
                             rng.uniform(0.02, 0.98, STORED + 1),
                             rng.uniform(0.4, 2.5, STORED + 1)])
        y = teacher.eval_batch(X)
        w = rng.uniform(0.2, 1.0, STORED + 1)
        points = [DataPoint(float(i), *X[i], y[i], w[i], "closed-loop")
                  for i in range(STORED + 1)]
        stored.append(points[:STORED])
        new.append(points[STORED:])
    return models, stored, new


def _cycle(lib, problem):
    """(trained weight bytes, work counters, wall seconds, seconds inside
    the core's fits or None for the numpy loop) of one cycle on lib."""
    models, stored, new = problem
    stores = [DataStore(CONFIG.weight_floor) for _ in models]
    for store, points in zip(stores, stored):
        store.append(points)
    work = dict.fromkeys(WORK, 0)
    own = (_native.LIB, learner._levenberg_marquardt, learner._ScaledProblem)
    timer = None if lib is None else _FitTimer(lib)

    def lm(*args):
        work["fits"] += 1
        return own[1](*args)

    class Counted(own[2]):
        __slots__ = ()

        def __init__(self, *args):
            work["scaled_problems"] += 1
            super().__init__(*args)

    _native.LIB, learner._levenberg_marquardt, learner._ScaledProblem = \
        timer, lm, Counted
    try:
        start = time.perf_counter()
        out, reports = adapt(models, new, stores, CONFIG,
                             np.random.default_rng(SEED + 1))
        wall = time.perf_counter() - start
    finally:
        _native.LIB, learner._levenberg_marquardt, learner._ScaledProblem = \
            own
    if any(r is None or r.error for r in reports):
        sys.exit(f"error: a section did not train: {reports}")
    if timer is not None:
        work["fits"] = timer.calls
    work["lm_iterations"] = sum(r.iterations for r in reports)
    work["nodes_added"] = sum(r.nodes_added for r in reports)
    weights = b"".join(m.as_weight_vector().tobytes() for m in out)
    return weights, work, wall, None if timer is None else timer.seconds


def measure(backends):
    """The record of ``backends`` (name -> core, None for the numpy loop,
    which is named "numpy") over ROUNDS rounds.  Exits with an error when
    a check of the module docstring fails."""
    problem = _problem()
    out = {name: _cycle(lib, problem) for name, lib in backends.items()}
    weights_r, work_r, *_ = out["numpy"]
    for name, (weights, work, *_) in out.items():
        if weights != weights_r:
            sys.exit(f"error: {name}'s trained weights are not bitwise the "
                     "numpy loop's")
        if work != work_r:
            sys.exit(f"error: {name}'s work counters {work} differ from the "
                     f"numpy loop's {work_r}")
    best = dict.fromkeys(backends, np.inf)
    in_fits = {name: np.inf for name, lib in backends.items()
               if lib is not None}
    rounds = dict.fromkeys(backends, 0)
    for r in range(ROUNDS):
        for name, lib in backends.items():
            if name == "numpy" and r % 3:
                continue
            *_, wall, fits = _cycle(lib, problem)
            best[name] = min(best[name], wall)
            if fits is not None:
                in_fits[name] = min(in_fits[name], fits)
            rounds[name] += 1
    return {
        "cycle": {"sections": SECTIONS, "stored_points": STORED,
                  "new_points": 1, "seed": SEED,
                  "max_iterations": CONFIG.max_iterations,
                  "replay_count": CONFIG.replay_count,
                  "max_nodes": CONFIG.max_nodes,
                  "hidden": {"teacher": 5, "start": 3}},
        "work": work_r,
        "us_per_cycle_min": {name: 1e6 * t for name, t in best.items()},
        "us_in_fits_min": {name: 1e6 * t for name, t in in_fits.items()},
        "rounds": rounds,
        "host": {"machine": platform.machine(), "nproc": os.cpu_count(),
                 "python": platform.python_version(),
                 "numpy": np.__version__,
                 "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    _baseline_args(ap)
    args = ap.parse_args()
    if _native.LIB is None:
        sys.exit("error: the C core of this checkout is not available")
    backends = {"c": _native.LIB}
    if args.baseline_core:
        backends["c_baseline"] = _PreviousFits(
            _baseline_core(args.baseline_core, args.baseline_flags))
    backends["numpy"] = None
    print(json.dumps(measure(backends), indent=2))


if __name__ == "__main__":
    main()
