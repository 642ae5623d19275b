"""The compiled prediction segments, steady-state solves and learner fits
against the numpy code.

The C core is built at import wherever gcc is present; these tests skip
only where there is no compiler.  The numpy code (integrate._run on
ocp's callbacks, column._ptc_steady, kernels.section_chain_solve,
learner._levenberg_marquardt) is the reference: counters are equal,
full-order prediction results agree to rounding, and everything else is
bitwise equal.
"""

import hashlib
import importlib.util
import os
import re
import shutil

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import colnmpc
from colnmpc import _native, column, kernels, learner, ocp
from colnmpc.column import (AggregationLayout, ColumnInputs, ColumnParams,
                            HybridModel, SectionOracle, SectionSolveError,
                            SteadyStateError, full_rhs, full_state_jacobian,
                            hybrid_steady_state, oracle_hybrid,
                            section_steady_solve, steady_state_solve)
from colnmpc.integrate import (IntegrationError, IvpProblem, ModelDomainError,
                               integrate)
from colnmpc.ocp import (ControlMoves, FullPrediction, HybridPrediction,
                         OcpSpec, objective_and_gradient, solve_ocp)
from colnmpc.surrogate import ScalingSpec, SurrogateModel

from conftest import NOMINAL_L, NOMINAL_V, OTHER_LAYOUTS, training_set_of

needs_compiler = pytest.mark.skipif(shutil.which("gcc") is None,
                                    reason="no C compiler")

SPEC_LOOSE = OcpSpec(horizon_control=180.0, horizon_prediction=360.0,
                     n_intervals=3, sampling_time=60.0,
                     integration_rtol=1e-6, integration_atol=1e-9)
# short and loose: many random points stay cheap on the numpy loop
SPEC_SHORT = OcpSpec(horizon_control=120.0, horizon_prediction=120.0,
                     n_intervals=2, sampling_time=60.0,
                     integration_rtol=1e-4, integration_atol=1e-7)
PARITY_RTOL = 1e-10
WORK = ("steps", "rejected", "newton_failures", "nfev", "njev", "nlu")


def _shoot(x0, model, spec, moves, numpy_loop=False, work=None):
    """(phi, grad, summed counters) on one path; the counters are summed
    into ``work`` when it is given (a dict of WORK, kept when the
    evaluation raises)."""
    lib = _native.LIB
    if numpy_loop:
        _native.LIB = None
    try:
        if work is None:
            work = dict.fromkeys(WORK, 0)
        phi, grad = objective_and_gradient(moves, x0, model, spec, work)
    finally:
        _native.LIB = lib
    return phi, grad, work


def _bench(name):
    """The module of ``bench/<name>.py``, loaded afresh."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench",
                        f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"{name}_bench", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def _segment_stats(monkeypatch, max_steps=None):
    """Collect each segment's stats (and errors) at the call-time entry
    points; optionally cap the steps as the benchmark does."""
    seen = []
    for name in ("integrate", "integrate_with_sensitivities"):
        run = getattr(ocp, name)

        def counted(problem, run=run):
            if max_steps is not None:
                problem.max_steps = max_steps
            try:
                tr = run(problem)
            except IntegrationError as exc:
                seen.append(exc)
                raise
            seen.append(tr.stats)
            return tr
        monkeypatch.setattr(ocp, name, counted)
    return seen


@needs_compiler
def test_core_loads_where_a_compiler_is_present():
    assert _native.LIB is not None
    assert colnmpc.KERNEL_BACKEND == "c"
    # built once per source and build line, then loaded as it is
    assert _native._build() == _native._build()


def test_build_line_keeps_every_bit():
    # the library's name hashes only the source and the build line, and
    # the compiled paths must round as numpy does: no fused multiply-add,
    # no pow(x, 2.0) as x * x, no reassociation, and no code tied to the
    # building host's CPU
    flags = _native._FLAGS
    assert "-ffp-contract=off" in flags and "-fno-builtin-pow" in flags
    banned = ("-Ofast", "-ffast-math", "-funsafe-math-optimizations",
              "-fassociative-math", "-march=", "-mtune=")
    assert not [f for f in flags if f.startswith(banned)], flags


@needs_compiler
def test_build_deletes_libraries_of_other_sources(tmp_path, monkeypatch):
    source = tmp_path / "_core.c"
    shutil.copyfile(_native._SOURCE, source)
    stale = "_core-0000000000000000.so"
    (tmp_path / stale).write_bytes(b"stale")
    # a concurrent build's temporary file stays
    (tmp_path / f"{stale}.1.tmp").write_bytes(b"")
    monkeypatch.setattr(_native, "_HERE", str(tmp_path))
    monkeypatch.setattr(_native, "_SOURCE", str(source))
    path = _native._build()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["_core.c", os.path.basename(path), f"{stale}.1.tmp"])


def _steady_solves(params):
    """Bytes of a full-order steady state, of a section solve and of an
    oracle hybrid steady state from the flat start."""
    u = ColumnInputs(NOMINAL_L, NOMINAL_V, params.feed_flow, 0.35)
    hm = oracle_hybrid(params, AggregationLayout.from_params(params))
    return (steady_state_solve(u, params).tobytes(),
            section_steady_solve(0.9, 0.5, 1.3, 12, params.alpha),
            hybrid_steady_state(hm, u).tobytes())


def _count_numpy_solves(monkeypatch):
    """Calls of the numpy kernels the steady-state solves run on."""
    calls = []
    for name in ("full_rhs", "section_chain_solve", "hybrid_assemble"):
        fn = getattr(kernels, name)
        monkeypatch.setattr(kernels, name,
                            lambda *a, fn=fn, name=name: calls.append(name)
                            or fn(*a))
    return calls


def test_missing_compiler_falls_back_with_a_warning(params, layout,
                                                    monkeypatch, tmp_path):
    # no compiler and no library built, or a foreign routine that cannot
    # be bound: one warning, no core, and every prediction, steady state,
    # chain solve and fit runs on the numpy code, with the same numbers
    expected = _steady_solves(params), _trained()
    assert expected[1][3] > 0

    def missing():
        raise OSError("not found")
    for patches in (
            [(_native.shutil, "which", lambda name: None),
             (_native, "_HERE", str(tmp_path))],
            [(_native, "_numpy_learner_routines", missing)]):
        with monkeypatch.context() as patch:
            for owner, name, patched in patches:
                patch.setattr(owner, name, patched)
            with pytest.warns(RuntimeWarning, match="numpy integrator") \
                    as record:
                assert _native._load() is None
            assert len(record) == 1
            patch.setattr(_native, "LIB", None)
            hybrid = HybridPrediction(_default_hybrid(params, layout), 0.32)
            for model in (hybrid, FullPrediction(params, 0.32)):
                assert ocp._compiled_horizon(model, SPEC_LOOSE) is None
            calls = _count_numpy_solves(patch)
            assert (_steady_solves(params), _trained()) == expected
            assert set(calls) == {"full_rhs", "section_chain_solve",
                                  "hybrid_assemble"}


@needs_compiler
def test_built_library_loads_without_a_compiler(monkeypatch):
    # a library built for this source and build line is loaded as it is:
    # gcc is needed only to build one
    _native._build()
    monkeypatch.setattr(_native.shutil, "which", lambda name: None)
    lib = _native._load()
    assert lib is not None and lib._name == _native._build()


@needs_compiler
def test_foreign_routines_bind_where_a_compiler_is_present():
    # numpy's ufunc loops, BLAS and LAPACK and scipy's LAPACK must
    # resolve: a fallback to the numpy code here would fail, not skip
    assert _native.LIB is not None
    _native._bind(_native.LIB)


@needs_compiler
def test_compiled_full_prediction_work_counters(params, nominal_steady,
                                                monkeypatch):
    # twin of test_ocp's numpy-loop pins: the same steps, Newton
    # iterations, Jacobian points and LUs, without one Python model call
    seen = _segment_stats(monkeypatch)
    calls = []
    for name in ("full_rhs", "full_state_jac", "full_input_jac"):
        fn = getattr(kernels, name)
        monkeypatch.setattr(kernels, name,
                            lambda *a, fn=fn: calls.append(1) or fn(*a))
    model = FullPrediction(params, 0.357)
    moves = ControlMoves.constant(NOMINAL_L, NOMINAL_V, 3)
    objective_and_gradient(moves, nominal_steady, model, SPEC_LOOSE)
    summed = {k: sum(st[k] for st in seen) for k in WORK}
    assert len(seen) == 1  # the whole horizon in one problem
    assert summed == {"steps": 214, "rejected": 0, "newton_failures": 0,
                      "nfev": 2665, "njev": 1074, "nlu": 1284}
    assert calls == []


@needs_compiler
def test_dispatch_ignores_wrapped_model_callables(params, nominal_steady,
                                                  monkeypatch):
    # a tracer wraps the model's methods and the kernels; the segment
    # still runs compiled, and gives the same bits
    model = FullPrediction(params, 0.35)
    moves = ControlMoves(np.array([2.0, 2.2, 2.1]), np.array([2.4, 2.5, 2.3]))
    phi, grad = objective_and_gradient(moves, nominal_steady, model,
                                       SPEC_LOOSE)
    calls = []
    for owner, names in ((FullPrediction, ("rhs", "rhs_jac")),
                         (kernels, ("full_rhs", "full_state_jac",
                                    "full_input_jac"))):
        for name in names:
            fn = getattr(owner, name)
            monkeypatch.setattr(owner, name,
                                lambda *a, fn=fn: calls.append(1) or fn(*a))
    phi2, grad2 = objective_and_gradient(moves, nominal_steady,
                                         FullPrediction(params, 0.35),
                                         SPEC_LOOSE)
    assert calls == []
    assert phi2 == phi and np.array_equal(grad2, grad)


@needs_compiler
def test_compiled_segment_matches_numpy_loop():
    # 100 random columns, start states, moves and feed compositions, then
    # every feed stage of 3 to 5 stages (the twisted stage factor's chains
    # meet at index n // 2; the feed sits on that row, just below or just
    # above it): objective and gradient agree to PARITY_RTOL, and every
    # counter is the numpy loop's
    rng = np.random.default_rng(1207)
    small = [(n, stage) for n in (3, 4, 5) for stage in range(2, n)]
    for case in range(100 + len(small)):
        if case < 100:
            n = int(rng.integers(6, 43))
            stage = int(rng.integers(2, n))
        else:
            n, stage = small[case - 100]
        p = ColumnParams(n_total=n, feed_stage=stage,
                         alpha=float(rng.uniform(1.5, 3.0)),
                         tray_holdup=float(rng.uniform(0.3, 1.0)))
        x0 = np.sort(rng.uniform(0.0, 1.0, n))
        model = FullPrediction(p, float(rng.uniform(0.2, 0.5)))
        moves = ControlMoves(rng.uniform(1.0, 5.0, 2),
                             rng.uniform(2.0, 6.0, 2))
        phi, grad, work = _shoot(x0, model, SPEC_SHORT, moves)
        phi_r, grad_r, work_r = _shoot(x0, model, SPEC_SHORT, moves,
                                       numpy_loop=True)
        assert work == work_r, case
        assert abs(phi - phi_r) <= PARITY_RTOL * abs(phi_r), case
        assert np.max(np.abs(grad - grad_r)) \
            <= PARITY_RTOL * np.max(np.abs(grad_r)), case


@needs_compiler
def test_full_segment_bench_compares_backends(monkeypatch):
    # bench/full_segment.py's comparison, one round of the C core against
    # the numpy loop at its full-order and its hybrid point: it checks
    # counters and parity itself (and exits when they fail), and its
    # record keeps its keys and the pinned counters of both points, and
    # the optimizer layer's solve on the core
    bench = _bench("full_segment")
    monkeypatch.setattr(bench, "ROUNDS", 1)
    monkeypatch.setattr(bench, "SOLVE_ROUNDS", 1)
    record = bench.measure(bench.harness.backends())
    assert set(record) == {"point", "work", "parity_rtol", "compiled_calls",
                           "us_per_step_min", "us_outside_core_per_eval_min",
                           "rounds", "hybrid", "optimizer", "host"}
    optimizer = record["optimizer"]
    assert optimizer["work"] == {"c": {"evaluations": 24, "iterations": 20}}
    assert optimizer["rounds"] == {"c": 1}
    outside = optimizer["us_outside_objective_per_eval_min"]
    assert list(outside) == ["c"] and 0.0 < outside["c"] < np.inf
    assert record["work"] == {"steps": 214, "rejected": 0,
                              "newton_failures": 0, "nfev": 2665,
                              "njev": 1074, "nlu": 1284}
    assert record["rounds"] == {"c": 1, "numpy": 1}
    assert all(0.0 < t < np.inf for t in record["us_per_step_min"].values())
    hybrid = record["hybrid"]
    assert set(hybrid) == {"point", "work", "compiled_calls",
                           "us_per_eval_min", "us_outside_core_per_eval_min",
                           "rounds"}
    for times in (record, hybrid):
        # one core call per evaluation: the whole horizon
        assert times["compiled_calls"] == {"c": 1}
        outside = times["us_outside_core_per_eval_min"]
        assert list(outside) == ["c"] and 0.0 < outside["c"] < np.inf
    assert hybrid["work"] == {"steps": 282, "rejected": 60,
                              "newton_failures": 2, "nfev": 3565,
                              "njev": 1114, "nlu": 1392}
    assert hybrid["rounds"] == {"c": 1, "numpy": 1}
    assert all(0.0 < t < np.inf for t in hybrid["us_per_eval_min"].values())


@needs_compiler
def test_full_segment_sensitivity_columns_are_independent(params,
                                                          nominal_steady):
    # the stage solve updates all sensitivity columns in one pass, each
    # with the operations of a solve of it alone.  On the compiled
    # horizon, the last interval integrates the (nonzero) columns of the
    # two moves before its own beside its move's (zero at its start): a
    # horizon of that interval alone, started where the first two left
    # off, gives its move's columns, the states and the counters
    # byte-identical.  So do the first two intervals as a horizon of
    # their own.
    horizon = _native.FullHorizon(FullPrediction(params, 0.357), SPEC_LOOSE)
    y0 = np.append(nominal_steady, 0.0)
    L = [NOMINAL_L, NOMINAL_L * 1.05, NOMINAL_L * 0.97]
    V = [NOMINAL_V, NOMINAL_V * 0.98, NOMINAL_V * 1.02]

    def shoot(start, grid, moves, h_init=None):
        problem = IvpProblem(rhs=None, initial_state=start,
                             time_grid=np.array(grid),
                             parameter_vector=np.array(moves), h_init=h_init,
                             rel_tol=SPEC_LOOSE.integration_rtol,
                             abs_tol=SPEC_LOOSE.integration_atol)
        return horizon(problem, True)

    whole = shoot(y0, [0.0, 60.0, 120.0, 180.0], L + V)
    head = shoot(y0, [0.0, 60.0, 120.0], L[:2] + V[:2])
    tail = shoot(whole.states[2], [120.0, 180.0], [L[2], V[2]],
                 head.stats["h_last"])
    assert head.states.tobytes() == whole.states[:3].tobytes()
    assert head.sens.tobytes() == whole.sens[:3][:, :, [0, 1, 3, 4]].tobytes()
    assert not whole.sens[:3][:, :, [2, 5]].any()
    assert tail.stats["steps"] > 10
    assert tail.states[-1].tobytes() == whole.states[-1].tobytes()
    assert tail.sens[-1].tobytes() == whole.sens[-1][:, [2, 5]].tobytes()
    assert tail.stats["h_last"] == whole.stats["h_last"]
    for key in (*WORK, "accepted"):
        assert head.stats[key] + tail.stats[key] == whole.stats[key], key


@needs_compiler
def test_compiled_segment_honors_max_steps(params, nominal_steady,
                                           monkeypatch):
    # the benchmark caps prediction steps at the entry point, and the cap
    # holds for each interval: the compiled horizon stops in the interval
    # whose numpy segment stops (the third, after 5 + 1 steps in the first
    # two, from the steady state at x_F = 0.357 with a new move in the
    # third), at the same time, with the counters summed over the
    # evaluation equal on both paths
    x0 = steady_state_solve(
        ColumnInputs(NOMINAL_L, NOMINAL_V, params.feed_flow, 0.357), params)
    model = FullPrediction(params, 0.357)
    moves = ControlMoves(np.array([NOMINAL_L, NOMINAL_L, 2.3]),
                         np.array([NOMINAL_V, NOMINAL_V, 2.6]))
    errors = []
    for numpy_loop in (False, True):
        with monkeypatch.context() as patch:
            seen = _record_problems(patch, max_steps=20)
            work = dict.fromkeys(WORK, 0)
            with pytest.raises(IntegrationError, match="step limit 20") \
                    as info:
                _shoot(x0, model, SPEC_LOOSE, moves, numpy_loop, work)
        errors.append((info.value, work, _evaluation(seen, 3)))
    (compiled, work, got), (reference, work_r, expected) = errors
    assert 120.0 < compiled.t < 180.0
    assert compiled.t == pytest.approx(reference.t, rel=1e-9)
    assert work == work_r and work["steps"] == 5 + 1 + 20
    # the message and the counters (the time agrees to rounding)
    assert (got[0], got[2]) == (expected[0], expected[2])
    assert got[2]["h_last"] == 0.0


@needs_compiler
def test_capped_hybrid_horizon_fails_in_the_same_interval(params, layout,
                                                          nominal_steady,
                                                          monkeypatch):
    # the packed-ANN hybrid's twin of test_compiled_segment_honors_max_steps,
    # bitwise: from the hybrid held at the nominal moves for 3000 s, with a
    # new move in the third interval, a cap of 15 steps stops the third
    # interval on both paths (after 6 + 1 steps in the first two), at the
    # same time, with the same message, summed counters and clamp count
    hm = _default_hybrid(params, layout)
    horizon, _ = ocp._compiled_horizon(HybridPrediction(hm, 0.357),
                                       SPEC_LOOSE)
    held = IvpProblem(
        rhs=None,
        initial_state=np.append(layout.state_from_plant(nominal_steady), 0.0),
        time_grid=np.array([0.0, 3000.0]),
        parameter_vector=np.array([NOMINAL_L, NOMINAL_V]),
        rel_tol=SPEC_LOOSE.integration_rtol,
        abs_tol=SPEC_LOOSE.integration_atol)
    z0 = horizon(held, False).states[-1, :-1]
    moves = ControlMoves(np.array([NOMINAL_L, NOMINAL_L, 2.3]),
                         np.array([NOMINAL_V, NOMINAL_V, 2.6]))
    results = []
    for numpy_loop in (False, True):
        model = HybridPrediction(hm, 0.357)
        with monkeypatch.context() as patch:
            seen = _record_problems(patch, max_steps=15)
            work = dict.fromkeys(WORK, 0)
            with pytest.raises(IntegrationError, match="step limit 15"):
                _shoot(z0, model, SPEC_LOOSE, moves, numpy_loop, work)
        results.append((_evaluation(seen, 3), work, model.clamp_count))
    assert results[0] == results[1]
    (_, t, summed), work, _ = results[0]
    assert 120.0 < float.fromhex(t) < 180.0
    assert work["steps"] == 6 + 1 + 15 == summed["steps"]


@needs_compiler
def test_compiled_path_hands_one_problem_per_evaluation(params, layout,
                                                        nominal_steady,
                                                        monkeypatch):
    # in a solve, the compiled path hands ocp.integrate_with_sensitivities
    # one problem per evaluation (the whole horizon, on the bounds of
    # spec.segment_bounds()), and the numpy loop one per interval (4)
    spec = OcpSpec(horizon_control=180.0, horizon_prediction=360.0,
                   n_intervals=3, sampling_time=60.0,
                   integration_rtol=1e-6, integration_atol=1e-9,
                   max_iterations=2, max_evaluations=3)
    warm = ControlMoves.constant(NOMINAL_L, NOMINAL_V, 3)
    for model, x0 in (
            (FullPrediction(params, 0.357), nominal_steady),
            (HybridPrediction(_default_hybrid(params, layout), 0.357),
             layout.state_from_plant(nominal_steady))):
        counts = []
        for numpy_loop in (False, True):
            with monkeypatch.context() as patch:
                if numpy_loop:
                    patch.setattr(_native, "LIB", None)
                seen = _record_problems(patch)
                sol = solve_ocp(x0, model, spec, warm)
            assert not any(isinstance(r, IntegrationError) for r in seen)
            counts.append((len(seen), sol.n_evaluations))
            if not numpy_loop:
                assert all(tr.t.tolist() == [0.0, 60.0, 120.0, 180.0, 360.0]
                           for tr in seen)
        (compiled, evaluations), (segments, evaluations_r) = counts
        assert compiled == evaluations > 0
        assert segments == 4 * evaluations_r > 0


@needs_compiler
def test_step_cap_is_taken_as_an_integer_on_both_paths(params, layout,
                                                      nominal_steady,
                                                      monkeypatch):
    # a float cap assigned at the entry points used to integrate on the
    # numpy loop and raise ctypes.ArgumentError in the compiled segment
    # (2.5: IntegrationError against ArgumentError); both paths now take
    # the count with operator.index: a numpy integer integrates, bitwise
    # alike at the hybrid point, and a float raises TypeError on both
    model = HybridPrediction(_default_hybrid(params, layout), 0.357)
    z0 = layout.state_from_plant(nominal_steady)
    moves = ControlMoves.constant(NOMINAL_L, NOMINAL_V, 3)
    for cap in (300.0, np.int64(300), 2.5):
        with monkeypatch.context() as patch:
            _segment_stats(patch, max_steps=cap)
            got, ref = (_outcome(lambda: np.append(*_shoot(
                z0, model, SPEC_LOOSE, moves, numpy_loop)[:2]), False,
                patch) for numpy_loop in (False, True))
        assert got == ref, cap
        assert isinstance(got, bytes) == isinstance(cap, np.integer), cap
        if not isinstance(got, bytes):
            assert got[0] is TypeError


@needs_compiler
def test_first_step_hint_is_checked_on_both_paths(params, layout,
                                                  nominal_steady):
    # h_init is None or a real number, checked when the problem is made:
    # a string used to raise ctypes.ArgumentError in the compiled segment
    # and TypeError on the numpy loop, and now raises TypeError on both; a
    # numpy or integer hint integrates as its float does, and NaN or a
    # hint <= 0 has the first step estimated, as None does, bitwise alike
    # on both paths at the hybrid point
    model = HybridPrediction(_default_hybrid(params, layout), 0.357)
    y0 = np.append(layout.state_from_plant(nominal_steady), 0.0)
    rhs, jacobians = ocp._augmented_callbacks(model, SPEC_LOOSE)
    segment = ocp._compiled_horizon(model, SPEC_LOOSE)[0]

    def run(h_init, compiled):
        problem = IvpProblem(
            rhs=rhs, jacobians=jacobians, initial_state=y0,
            parameter_vector=np.array([NOMINAL_L, NOMINAL_V]),
            time_grid=np.array([0.0, 60.0]), h_init=h_init,
            rel_tol=SPEC_LOOSE.integration_rtol,
            abs_tol=SPEC_LOOSE.integration_atol,
            compiled=segment if compiled else None)
        tr = ocp.integrate_with_sensitivities(problem)
        return tr.states.tobytes(), tr.sens.tobytes(), tr.stats

    for compiled in (True, False):
        with pytest.raises(TypeError, match="h_init"):
            run("0.5", compiled)
    for hint, same in ((np.float32(0.5), 0.5), (2, 2.0), (np.int64(2), 2.0),
                       (np.nan, None), (0.0, None), (-1.0, None)):
        expected = run(same, True)
        assert run(same, False) == expected, hint
        assert run(hint, True) == run(hint, False) == expected, hint


@needs_compiler
def test_nonfinite_initial_rhs_raises_on_both_paths():
    # x = -1 with alpha = 2 puts a zero in the equilibrium's denominator
    p = ColumnParams(alpha=2.0)
    model = FullPrediction(p, 0.3)
    x0 = np.full(p.n_total, -1.0)
    moves = ControlMoves.constant(NOMINAL_L, NOMINAL_V, 3)
    stats = []
    for numpy_loop in (False, True):
        with np.errstate(all="ignore"), \
                pytest.raises(IntegrationError,
                              match="non-finite rhs") as info:
            _shoot(x0, model, SPEC_LOOSE, moves, numpy_loop)
        stats.append(info.value.stats)
    assert stats[0] == stats[1]
    assert stats[0]["nfev"] == 1 and stats[0]["steps"] == 0


# ---------------------------------------------------------------------------
# packed-ANN hybrid
# ---------------------------------------------------------------------------

def _surrogates(rng, n_sec, hidden=4, scale=0.3, eps=1e-9, saturate=0.0):
    """Random section nets; with probability `saturate` a section's output
    bias is +-40, so the section clamps."""
    sc = ScalingSpec(eps=eps, r_lo=0.3, r_hi=4.0)
    models = []
    for k in range(n_sec):
        h = hidden if np.isscalar(hidden) else int(rng.integers(*hidden))
        ob = float(rng.choice([-40.0, 40.0])) if rng.random() < saturate \
            else scale * float(rng.standard_normal())
        models.append(SurrogateModel(
            k, scale * rng.standard_normal((h, 3)),
            scale * rng.standard_normal(h), scale * rng.standard_normal(h),
            ob, sc))
    return models


def _default_hybrid(params, layout):
    # test_ocp's fixed-seed surrogates of the hybrid work-counter pin
    rng = np.random.default_rng(7)
    return HybridModel(params, layout, [
        SurrogateModel.new_random(k, rng, hidden=4,
                                  scaling=ScalingSpec(r_lo=0.3, r_hi=4.0))
        for k in range(4)])


@needs_compiler
def test_compiled_hybrid_prediction_work_counters(params, layout,
                                                  nominal_steady,
                                                  monkeypatch):
    # twin of test_ocp's numpy-loop pins for the packed-ANN hybrid: the
    # same steps, rejections, Newton failures and LUs, without one Python
    # model or kernel call
    seen = _segment_stats(monkeypatch)
    calls = []
    fn = kernels.hybrid_rhs_jac
    monkeypatch.setattr(kernels, "hybrid_rhs_jac",
                        lambda *a: calls.append(1) or fn(*a))
    model = HybridPrediction(_default_hybrid(params, layout), 0.357)
    z0 = layout.state_from_plant(nominal_steady)
    moves = ControlMoves.constant(NOMINAL_L, NOMINAL_V, 3)
    objective_and_gradient(moves, z0, model, SPEC_LOOSE)
    summed = {k: sum(st[k] for st in seen) for k in WORK}
    assert len(seen) == 1  # the whole horizon in one problem
    assert summed == {"steps": 282, "rejected": 60, "newton_failures": 2,
                      "nfev": 3565, "njev": 1114, "nlu": 1392}
    assert calls == []


@needs_compiler
def test_hybrid_dispatch_ignores_wrapped_callables(params, layout,
                                                   nominal_steady,
                                                   monkeypatch):
    # a tracer wraps the prediction's methods and the packed kernel; the
    # segment still runs compiled, and gives the same bits
    hm = _default_hybrid(params, layout)
    z0 = layout.state_from_plant(nominal_steady)
    moves = ControlMoves(np.array([2.0, 2.2, 2.1]), np.array([2.4, 2.5, 2.3]))
    phi, grad = objective_and_gradient(moves, z0, HybridPrediction(hm, 0.35),
                                       SPEC_LOOSE)
    calls = []
    for owner, names in ((HybridPrediction, ("rhs", "rhs_jac")),
                         (kernels, ("hybrid_rhs_jac", "hybrid_assemble"))):
        for name in names:
            fn = getattr(owner, name)
            monkeypatch.setattr(owner, name,
                                lambda *a, fn=fn: calls.append(1) or fn(*a))
    phi2, grad2 = objective_and_gradient(moves, z0,
                                         HybridPrediction(hm, 0.35),
                                         SPEC_LOOSE)
    assert calls == []
    assert phi2 == phi and grad2.tobytes() == grad.tobytes()


@needs_compiler
def test_oracle_hybrid_stays_on_the_numpy_loop(params, layout,
                                               nominal_steady):
    spec = OcpSpec(horizon_control=120.0, horizon_prediction=120.0,
                   n_intervals=2, sampling_time=60.0,
                   integration_rtol=1e-4, integration_atol=1e-7)
    moves = ControlMoves.constant(NOMINAL_L, NOMINAL_V, 2)
    hm = oracle_hybrid(params, layout)
    assert hm.packed is None
    model = HybridPrediction(hm, 0.32)
    assert ocp._compiled_horizon(model, spec) is None
    calls = []
    rhs_jac = model.rhs_jac
    model.rhs_jac = lambda *a: calls.append(1) or rhs_jac(*a)
    objective_and_gradient(moves, layout.state_from_plant(nominal_steady),
                           model, spec)
    assert len(calls) > 0


@needs_compiler
def test_sensitivity_stages_run_only_for_accepted_steps(params, layout,
                                                        nominal_steady,
                                                        monkeypatch):
    # a step runs its five sensitivity stages (a Jacobian and an LU each)
    # only once it has passed the state error test.  On a full-order and a
    # hybrid prediction with error-test rejections and Newton failures,
    # on the numpy loop and on the compiled segments:
    #   njev = segment starts + 5 * accepted
    #   nlu  = steps - singular step factors + 5 * accepted
    # with equal counters on both paths.  An accepted step's stages see the
    # operands they saw when they ran inside the stage loop, so the hybrid
    # segments' states, sensitivities and h_last keep their bytes (the
    # digest is that of the loop that ran them before the error test), on
    # the numpy loop and in the compiled horizon.
    segments = _record_problems(monkeypatch)
    rng = np.random.default_rng(0)
    small = ColumnParams(n_total=6, feed_stage=3, alpha=2.0, tray_holdup=0.5)
    x_small = np.sort(rng.uniform(0.0, 1.0, 6))
    cases = [
        (FullPrediction(small, 0.35), x_small,
         ControlMoves(rng.uniform(1.0, 5.0, 2), rng.uniform(2.0, 6.0, 2)),
         SPEC_SHORT, None),
        (HybridPrediction(_default_hybrid(params, layout), 0.357),
         layout.state_from_plant(nominal_steady),
         ControlMoves.constant(NOMINAL_L, NOMINAL_V, 3), SPEC_LOOSE,
         "d6b0347f9f714873a42125f64bfd5df66a942d4e5c2b35a313bdd7494b3ed53e")]
    for model, x0, moves, spec, digest in cases:
        starts = len(spec.segment_bounds())
        work, records = [], []
        for numpy_loop in (False, True):
            segments.clear()
            _shoot(x0, model, spec, moves, numpy_loop)
            c = {k: sum(tr.stats[k] for tr in segments)
                 for k in (*WORK, "accepted")}
            singular = c["steps"] - c["accepted"] - c["rejected"]
            assert c["newton_failures"] > 0
            assert c["rejected"] > c["newton_failures"] - singular
            assert c["njev"] == starts + 5 * c["accepted"]
            assert c["nlu"] == c["steps"] - singular + 5 * c["accepted"]
            work.append(c)
            records.append(_evaluation(segments, moves.L.size))
        assert work[0] == work[1]
        if digest is not None:
            assert records[0] == records[1]
            h = hashlib.sha256()
            for tr in segments:  # the numpy loop's
                h.update(tr.states.tobytes())
                h.update(tr.sens.tobytes())
                h.update(float(tr.stats["h_last"]).hex().encode())
            assert h.hexdigest() == digest


@needs_compiler
def test_compiled_full_horizon_keeps_its_bits(params, nominal_steady,
                                              monkeypatch):
    # the compiled full-order horizon agrees with the numpy loop only to
    # rounding, so its own bits are pinned: the states, sensitivities,
    # counters and h_last of one evaluation on a small column with
    # rejections and Newton failures (SPEC_SHORT) and at
    # bench/full_segment.py's point.  A change of the core's stage
    # factors or solves that moves a bit fails here
    segments = _record_problems(monkeypatch)
    rng = np.random.default_rng(0)
    small = ColumnParams(n_total=6, feed_stage=3, alpha=2.0, tray_holdup=0.5)
    x_small = np.sort(rng.uniform(0.0, 1.0, 6))
    cases = [
        (FullPrediction(small, 0.35), x_small,
         ControlMoves(rng.uniform(1.0, 5.0, 2), rng.uniform(2.0, 6.0, 2)),
         SPEC_SHORT,
         "a63c852bea5f9f4718a3f307bfb11541c9c12ac9c5aa03487b7e245ef3813979"),
        (FullPrediction(params, 0.357), nominal_steady,
         ControlMoves.constant(NOMINAL_L, NOMINAL_V, 3), SPEC_LOOSE,
         "6fae6e2bdb23f2fa785944dff74cdd7366042828f539fb6ad803640fc07a81a7")]
    for model, x0, moves, spec, digest in cases:
        segments.clear()
        _shoot(x0, model, spec, moves)
        (tr,) = segments
        h = hashlib.sha256()
        h.update(tr.states.tobytes())
        h.update(tr.sens.tobytes())
        h.update(repr([tr.stats[k] for k in (*WORK, "accepted")]).encode())
        h.update(float(tr.stats["h_last"]).hex().encode())
        assert h.hexdigest() == digest


@needs_compiler
def test_compiled_segment_returns_arrays_of_its_own(params, layout,
                                                    nominal_steady):
    # a compiled horizon reports the states and d y / d moves at every
    # interval bound: row 0 is the problem's start and zero, a move's
    # columns are zero until its interval begins, and the caller owns the
    # arrays (writing into them leaves the problem as it was).  Without
    # sensitivities the states are the same.  Its sensitivities start at
    # zero, so a problem with a start for them is refused, and the
    # relaxation integrates one interval without sensitivities
    hybrid = HybridPrediction(_default_hybrid(params, layout), 0.357)
    for horizon, x0 in (
            (_native.FullHorizon(FullPrediction(params, 0.357), SPEC_LOOSE),
             nominal_steady),
            (_native.HybridHorizon(hybrid, SPEC_LOOSE),
             layout.state_from_plant(nominal_steady))):
        y0 = np.append(x0, 0.0)
        p = np.array([NOMINAL_L, 1.1 * NOMINAL_L, NOMINAL_V, NOMINAL_V])
        grid = np.array([0.0, 60.0, 120.0])
        problem = IvpProblem(rhs=None, initial_state=y0.copy(),
                             time_grid=grid.copy(), parameter_vector=p.copy(),
                             rel_tol=SPEC_LOOSE.integration_rtol,
                             abs_tol=SPEC_LOOSE.integration_atol)
        tr = horizon(problem, True)
        assert tr.states.shape == (3, y0.size)
        assert tr.sens.shape == (3, y0.size, 4)
        assert tr.states[0].tobytes() == y0.tobytes()
        assert not tr.sens[0].any()
        assert not tr.sens[1][:, [1, 3]].any()
        assert tr.sens[1][:, [0, 2]].any() and tr.sens[2][:, [1, 3]].any()
        assert tr.t.tobytes() == grid.tobytes()
        assert tr.stats["steps"] > 0
        states = tr.states.tobytes()
        tr.states[...] = tr.sens[...] = tr.t[...] = np.nan
        for got, start in ((problem.initial_state, y0),
                           (problem.parameter_vector, p),
                           (problem.time_grid, grid)):
            assert got.tobytes() == start.tobytes()
        tr = horizon(problem, False)
        assert tr.sens is None and tr.states.tobytes() == states
        problem.initial_sensitivities = np.zeros((y0.size, 4))
        with pytest.raises(ValueError, match="start at zero"):
            horizon(problem, True)
    u = ColumnInputs(NOMINAL_L, NOMINAL_V, params.feed_flow, 0.35)
    relaxation = _native.FullRelaxation(u, params)
    for grid, with_sens in (([0.0, 1.0, 2.0], False), ([0.0, 1.0], True)):
        problem = IvpProblem(rhs=None, initial_state=nominal_steady,
                             time_grid=np.array(grid))
        with pytest.raises(ValueError, match="one interval"):
            relaxation(problem, with_sens)


def _record_problems(monkeypatch, max_steps=None):
    """Record the trajectory or the IntegrationError of every problem at
    the call-time entry point; optionally cap the steps."""
    seen = []
    run = ocp.integrate_with_sensitivities

    def recorded(problem):
        if max_steps is not None:
            problem.max_steps = max_steps
        try:
            tr = run(problem)
        except IntegrationError as exc:
            seen.append(exc)
            raise
        seen.append(tr)
        return tr
    monkeypatch.setattr(ocp, "integrate_with_sensitivities", recorded)
    return seen


def _evaluation(seen, n_moves):
    """One evaluation's problems ``seen`` (``_record_problems``) as one
    horizon: the states and d y / d moves (in the moves' order, zero for
    moves not yet active) at every interval bound, as bytes, or the
    error's message and time; and the counters summed, with the last
    h_last.  ``seen`` is the compiled path's one horizon or the numpy
    loop's segments, one per interval; both give the same record."""
    stats = [getattr(r, "stats", None) for r in seen]
    summed = {k: sum(st[k] for st in stats) for k in (*WORK, "accepted")}
    summed["h_last"] = stats[-1]["h_last"]
    if isinstance(seen[-1], IntegrationError):
        return str(seen[-1]), float(seen[-1].t).hex(), summed
    if seen[0].t.size > 2 or len(seen) == 1:
        return seen[0].states.tobytes(), seen[0].sens.tobytes(), summed
    states = np.array([seen[0].states[0], *(tr.states[-1] for tr in seen)])
    sens = np.zeros((len(seen) + 1, states.shape[1], 2 * n_moves))
    for i, tr in enumerate(seen):
        S = tr.sens[-1]
        k = S.shape[1] // 2
        sens[i + 1, :, :k] = S[:, 0::2]
        sens[i + 1, :, n_moves:n_moves + k] = S[:, 1::2]
    return states.tobytes(), sens.tobytes(), summed


def _random_layout(params, rng):
    """A layout of 3-8 aggregation stages: reboiler, feed, condenser and
    random others."""
    others = [s for s in range(2, params.n_total) if s != params.feed_stage]
    extra = rng.choice(others, size=int(rng.integers(0, 6)), replace=False)
    return AggregationLayout.from_params(
        params, [1, params.feed_stage, params.n_total, *extra.tolist()])


@needs_compiler
def test_compiled_hybrid_segment_bitwise_equal_numpy_loop(params,
                                                          monkeypatch):
    # random layouts (3-8 states), packed nets (1-30 hidden units, loose and
    # saturating weights, clamping sections, two eps), start states and
    # moves, with a step cap: the states and sensitivities at every
    # interval bound, the summed counters and h_last, every raised error
    # with its time, phi, the gradient and the clamp count are
    # byte-identical on the compiled horizon and the numpy segments
    spec = OcpSpec(horizon_control=120.0, horizon_prediction=180.0,
                   n_intervals=2, sampling_time=60.0,
                   integration_rtol=1e-5, integration_atol=1e-8)
    seen = _record_problems(monkeypatch, max_steps=60)
    rng = np.random.default_rng(2108)
    kinds = set()
    for case in range(40):
        layout = _random_layout(params, rng)
        n = len(layout.agg_stages)
        hm = HybridModel(params, layout, _surrogates(
            rng, n - 1, hidden=(1, 31), scale=float(rng.choice([0.3, 2.0])),
            eps=float(rng.choice([1e-9, 1e-2])), saturate=0.3))
        z0 = np.sort(rng.uniform(0.02, 0.98, n))
        moves = ControlMoves(rng.uniform(1.5, 3.0, 2), rng.uniform(2.0, 3.5, 2))
        x_F = float(rng.uniform(0.25, 0.4))
        results = []
        for numpy_loop in (False, True):
            seen.clear()
            model = HybridPrediction(hm, x_F)
            try:
                phi, grad = _shoot(z0, model, spec, moves, numpy_loop)[:2]
                out = (repr(phi), grad.tobytes())
            except IntegrationError:
                out = ("raised",)
            results.append((out, _evaluation(seen, 2), model.clamp_count))
        assert results[0] == results[1], case
        kinds.add(results[0][0][0] == "raised")
        kinds.add(("clamped", results[0][2] > 0))
    # both outcomes and clamping sections were exercised
    assert kinds >= {True, False, ("clamped", True)}


@needs_compiler
def test_zero_divisor_raises_as_python_does(params, layout):
    # alpha = 2 and a state of exactly -1 zero the equilibrium denominator:
    # the packed kernel raises ZeroDivisionError, and so does the core
    hm = _default_hybrid(params, layout)
    z = np.array([-1.0, 0.2, 0.4, 0.6, 0.9])
    moves = ControlMoves.constant(NOMINAL_L, NOMINAL_V, 3)
    for numpy_loop in (False, True):
        with pytest.raises(ZeroDivisionError):
            _shoot(z, HybridPrediction(hm, 0.3), SPEC_LOOSE, moves, numpy_loop)


@needs_compiler
def test_clamp_count_equal_on_both_paths(params, layout):
    # section 0 always saturates, so every kernel call adds clamp flags; a
    # solve counts the same flags on the compiled and the numpy path
    rng = np.random.default_rng(11)
    sc = ScalingSpec(r_lo=0.3, r_hi=4.0)
    extreme = SurrogateModel(0, np.zeros((1, 3)), np.zeros(1), np.zeros(1),
                             40.0, sc)
    models = [extreme] + [SurrogateModel.new_random(k, rng, scaling=sc)
                          for k in range(1, 4)]
    hm = HybridModel(params, layout, models)
    z0 = np.sort(rng.uniform(0.1, 0.9, 5))
    warm = ControlMoves.constant(2.2, 2.6, 3)
    spec = OcpSpec(horizon_control=180.0, horizon_prediction=360.0,
                   n_intervals=3, integration_rtol=1e-6,
                   max_iterations=1, max_evaluations=2)
    sols = []
    for numpy_loop in (False, True):
        lib = _native.LIB
        if numpy_loop:
            _native.LIB = None
        try:
            sols.append(solve_ocp(z0, HybridPrediction(hm, 0.32), spec, warm))
        finally:
            _native.LIB = lib
    compiled, reference = sols
    assert compiled.n_clamped > 0
    for name in ("objective", "grad_norm", "iterations", "n_evaluations",
                 "status", "n_clamped", "integrator"):
        assert getattr(compiled, name) == getattr(reference, name), name
    assert compiled.moves.as_vector().tobytes() \
        == reference.moves.as_vector().tobytes()


# ---------------------------------------------------------------------------
# steady states
# ---------------------------------------------------------------------------

# The benchmark's offline design point whose continuation, from the
# nominal steady state, stops unconverged at its fixed point (2
# continuations and 9 Jacobians in BENCH_steady_state.json), so that the
# solve relaxes.
RELAXATION_POINT = (2.238631485146057, 2.4678819673676182,
                    0.35225670939428416)


def _outcome(solve, numpy_code, monkeypatch):
    """solve() on the compiled or the numpy code: its result as bytes, or
    its error's type, arguments and attributes."""
    with monkeypatch.context() as patch:
        if numpy_code:
            patch.setattr(_native, "LIB", None)
        try:
            with np.errstate(all="ignore"):
                out = solve()
        except Exception as exc:  # any error: compared across the paths
            return type(exc), exc.args, repr(vars(exc))
    return out.tobytes()


@needs_compiler
def test_compiled_chain_solve_bitwise_equal_numpy_code():
    # 400 random sections (1-40 trays, boundary compositions of 0 and 1
    # among them, alpha from 1), each with the default budget, one or three
    # Newton iterations, or a tolerance below rounding: the tray
    # compositions, the iterations and the residual are byte-identical,
    # and the loop ended every way it can
    rng = np.random.default_rng(1018)
    seen = set()
    budgets = [(1e-12, 60), (1e-12, 1), (1e-12, 3), (1e-300, 8)]
    for case in range(400):
        m = int(rng.choice([1, 2, rng.integers(1, 41)]))
        x_up = float(rng.choice([0.0, 1.0, rng.uniform()]))
        y_lo = float(rng.choice([0.0, 1.0, rng.uniform()]))
        r = float(rng.uniform(0.1, 5.0))
        alpha = float(rng.choice([1.0, rng.uniform(1.0, 4.0)]))
        tol, max_iter = budgets[case % 4]
        args = (x_up, y_lo, r, m, alpha, tol, max_iter)
        ref = kernels.section_chain_solve(*args)
        got = _native.section_chain_solve(*args)
        assert got[0].tobytes() == ref[0].tobytes(), case
        assert got[1] == ref[1], case
        assert float(got[2]).hex() == float(ref[2]).hex(), case
        seen.add((m == 1, x_up in (0.0, 1.0)))
        if ref[2] <= tol:
            seen.add("converged")
            continue
        seen.add("budget")
        # an accepted iterate whose residual is not below the one before
        # comes from the backtracking exit at lam < 1e-8
        before = kernels.section_chain_solve(*args[:-1], ref[1] - 1)[2]
        if ref[2] >= before:
            seen.add("backtracking exit")
    assert seen >= {"converged", "budget", "backtracking exit",
                    (True, True), (False, True), (False, False)}


@needs_compiler
def test_section_solve_error_equal_on_both_paths(monkeypatch):
    # a budget of one Newton iteration leaves the residual above tol: the
    # same SectionSolveError, with the same iterations and residual
    errors = []
    for numpy_code in (False, True):
        with monkeypatch.context() as patch:
            if numpy_code:
                patch.setattr(_native, "LIB", None)
            with pytest.raises(SectionSolveError) as info:
                column._section_profile(0.95, 0.3, 1.4, 20, 2.0, 1e-12, 1)
        errors.append((str(info.value), info.value.iterations,
                       float(info.value.residual).hex()))
    assert errors[0] == errors[1]
    assert errors[0][1] == 1


@needs_compiler
def test_compiled_steady_state_bitwise_equal_numpy_code(params,
                                                        nominal_steady,
                                                        monkeypatch):
    # eight admissible inputs of the benchmark's design box, each from the
    # flat start and from the nominal steady state, then the design point
    # whose continuation stalls from the nominal steady state: the states
    # are byte-identical, and each solve relaxes as often on the compiled
    # segment as on the numpy loop (that point once)
    relaxations = []
    run = column.integrate
    monkeypatch.setattr(column, "integrate", lambda problem: relaxations
                        .append(type(problem.compiled)) or run(problem))
    rng = np.random.default_rng(1219)
    points = []
    while len(points) < 8:
        L, V = rng.uniform(1.0, 5.0), rng.uniform(2.0, 6.0)
        if params.is_admissible(L, V, margin=0.02):
            points.append((L, V, rng.uniform(0.30, 0.37), None))
    points += [(L, V, x_F, nominal_steady) for L, V, x_F, _ in points]
    points.append((*RELAXATION_POINT, nominal_steady))
    for L, V, x_F, init in points:
        u = ColumnInputs(L, V, params.feed_flow, x_F)
        relaxations.clear()
        got, ref = (_outcome(lambda: steady_state_solve(u, params, init),
                             numpy_code, monkeypatch)
                    for numpy_code in (False, True))
        assert isinstance(got, bytes) and got == ref
        k = len(relaxations) // 2
        assert relaxations == [_native.FullRelaxation] * k \
            + [type(None)] * k
    assert k == 1


@needs_compiler
def test_steady_state_errors_equal_on_both_paths(monkeypatch):
    # a start of the wrong length, a NaN in the start, flows so large
    # that the rhs overflows and the next iterate is NaN: the same
    # ValueError; a tolerance below rounding: the same SteadyStateError
    # after both relaxations
    p = ColumnParams(n_total=6, feed_stage=3)
    u = ColumnInputs(2.0, 2.5, p.feed_flow, 0.4)
    huge = ColumnInputs(1e308, 1e308, p.feed_flow, 0.5)
    start = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    cases = [(u, dict(init=[0.1, 0.3]), ValueError),
             (u, dict(init=[0.1, np.nan] + start[2:]), ValueError),
             (huge, dict(init=start), ValueError),
             (u, dict(tol=1e-30), SteadyStateError)]
    for u, kwargs, error in cases:
        got, ref = (_outcome(lambda: steady_state_solve(u, p, **kwargs),
                             numpy_code, monkeypatch)
                    for numpy_code in (False, True))
        assert got == ref
        assert got[0] is error, got


@needs_compiler
def test_singular_continuation_step_on_both_paths(monkeypatch):
    # n = 3, V = 0 and L + F = -1 make J[0, 0] = 0.1 = 1 / dt0 and the
    # first column of I/dt0 - J zero: the first solve is singular (numpy's
    # LinAlgError), dt is cut and the loop goes on; both paths take that
    # branch and end on the same bits
    p = ColumnParams(n_total=3, feed_stage=2)
    u = ColumnInputs(-2.0, 0.0, p.feed_flow, 0.5)
    x0 = np.array([0.4, 0.45, 0.5])
    singular = []
    solve = np.linalg.solve

    def counted(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            singular.append(1)
            raise
    monkeypatch.setattr(np.linalg, "solve", counted)
    ref = column._ptc_steady(lambda x: full_rhs(x, u, p),
                             lambda x: full_state_jacobian(x, u, p), x0,
                             1e-10)
    assert len(singular) >= 1
    got = _native.full_steady(x0, u, p, 1e-10, column._PTC_DT0,
                              column._PTC_MAX_ITER)
    assert got[0].tobytes() == ref[0].tobytes() and got[1] == ref[1]


@needs_compiler
def test_continuation_stops_at_its_fixed_point(params, nominal_steady):
    # at RELAXATION_POINT from the nominal steady state, the 8th iteration
    # puts stage 29 on 1.0 with a step pointing out of [0, 1]; from the
    # 9th on lam = 0 and every iteration repeats the last.  The numpy
    # loop stops there (at most 10 Jacobians, not 500), unconverged, on
    # the bits 8 iterations give, and the compiled loop gives the same
    u = ColumnInputs(RELAXATION_POINT[0], RELAXATION_POINT[1],
                     params.feed_flow, RELAXATION_POINT[2])
    jacobians = []
    fun = lambda x: full_rhs(x, u, params)
    jac = lambda x: jacobians.append(1) or full_state_jacobian(x, u, params)
    ref = column._ptc_steady(fun, jac, nominal_steady, 1e-10)
    assert len(jacobians) <= 10 and not ref[1]
    assert ref[0][28] == 1.0
    eight = column._ptc_steady(fun, jac, nominal_steady, 1e-10, max_iter=8)
    assert eight[0].tobytes() == ref[0].tobytes() and not eight[1]
    for max_iter in (8, column._PTC_MAX_ITER):
        got = _native.full_steady(nominal_steady, u, params, 1e-10,
                                  column._PTC_DT0, max_iter)
        assert got[0].tobytes() == ref[0].tobytes() and got[1] == ref[1]


@needs_compiler
def test_continuation_reuses_the_jacobian_at_an_unchanged_iterate(
        params, nominal_steady, monkeypatch):
    # after the feed step to x_F = 0.357 the continuation from the nominal
    # steady state rejects trials (fnt > 2 fn), each of which changes only
    # dt: the next iteration reuses the Jacobian at the same iterate, so
    # 13 Jacobians, one per iterate, serve 17 solves.  A loop that
    # evaluated one per iteration (17) gave the same bytes (the digest),
    # and the compiled loop gives them too
    u = ColumnInputs(NOMINAL_L, NOMINAL_V, params.feed_flow, 0.357)
    fun = lambda x: full_rhs(x, u, params)
    seen, solves = [], []
    jac = lambda x: seen.append(x.tobytes()) \
        or full_state_jacobian(x, u, params)
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: solves.append(1) or solve(a, b))
    x, ok = column._ptc_steady(fun, jac, nominal_steady, 1e-10)
    monkeypatch.setattr(np.linalg, "solve", solve)
    assert ok and len(solves) == 17
    assert len(seen) == len(set(seen)) == 13
    assert hashlib.sha256(x.tobytes()).hexdigest() == (
        "da60c58b31b21338416ebce952c66d015aef08716525237e5039e456ad6f18a3")
    got = _native.full_steady(nominal_steady, u, params, 1e-10,
                              column._PTC_DT0, column._PTC_MAX_ITER)
    assert got[0].tobytes() == x.tobytes() and got[1]

    # a Jacobian that raises LinAlgError is not reused: dt is cut to a
    # quarter and the Jacobian evaluated again, at the same iterate, so
    # the loop is the one started with dt0 / 4 (one iteration fewer)
    raised = []

    def singular_once(z):
        if not raised:
            raised.append(1)
            raise np.linalg.LinAlgError("singular")
        return jac(z)
    seen.clear()
    once = column._ptc_steady(fun, singular_once, nominal_steady, 1e-10)
    assert seen[0] == np.clip(nominal_steady, 0.0, 1.0).tobytes()
    quarter = column._ptc_steady(
        fun, jac, nominal_steady, 1e-10, dt0=column._PTC_DT0 / 4,
        max_iter=column._PTC_MAX_ITER - 1)
    assert once[0].tobytes() == quarter[0].tobytes() and once[1]


@needs_compiler
def test_steady_state_bench_compares_backends(monkeypatch):
    # bench/steady_state.py's comparison, one round of the C core against
    # the numpy code: it checks the states' bytes itself (and exits when
    # they differ), and its record keeps its keys and the pinned counters
    bench = _bench("steady_state")
    assert bench.RELAXATION_POINT == RELAXATION_POINT
    monkeypatch.setattr(bench, "ROUNDS", 1)
    record = bench.measure(bench.harness.backends())
    assert set(record) == {"points", "work", "ms_per_solve_min",
                           "us_outside_core_per_solve_min",
                           "us_per_from_params_min", "rounds", "host"}
    assert set(record["points"]) == {"relaxation", "nominal", "oracle"}
    assert record["work"] == {
        "relaxation": {"continuations": 2, "jacobians": 9, "solves": 9,
                       "relaxations": 1},
        "nominal": {"continuations": 1, "jacobians": 22, "solves": 24,
                    "relaxations": 0}}
    assert record["rounds"] == {"c": 1, "numpy": 1}
    assert all(0.0 < t < np.inf for times in
               record["ms_per_solve_min"].values() for t in times.values())
    # the time outside the core is the core's alone, and below the solve's
    outside = record["us_outside_core_per_solve_min"]
    assert set(outside) == set(record["points"])
    for point, times in outside.items():
        assert set(times) == {"c"}
        assert 0.0 < times["c"] < 1e3 * record["ms_per_solve_min"][point]["c"]
    assert set(record["us_per_from_params_min"]) == {"c", "numpy"}
    assert all(0.0 < t < np.inf
               for t in record["us_per_from_params_min"].values())


@needs_compiler
def test_steady_states_reject_bad_tol_before_any_work(params, layout,
                                                      nominal_u, monkeypatch):
    # a NaN or non-positive tol used to run every continuation (and both
    # relaxations) before a SteadyStateError; now both paths raise the
    # same ValueError before any continuation starts
    def no_work(*args):
        raise AssertionError("a continuation ran")
    monkeypatch.setattr(column, "_ptc_steady", no_work)
    monkeypatch.setattr(_native, "full_steady", no_work)
    monkeypatch.setattr(_native, "oracle_steady", no_work)
    hm = oracle_hybrid(params, layout)
    for tol in (np.nan, 0.0, -1e-10):
        for solve in (lambda: steady_state_solve(nominal_u, params, tol=tol),
                      lambda: hybrid_steady_state(hm, nominal_u, tol=tol)):
            got, ref = (_outcome(solve, numpy_code, monkeypatch)
                        for numpy_code in (False, True))
            assert got == ref and got[0] is ValueError, got


@needs_compiler
def test_relaxation_segment_built_when_a_relaxation_starts(params, nominal_u,
                                                           nominal_steady,
                                                           monkeypatch):
    # a converged continuation builds no FullRelaxation; the solve at
    # RELAXATION_POINT relaxes once and builds one
    built = []
    relaxation = _native.FullRelaxation
    monkeypatch.setattr(_native, "FullRelaxation",
                        lambda *args: built.append(1) or relaxation(*args))
    steady_state_solve(nominal_u, params, init=nominal_steady)
    assert built == []
    u = ColumnInputs(RELAXATION_POINT[0], RELAXATION_POINT[1],
                     params.feed_flow, RELAXATION_POINT[2])
    steady_state_solve(u, params, init=nominal_steady)
    assert built == [1]


# A design input of the default column whose continuation from the flat
# start stops unconverged, so that the solve relaxes once
FLAT_RELAXATION_POINT = (3.5178861356698157, 3.771559422738851,
                         0.33607868819313313)
FLAT_RELAXATION = (ColumnParams(),
                   ColumnInputs(FLAT_RELAXATION_POINT[0],
                                FLAT_RELAXATION_POINT[1], 1.0,
                                FLAT_RELAXATION_POINT[2]), None)


@st.composite
def _random_columns(draw):
    """(column, inputs, start) of a random column: 3 to 60 stages, any feed
    stage and holdups, admissible inputs, and the flat start (None) or one
    perturbed from it, outside [0, 1] in places."""
    n = draw(st.integers(3, 60))
    holdup = st.floats(0.05, 20.0)
    p = ColumnParams(n_total=n, feed_stage=draw(st.integers(2, n - 1)),
                     tray_holdup=draw(holdup), reboiler_holdup=draw(holdup),
                     condenser_holdup=draw(holdup))
    # L from the part of bounds_L that admits a V, then V from the part of
    # bounds_V where D = V - L and B = F + L - V are both at least 0.03
    # (F = 1), so that the guard below almost never rejects a draw
    (lo_L, hi_L), (lo_V, hi_V) = p.bounds_L, p.bounds_V
    L = draw(st.floats(max(lo_L, lo_V - 0.97), min(hi_L, hi_V - 0.03)))
    V_lo = max(lo_V, L + 0.03)
    V = draw(st.floats(V_lo, max(V_lo, min(hi_V, L + 0.97))))
    assume(p.is_admissible(L, V, margin=0.02))
    u = ColumnInputs(L, V, p.feed_flow, draw(st.floats(0.05, 0.95)))
    noise = draw(st.none() | st.lists(st.floats(-0.6, 0.6), min_size=n,
                                      max_size=n))
    return p, u, None if noise is None else u.x_F + np.array(noise)


def _relaxed(problem):
    """(end state as bytes, stats) of integrate(problem), or the error's
    type and arguments."""
    try:
        tr = integrate(problem)
    except IntegrationError as exc:
        return type(exc), exc.args
    return tr.states[-1].tobytes(), tr.stats


@needs_compiler
@settings(max_examples=30, deadline=None)
@example(FLAT_RELAXATION)
@given(_random_columns())
def test_full_steady_paths_bitwise_equal_numpy_code_on_random_columns(case):
    # on random columns, the compiled continuation, the compiled relaxation
    # (the solve's first: 1e5 s from the clipped start) and the whole solve
    # are byte-identical to _ptc_steady, the numpy integrator loop and the
    # numpy solve, and the solve relaxes as often on both; the explicit
    # example's solve relaxes
    p, u, init = case
    x0 = np.full(p.n_total, u.x_F) if init is None else init
    fun = lambda x: full_rhs(x, u, p)
    jac = lambda x: full_state_jacobian(x, u, p)
    with np.errstate(all="ignore"):
        ref = column._ptc_steady(fun, jac, x0, 1e-10)
    got = _native.full_steady(x0, u, p, 1e-10, column._PTC_DT0,
                              column._PTC_MAX_ITER)
    assert got[0].tobytes() == ref[0].tobytes() and got[1] == ref[1]

    problem = IvpProblem(rhs=lambda t, y, q: fun(y),
                         state_jacobian=lambda t, y, q: jac(y),
                         initial_state=np.clip(x0, 0.0, 1.0),
                         time_grid=np.array([0.0, 1e5]), rel_tol=1e-7,
                         abs_tol=1e-12)
    ref = _relaxed(problem)
    problem.compiled = _native.FullRelaxation(u, p)
    assert _relaxed(problem) == ref

    outcomes, relaxations = [], []
    run = column.integrate
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(column, "integrate", lambda problem: relaxations
                      .append(1) or run(problem))
        for numpy_code in (False, True):
            relaxations.clear()
            outcomes.append((_outcome(lambda: steady_state_solve(u, p, init),
                                      numpy_code, patch), len(relaxations)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] or case is not FLAT_RELAXATION


# ---------------------------------------------------------------------------
# oracle hybrid steady states
# ---------------------------------------------------------------------------

# the default layout with stage 20 added: a section without trays
ZERO_TRAY_LAYOUT = [1, 14, 20, 21, 28, 42]


def _count_evaluations(monkeypatch):
    """Calls of HybridModel.evaluate, the numpy loop's model."""
    calls = []
    evaluate = HybridModel.evaluate
    monkeypatch.setattr(HybridModel, "evaluate",
                        lambda *a: calls.append(1) or evaluate(*a))
    return calls


@needs_compiler
def test_compiled_oracle_steady_state_bitwise_equal_numpy_code(
        params, nominal_steady, monkeypatch):
    # the default layout (the benchmark's alpha = 2), the other layouts and
    # one with an empty section (random alpha); per layout an admissible
    # input of the benchmark's design box, from the flat start, the
    # aggregated nominal steady state and a start perturbed in logit
    # space, with oracle tols of 1e-12 and 1e-10 (one mix per section
    # too): the states, or the errors where the solve fails, are
    # byte-identical, each solve relaxes alike on both paths, and the
    # compiled solve calls HybridModel.evaluate only inside a relaxation
    evaluations = _count_evaluations(monkeypatch)
    relaxations = []  # the evaluations inside each relaxation
    run = column.integrate

    def relax(problem):
        before = len(evaluations)
        try:
            return run(problem)
        finally:
            relaxations.append(len(evaluations) - before)

    monkeypatch.setattr(column, "integrate", relax)
    rng = np.random.default_rng(1319)
    outcomes = set()
    for stages in (None, *OTHER_LAYOUTS, ZERO_TRAY_LAYOUT):
        p = params if stages is None \
            else ColumnParams(alpha=float(rng.uniform(1.5, 3.0)))
        layout = AggregationLayout.from_params(p, stages)
        k = len(layout.sections)
        x_agg = layout.state_from_plant(nominal_steady)
        logit = np.log(x_agg / (1.0 - x_agg))
        L, V = rng.uniform(1.0, 5.0), rng.uniform(2.0, 6.0)
        while not p.is_admissible(L, V, margin=0.02):
            L, V = rng.uniform(1.0, 5.0), rng.uniform(2.0, 6.0)
        u = ColumnInputs(L, V, p.feed_flow, rng.uniform(0.30, 0.37))
        perturbed = 1.0 / (1.0 + np.exp(
            -(logit + rng.normal(0.0, 0.5, logit.size))))
        mixed = rng.choice([1e-12, 1e-10], k).tolist()
        starts = {"flat": (None, [1e-12] * k),
                  "nominal": (x_agg, [1e-10] * k),
                  "perturbed": (perturbed, mixed)}
        for start, (init, tols) in starts.items():
            hm = HybridModel(p, layout, [
                SectionOracle(s, p.alpha, tol)
                for s, tol in zip(layout.sections, tols)])
            results, counts, relaxed = [], [], []
            for numpy_code in (False, True):
                evaluations.clear()
                relaxations.clear()
                results.append(_outcome(
                    lambda: hybrid_steady_state(hm, u, init), numpy_code,
                    monkeypatch))
                counts.append(len(evaluations))
                relaxed.append(list(relaxations))
            got, ref = results
            assert got == ref, (stages, start)
            assert relaxed[0] == relaxed[1], (stages, start)
            assert counts[0] == sum(relaxed[0]) and counts[1] > counts[0]
            outcomes.add((start, isinstance(got, bytes), bool(relaxed[0])))
            if not isinstance(got, bytes):
                assert got[0] is SteadyStateError
    # every start converged without a relaxation somewhere, and a
    # flat-start continuation failed and converged after a relaxation
    # (alike on both paths)
    assert outcomes >= {("flat", True, False), ("nominal", True, False),
                        ("perturbed", True, False), ("flat", True, True)}


# Oracle steady states whose first continuation stalls, from the flat
# start or from the aggregated nominal steady state: (layout,
# (L, V, x_F), start).  Each converges after a relaxation.
STALLING_ORACLE_STARTS = [
    ([1, 21, 30, 35, 42], (3.724, 4.042, 0.359), "flat"),
    ([1, 7, 14, 21, 42], (3.663, 4.053, 0.334), "flat"),
    ([1, 7, 14, 21, 42], (4.337, 4.898, 0.313), "flat"),
    ([1, 10, 21, 42], (3.691, 4.111, 0.311), "flat"),
    ([1, 21, 30, 35, 42], (3.724, 4.042, 0.359), "nominal")]


@needs_compiler
@pytest.mark.parametrize("stages, inputs, start", STALLING_ORACLE_STARTS)
def test_stalled_oracle_continuation_relaxes_and_converges(
        params, nominal_steady, stages, inputs, start, monkeypatch):
    # the first continuation stalls; the relaxation retries that the
    # full-order solve makes find the oracle hybrid's steady state, the
    # aggregated full-order one, byte-identical on both paths
    layout = AggregationLayout.from_params(params, stages)
    u = ColumnInputs(inputs[0], inputs[1], params.feed_flow, inputs[2])
    hm = oracle_hybrid(params, layout)
    init = None if start == "flat" else layout.state_from_plant(nominal_steady)
    relaxations = []
    run = column.integrate
    monkeypatch.setattr(column, "integrate", lambda problem: relaxations
                        .append(1) or run(problem))
    outcomes = []
    for numpy_code in (False, True):
        relaxations.clear()
        outcomes.append((_outcome(lambda: hybrid_steady_state(hm, u, init),
                                  numpy_code, monkeypatch),
                         len(relaxations)))
    (got, relaxed), ref = outcomes
    assert isinstance(got, bytes) and (got, relaxed) == ref and relaxed > 0
    exact = layout.state_from_plant(steady_state_solve(u, params))
    assert np.max(np.abs(np.frombuffer(got) - exact)) < 1e-8


@needs_compiler
def test_oracle_steady_state_errors_equal_on_both_paths(monkeypatch):
    # a start of the wrong length, a NaN in the start, V = 0, an oracle
    # tol below rounding and a continuation tol below rounding: the same
    # error type, arguments and attributes
    p = ColumnParams(n_total=8, feed_stage=4)
    layout = AggregationLayout.from_params(p, [1, 4, 8])
    u = ColumnInputs(2.0, 2.5, p.feed_flow, 0.4)
    no_vapor = ColumnInputs(2.0, 0.0, p.feed_flow, 0.4)
    cases = [(u, 1e-12, dict(init=[0.1, 0.3]), ValueError),
             (u, 1e-12, dict(init=[0.1, np.nan, 0.3]), ModelDomainError),
             (no_vapor, 1e-12, {}, ZeroDivisionError),
             (u, 1e-30, {}, SectionSolveError),
             (u, 1e-12, dict(tol=1e-30), SteadyStateError)]
    for u, oracle_tol, kwargs, error in cases:
        hm = oracle_hybrid(p, layout, tol=oracle_tol)
        got, ref = (_outcome(lambda: hybrid_steady_state(hm, u, **kwargs),
                             numpy_code, monkeypatch)
                    for numpy_code in (False, True))
        assert got == ref
        assert got[0] is error, got


@needs_compiler
@pytest.mark.parametrize("stages", OTHER_LAYOUTS)
def test_oracle_sections_bound_once_per_model(params, nominal_u,
                                              nominal_steady, stages,
                                              monkeypatch):
    # the layouts of test_hybrid_oracle_steady_state_any_layout: one
    # oracle model, made once, solved at the nominal inputs and two of the
    # benchmark's design box, from the aggregated nominal steady state and
    # the flat start, returns the bytes of a freshly made model and of the
    # numpy loop (or, where the continuation stalls, the same error); its
    # constants are bound when it is made, never again, and no solve
    # writes them.  An oracle tol below rounding raises the same
    # SectionSolveError, arguments and attributes, on all three.
    bound = []  # the models whose constants were bound, once each
    sections = _native.OracleSections
    monkeypatch.setattr(_native, "OracleSections",
                        lambda model: bound.append(model) or sections(model))
    layout = AggregationLayout.from_params(params, stages)
    x_agg = layout.state_from_plant(nominal_steady)
    inputs = [nominal_u, ColumnInputs(2.1, 2.45, params.feed_flow, 0.30),
              ColumnInputs(1.9, 2.2, params.feed_flow, 0.37)]
    for tol, error in ((1e-12, None), (1e-30, SectionSolveError)):
        hm = oracle_hybrid(params, layout, tol=tol)
        oracle = hm._oracle
        constants = [a.tobytes() for a in (*oracle._arrays, oracle._sec)]
        for u in inputs:
            for init in (x_agg, None):
                reused, fresh, ref = (_outcome(
                    lambda: hybrid_steady_state(model, u, init), numpy_code,
                    monkeypatch)
                    for model, numpy_code in (
                        (hm, False),
                        (oracle_hybrid(params, layout, tol=tol), False),
                        (hm, True)))
                assert reused == fresh == ref, (u, init is None)
                if error is not None:
                    assert reused[0] is error
                elif u is nominal_u:  # as the any-layout test finds it
                    assert isinstance(reused, bytes)
                else:  # a design input may stall, alike on every path
                    assert isinstance(reused, bytes) \
                        or reused[0] is SteadyStateError
        assert hm._oracle is oracle
        assert [a.tobytes() for a in (*oracle._arrays, oracle._sec)] \
            == constants
        assert sum(model is hm for model in bound) == 1


@needs_compiler
def test_core_binds_the_model_arrays(params, layout):
    # the horizons and the oracle sections bind the arrays the params and
    # the hybrid model made, at their own addresses: no copy is made
    full = _native.FullHorizon(FullPrediction(params, 0.32), SPEC_LOOSE)
    assert full._head[2] == params.holdups.ctypes.data
    hm = _default_hybrid(params, layout)
    net, off, hidden, r_lo, r_hi, _ = hm.packed
    horizon = _native.HybridHorizon(HybridPrediction(hm, 0.32),
                                    SPEC_LOOSE)
    owned = (hm._strip, off, hidden, net, r_lo, r_hi, hm.m_hold)
    assert horizon._head[2:9] == tuple(a.ctypes.data for a in owned)
    assert hm._strip.dtype == np.intc
    oracle = oracle_hybrid(params, layout)
    assert oracle._oracle._head[2:4] == (oracle._strip.ctypes.data,
                                         oracle.m_hold.ctypes.data)


def test_hybrid_steady_state_dispatch(params, layout, nominal_u,
                                      nominal_steady, monkeypatch):
    # only an oracle hybrid runs compiled; a packed (all-ANN) hybrid stays
    # on the numpy loop
    evaluations = _count_evaluations(monkeypatch)
    loops = []
    ptc = column._ptc_steady
    monkeypatch.setattr(column, "_ptc_steady",
                        lambda *a: loops.append(1) or ptc(*a))
    ann = _surrogates(np.random.default_rng(5), 4)
    z0 = layout.state_from_plant(nominal_steady)
    for models, compiled in ((oracle_hybrid(params, layout).section_models,
                              _native.LIB is not None), (ann, False)):
        loops.clear()
        evaluations.clear()
        try:
            hybrid_steady_state(HybridModel(params, layout, models),
                                nominal_u, init=z0)
        except SteadyStateError:
            pass  # random nets need not have a steady state
        assert len(loops) == (0 if compiled else 1)
        assert (len(evaluations) == 0) == compiled


# ---------------------------------------------------------------------------
# learner fits
# ---------------------------------------------------------------------------

def _net(w):
    h = (w.size - 1) // 5
    return SurrogateModel(0, np.zeros((h, 3)), np.zeros(h), np.zeros(h),
                          0.0, ScalingSpec()).with_weight_vector(w)


def _fit_problem(rng, scenario):
    """A random weighted problem (Z, targets, wn) for a net of ``h`` nodes
    and the net's start ``w``: plain problems, duplicate points, mixed
    zero weights, saturating input weights, huge output weights
    (non-finite trials) and noisy teacher outputs (scenarios 0-7)."""
    teach = scenario >= 5
    n = int(rng.integers(5, 61) if teach
            else rng.choice([1, 2, 3, rng.integers(4, 201)]))
    Z = rng.uniform(-2.0, 2.0, (n, 3))
    if scenario == 1:            # J.T @ J rank deficient
        Z = Z[rng.integers(0, min(2, n), n)]
    w = rng.uniform(0.0, 1.0, n)
    if scenario == 2:
        w[rng.random(n) < 0.5] = 0.0
        w[0] = 1.0
    wn = w / w.sum()
    target = rng.standard_normal(n)
    h = int(rng.integers(1, 3 if teach else 31))
    x = 0.3 * rng.standard_normal(5 * h + 1)
    nodes = x[:5 * h].reshape(h, 5)
    if scenario == 3:
        nodes[:, :4] *= 100.0
    if scenario == 4:
        nodes[:, 4] = rng.choice([-1e200, 1e200], h)
    if teach:
        target = 0.1 * target + _net(
            0.5 * rng.standard_normal(x.size)).eval_scaled(Z)
    return Z, target, wn, x


def _fit_case(rng, case):
    """A random weighted fit of a net: its start, objective there,
    problem, budget and goal (``_fit_problem``'s scenarios in turn); of
    every 16, two have a zero budget and two start at the goal."""
    scenario = case % 8
    Z, target, wn, x = _fit_problem(rng, scenario)
    with np.errstate(all="ignore"):
        objective = learner._wmse(_net(x), Z, target, wn)
    max_steps = 200 if scenario >= 5 else int(rng.integers(1, 40))
    goal = 0.0 if scenario >= 5 else float(rng.choice([0.0, 1e-4]))
    if case % 16 in (0, 1):
        max_steps = 0
    if case % 16 in (8, 9):
        goal = objective
    return x, objective, Z, target, wn, max_steps, goal


@needs_compiler
def test_compiled_fits_bitwise_equal_numpy_loop(monkeypatch):
    # 48 random fits of all weights (1-200 points, 1-30 hidden units), some
    # with a narrow damping range: the parameters, the objective and the
    # accepted steps are byte-identical, and every way the loop ends and
    # every trial outcome was exercised
    rng = np.random.default_rng(1125)
    seen = set()
    for case in range(48):
        x, objective, Z, target, wn, max_steps, goal = _fit_case(rng, case)
        sw = np.sqrt(wn)
        damping = (0.1, 1e3) if case % 5 == 0 else (1e-3, 1e10)
        monkeypatch.setattr(learner, "LM_LAMBDA0", damping[0])
        monkeypatch.setattr(learner, "LM_LAMBDA_MAX", damping[1])
        linearize, try_step = learner._net_steps(Z, target, wn, sw)
        trials = []

        def counted(x, delta, try_step=try_step):
            trial, objective_t = try_step(x, delta)
            trials.append(objective_t)
            return trial, objective_t
        with np.errstate(all="ignore"):
            ref, ref_objective, ref_accepted = learner._levenberg_marquardt(
                (_net(x), x), objective, linearize, counted, max_steps, goal)
        got, got_start, got_objective, got_accepted = _native.fit_net(
            _native.FitProblem(Z, target, wn, sw), x, max_steps, goal,
            damping)
        assert got.tobytes() == ref[1].tobytes(), case
        # the core takes the start's objective itself
        assert got_start.hex() == float(objective).hex(), case
        assert got_objective.hex() == float(ref_objective).hex(), case
        assert got_accepted == ref_accepted, case
        seen.add("goal" if ref_objective <= goal else
                 "budget" if ref_accepted == max_steps else "overflow")
        seen.add(ref_accepted > 0)
        # trial outcomes; 24 accepted steps in a row take the damping from
        # 1e-3 to its floor, which the next trial uses
        run = 0
        for objective_t in trials:
            seen.add("finite trial" if np.isfinite(objective_t)
                     else "non-finite trial")
            if run >= 24:
                seen.add("damping floor")
            if np.isfinite(objective_t) and objective_t < objective:
                objective, run = objective_t, run + 1
            else:
                run = 0
    assert seen >= {"goal", "budget", "overflow", "finite trial",
                    "non-finite trial", "damping floor", True, False}


def _grow_both(monkeypatch, Z, target, wn, w, normals, max_steps, goal):
    """learner._grow_node on the core and on the numpy code, with every
    (max_steps, accepted steps, objective, result) of the numpy code's LM
    runs."""
    model = _net(w)
    prob = _native.FitProblem(Z, target, wn, np.sqrt(wn))
    with np.errstate(all="ignore"):
        got = learner._grow_node(model, prob, w, normals, max_steps, goal)
        runs = []
        lm = learner._levenberg_marquardt

        def counted(x, objective, linearize, try_step, steps, goal):
            out = lm(x, objective, linearize, try_step, steps, goal)
            runs.append((steps, out[2], out[1], out[0]))
            return out
        with monkeypatch.context() as patch:
            patch.setattr(_native, "LIB", None)
            patch.setattr(learner, "_levenberg_marquardt", counted)
            ref = learner._grow_node(model, prob, w, normals, max_steps, goal)
    return got, ref, runs


def _same_growth(got, ref):
    """The grown and fitted nets' bytes, the objective's and the accepted
    steps are equal."""
    return (got[0].tobytes() == ref[0].tobytes()
            and got[1].tobytes() == ref[1].tobytes()
            and got[2].hex() == float(ref[2]).hex() and got[3] == ref[3])


@needs_compiler
def test_compiled_growth_bitwise_equal_numpy_code(monkeypatch):
    # 48 random growths of a net by one node (1-200 points, 1-30 hidden
    # units; 1-6 starts of the node fit, some of them saturating), some
    # with a narrow damping range: the grown net, the fitted net, its
    # objective and accepted steps are byte-identical to the numpy code's,
    # the core reports one LM run per start and one for the fit, and the
    # node fits ended every way they can
    rng = np.random.default_rng(1223)
    seen = set()
    for case in range(48):
        Z, target, wn, w = _fit_problem(rng, case % 8)
        normals = rng.standard_normal((int(rng.integers(1, 7)), 4))
        if case % 3 == 0:
            normals *= 30.0
        max_steps = int(rng.integers(0, 40))
        goal = float(rng.choice([0.0, 1e-4]))
        damping = (0.1, 1e3) if case % 5 == 0 else (1e-3, 1e10)
        monkeypatch.setattr(learner, "LM_LAMBDA0", damping[0])
        monkeypatch.setattr(learner, "LM_LAMBDA_MAX", damping[1])
        got, ref, runs = _grow_both(monkeypatch, Z, target, wn, w, normals,
                                    max_steps, goal)
        assert _same_growth(got, ref), case
        with np.errstate(all="ignore"):
            calls = _native.grow_node(
                _native.FitProblem(Z, target, wn, np.sqrt(wn)), w, normals,
                learner.NODE_INIT_ITERATIONS, max_steps, goal, damping)
        assert calls[4] == len(runs) == len(normals) + 1, case
        for steps, accepted, objective, _ in runs[:-1]:
            seen.add("node goal" if objective <= 0.0 else
                     "node budget" if accepted == steps else
                     "node overflow")
            seen.add(("node", accepted > 0))
    assert seen >= {"node goal", "node budget", "node overflow",
                    ("node", True), ("node", False)}


@needs_compiler
def test_growth_keeps_the_first_least_start(monkeypatch):
    # the node fit keeps the first start of least objective, as Python's
    # min orders them: with a zero residual every start's objective is 0,
    # so the first start is kept; a NaN objective (an infinite start) is
    # kept when it comes first, since nothing compares below it, and
    # passed over otherwise; the core orders them alike
    rng = np.random.default_rng(7)
    Z = rng.uniform(-2.0, 2.0, (40, 3))
    wn = np.full(40, 1.0 / 40)
    w = 0.3 * rng.standard_normal(11)
    zero_residual = _net(w).eval_scaled(Z)
    normals = rng.standard_normal((4, 4))
    got, ref, runs = _grow_both(monkeypatch, Z, zero_residual, wn, w,
                                normals, 0, 0.0)
    assert _same_growth(got, ref)
    assert [run[2] for run in runs[:-1]] == [0.0] * 4
    assert got[0][-6:-1].tobytes() == np.append(
        0.3 * normals[0], 0.0).tobytes()
    target = rng.standard_normal(40)
    for nan_row in (0, 2):
        starts = normals.copy()
        starts[nan_row] = np.inf
        got, ref, runs = _grow_both(monkeypatch, Z, target, wn, w, starts,
                                    0, 0.0)
        assert _same_growth(got, ref), nan_row
        objectives = [run[2] for run in runs[:-1]]
        assert np.isnan(objectives[nan_row])
        kept = 0 if nan_row == 0 else int(np.nanargmin(objectives))
        assert got[0][-6:-1].tobytes() == runs[kept][3].tobytes(), nan_row


def _learner_outcome(config, goal_met):
    """The bytes of init_new_node's model and of grow_and_train's model,
    and every field of its report but the wall time, on a fixed weighted
    problem with new points."""
    rng = np.random.default_rng(31)
    sc = ScalingSpec(r_lo=0.3, r_hi=3.0)
    teacher = SurrogateModel.new_random(0, rng, hidden=5, scaling=sc)
    student = SurrogateModel.new_random(0, rng, hidden=2, scaling=sc)
    X = np.column_stack([rng.uniform(0.02, 0.98, 90),
                         rng.uniform(0.02, 0.98, 90),
                         rng.uniform(0.4, 2.5, 90)])
    y = teacher.eval_batch(X)
    w = rng.uniform(0.2, 1.0, 90)
    points = [learner.DataPoint(0.0, *X[i], y[i], w[i]) for i in range(90)]
    data = training_set_of(points[:20], points[20:])
    node = learner.init_new_node(student.add_node(), data, config,
                                 np.random.default_rng(2))
    model, report = learner.grow_and_train(student, data, config,
                                           np.random.default_rng(3))
    fields = vars(report).copy()
    del fields["wall_time"]
    assert fields["goal_met"] == goal_met and fields["nodes_added"] > 0
    return (node.as_weight_vector().tobytes(),
            model.as_weight_vector().tobytes(),
            {k: v.hex() if isinstance(v, float) else v
             for k, v in fields.items()})


@needs_compiler
@pytest.mark.parametrize("config, goal_met", [
    (learner.LearnerConfig(max_iterations=10, max_nodes=5), False),
    (learner.LearnerConfig(max_iterations=25, max_nodes=8), True)])
def test_learner_growth_bitwise_equal_on_both_paths(config, goal_met,
                                                    monkeypatch):
    # init_new_node, and grow_and_train growing to the node cap or to the
    # goal: byte-identical weights and the same report, but for its wall
    # time, on the core (one call per growth) and on the numpy code
    compiled = _learner_outcome(config, goal_met)
    monkeypatch.setattr(_native, "LIB", None)
    assert _learner_outcome(config, goal_met) == compiled


def _trained():
    """A model and report of grow_and_train on a fixed problem (two nodes
    grown)."""
    rng = np.random.default_rng(4)
    sc = ScalingSpec(r_lo=0.3, r_hi=3.0)
    teacher = SurrogateModel.new_random(0, rng, hidden=5, scaling=sc)
    X = np.column_stack([rng.uniform(0.02, 0.98, 80),
                         rng.uniform(0.02, 0.98, 80),
                         rng.uniform(0.4, 2.5, 80)])
    y = teacher.eval_batch(X)
    data = training_set_of([
        learner.DataPoint(0.0, *X[i], y[i], 1.0) for i in range(80)])
    model, report = learner.grow_and_train(
        SurrogateModel.new_random(0, rng, hidden=2, scaling=sc), data,
        learner.LearnerConfig(max_iterations=30, max_nodes=4),
        np.random.default_rng(5))
    return model.as_weight_vector().tobytes(), report.final_mse.hex(), \
        report.iterations, report.nodes_added


@needs_compiler
def test_adapt_cycle_bench_compares_backends(monkeypatch):
    # bench/adapt_cycle.py's comparison, one round of the C core against
    # the numpy loop: it checks the trained weights' bytes and the work
    # counters itself (and exits when they differ), and its record keeps
    # its keys and the pinned counters (one scaled problem per section's
    # training set, however many retrains and node fits; 67 LM runs on
    # every backend, in 13 compiled calls: one per section's first fit
    # and one per growth)
    bench = _bench("adapt_cycle")
    monkeypatch.setattr(bench, "ROUNDS", 1)
    record = bench.measure(bench.harness.backends())
    assert set(record) == {"cycle", "work", "compiled_calls",
                           "us_per_cycle_min", "us_in_fits_min", "rounds",
                           "host"}
    assert record["work"] == {"fits": 67, "lm_iterations": 633,
                              "nodes_added": 9, "scaled_problems": 4}
    assert record["compiled_calls"] == {"c": 13}
    assert record["rounds"] == {"c": 1, "numpy": 1}
    assert all(0.0 < t < np.inf
               for t in record["us_per_cycle_min"].values())
    assert list(record["us_in_fits_min"]) == ["c"]
    assert 0.0 < record["us_in_fits_min"]["c"] \
        < record["us_per_cycle_min"]["c"]


@needs_compiler
def test_benches_run_the_package_of_a_baseline_tree(tmp_path, monkeypatch):
    # each bench's comparison, one round, with a c_baseline made from a copy
    # of this checkout's package and its built core (so nothing compiles):
    # the baseline's own Python drives its own core, so it passes the
    # gates c passes, and the records name it beside c; each table of
    # min-of-k times is followed by its in-run ratios to c_baseline
    package = tmp_path / "src" / "colnmpc"
    shutil.copytree(os.path.dirname(_native.__file__), package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cores = sorted(p.name for p in package.glob("_core-*.so"))
    backends = _bench("full_segment").harness.backends(str(tmp_path))
    assert list(backends) == ["c", "c_baseline", "numpy"]
    assert sorted(p.name for p in package.glob("_core-*.so")) == cores
    assert backends["c_baseline"].lib is not _native.LIB
    assert backends["c_baseline"].ocp.__file__.startswith(str(package))
    records = {}
    for name in ("full_segment", "adapt_cycle", "steady_state"):
        bench = _bench(name)
        monkeypatch.setattr(bench, "ROUNDS", 1)
        if name == "full_segment":
            monkeypatch.setattr(bench, "SOLVE_ROUNDS", 1)
        records[name] = bench.measure(backends)
    full, adapt, steady = records.values()
    every = {"c": 1, "c_baseline": 1, "numpy": 1}
    assert full["rounds"] == full["hybrid"]["rounds"] == adapt["rounds"] \
        == steady["rounds"] == every
    assert full["hybrid"]["work_c_baseline"] == full["hybrid"]["work"]
    optimizer = full["optimizer"]
    assert optimizer["rounds"] == {"c": 1, "c_baseline": 1}
    assert optimizer["work"]["c"] == optimizer["work"]["c_baseline"]
    for record in (full, full["hybrid"]):
        assert record["compiled_calls"] == {"c": 1, "c_baseline": 1}
        assert list(record["us_outside_core_per_eval_min"]) \
            == ["c", "c_baseline"]
    assert list(adapt["us_in_fits_min"]) == ["c", "c_baseline"]
    assert adapt["work"] == {"fits": 67, "lm_iterations": 633,
                             "nodes_added": 9, "scaled_problems": 4}
    assert adapt["compiled_calls"] == {"c": 13, "c_baseline": 13}
    assert all(0.0 < t < np.inf for times in
               steady["ms_per_solve_min"].values() for t in times.values())
    ratios = {key: record[key]
              for record in (full, full["hybrid"], optimizer, adapt)
              for key in record if key.endswith("_to_c_baseline")}
    assert set(ratios) == {
        "us_per_step_min_to_c_baseline", "us_per_eval_min_to_c_baseline",
        "us_outside_core_per_eval_min_to_c_baseline",
        "us_outside_objective_per_eval_min_to_c_baseline",
        "us_per_cycle_min_to_c_baseline", "us_in_fits_min_to_c_baseline"}
    for record in (full, full["hybrid"], optimizer, adapt):
        for key, times in record.items():
            if f"{key}_to_c_baseline" in record:
                assert record[f"{key}_to_c_baseline"] == {
                    name: t / times["c_baseline"]
                    for name, t in times.items() if name != "c_baseline"}
    assert list(steady["ms_per_solve_min_to_c_baseline"]) == list(
        steady["ms_per_solve_min"])
    for point, times in steady["ms_per_solve_min"].items():
        assert steady["ms_per_solve_min_to_c_baseline"][point] == {
            name: times[name] / times["c_baseline"]
            for name in ("c", "numpy")}


@needs_compiler
def test_footprint_bench_imports_each_side_in_its_own_interpreter(
        tmp_path, monkeypatch):
    # one round with a copy of this checkout's package and built core as
    # the baseline tree: both sides import the same modules, no scipy
    # subpackage among them, and each minimum has its ratio to c_baseline
    shutil.copytree(os.path.dirname(_native.__file__),
                    tmp_path / "src" / "colnmpc",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bench = _bench("footprint")
    monkeypatch.setattr(bench, "ROUNDS", 1)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    record = bench.measure({"c": root, "c_baseline": str(tmp_path)})
    assert set(record) == {"modules", "scipy_packages", "kernel_backend",
                           "import_s_min", "import_s_min_to_c_baseline",
                           "peak_rss_mb_min", "peak_rss_mb_min_to_c_baseline",
                           "rounds", "host"}
    assert record["modules"]["c"] == record["modules"]["c_baseline"] > 0
    assert record["scipy_packages"] == {"c": [], "c_baseline": []}
    assert record["kernel_backend"] == {"c": "c", "c_baseline": "c"}
    for key in ("import_s_min", "peak_rss_mb_min"):
        assert record[f"{key}_to_c_baseline"] == {
            "c": record[key]["c"] / record[key]["c_baseline"]}


@needs_compiler
def test_benches_refuse_a_baseline_tree_whose_core_did_not_build(tmp_path):
    # a tree on the numpy fallback would be timed under the name c_baseline
    package = tmp_path / "src" / "colnmpc"
    shutil.copytree(os.path.dirname(_native.__file__), package,
                    ignore=shutil.ignore_patterns("__pycache__", "_core-*"))
    (package / "_core.c").write_text("#error not a core\n")
    harness = _bench("steady_state").harness
    with pytest.warns(RuntimeWarning, match="C core is not available"), \
            pytest.raises(SystemExit, match=re.escape(str(tmp_path))):
        harness.backends(str(tmp_path))
    with pytest.raises(SystemExit, match="has no src/colnmpc"):
        harness.backends(str(tmp_path / "src"))
