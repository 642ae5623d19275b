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

import colnmpc
from colnmpc import _native, column, kernels, learner, ocp
from colnmpc.column import (AggregationLayout, ColumnInputs, ColumnParams,
                            HybridModel, SectionOracle, SectionSolveError,
                            SteadyStateError, full_rhs, full_state_jacobian,
                            hybrid_steady_state, oracle_hybrid,
                            section_steady_solve, steady_state_solve)
from colnmpc.integrate import IntegrationError, IvpProblem, ModelDomainError
from colnmpc.ocp import (ControlMoves, FullPrediction, HybridPrediction,
                         OcpSpec, objective_and_gradient, solve_ocp)
from colnmpc.surrogate import ScalingSpec, SurrogateModel

from conftest import NOMINAL_L, NOMINAL_V, OTHER_LAYOUTS

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


def _shoot(x0, model, spec, moves, numpy_loop=False):
    """(phi, grad, summed counters) on one path."""
    lib = _native.LIB
    if numpy_loop:
        _native.LIB = None
    try:
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
                                                    monkeypatch):
    # no compiler, or a foreign routine that cannot be bound: one warning,
    # no core, and every prediction, steady state, chain solve and fit runs
    # on the numpy code, with the same numbers
    expected = _steady_solves(params), _trained()
    assert expected[1][3] > 0

    def missing():
        raise OSError("not found")
    for owner, name, patched in (
            (_native.shutil, "which", lambda name: None),
            (_native, "_numpy_learner_routines", missing)):
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, patched)
            with pytest.warns(RuntimeWarning, match="numpy integrator") \
                    as record:
                assert _native._load() is None
            assert len(record) == 1
            patch.setattr(_native, "LIB", None)
            hybrid = HybridPrediction(_default_hybrid(params, layout), 0.32)
            for model in (hybrid, FullPrediction(params, 0.32)):
                assert ocp._compiled_segment(model, SPEC_LOOSE) is None
            calls = _count_numpy_solves(patch)
            assert (_steady_solves(params), _trained()) == expected
            assert set(calls) == {"full_rhs", "section_chain_solve",
                                  "hybrid_assemble"}


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
    assert len(seen) == len(SPEC_LOOSE.segment_bounds())
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
    # record keeps its keys and the pinned counters of both points
    bench = _bench("full_segment")
    monkeypatch.setattr(bench, "ROUNDS", 1)
    record = bench.measure(bench.harness.backends())
    assert set(record) == {"point", "work", "parity_rtol", "us_per_step_min",
                           "us_outside_core_per_segment_min", "rounds",
                           "hybrid", "host"}
    assert record["work"] == {"steps": 214, "rejected": 0,
                              "newton_failures": 0, "nfev": 2665,
                              "njev": 1074, "nlu": 1284}
    assert record["rounds"] == {"c": 1, "numpy": 1}
    assert all(0.0 < t < np.inf for t in record["us_per_step_min"].values())
    hybrid = record["hybrid"]
    assert set(hybrid) == {"point", "work", "us_per_eval_min",
                           "us_outside_core_per_segment_min", "rounds"}
    for times in (record, hybrid):
        outside = times["us_outside_core_per_segment_min"]
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
    # with the operations of a solve of it alone: columns put in front of
    # (L, V), zero or not, leave the states, the counters and the (L, V)
    # columns byte-identical
    model = FullPrediction(params, 0.357)
    segment = _native.FullSegment(model, SPEC_LOOSE)
    rng = np.random.default_rng(16)
    y0 = np.append(nominal_steady, 0.0)
    S_lv = 1e-3 * rng.standard_normal((y0.size, 2))

    def shoot(S0):
        p = np.zeros(S0.shape[1])
        p[-2:] = NOMINAL_L * 1.05, NOMINAL_V
        problem = IvpProblem(rhs=None, initial_state=y0,
                             time_grid=np.array([0.0, 60.0]),
                             parameter_vector=p, initial_sensitivities=S0,
                             rel_tol=SPEC_LOOSE.integration_rtol,
                             abs_tol=SPEC_LOOSE.integration_atol)
        return segment(problem, True)

    alone = shoot(S_lv)
    assert alone.stats["steps"] > 10
    for front in (np.zeros((y0.size, 5)),
                  rng.standard_normal((y0.size, 4))):
        more = shoot(np.hstack([front, S_lv]))
        assert more.states[-1].tobytes() == alone.states[-1].tobytes()
        assert more.stats == alone.stats
        assert more.sens[-1][:, -2:].tobytes() == alone.sens[-1].tobytes()


@needs_compiler
def test_compiled_segment_honors_max_steps(params, nominal_steady,
                                           monkeypatch):
    # the benchmark caps prediction steps at the entry points; the
    # compiled loop stops at the cap with the numpy loop's counters
    seen = _segment_stats(monkeypatch, max_steps=40)
    model = FullPrediction(params, 0.357)
    moves = ControlMoves.constant(NOMINAL_L, NOMINAL_V, 3)
    errors = []
    for numpy_loop in (False, True):
        seen.clear()
        with pytest.raises(IntegrationError, match="step limit 40"):
            _shoot(nominal_steady, model, SPEC_LOOSE, moves, numpy_loop)
        errors.append(seen[-1])
    compiled, reference = errors
    assert isinstance(compiled, IntegrationError)
    assert compiled.stats["steps"] == 40
    assert compiled.stats == reference.stats
    assert compiled.t == pytest.approx(reference.t, rel=1e-9)


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
    assert len(seen) == len(SPEC_LOOSE.segment_bounds())
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
    assert ocp._compiled_segment(model, spec) is None
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
    # digest is that of the loop that ran them before the error test).
    segments = []
    run = ocp.integrate_with_sensitivities

    def recorded(problem):
        tr = run(problem)
        segments.append(tr)
        return tr
    monkeypatch.setattr(ocp, "integrate_with_sensitivities", recorded)
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
        work = []
        for numpy_loop in (False, True):
            segments.clear()
            _shoot(x0, model, spec, moves, numpy_loop)
            c = {k: sum(tr.stats[k] for tr in segments)
                 for k in (*WORK, "accepted")}
            singular = c["steps"] - c["accepted"] - c["rejected"]
            assert c["newton_failures"] > 0
            assert c["rejected"] > c["newton_failures"] - singular
            assert c["njev"] == len(segments) + 5 * c["accepted"]
            assert c["nlu"] == c["steps"] - singular + 5 * c["accepted"]
            work.append(c)
            if digest is not None:
                h = hashlib.sha256()
                for tr in segments:
                    h.update(tr.states.tobytes())
                    h.update(tr.sens.tobytes())
                    h.update(float(tr.stats["h_last"]).hex().encode())
                assert h.hexdigest() == digest
        assert work[0] == work[1]


@needs_compiler
def test_compiled_segment_returns_arrays_of_its_own(params, layout,
                                                    nominal_steady):
    # row 0 of the returned states and sensitivities is the problem's
    # start, and the caller owns the arrays: writing into them leaves the
    # problem's start as it was
    hybrid = HybridPrediction(_default_hybrid(params, layout), 0.357)
    for segment, x0 in (
            (_native.FullSegment(FullPrediction(params, 0.357), SPEC_LOOSE),
             nominal_steady),
            (_native.HybridSegment(hybrid, SPEC_LOOSE),
             layout.state_from_plant(nominal_steady))):
        y0 = np.append(x0, 0.0)
        S0 = np.random.default_rng(3).standard_normal((y0.size, 4))
        p = np.array([0.0, 0.0, NOMINAL_L, NOMINAL_V])
        problem = IvpProblem(rhs=None, initial_state=y0.copy(),
                             time_grid=np.array([0.0, 60.0]),
                             parameter_vector=p,
                             initial_sensitivities=S0.copy(),
                             rel_tol=SPEC_LOOSE.integration_rtol,
                             abs_tol=SPEC_LOOSE.integration_atol)
        tr = segment(problem, True)
        assert tr.states.shape == (2, y0.size)
        assert tr.sens.shape == (2, y0.size, 4)
        assert tr.states[0].tobytes() == y0.tobytes()
        assert tr.sens[0].tobytes() == S0.tobytes()
        assert tr.stats["steps"] > 0
        tr.states[...] = np.nan
        tr.sens[...] = np.nan
        assert problem.initial_state.tobytes() == y0.tobytes()
        assert problem.initial_sensitivities.tobytes() == S0.tobytes()
        # without sensitivities, and without a start for them
        problem.initial_sensitivities = None
        tr = segment(problem, False)
        assert tr.sens is None and tr.states[0].tobytes() == y0.tobytes()
        tr = segment(problem, True)
        assert not tr.sens[0].any()


def _record_segments(monkeypatch, max_steps):
    """Record every segment at the call-time entry points, as bytes: its
    states, sensitivities, stats and h_last, or the error it raised with
    its stats and time; every segment is capped at max_steps."""
    seen = []
    for name in ("integrate", "integrate_with_sensitivities"):
        run = getattr(ocp, name)

        def recorded(problem, run=run):
            problem.max_steps = max_steps
            try:
                tr = run(problem)
            except IntegrationError as exc:
                seen.append((str(exc), float(exc.t).hex(), exc.stats))
                raise
            sens = None if tr.sens is None else tr.sens.tobytes()
            seen.append((tr.t.tobytes(), tr.states.tobytes(), sens,
                         tr.stats))
            return tr
        monkeypatch.setattr(ocp, name, recorded)
    return seen


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
    # moves, on both entry points with a step cap: every segment's states,
    # sensitivities, stats and h_last, every raised error, phi, the
    # gradient and the clamp count are byte-identical
    spec = OcpSpec(horizon_control=120.0, horizon_prediction=180.0,
                   n_intervals=2, sampling_time=60.0,
                   integration_rtol=1e-5, integration_atol=1e-8)
    seen = _record_segments(monkeypatch, max_steps=60)
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
            except IntegrationError as exc:
                out = ("raised", exc.stats)
            results.append((out, list(seen), model.clamp_count))
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

# The benchmark's offline design point whose continuation fails after 500
# iterations from the nominal steady state, so that the solve relaxes.
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
    assert set(record) == {"points", "work", "ms_per_solve_min", "rounds",
                           "host"}
    assert record["work"] == {
        "relaxation": {"continuations": 2, "jacobians": 9, "solves": 9,
                       "relaxations": 1},
        "nominal": {"continuations": 1, "jacobians": 22, "solves": 24,
                    "relaxations": 0}}
    assert record["rounds"] == {"c": 1, "numpy": 1}
    assert all(0.0 < t < np.inf for times in
               record["ms_per_solve_min"].values() for t in times.values())


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
    # too): the states, or the errors where the continuation fails, are
    # byte-identical, and the compiled solve makes no HybridModel.evaluate
    # call
    evaluations = _count_evaluations(monkeypatch)
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
            results, counts = [], []
            for numpy_code in (False, True):
                evaluations.clear()
                results.append(_outcome(
                    lambda: hybrid_steady_state(hm, u, init), numpy_code,
                    monkeypatch))
                counts.append(len(evaluations))
            got, ref = results
            assert got == ref, (stages, start)
            outcomes.add((start, isinstance(got, bytes)))
            if isinstance(got, bytes):
                assert counts[0] == 0 and counts[1] > 0
            else:
                assert got[0] is SteadyStateError
    # every start converged somewhere, and a flat-start continuation
    # failed (alike on both paths)
    assert outcomes >= {("flat", True), ("nominal", True),
                        ("perturbed", True), ("flat", False)}


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


def _fit_case(rng, case):
    """A random weighted fit: its kind, start, objective there, problem,
    budget and goal.  Cases cycle through plain problems, duplicate
    points, mixed zero weights, saturating input weights, huge output
    weights (non-finite trials) and noisy teacher outputs with a long
    budget (long runs of accepted steps); of every 16, two have a zero
    budget and two start at the goal."""
    kind = "net" if case % 2 else "node"
    scenario = case % 8
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
    h = 1 if kind == "node" else int(rng.integers(1, 3 if teach else 31))
    x = 0.3 * rng.standard_normal(5 * h + 1 if kind == "net" else 5)
    nodes = x[:5 * h].reshape(h, 5)
    if scenario == 3:
        nodes[:, :4] *= 100.0
    if scenario == 4:
        nodes[:, 4] = rng.choice([-1e200, 1e200], h)
    if teach:
        teacher = 0.5 * rng.standard_normal(x.size)
        target = 0.1 * target + (
            _net(teacher).eval_scaled(Z) if kind == "net"
            else teacher[4] * np.tanh(Z @ teacher[:3] + teacher[3]))
    with np.errstate(all="ignore"):
        if kind == "net":
            objective = learner._wmse(_net(x), Z, target, wn)
        else:
            e = x[4] * np.tanh(Z @ x[:3] + x[3]) - target
            objective = float(np.dot(wn, e * e))
    max_steps = 200 if teach else int(rng.integers(1, 40))
    goal = 0.0 if teach else float(rng.choice([0.0, 1e-4]))
    if case % 16 in (0, 1):
        max_steps = 0
    if case % 16 in (8, 9):
        goal = objective
    return kind, x, objective, Z, target, wn, max_steps, goal


@needs_compiler
def test_compiled_fits_bitwise_equal_numpy_loop(monkeypatch):
    # 48 random fits of both kinds (1-200 points, 1-30 hidden units), some
    # with a narrow damping range: the parameters, the objective and the
    # accepted steps are byte-identical, and every way the loop ends and
    # every trial outcome was exercised
    rng = np.random.default_rng(1125)
    seen = set()
    for case in range(48):
        kind, x, objective, Z, target, wn, max_steps, goal = \
            _fit_case(rng, case)
        sw = np.sqrt(wn)
        damping = (0.1, 1e3) if case % 5 == 0 else (1e-3, 1e10)
        monkeypatch.setattr(learner, "LM_LAMBDA0", damping[0])
        monkeypatch.setattr(learner, "LM_LAMBDA_MAX", damping[1])
        if kind == "net":
            linearize, try_step = learner._net_steps(Z, target, wn, sw)
            start = (_net(x), x)
        else:
            linearize, try_step = learner._node_steps(Z, target, wn, sw)
            start = x

        trials = []

        def counted(x, delta, try_step=try_step):
            trial, objective_t = try_step(x, delta)
            trials.append(objective_t)
            return trial, objective_t
        with np.errstate(all="ignore"):
            ref, ref_objective, ref_accepted = learner._levenberg_marquardt(
                start, objective, linearize, counted, max_steps, goal)
        fit = _native.fit_net if kind == "net" else _native.fit_node
        got, got_start, got_objective, got_accepted = fit(
            _native.FitProblem(Z, target, wn, sw), x, max_steps, goal,
            damping)
        ref = ref[1] if kind == "net" else ref
        assert got.tobytes() == ref.tobytes(), case
        # the core takes the start's objective itself
        assert got_start.hex() == float(objective).hex(), case
        assert got_objective.hex() == float(ref_objective).hex(), case
        assert got_accepted == ref_accepted, case
        seen.add("goal" if ref_objective <= goal else
                 "budget" if ref_accepted == max_steps else "overflow")
        seen.add((kind, ref_accepted > 0))
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
                    "non-finite trial", "damping floor", ("net", True),
                    ("net", False), ("node", True), ("node", False)}


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
    data = learner.TrainingSet.assemble([
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
    # training set, however many retrains and node fits)
    bench = _bench("adapt_cycle")
    monkeypatch.setattr(bench, "ROUNDS", 1)
    record = bench.measure(bench.harness.backends())
    assert set(record) == {"cycle", "work", "us_per_cycle_min",
                           "us_in_fits_min", "rounds", "host"}
    assert record["work"] == {"fits": 67, "lm_iterations": 633,
                              "nodes_added": 9, "scaled_problems": 4}
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
    # gates c passes, and the records name it beside c
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
        records[name] = bench.measure(backends)
    full, adapt, steady = records.values()
    every = {"c": 1, "c_baseline": 1, "numpy": 1}
    assert full["rounds"] == full["hybrid"]["rounds"] == adapt["rounds"] \
        == steady["rounds"] == every
    assert full["hybrid"]["work_c_baseline"] == full["hybrid"]["work"]
    for outside in (full["us_outside_core_per_segment_min"],
                    full["hybrid"]["us_outside_core_per_segment_min"]):
        assert list(outside) == ["c", "c_baseline"]
    assert list(adapt["us_in_fits_min"]) == ["c", "c_baseline"]
    assert adapt["work"] == {"fits": 67, "lm_iterations": 633,
                             "nodes_added": 9, "scaled_problems": 4}
    assert all(0.0 < t < np.inf for times in
               steady["ms_per_solve_min"].values() for t in times.values())


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
