"""The compiled prediction segments, steady-state solves and learner fits
against the numpy code.

The C core is built at import wherever gcc is present; these tests skip
only where there is no compiler.  The numpy code (integrate._run on
ocp's callbacks, column._ptc_steady, kernels.section_chain_solve,
learner._levenberg_marquardt) is the reference: counters are equal,
full-order prediction results agree to rounding, and everything else is
bitwise equal.
"""

import os
import shutil

import numpy as np
import pytest

import colnmpc
from colnmpc import _native, column, kernels, learner, ocp
from colnmpc.column import (AggregationLayout, ColumnInputs, ColumnParams,
                            HybridModel, SectionSolveError, SteadyStateError,
                            full_rhs, full_state_jacobian, oracle_hybrid,
                            section_steady_solve, steady_state_solve)
from colnmpc.integrate import IntegrationError
from colnmpc.ocp import (ControlMoves, FullPrediction, HybridPrediction,
                         OcpSpec, objective_and_gradient, objective_value,
                         solve_ocp)
from colnmpc.surrogate import ScalingSpec, SurrogateModel

from conftest import NOMINAL_L, NOMINAL_V

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


def _shoot(x0, model, spec, moves, with_grad, numpy_loop=False):
    """(phi, grad, summed counters) on one path."""
    lib = _native.LIB
    if numpy_loop:
        _native.LIB = None
    try:
        work = dict.fromkeys(WORK, 0)
        phi, grad = ocp._shoot(moves, x0, model, spec, with_grad, work)
    finally:
        _native.LIB = lib
    return phi, grad, work


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
    """Bytes of a full-order steady state and of a section solve."""
    u = ColumnInputs(NOMINAL_L, NOMINAL_V, params.feed_flow, 0.35)
    return (steady_state_solve(u, params).tobytes(),
            section_steady_solve(0.9, 0.5, 1.3, 12, params.alpha))


def _count_numpy_solves(monkeypatch):
    """Calls of the numpy kernels the steady-state solves run on."""
    calls = []
    for name in ("full_rhs", "section_chain_solve"):
        fn = getattr(kernels, name)
        monkeypatch.setattr(kernels, name,
                            lambda *a, fn=fn, name=name: calls.append(name)
                            or fn(*a))
    return calls


def test_missing_compiler_falls_back_with_a_warning(params, monkeypatch):
    expected = _steady_solves(params)
    monkeypatch.setattr(_native.shutil, "which", lambda name: None)
    with pytest.warns(RuntimeWarning, match="numpy integrator"):
        assert _native._load() is None
    # without the core the steady states and the chain solves run on the
    # numpy code, and give the same numbers
    monkeypatch.setattr(_native, "LIB", None)
    calls = _count_numpy_solves(monkeypatch)
    assert _steady_solves(params) == expected
    assert set(calls) == {"full_rhs", "section_chain_solve"}


@needs_compiler
def test_foreign_routines_bind_where_a_compiler_is_present():
    # numpy's ufunc loops, BLAS and LAPACK and scipy's LAPACK must
    # resolve: a fallback to the numpy loops here would fail, not skip
    assert _native.BOUND
    assert _native._bind(_native.LIB)


def test_unbound_routines_fall_back_with_a_warning(params, layout,
                                                  monkeypatch):
    expected = _steady_solves(params)

    def missing():
        raise OSError("not found")
    monkeypatch.setattr(_native, "_numpy_cblas", missing)
    with pytest.warns(RuntimeWarning, match="hybrid predictions run on "
                                            "the numpy integrator"):
        assert not _native._bind(_native.LIB or object())
    # unbound, hybrid segments take the numpy loop; full-order ones do not
    monkeypatch.setattr(_native, "BOUND", False)
    hybrid = HybridPrediction(_default_hybrid(params, layout), 0.32)
    assert ocp._compiled_segment(hybrid, SPEC_LOOSE) is None
    full = ocp._compiled_segment(FullPrediction(params, 0.32), SPEC_LOOSE)
    assert (full is None) == (_native.LIB is None)
    # and the steady states and the chain solves run on the numpy code,
    # with the same numbers
    calls = _count_numpy_solves(monkeypatch)
    assert _steady_solves(params) == expected
    assert set(calls) == {"full_rhs", "section_chain_solve"}


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
    phi, _ = objective_and_gradient(moves, nominal_steady, model, SPEC_LOOSE)
    summed = {k: sum(st[k] for st in seen) for k in WORK}
    assert len(seen) == len(SPEC_LOOSE.segment_bounds())
    assert summed == {"steps": 214, "rejected": 0, "newton_failures": 0,
                      "nfev": 2665, "njev": 1074, "nlu": 1284}
    seen.clear()
    assert objective_value(moves, nominal_steady, model, SPEC_LOOSE) == phi
    summed = {k: sum(st[k] for st in seen) for k in WORK}
    assert summed == {"steps": 214, "rejected": 0, "newton_failures": 0,
                      "nfev": 2665, "njev": 214, "nlu": 214}
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
    for owner, names in ((FullPrediction, ("rhs", "rhs_jac", "state_jac")),
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
    # 100 random columns, start states, moves and feed compositions:
    # objective and gradient agree to PARITY_RTOL, and every counter is
    # the numpy loop's
    rng = np.random.default_rng(1207)
    for case in range(100):
        n = int(rng.integers(6, 43))
        p = ColumnParams(n_total=n, feed_stage=int(rng.integers(2, n)),
                         alpha=float(rng.uniform(1.5, 3.0)),
                         tray_holdup=float(rng.uniform(0.3, 1.0)))
        x0 = np.sort(rng.uniform(0.0, 1.0, n))
        model = FullPrediction(p, float(rng.uniform(0.2, 0.5)))
        moves = ControlMoves(rng.uniform(1.0, 5.0, 2),
                             rng.uniform(2.0, 6.0, 2))
        phi, grad, work = _shoot(x0, model, SPEC_SHORT, moves, True)
        phi_r, grad_r, work_r = _shoot(x0, model, SPEC_SHORT, moves, True,
                                       numpy_loop=True)
        assert work == work_r, case
        assert abs(phi - phi_r) <= PARITY_RTOL * abs(phi_r), case
        assert np.max(np.abs(grad - grad_r)) \
            <= PARITY_RTOL * np.max(np.abs(grad_r)), case


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
            _shoot(nominal_steady, model, SPEC_LOOSE, moves, True, numpy_loop)
        errors.append(seen[-1])
    compiled, reference = errors
    assert isinstance(compiled, IntegrationError)
    assert compiled.stats["steps"] == 40
    assert compiled.stats == reference.stats
    assert compiled.t == pytest.approx(reference.t, rel=1e-9)


@needs_compiler
def test_nonfinite_initial_rhs_raises_on_both_paths():
    # x = -1 with alpha = 2 puts a zero in the equilibrium's denominator
    p = ColumnParams(alpha=2.0)
    model = FullPrediction(p, 0.3)
    x0 = np.full(p.n_total, -1.0)
    moves = ControlMoves.constant(NOMINAL_L, NOMINAL_V, 3)
    stats = []
    for numpy_loop in (False, True):
        for with_grad in (True, False):
            with np.errstate(all="ignore"), \
                    pytest.raises(IntegrationError,
                                  match="non-finite rhs") as info:
                _shoot(x0, model, SPEC_LOOSE, moves, with_grad, numpy_loop)
            stats.append(info.value.stats)
    assert all(st == stats[0] for st in stats)
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
    phi, _ = objective_and_gradient(moves, z0, model, SPEC_LOOSE)
    summed = {k: sum(st[k] for st in seen) for k in WORK}
    assert len(seen) == len(SPEC_LOOSE.segment_bounds())
    assert summed == {"steps": 282, "rejected": 60, "newton_failures": 2,
                      "nfev": 3565, "njev": 1410, "nlu": 1688}
    assert calls == []
    seen.clear()
    assert objective_value(moves, z0, model, SPEC_LOOSE) == phi
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
    for owner, names in ((HybridPrediction, ("rhs", "rhs_jac", "state_jac")),
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
def test_oracle_and_mixed_eps_hybrids_stay_on_the_numpy_loop(
        params, layout, nominal_steady, monkeypatch):
    rng = np.random.default_rng(3)
    mixed = _surrogates(rng, 3) + _surrogates(rng, 1, eps=1e-3)
    spec = OcpSpec(horizon_control=120.0, horizon_prediction=120.0,
                   n_intervals=2, sampling_time=60.0,
                   integration_rtol=1e-4, integration_atol=1e-7)
    moves = ControlMoves.constant(NOMINAL_L, NOMINAL_V, 2)
    for hm in (oracle_hybrid(params, layout),
               HybridModel(params, layout, mixed)):
        assert hm.packed is None
        model = HybridPrediction(hm, 0.32)
        assert ocp._compiled_segment(model, spec) is None
        calls = []
        rhs_jac = model.rhs_jac
        model.rhs_jac = lambda *a: calls.append(1) or rhs_jac(*a)
        objective_and_gradient(moves, layout.state_from_plant(nominal_steady),
                               model, spec)
        assert len(calls) > 0


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
        for with_grad in (True, False):
            results = []
            for numpy_loop in (False, True):
                seen.clear()
                model = HybridPrediction(hm, x_F)
                try:
                    phi, grad = _shoot(z0, model, spec, moves, with_grad,
                                       numpy_loop)[:2]
                    out = (repr(phi), None if grad is None else grad.tobytes())
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
            _shoot(z, HybridPrediction(hm, 0.3), SPEC_LOOSE, moves, True,
                   numpy_loop)


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
    its error's type and message."""
    with monkeypatch.context() as patch:
        if numpy_code:
            patch.setattr(_native, "BOUND", False)
        try:
            with np.errstate(all="ignore"):
                out = solve()
        except Exception as exc:  # any error: compared across the paths
            return type(exc), str(exc)
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
                patch.setattr(_native, "BOUND", False)
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
        got, got_objective, got_accepted = fit(
            x, objective, Z, target, wn, sw, max_steps, goal, damping)
        ref = ref[1] if kind == "net" else ref
        assert got.tobytes() == ref.tobytes(), case
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


def test_unbound_learner_routines_fall_back_with_a_warning(monkeypatch):
    # without numpy's dsyrk and dgesv the fits run on the numpy loop, with
    # one warning, and train the same model
    expected = _trained()
    assert expected[3] > 0

    def missing():
        raise OSError("not found")
    monkeypatch.setattr(_native, "_numpy_learner_routines", missing)
    with pytest.warns(RuntimeWarning, match="learner's fits") as record:
        assert not _native._bind(_native.LIB or object())
    assert len(record) == 1
    monkeypatch.setattr(_native, "BOUND", False)
    assert _trained() == expected

