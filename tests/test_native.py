"""The compiled full-order prediction segment against the numpy loop.

The C core is built at import wherever gcc is present; these tests skip
only where there is no compiler.  The numpy loop (integrate._run on
ocp's callbacks) is the reference: counters are equal, results agree to
rounding.
"""

import shutil

import numpy as np
import pytest

import colnmpc
from colnmpc import _native, kernels, ocp
from colnmpc.column import ColumnParams
from colnmpc.integrate import IntegrationError
from colnmpc.ocp import (ControlMoves, FullPrediction, OcpSpec,
                         objective_and_gradient, objective_value)

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


def test_missing_compiler_falls_back_with_a_warning(monkeypatch):
    monkeypatch.setattr(_native.shutil, "which", lambda name: None)
    with pytest.warns(RuntimeWarning, match="numpy integrator"):
        assert _native._load() is None


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
