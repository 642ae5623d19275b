"""Self-tests of the benchmark: determinism, failure accounting, and that
tracing neither changes results nor misses the stated bypasses.

    python3 -m pytest -q perfbench

Episodes are shortened here; the benchmark itself runs them full length.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np
import pytest

import workloads as wl
from tracing import Tracer


@pytest.fixture(autouse=True)
def prediction_step_cap():
    remove = wl.cap_prediction_steps()
    yield
    remove()


def _traced(fn, *args):
    tracer = Tracer()
    tracer.install()
    try:
        return fn(*args, tracer), tracer
    finally:
        tracer.uninstall()


def test_feed_schedule():
    x_F = wl.feed_schedule()
    assert len(x_F) == wl.LEAD_IN + wl.CONTROL_PERIODS
    assert np.all(x_F[:wl.LEAD_IN] == wl.NOMINAL_XF)
    assert np.all(x_F[wl.LEAD_IN:] == wl.NOMINAL_XF + wl.FEED_STEP)


def _short_loop(tracer, hybrid, periods):
    st = wl.setup_loop(hybrid, tracer)
    st.schedule = st.schedule[:wl.LEAD_IN + periods]
    return st


def test_ideal_loop_deterministic_and_bypasses():
    base = wl.run_loop(_short_loop(wl.NULL_TRACER, False, 2))
    again, tracer = _traced(
        lambda tr: wl.run_loop(_short_loop(tr, False, 2), tr))
    assert base.same(again)
    assert np.isfinite(base.err) and base.err > 0.0
    m = tracer.metrics(again.counts)
    assert m["kernels.hybrid_rhs_jac.calls"][0] == 0
    assert m["learner.adapt.calls"][0] == 0
    assert m["kernels.full_rhs.calls"][0] > 0
    assert m["integrate.pred.steps"][0] > 0
    assert m["ocp.solves"][0] == 2


def test_plant_failure_is_counted_and_ends_the_episode(monkeypatch):
    advance = wl.Plant.advance
    calls = []

    def failing_after_lead_in(self, *args, **kwargs):
        calls.append(1)
        if len(calls) > wl.LEAD_IN:
            raise ValueError("plant integration failed")
        return advance(self, *args, **kwargs)

    monkeypatch.setattr(wl.Plant, "advance", failing_after_lead_in)
    res = wl.run_loop(_short_loop(wl.NULL_TRACER, False, 2))
    assert res.periods == 1 and res.failed == 1
    assert res.failures == [(0, "ValueError")]
    assert not res.checks["plant_integrates"]


def test_hybrid_setup_and_first_period_deterministic():
    def run():
        st = _short_loop(wl.NULL_TRACER, True, 1)
        weights = np.concatenate([m.as_weight_vector() for m in st.models])
        return weights, wl.run_loop(st)

    w1, r1 = run()
    w2, r2 = run()
    assert np.array_equal(w1, w2)
    assert r1.same(r2)


def test_learn_stream_deterministic_and_bypasses(monkeypatch):
    monkeypatch.setattr(wl, "STREAM_HOLDS", 3)
    monkeypatch.setattr(wl, "STREAM_HOLD_PERIODS", 6)
    base = wl.run_stream(wl.setup_stream())
    again, tracer = _traced(lambda tr: wl.run_stream(wl.setup_stream(tr), tr))
    assert base.same(again)
    assert all(base.checks.values())
    m = tracer.metrics(again.counts)
    assert m["integrate.pred.calls"][0] == 0
    assert m["kernels.hybrid_rhs_jac.calls"][0] == 0
    assert m["integrate.plant.steps"][0] > 0
    assert m["learner.adapt.calls"][0] == 3 * 6
    assert m["learner.store_points"][0] == base.counts["store_points"]


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
