import numpy as np
import pytest

from colnmpc import kernels
from colnmpc.column import AggregationLayout, section_steady_solve
from colnmpc.pipeline import (DEFAULT_KAPPA, DerivEstimate, Measurement,
                              estimate_derivatives, estimate_feed_composition,
                              reconstruct_training_points, steadiness_weight)

from conftest import NOMINAL_L, NOMINAL_V, NOMINAL_XF, OTHER_LAYOUTS


def _steady_measurement(params, layout, nominal_steady, t=120.0):
    return Measurement.from_plant(t, nominal_steady, layout,
                                  NOMINAL_L, NOMINAL_V, params.feed_flow)


def _zero_deriv():
    return DerivEstimate(dxdt=np.zeros(5), window=60.0)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def test_measurement_rejects_nan_and_non_finite_inputs(params, layout,
                                                      nominal_steady):
    x = layout.state_from_plant(nominal_steady)
    good = dict(t=0.0, x_agg=x, L=NOMINAL_L, V=NOMINAL_V, F=params.feed_flow)
    # a NaN composition fails both range checks, so each alone lets it pass
    with pytest.raises(ValueError, match="outside"):
        Measurement(**{**good, "x_agg": np.where(np.arange(5) == 2, np.nan,
                                                 x)})
    for name in ("t", "L", "V", "F"):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="non-finite"):
                Measurement(**{**good, name: bad})


# ---------------------------------------------------------------------------
# derivative estimation
# ---------------------------------------------------------------------------

def test_derivatives_need_two_measurements(params, layout, nominal_steady):
    m = _steady_measurement(params, layout, nominal_steady)
    assert estimate_derivatives([m]) is None
    assert estimate_derivatives([]) is None


def test_derivatives_constant_history(params, layout, nominal_steady):
    m0 = _steady_measurement(params, layout, nominal_steady, t=0.0)
    m1 = _steady_measurement(params, layout, nominal_steady, t=60.0)
    d = estimate_derivatives([m0, m1])
    assert np.array_equal(d.dxdt, np.zeros(5))
    assert d.window == 60.0


def test_derivatives_linear_ramp(params, layout):
    slope = np.array([1e-5, -2e-5, 3e-5, 4e-6, -1e-6])
    base = np.full(5, 0.4)
    m0 = Measurement(0.0, base, NOMINAL_L, NOMINAL_V, 1.0)
    m1 = Measurement(60.0, base + 60.0 * slope, NOMINAL_L, NOMINAL_V, 1.0)
    d = estimate_derivatives([m0, m1])
    assert np.allclose(d.dxdt, slope, rtol=1e-12, atol=1e-18)


# ---------------------------------------------------------------------------
# steadiness weight
# ---------------------------------------------------------------------------

def test_weight_examples():
    assert steadiness_weight(_zero_deriv(), DEFAULT_KAPPA) == 1.0
    half = DerivEstimate(dxdt=np.array([np.log(2) / DEFAULT_KAPPA, 0, 0, 0, 0]),
                         window=60.0)
    assert steadiness_weight(half, DEFAULT_KAPPA) == pytest.approx(0.5, rel=1e-12)


def test_weight_monotone_in_derivative_norm(rng):
    for _ in range(20):
        d = rng.uniform(-1e-3, 1e-3, 5)
        w1 = steadiness_weight(DerivEstimate(d, 60.0), DEFAULT_KAPPA)
        w2 = steadiness_weight(DerivEstimate(2 * d, 60.0), DEFAULT_KAPPA)
        assert 0.0 < w2 < w1 <= 1.0


def test_weight_rejects_kappa_not_positive_and_finite():
    # an infinite or NaN kappa used to give a NaN weight
    d = DerivEstimate(np.zeros(3), 60.0)
    for kappa in (0.0, -1.0, np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="kappa"):
            steadiness_weight(d, kappa)


# ---------------------------------------------------------------------------
# feed-composition estimate
# ---------------------------------------------------------------------------

def test_feed_estimate_exact_at_steady_state(params, layout, nominal_steady):
    m = _steady_measurement(params, layout, nominal_steady)
    x_f = estimate_feed_composition(m, _zero_deriv(), layout, params)
    assert x_f == pytest.approx(NOMINAL_XF, abs=1e-6)


def test_feed_estimate_direct_substitution(params, layout):
    # zero derivatives, symmetric products, D = B
    x = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    m = Measurement(0.0, x, L=2.0, V=2.5, F=1.0)
    got = estimate_feed_composition(m, _zero_deriv(), layout, params)
    D = B = 0.5
    assert got == pytest.approx((D * 0.9 + B * 0.1) / 1.0, abs=1e-14)


def test_feed_estimate_linear_in_derivative(params, layout, nominal_steady):
    m = _steady_measurement(params, layout, nominal_steady)
    base = estimate_feed_composition(m, _zero_deriv(), layout, params)
    m_hold = layout.effective_holdups(params)
    delta = 1e-5
    for i in range(5):
        d = np.zeros(5)
        d[i] = delta
        got = estimate_feed_composition(m, DerivEstimate(d, 60.0), layout, params)
        assert got - base == pytest.approx(m_hold[i] * delta / params.feed_flow,
                                           rel=1e-9)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def test_reconstruction_exact_at_steady_state(params, layout, nominal_u,
                                              nominal_steady):
    m = _steady_measurement(params, layout, nominal_steady)
    rec = reconstruct_training_points(m, _zero_deriv(), layout, params)
    assert rec.n_discarded == 0
    assert abs(rec.reboiler_residual) <= 1e-8
    assert rec.weight == 1.0
    for sec, p in zip(layout.sections, rec.points):
        r = sec.flow_ratio(nominal_u.L, nominal_u.V, nominal_u.F)
        x_bot, _ = section_steady_solve(p.x_upper, p.y_lower, r,
                                        sec.tray_count, params.alpha,
                                        tol=1e-13)
        assert p.x_bot == pytest.approx(x_bot, abs=1e-8)
        assert p.r == pytest.approx(r, rel=1e-14)


def test_reconstruction_condenser_inversion(params, layout, nominal_steady):
    # hand-computable single-equation inversion at the condenser
    m = _steady_measurement(params, layout, nominal_steady)
    dx = np.zeros(5)
    dx[4] = 2.5e-6
    rec = reconstruct_training_points(m, DerivEstimate(dx, 60.0), layout,
                                      params)
    m_hold = layout.effective_holdups(params)
    y_top0 = m.x_D + m_hold[4] * dx[4] / NOMINAL_V
    # section-0 balance closes on x_bot
    y3 = kernels.equilibrium(m.x_agg[3], params.alpha)
    r0 = NOMINAL_L / NOMINAL_V
    expected_x_bot0 = m.x_D - (y_top0 - y3) / r0
    assert rec.points[0].x_bot == pytest.approx(expected_x_bot0, abs=1e-14)


def test_reconstruction_satisfies_all_balances(params, layout, rng):
    # by construction, the five aggregation balances hold exactly with the
    # estimated derivatives and the estimated feed composition
    m_hold = layout.effective_holdups(params)
    for _ in range(20):
        x = np.sort(rng.uniform(0.02, 0.98, 5))
        L = rng.uniform(1.5, 3.0)
        V = L + rng.uniform(0.1, 0.9)
        m = Measurement(0.0, x, L, V, 1.0)
        d = DerivEstimate(rng.uniform(-1e-4, 1e-4, 5), 60.0)
        rec = reconstruct_training_points(m, d, layout, params, kappa=1.0)
        if rec.n_discarded:
            continue
        xb = [p.x_bot for p in rec.points]
        yt = [p.y_lower + p.r * (p.x_upper - p.x_bot) for p in rec.points]
        y = kernels.equilibrium(x, params.alpha)
        F = 1.0
        bal = [
            V * (yt[0] - x[4]) - m_hold[4] * d.dxdt[4],
            L * (xb[0] - x[3]) + V * (yt[1] - y[3]) - m_hold[3] * d.dxdt[3],
            L * (xb[1] - x[2]) + V * (yt[2] - y[2])
            + F * (rec.x_f_hat - x[2]) - m_hold[2] * d.dxdt[2],
            (L + F) * (xb[2] - x[1]) + V * (yt[3] - y[1]) - m_hold[1] * d.dxdt[1],
            (L + F) * (xb[3] - x[0]) + V * (x[0] - y[0])
            - m_hold[0] * d.dxdt[0] + rec.reboiler_residual,
        ]
        assert np.max(np.abs(bal)) <= 1e-12


def test_reconstruction_discards_out_of_range(params, layout):
    # absurd derivative on the condenser drives the section-0 target out
    x = np.array([0.05, 0.2, 0.4, 0.7, 0.95])
    m = Measurement(0.0, x, L=2.0, V=2.4, F=1.0)
    d = DerivEstimate(np.array([0.0, 0.0, 0.0, 0.0, 0.5]), 60.0)
    rec = reconstruct_training_points(m, d, layout, params)
    assert rec.n_discarded >= 1
    assert rec.points[0] is None


@pytest.mark.parametrize("stages", OTHER_LAYOUTS)
def test_reconstruction_exact_at_steady_state_any_layout(
        params, nominal_u, nominal_steady, stages):
    lay = AggregationLayout.from_params(params, stages)
    m = _steady_measurement(params, lay, nominal_steady)
    rec = reconstruct_training_points(
        m, DerivEstimate(np.zeros(len(stages)), 60.0), lay, params)
    assert rec.n_discarded == 0
    assert len(rec.points) == len(lay.sections)
    assert abs(rec.reboiler_residual) <= 1e-9
    for sec, p in zip(lay.sections, rec.points):
        r = sec.flow_ratio(nominal_u.L, nominal_u.V, nominal_u.F)
        x_bot, _ = section_steady_solve(p.x_upper, p.y_lower, r,
                                        sec.tray_count, params.alpha,
                                        tol=1e-13)
        assert p.x_bot == pytest.approx(x_bot, abs=1e-8)


@pytest.mark.parametrize("stages", OTHER_LAYOUTS + [None])
def test_reconstruction_inverts_hybrid_assembly(params, rng, stages):
    # fed back through the hybrid balances, the reconstructed section
    # outputs give back the measured derivatives; the reboiler balance
    # misses by the reported residual
    lay = AggregationLayout.from_params(params, stages)
    n = len(lay.agg_stages)
    m_hold = lay.effective_holdups(params)
    strip = [s.uses_stripping_flow for s in lay.sections]
    feed = lay.agg_stages.index(params.feed_stage)
    for _ in range(10):
        x = np.sort(rng.uniform(0.02, 0.98, n))
        L = rng.uniform(1.5, 3.0)
        V = L + rng.uniform(0.1, 0.9)
        m = Measurement(0.0, x, L, V, 1.0)
        d = DerivEstimate(rng.uniform(-1e-4, 1e-4, n), 60.0)
        rec = reconstruct_training_points(m, d, lay, params, kappa=1.0)
        if rec.n_discarded:
            continue
        xb = np.array([p.x_bot for p in rec.points])
        yt = np.array([p.y_lower + p.r * (p.x_upper - p.x_bot)
                       for p in rec.points])
        zeros = np.zeros((n - 1, 4))
        f, _, _ = kernels.hybrid_assemble(x, xb, yt, zeros, zeros, L, V, 1.0,
                                          rec.x_f_hat, params.alpha, m_hold,
                                          strip, feed, 0)
        miss = m_hold * (f - d.dxdt)
        miss[0] += rec.reboiler_residual
        assert np.max(np.abs(miss)) <= 1e-12
