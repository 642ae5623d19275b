import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colnmpc import _native, kernels
from colnmpc.column import (AggregationLayout, ColumnInputs, ColumnParams,
                            HybridModel, SectionOracle, SectionSolveError,
                            full_rhs, full_state_jacobian,
                            hybrid_steady_state, oracle_hybrid,
                            section_steady_solve, steady_state_solve)

from conftest import NOMINAL_L, NOMINAL_V, NOMINAL_XF, OTHER_LAYOUTS


def _admissible_inputs(p, rng, margin):
    """Rejection-sample one (L, V) inside the bounds with D, B > margin."""
    while True:
        L = rng.uniform(*p.bounds_L)
        V = rng.uniform(*p.bounds_V)
        if p.is_admissible(L, V, margin=margin):
            return L, V


def _evaluate(model, z, u, want_jac):
    return model.evaluate(z, u.L, u.V, u.F, u.x_F, want_jac)


# ---------------------------------------------------------------------------
# vapor-liquid equilibrium
# ---------------------------------------------------------------------------

def test_equilibrium_fixed_points():
    for alpha in (1.0, 2.0, 3.55, 10.0):
        assert kernels.equilibrium(0.0, alpha) == 0.0
        assert kernels.equilibrium(1.0, alpha) == 1.0


def test_equilibrium_direct_value():
    # 2*0.5 / (1 + 0.5)
    assert kernels.equilibrium(0.5, 2.0) == pytest.approx(2.0 / 3.0, abs=1e-12)


@given(x=st.floats(0.0, 1.0 - 2e-6), dx=st.floats(1e-6, 0.5),
       alpha=st.floats(0.1, 20.0))
@settings(max_examples=200, deadline=None)
def test_equilibrium_strictly_increasing(x, dx, alpha):
    # strictness holds wherever doubles can resolve the step
    hi = min(x + dx, 1.0 - 1e-6)
    if hi > x:
        assert kernels.equilibrium(hi, alpha) > kernels.equilibrium(x, alpha)


# ---------------------------------------------------------------------------
# full_rhs
# ---------------------------------------------------------------------------

def test_full_rhs_zero_at_steady_state(params, nominal_u, nominal_steady):
    f = full_rhs(nominal_steady, nominal_u, params)
    assert np.max(np.abs(f)) <= 1e-10


def test_full_rhs_no_driving_force():
    # alpha = 1, uniform composition equal to the feed: nothing moves
    p = ColumnParams(alpha=1.0)
    c = 0.37
    u = ColumnInputs(2.5, 2.9, p.feed_flow, c)
    f = full_rhs(np.full(p.n_total, c), u, p)
    assert np.max(np.abs(f)) == 0.0


def test_full_rhs_component_conservation(params, rng):
    # Sum of stage balances telescopes to the overall balance.
    for _ in range(300):
        x = rng.uniform(0.0, 1.0, params.n_total)
        L, V = _admissible_inputs(params, rng, 0.01)
        x_F = rng.uniform(0.0, 1.0)
        u = ColumnInputs(L, V, params.feed_flow, x_F)
        f = full_rhs(x, u, params)
        D = V - L
        B = params.feed_flow + L - V
        total = np.dot(params.holdups, f)
        expected = params.feed_flow * x_F - D * x[-1] - B * x[0]
        assert abs(total - expected) <= 1e-12


def test_full_rhs_rejects_bad_state(params, nominal_u):
    x = np.full(params.n_total, 0.3)
    x[5] = np.nan
    with pytest.raises(ValueError):
        full_rhs(x, nominal_u, params)


def test_full_rhs_deterministic(params, nominal_u, rng):
    x = rng.uniform(0.0, 1.0, params.n_total)
    f1 = full_rhs(x, nominal_u, params)
    f2 = full_rhs(x.copy(), nominal_u, params)
    assert np.array_equal(f1, f2)


def test_full_jacobians_match_finite_differences(params, nominal_u, rng):
    x = rng.uniform(0.05, 0.95, params.n_total)
    J = full_state_jacobian(x, nominal_u, params)
    h = 1e-7
    for j in range(0, params.n_total, 5):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        col = (full_rhs(xp, nominal_u, params)
               - full_rhs(xm, nominal_u, params)) / (2 * h)
        assert np.allclose(J[:, j], col, rtol=1e-6, atol=1e-7)
    G = kernels.full_input_jac(x, nominal_u.L, nominal_u.V, nominal_u.F,
                               params.alpha, params.holdups, params.feed_idx)
    for j, (dL, dV) in enumerate([(h, 0.0), (0.0, h)]):
        up = ColumnInputs(nominal_u.L + dL, nominal_u.V + dV, nominal_u.F,
                          nominal_u.x_F)
        um = ColumnInputs(nominal_u.L - dL, nominal_u.V - dV, nominal_u.F,
                          nominal_u.x_F)
        col = (full_rhs(x, up, params) - full_rhs(x, um, params)) / (2 * h)
        assert np.allclose(G[:, j], col, rtol=1e-6, atol=1e-8)


# ---------------------------------------------------------------------------
# aggregation layout
# ---------------------------------------------------------------------------

def test_default_layout(params, layout):
    assert layout.agg_stages == [1, 14, 21, 28, 42]
    # nearest-stage holdup assignment, ties toward the stage above
    assert layout.holdup_factors == pytest.approx([1.3, 10.0, 7.0, 10.0, 1.35])
    total = np.dot(layout.holdup_factors,
                   params.holdups[layout.agg_idx])
    assert total == pytest.approx(params.holdups.sum(), rel=1e-14)
    assert [s.tray_count for s in layout.sections] == [13, 6, 6, 12]
    assert [s.uses_stripping_flow for s in layout.sections] == [
        False, False, True, True]


def test_layout_requires_feed_stage():
    p = ColumnParams()
    for stages in ([1, 14, 28, 42],           # no feed stage
                   [1, 14, 21, 28, 43],       # past the condenser
                   [0, 1, 14, 21, 42]):       # below the reboiler
        with pytest.raises(ValueError):
            AggregationLayout.from_params(p, agg_stages=stages).validate(p)


# ---------------------------------------------------------------------------
# stationary sections
# ---------------------------------------------------------------------------

def test_section_solve_empty_section():
    assert section_steady_solve(0.37, 0.61, 1.3, 0, 2.0) == (0.37, 0.61)


def test_section_solve_single_tray_closed_form():
    # alpha = 1 (y = x), r = 1: tray composition is the arithmetic mean
    x_bot, y_top = section_steady_solve(0.4, 0.6, 1.0, 1, 1.0)
    assert x_bot == pytest.approx(0.5, abs=1e-12)
    assert y_top == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("numpy_code", [False, True])
def test_section_solve_rejects_non_finite_inputs(numpy_code, monkeypatch):
    # a NaN flow ratio used to return the unconverged initial guess as a
    # solution and an infinite one (nan, nan); neither may pass
    if numpy_code:
        monkeypatch.setattr(_native, "BOUND", False)
    p = ColumnParams()
    oracle = SectionOracle(AggregationLayout.from_params(p).sections[0],
                           p.alpha)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="non-finite"):
            section_steady_solve(0.9, 0.5, bad, 5, 2.5)
        with pytest.raises(ValueError, match="non-finite"):
            section_steady_solve(0.9, 0.5, 1.2, 5, bad)
        with pytest.raises(ValueError, match="non-finite"):
            oracle.predict(0.9, 0.5, bad, False)
    # a residual that is not <= tol is no solution: here it is NaN, as
    # alpha = 0 makes the equilibrium 0/0 at a tray clipped to x = 1
    with np.errstate(all="ignore"):
        assert np.isnan(kernels.section_chain_solve(
            0.9, 0.5, 1.2, 5, 0.0, 1e-12, 60)[2])
        with pytest.raises(SectionSolveError):
            section_steady_solve(0.9, 0.5, 1.2, 5, 0.0)


def test_section_solve_against_full_steady_state(params, layout, nominal_u,
                                                 nominal_steady):
    # Each section's stationary solve must reproduce the tray compositions
    # of the full-order steady state bounded by the aggregation stages.
    x = nominal_steady
    y = kernels.equilibrium(x, params.alpha)
    for sec in layout.sections:
        iu, il = sec.upper_stage - 1, sec.lower_stage - 1
        r = sec.flow_ratio(nominal_u.L, nominal_u.V, nominal_u.F)
        x_bot, y_top = section_steady_solve(
            x[iu], y[il], r, sec.tray_count, params.alpha, tol=1e-13)
        assert x_bot == pytest.approx(x[il + 1], abs=1e-8)
        assert y_top == pytest.approx(y[iu - 1], abs=1e-8)
        # overall section balance
        assert r * x[iu] + y[il] == pytest.approx(r * x_bot + y_top, abs=1e-10)


# ---------------------------------------------------------------------------
# steady_state_solve
# ---------------------------------------------------------------------------

def test_steady_state_residual_and_balance(params, rng):
    for _ in range(5):
        L, V = _admissible_inputs(params, rng, 0.03)
        x_F = rng.uniform(0.2, 0.45)
        u = ColumnInputs(L, V, params.feed_flow, x_F)
        x = steady_state_solve(u, params)
        assert np.max(np.abs(full_rhs(x, u, params))) <= 1e-10
        D, B = V - L, params.feed_flow + L - V
        assert params.feed_flow * x_F == pytest.approx(
            D * x[-1] + B * x[0], abs=1e-9)


def test_steady_state_no_separation():
    p = ColumnParams(alpha=1.0)
    u = ColumnInputs(2.5, 2.9, p.feed_flow, 0.41)
    x = steady_state_solve(u, p)
    assert np.allclose(x, 0.41, atol=1e-10)


# ---------------------------------------------------------------------------
# hybrid model (oracle mode)
# ---------------------------------------------------------------------------

def test_hybrid_oracle_matches_full_steady_state(params, layout, nominal_u,
                                                 nominal_steady):
    hm = oracle_hybrid(params, layout)
    z = hybrid_steady_state(hm, nominal_u,
                            init=layout.state_from_plant(nominal_steady))
    assert np.max(np.abs(z - layout.state_from_plant(nominal_steady))) <= 1e-8


def test_hybrid_oracle_steady_state_equivalence_sample(params, layout, rng):
    # the oracle hybrid reproduces the full-order steady state at random
    # admissible operating points
    hm = oracle_hybrid(params, layout)
    for _ in range(5):
        L, V = _admissible_inputs(params, rng, 0.03)
        x_F = rng.uniform(0.22, 0.42)
        u = ColumnInputs(L, V, params.feed_flow, x_F)
        x_full = steady_state_solve(u, params)
        z = hybrid_steady_state(hm, u, init=layout.state_from_plant(x_full))
        assert np.max(np.abs(z - layout.state_from_plant(x_full))) <= 1e-8


def test_hybrid_no_driving_force(layout):
    p = ColumnParams(alpha=1.0)
    hm = oracle_hybrid(p, AggregationLayout.from_params(p))
    u = ColumnInputs(2.5, 2.9, p.feed_flow, 0.32)
    f = _evaluate(hm, np.full(5, 0.32), u, False)[0]
    assert np.max(np.abs(f)) <= 1e-12


def _hybrid_fd_check(model, z, u, rtol):
    f0, Jz, Ju, _ = _evaluate(model, z, u, True)
    h = 1e-6
    n = z.size
    Jfd = np.empty((n, n))
    for j in range(n):
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        Jfd[:, j] = (_evaluate(model, zp, u, False)[0]
                     - _evaluate(model, zm, u, False)[0]) / (2 * h)
    scale = max(np.max(np.abs(Jfd)), 1.0)
    assert np.max(np.abs(Jz - Jfd)) / scale <= rtol
    Gfd = np.empty((n, 2))
    for j, (dL, dV) in enumerate([(h, 0.0), (0.0, h)]):
        up = ColumnInputs(u.L + dL, u.V + dV, u.F, u.x_F)
        um = ColumnInputs(u.L - dL, u.V - dV, u.F, u.x_F)
        Gfd[:, j] = (_evaluate(model, z, up, False)[0]
                     - _evaluate(model, z, um, False)[0]) / (2 * h)
    scale = max(np.max(np.abs(Gfd)), 1.0)
    assert np.max(np.abs(Ju - Gfd)) / scale <= rtol


def test_hybrid_oracle_partials_match_fd(params, layout, rng):
    hm = oracle_hybrid(params, layout, tol=1e-14)
    u = ColumnInputs(NOMINAL_L, NOMINAL_V, params.feed_flow, NOMINAL_XF)
    for _ in range(3):
        z = np.sort(rng.uniform(0.02, 0.98, 5))
        _hybrid_fd_check(hm, z, u, rtol=1e-6)


def test_hybrid_surrogate_partials_match_fd(params, layout, rng):
    from colnmpc.surrogate import ScalingSpec, SurrogateModel
    models = [SurrogateModel.new_random(i, rng, hidden=4,
                                        scaling=ScalingSpec(r_lo=0.3, r_hi=4.0))
              for i in range(4)]
    hm = HybridModel(params, layout, models)
    u = ColumnInputs(NOMINAL_L, NOMINAL_V, params.feed_flow, NOMINAL_XF)
    for _ in range(3):
        z = np.sort(rng.uniform(0.05, 0.95, 5))
        _hybrid_fd_check(hm, z, u, rtol=1e-6)


def test_hybrid_surrogate_clamp_flag(params, layout, rng):
    # a constant net with an extreme output bias saturates the inverse
    # scaling; evaluations must be clamped and flagged
    from colnmpc.surrogate import ScalingSpec, SurrogateModel
    sc = ScalingSpec()
    extreme = SurrogateModel(0, np.zeros((1, 3)), np.zeros(1), np.zeros(1),
                             40.0, sc)
    models = [extreme] + [SurrogateModel.new_random(i, rng, scaling=sc)
                          for i in range(1, 4)]
    hm = HybridModel(params, layout, models)
    u = ColumnInputs(NOMINAL_L, NOMINAL_V, params.feed_flow, NOMINAL_XF)
    f, _, _, n_clamped = _evaluate(hm, np.full(5, 0.5), u, True)
    assert n_clamped == 1
    assert np.all(np.isfinite(f))


def test_hybrid_clamp_count_on_per_section_path(params, layout, nominal_u):
    from colnmpc.surrogate import ScalingSpec, SurrogateModel
    extreme = SurrogateModel(0, np.zeros((1, 3)), np.zeros(1), np.zeros(1),
                             40.0, ScalingSpec())
    models = [extreme] + [SectionOracle(s, params.alpha)
                          for s in layout.sections[1:]]
    hm = HybridModel(params, layout, models)
    f, _, _, n_clamped = _evaluate(hm, np.full(5, 0.5), nominal_u, True)
    assert n_clamped == 1
    assert np.all(np.isfinite(f))


class _PerSection:
    """A section predictor with no packed form (forces per-section
    evaluation)."""

    def __init__(self, model):
        self.predict = model.predict


def test_hybrid_mixed_eps_matches_per_section(params, layout, nominal_u, rng,
                                              monkeypatch):
    # mixed eps takes the per-section path; one shared eps takes the
    # packed kernel on any layout, here one with the feed at hybrid state 1
    from colnmpc.surrogate import ScalingSpec, SurrogateModel
    calls = []
    packed_kernel = kernels.hybrid_rhs_jac
    monkeypatch.setattr(kernels, "hybrid_rhs_jac",
                        lambda *a: calls.append(1) or packed_kernel(*a))
    other = AggregationLayout.from_params(params, OTHER_LAYOUTS[0])
    for lay, epss, packed in [(layout, (0.05, 1e-9, 1e-9, 1e-9), 0),
                              (other, (1e-9,) * 4, 1)]:
        models = [SurrogateModel.new_random(
                      i, rng, hidden=3, scaling=ScalingSpec(eps=eps, r_lo=0.3,
                                                            r_hi=4.0))
                  for i, eps in enumerate(epss)]
        hm = HybridModel(params, lay, models)
        ref = HybridModel(params, lay, [_PerSection(m) for m in models])
        # z = 0.99 at the condenser is clipped by section 0's eps only
        z = np.array([0.01, 0.2, 0.4, 0.8, 0.99])
        calls.clear()
        got = _evaluate(hm, z, nominal_u, True)[:3]
        assert len(calls) == packed
        for g, want in zip(got, _evaluate(ref, z, nominal_u, True)[:3]):
            assert np.max(np.abs(g - want)) <= 1e-12
    _hybrid_fd_check(hm, np.sort(rng.uniform(0.05, 0.95, 5)), nominal_u,
                     rtol=1e-6)


@pytest.mark.parametrize("stages", OTHER_LAYOUTS)
def test_hybrid_oracle_steady_state_any_layout(params, nominal_u,
                                               nominal_steady, stages):
    lay = AggregationLayout.from_params(params, stages)
    x_agg = lay.state_from_plant(nominal_steady)
    hm = oracle_hybrid(params, lay)
    z = hybrid_steady_state(hm, nominal_u, init=x_agg)
    assert np.max(np.abs(z - x_agg)) <= 1e-8
    # found from a flat start too, to the accuracy the slow modes allow
    z = hybrid_steady_state(hm, nominal_u)
    assert np.max(np.abs(z - x_agg)) <= 1e-7


@pytest.mark.parametrize("stages", OTHER_LAYOUTS)
def test_hybrid_oracle_partials_match_fd_any_layout(params, rng, stages):
    lay = AggregationLayout.from_params(params, stages)
    hm = oracle_hybrid(params, lay, tol=1e-14)
    u = ColumnInputs(NOMINAL_L, NOMINAL_V, params.feed_flow, NOMINAL_XF)
    for _ in range(2):
        z = np.sort(rng.uniform(0.02, 0.98, len(stages)))
        _hybrid_fd_check(hm, z, u, rtol=1e-6)


def test_oracle_solves_each_section_once_per_evaluation(params, layout,
                                                        nominal_u,
                                                        monkeypatch):
    # value and gradient of a section come from one chain solve, counted
    # on the numpy and on the compiled path
    calls = []
    for owner in (kernels, _native):
        solve = owner.section_chain_solve
        monkeypatch.setattr(owner, "section_chain_solve",
                            lambda *a, solve=solve: calls.append(1)
                            or solve(*a))
    hm = oracle_hybrid(params, layout)
    z = layout.state_from_plant(np.linspace(0.02, 0.98, params.n_total))
    _evaluate(hm, z, nominal_u, False)
    assert len(calls) == 4
    calls.clear()
    _evaluate(hm, z, nominal_u, True)
    assert len(calls) == 4
