import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colnmpc import kernels
from colnmpc.column import AggregationLayout, ColumnParams, HybridModel
from colnmpc.surrogate import (DEFAULT_EPS, ScalingSpec, SurrogateModel,
                               transform, untransform)


def _random_model(rng, hidden=4, section=0):
    return SurrogateModel.new_random(section, rng, hidden=hidden,
                                     scaling=ScalingSpec(r_lo=0.4, r_hi=3.5))


# ---------------------------------------------------------------------------
# scaling transform
# ---------------------------------------------------------------------------

def test_transform_symmetry_point():
    assert transform(0.5) == 0.0


def test_transform_roundtrip_high_purity():
    # the set-point purity must survive the round trip
    assert untransform(transform(0.99995)) == pytest.approx(0.99995, abs=1e-12)
    assert untransform(transform(0.00005)) == pytest.approx(0.00005, abs=1e-12)


def test_transform_odd_symmetry():
    assert transform(0.9) == pytest.approx(-transform(0.1), abs=1e-12)


@given(x=st.floats(1e-8, 1.0 - 1e-8))
@settings(max_examples=200, deadline=None)
def test_transform_bijection(x):
    assert untransform(transform(x)) == pytest.approx(x, rel=1e-9, abs=1e-12)


def test_transform_clamps_out_of_range():
    assert transform(0.0) == transform(DEFAULT_EPS)
    assert transform(1.0) == transform(1.0 - DEFAULT_EPS)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_deterministic(rng):
    m = _random_model(rng)
    a = m.eval_batch([[0.3, 0.6, 1.2]])
    b = m.eval_batch([[0.3, 0.6, 1.2]])
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# jacobians
# ---------------------------------------------------------------------------

# The input gradient of a surrogate is computed by the hybrid model's
# packed kernel, and checked through it on the default layout.
P = ColumnParams()
LAYOUT = AggregationLayout.from_params(P)
L, V, X_F = 2.0, 2.5, 0.32


def _hybrid_jacobians(models, z, want_jac=True, inputs=(L, V)):
    hm = HybridModel(P, LAYOUT, models)
    return hm.evaluate(z, *inputs, P.feed_flow, X_F, want_jac)


def test_constant_model_zero_input_jacobian():
    # the Jacobians of constant sections are those assembled from zero
    # section gradients
    sc = ScalingSpec()
    models = [SurrogateModel(k, np.zeros((1, 3)), np.zeros(1), np.zeros(1),
                             transform(v, sc.eps), sc)
              for k, v in enumerate((0.9, 0.6, 0.3, 0.05))]
    z = np.array([0.02, 0.2, 0.4, 0.8, 0.98])
    _, Jz, Ju, _ = _hybrid_jacobians(models, z)
    nsec = len(models)
    xb, yt, dxb, dyt = [], [], [], []
    for k, (sec, m) in enumerate(zip(LAYOUT.sections, models)):
        zu, zl = z[nsec - k], z[nsec - 1 - k]
        yl, r = kernels.equilibrium(zl, P.alpha), sec.flow_ratio(L, V,
                                                                   P.feed_flow)
        xb.append(float(m.eval_batch([[zu, yl, r]])[0]))
        yt.append(yl + r * (zu - xb[-1]))
        da, dy = kernels.section_partials(
            0.0, 0.0, 0.0, kernels.equilibrium_deriv(zl, P.alpha), zu,
            xb[-1], r, V)
        dxb.append(da)
        dyt.append(dy)
    strip = [s.uses_stripping_flow for s in LAYOUT.sections]
    _, Jz0, Ju0 = kernels.hybrid_assemble(
        z.tolist(), xb, yt, dxb, dyt, L, V, P.feed_flow, X_F, P.alpha,
        LAYOUT.effective_holdups(P), strip,
        LAYOUT.agg_stages.index(P.feed_stage), True)
    assert np.allclose(Jz, Jz0, rtol=1e-12, atol=1e-15)
    assert np.allclose(Ju, Ju0, rtol=1e-12, atol=1e-15)


def test_input_jacobian_matches_fd(rng):
    h = 1e-6
    for _ in range(20):
        models = [_random_model(rng, hidden=int(rng.integers(1, 8)),
                                section=k) for k in range(4)]
        z = np.sort(rng.uniform(0.05, 0.95, 5))
        _, Jz, Ju, _ = _hybrid_jacobians(models, z)
        fd = np.empty((5, 7))   # d f / d (z, L, V)
        for j in range(7):
            d = np.eye(7)[j] * h
            fd[:, j] = (_hybrid_jacobians(models, z + d[:5], False,
                                          (L, V) + d[5:])[0]
                        - _hybrid_jacobians(models, z - d[:5], False,
                                            (L, V) - d[5:])[0]) / (2 * h)
        denom = max(np.max(np.abs(fd)), 1.0)
        assert np.max(np.abs(np.hstack([Jz, Ju]) - fd)) / denom <= 1e-6


def test_weight_jacobian_matches_fd(rng):
    for _ in range(20):
        m = _random_model(rng, hidden=int(rng.integers(1, 8)))
        x, y = rng.uniform(0.05, 0.95, 2)
        r = rng.uniform(0.5, 3.0)
        Z = m.scale_inputs(np.array([[x, y, r]]))
        g = m.weight_jacobian_scaled(Z)[0]
        w0 = m.as_weight_vector()
        fd = np.empty_like(w0)
        h = 1e-6
        for j in range(w0.size):
            wp, wm = w0.copy(), w0.copy()
            wp[j] += h
            wm[j] -= h
            fd[j] = (m.with_weight_vector(wp).eval_scaled(Z)[0]
                     - m.with_weight_vector(wm).eval_scaled(Z)[0]) / (2 * h)
        denom = max(np.max(np.abs(fd)), 1e-10)
        assert np.max(np.abs(g - fd)) / denom <= 1e-6


def test_weight_jacobian_structure(rng):
    m = _random_model(rng, hidden=3)
    g = m.weight_jacobian_scaled(m.scale_inputs([[0.3, 0.6, 1.1]]))[0]
    # output bias entry is always 1 (linear output layer)
    assert g[-1] == 1.0
    # zero input weights: output-weight entries equal tanh(bias)
    m0 = SurrogateModel(0, np.zeros((2, 3)), np.array([0.3, -1.2]),
                        np.array([0.5, 0.5]), 0.1, ScalingSpec())
    g0 = m0.weight_jacobian_scaled(m0.scale_inputs([[0.4, 0.4, 1.0]]))[0]
    assert g0[4] == pytest.approx(np.tanh(0.3))
    assert g0[9] == pytest.approx(np.tanh(-1.2))


# ---------------------------------------------------------------------------
# weight vector round trip / growth
# ---------------------------------------------------------------------------

def test_weight_vector_roundtrip(rng):
    m = _random_model(rng, hidden=5)
    w = m.as_weight_vector()
    assert w.size == 5 * 5 + 1
    m2 = m.with_weight_vector(w)
    assert np.array_equal(m2.as_weight_vector(), w)
    assert np.array_equal(m2.input_weights, m.input_weights)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_add_node_preserves_outputs(seed):
    rng = np.random.default_rng(seed)
    m = _random_model(rng, hidden=int(rng.integers(1, 6)))
    grown = m.add_node()
    assert grown.hidden_count == m.hidden_count + 1
    assert grown.as_weight_vector().size == m.as_weight_vector().size + 5
    X = np.column_stack([rng.uniform(0, 1, 16), rng.uniform(0, 1, 16),
                         rng.uniform(0.5, 3.0, 16)])
    assert np.array_equal(m.eval_batch(X), grown.eval_batch(X))


def test_add_node_twice(rng):
    m = _random_model(rng, hidden=2)
    assert m.add_node().add_node().hidden_count == 4
