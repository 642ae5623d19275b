import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

def test_constant_model_outputs_constant(rng):
    m = SurrogateModel.constant(1, 0.3)
    for _ in range(20):
        x, y = rng.uniform(0, 1, 2)
        r = rng.uniform(0.5, 3.0)
        assert m.eval_batch([[x, y, r]])[0] == pytest.approx(0.3, abs=1e-12)


def test_eval_deterministic(rng):
    m = _random_model(rng)
    a = m.eval_batch([[0.3, 0.6, 1.2]])
    b = m.eval_batch([[0.3, 0.6, 1.2]])
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# jacobians
# ---------------------------------------------------------------------------

def test_constant_model_zero_input_jacobian():
    m = SurrogateModel.constant(0, 0.4)
    assert np.array_equal(m.predict(0.3, 0.5, 1.0, True)[2], np.zeros(3))


def test_input_jacobian_matches_fd(rng):
    for _ in range(20):
        m = _random_model(rng, hidden=int(rng.integers(1, 8)))
        x, y = rng.uniform(0.05, 0.95, 2)
        r = rng.uniform(0.5, 3.0)
        g = m.predict(x, y, r, True)[2]
        h = 1e-6
        d = np.eye(3) * h
        fd = (m.eval_batch([x, y, r] + d)
              - m.eval_batch([x, y, r] - d)) / (2 * h)
        denom = max(np.max(np.abs(fd)), 1e-10)
        assert np.max(np.abs(g - fd)) / denom <= 1e-6


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
