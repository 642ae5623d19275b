import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from colnmpc.surrogate import (DEFAULT_EPS, ScalingSpec, SerializationError,
                               SurrogateModel, deserialize, serialize,
                               transform, untransform)

# Golden record of the default constant model (frozen fixture; regenerating
# it must reproduce this string byte for byte).
GOLDEN_CONSTANT = (
    "surrogate-v1 2 1\n"
    "scaling 1e-09 0.5 4.0\n"
    "iw 0.0 0.0 0.0\n"
    "ib 0.0\n"
    "ow 0.0\n"
    "ob -0.8472978603872036\n"
)


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
        assert m.eval(x, y, r) == pytest.approx(0.3, abs=1e-12)


def test_eval_deterministic(rng):
    m = _random_model(rng)
    a = m.eval(0.3, 0.6, 1.2)
    b = m.eval(0.3, 0.6, 1.2)
    assert a == b


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
        fd = np.empty(3)
        for j, d in enumerate(np.eye(3) * h):
            fd[j] = (m.eval(x + d[0], y + d[1], r + d[2])
                     - m.eval(x - d[0], y - d[1], r - d[2])) / (2 * h)
        denom = max(np.max(np.abs(fd)), 1e-10)
        assert np.max(np.abs(g - fd)) / denom <= 1e-6


def test_weight_jacobian_matches_fd(rng):
    for _ in range(20):
        m = _random_model(rng, hidden=int(rng.integers(1, 8)))
        x, y = rng.uniform(0.05, 0.95, 2)
        r = rng.uniform(0.5, 3.0)
        Z = m.scale_inputs(np.array([[x, y, r]]))
        g = m.weight_jacobian(x, y, r)
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
    g = m.weight_jacobian(0.3, 0.6, 1.1)
    # output bias entry is always 1 (linear output layer)
    assert g[-1] == 1.0
    # zero input weights: output-weight entries equal tanh(bias)
    m0 = SurrogateModel(0, np.zeros((2, 3)), np.array([0.3, -1.2]),
                        np.array([0.5, 0.5]), 0.1, ScalingSpec())
    g0 = m0.weight_jacobian(0.4, 0.4, 1.0)
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


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_serialize_roundtrip(rng):
    m = _random_model(rng, hidden=6, section=3)
    m2 = deserialize(serialize(m))
    assert m2.section_id == 3
    assert np.array_equal(m2.input_weights, m.input_weights)
    assert np.array_equal(m2.input_biases, m.input_biases)
    assert np.array_equal(m2.output_weights, m.output_weights)
    assert m2.output_bias == m.output_bias
    assert m2.scaling == m.scaling


def test_serialize_golden_constant():
    m = SurrogateModel.constant(2, 0.3)
    assert serialize(m) == GOLDEN_CONSTANT
    m2 = deserialize(GOLDEN_CONSTANT)
    assert m2.eval(0.5, 0.5, 1.0) == pytest.approx(0.3, abs=1e-12)


def test_deserialize_rejects_truncated(rng):
    text = serialize(_random_model(rng))
    lines = text.splitlines()
    with pytest.raises(SerializationError):
        deserialize("\n".join(lines[:-1]))
    with pytest.raises(SerializationError):
        deserialize(text.replace("surrogate-v1", "surrogate-v9"))
    with pytest.raises(SerializationError):
        deserialize("")
