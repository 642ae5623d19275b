"""Single-hidden-layer ANN surrogate of one stationary column section.

Inputs (x_upper, y_lower, r): liquid entering the section from above,
vapor entering from below, and the section flow ratio.  Output: liquid
composition leaving the section bottom.  Compositions are trained and
evaluated in logit space (the column ends operate at high purity, where
plain mole fractions lose resolution); the flow ratio uses an affine map
onto [-1, 1].  Hidden activation tanh, linear output.

``eval_batch`` evaluates raw inputs, ``packed`` hands the weights to the
hybrid model's packed kernel (``kernels.hybrid_rhs_jac``, which also gives
the input gradient), and the learner works in scaled space
(``eval_scaled``, ``weight_jacobian_scaled``, the weight vector).  Models
are immutable: training and growth return new instances.  Models are not
persisted; they are retrained from the section data stores
(``learner.DataStore.write_csv``/``read_csv``).
"""

from dataclasses import dataclass, replace

import numpy as np

__all__ = ["ScalingSpec", "SurrogateModel", "transform", "untransform",
           "DEFAULT_EPS"]

DEFAULT_EPS = 1e-9


def transform(x, eps=DEFAULT_EPS):
    """Logit with clamping: ln(c / (1-c)), c = clip(x, eps, 1-eps)."""
    c = np.clip(x, eps, 1.0 - eps)
    out = np.log(c / (1.0 - c))
    return float(out) if np.ndim(x) == 0 else out

def untransform(z):
    """Inverse of transform on the clamped range (logistic sigmoid)."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ScalingSpec:
    eps: float = DEFAULT_EPS
    r_lo: float = 0.5
    r_hi: float = 4.0

    def scale_ratio(self, r):
        return 2.0 * (np.asarray(r, dtype=float) - self.r_lo) / (self.r_hi - self.r_lo) - 1.0


@dataclass(frozen=True)
class SurrogateModel:
    section_id: int
    input_weights: np.ndarray   # (hidden, 3)
    input_biases: np.ndarray    # (hidden,)
    output_weights: np.ndarray  # (hidden,)
    output_bias: float
    scaling: ScalingSpec

    def __post_init__(self):
        iw = np.array(self.input_weights, dtype=float)
        ib = np.array(self.input_biases, dtype=float)
        ow = np.array(self.output_weights, dtype=float)
        if iw.ndim != 2 or iw.shape[1] != 3:
            raise ValueError("input_weights must have shape (hidden, 3)")
        h = iw.shape[0]
        if h < 1:
            raise ValueError("need at least one hidden node")
        if ib.shape != (h,) or ow.shape != (h,):
            raise ValueError("inconsistent weight shapes")
        for a in (iw, ib, ow):
            a.flags.writeable = False
        object.__setattr__(self, "input_weights", iw)
        object.__setattr__(self, "input_biases", ib)
        object.__setattr__(self, "output_weights", ow)
        object.__setattr__(self, "output_bias", float(self.output_bias))

    # -- construction -----------------------------------------------------

    @classmethod
    def new_random(cls, section_id, rng, hidden=3, scaling=None):
        """Small random initial model (weights ~ N(0, 0.3))."""
        scaling = scaling or ScalingSpec()
        return cls(
            section_id=section_id,
            input_weights=0.3 * rng.standard_normal((hidden, 3)),
            input_biases=0.3 * rng.standard_normal(hidden),
            output_weights=0.3 * rng.standard_normal(hidden),
            output_bias=0.0,
            scaling=scaling,
        )

    @property
    def hidden_count(self):
        return self.input_weights.shape[0]

    # -- scaling ----------------------------------------------------------

    def scale_inputs(self, X):
        """Raw (n, 3) inputs -> scaled (n, 3)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Z = np.empty_like(X)
        Z[:, 0] = transform(X[:, 0], self.scaling.eps)
        Z[:, 1] = transform(X[:, 1], self.scaling.eps)
        Z[:, 2] = self.scaling.scale_ratio(X[:, 2])
        return Z

    # -- evaluation -------------------------------------------------------

    def _activations(self, Z):
        """Hidden tanh activations (n, hidden).

        Pre-activations use a fixed elementwise expression instead of a
        BLAS matmul: gemm paths change with the hidden count, which would
        break add_node's bitwise output-preservation guarantee.
        """
        W = self.input_weights
        return np.tanh(Z[:, [0]] * W[:, 0] + Z[:, [1]] * W[:, 1]
                       + Z[:, [2]] * W[:, 2] + self.input_biases)

    def eval_scaled(self, Z):
        """Scaled (n, 3) inputs -> scaled outputs (n,).

        The output sum is accumulated node by node (not via BLAS dot) so
        that appending a zero-weight node leaves outputs bitwise
        unchanged, which add_node guarantees.
        """
        A = self._activations(Z)
        out = np.full(A.shape[0], self.output_bias)
        for i in range(self.hidden_count):
            out = out + self.output_weights[i] * A[:, i]
        return out

    def eval_batch(self, X):
        """Raw inputs (n, 3) -> raw outputs (n,), clamped to (eps, 1-eps)."""
        out = untransform(self.eval_scaled(self.scale_inputs(X)))
        return np.clip(out, self.scaling.eps, 1.0 - self.scaling.eps)

    # -- derivatives ------------------------------------------------------

    def weight_jacobian_scaled(self, Z):
        """Batch weight Jacobian on scaled inputs: (n, 5*hidden + 1).

        Column order matches as_weight_vector: per node (3 input weights,
        bias, output weight), then the output bias.
        """
        Z = np.atleast_2d(Z)
        n = Z.shape[0]
        h = self.hidden_count
        A = self._activations(Z)                                   # (n, h)
        D = self.output_weights * (1.0 - A * A)                    # (n, h)
        J = np.empty((n, 5 * h + 1))
        nodes = J[:, :-1].reshape(n, h, 5)                         # a view
        nodes[:, :, :3] = D[:, :, None] * Z[:, None, :]
        nodes[:, :, 3] = D
        nodes[:, :, 4] = A
        J[:, 5 * h] = 1.0
        return J

    # -- weight vector round trip ------------------------------------------

    def as_weight_vector(self):
        h = self.hidden_count
        w = np.empty(5 * h + 1)
        nodes = w[:-1].reshape(h, 5)
        nodes[:, :3] = self.input_weights
        nodes[:, 3] = self.input_biases
        nodes[:, 4] = self.output_weights
        w[5 * h] = self.output_bias
        return w

    def with_weight_vector(self, w):
        w = np.asarray(w, dtype=float)
        h = self.hidden_count
        if w.shape != (5 * h + 1,):
            raise ValueError("weight vector length mismatch")
        nodes = w[:-1].reshape(h, 5)   # copied by __post_init__
        return replace(self, input_weights=nodes[:, :3],
                       input_biases=nodes[:, 3], output_weights=nodes[:, 4],
                       output_bias=float(w[5 * h]))

    # -- growth -----------------------------------------------------------

    def add_node(self):
        """Append one zero-initialized hidden node; outputs are unchanged
        because the new output weight is zero."""
        return replace(
            self,
            input_weights=np.vstack([self.input_weights, np.zeros(3)]),
            input_biases=np.append(self.input_biases, 0.0),
            output_weights=np.append(self.output_weights, 0.0),
        )

    # -- kernel packing -----------------------------------------------------

    def packed(self):
        """Flat weights in the packed-kernel layout:
        [input weights row-major | input biases | output weights | bias]."""
        flat = np.concatenate([self.input_weights.ravel(), self.input_biases,
                               self.output_weights, [self.output_bias]])
        return flat, (self.scaling.r_lo, self.scaling.r_hi), self.scaling.eps
