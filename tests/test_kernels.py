"""Parity between the compiled kernel core and the numpy reference, and
between the vectorized reference kernels and their scalar stage loops."""

import pathlib
import re

import numpy as np
import pytest

from colnmpc import kernels
from colnmpc.kernels import pyref

fast = kernels.impl
compiled = pytest.mark.skipif(
    kernels.BACKEND != "compiled",
    reason="compiled kernels not available in this build")


def _pack_random_nets(rng):
    nets, offs, hs = [], [0], []
    for _ in range(4):
        h = int(rng.integers(1, 9))
        hs.append(h)
        w = 0.4 * rng.standard_normal(5 * h + 1)
        nets.append(w)
        offs.append(offs[-1] + w.size)
    return (np.concatenate(nets), np.array(offs[:-1], dtype=np.int64),
            np.array(hs, dtype=np.int64))


@compiled
def test_equilibrium_parity(rng):
    x = rng.uniform(0, 1, 64)
    for alpha in (1.0, 2.0, 3.55):
        assert np.array_equal(fast.equilibrium(x, alpha),
                              pyref.equilibrium(x, alpha))
        assert fast.equilibrium(0.37, alpha) == pyref.equilibrium(0.37, alpha)
        assert np.array_equal(fast.equilibrium_deriv(x, alpha),
                              pyref.equilibrium_deriv(x, alpha))
        assert np.array_equal(fast.inverse_equilibrium(x, alpha),
                              pyref.inverse_equilibrium(x, alpha))


@compiled
def test_full_model_parity(rng):
    n = 42
    holdup = np.full(n, 0.5)
    holdup[0] = holdup[-1] = 10.0
    for _ in range(25):
        x = rng.uniform(0, 1, n)
        L, V, F, xF = rng.uniform(1, 5), rng.uniform(2, 6), 1.0, rng.uniform(0, 1)
        args = (x, L, V, F, xF, 2.0, holdup, 20)
        assert np.allclose(fast.full_rhs(*args), pyref.full_rhs(*args),
                           rtol=1e-14, atol=1e-16)
        jargs = (x, L, V, F, 2.0, holdup, 20)
        assert np.allclose(fast.full_state_jac(*jargs),
                           pyref.full_state_jac(*jargs), rtol=1e-14, atol=1e-16)
        assert np.allclose(fast.full_input_jac(*jargs),
                           pyref.full_input_jac(*jargs), rtol=1e-14, atol=1e-16)


@compiled
def test_section_chain_parity(rng):
    for _ in range(50):
        x_up, y_lo = rng.uniform(0.01, 0.99, 2)
        r = rng.uniform(0.3, 3.0)
        m = int(rng.integers(1, 14))
        xs_f, it_f, res_f = fast.section_chain_solve(x_up, y_lo, r, m, 2.0)
        xs_p, it_p, res_p = pyref.section_chain_solve(x_up, y_lo, r, m, 2.0)
        assert np.allclose(xs_f, xs_p, atol=1e-12)
        assert res_f <= 1e-12 and res_p <= 1e-12


@compiled
def test_hybrid_rhs_jac_parity(rng):
    m_hold = np.array([13.0, 5.0, 3.5, 5.0, 13.5])
    r_lo = np.full(4, 0.4)
    r_hi = np.full(4, 3.6)
    for _ in range(25):
        net, off, hs = _pack_random_nets(rng)
        z = rng.uniform(0.01, 0.99, 5)
        L, V = rng.uniform(1.5, 3.0), rng.uniform(2.0, 3.5)
        args = (z, L, V, 1.0, 0.32, 2.0, m_hold, net, off, hs, r_lo, r_hi,
                1e-9, 1)
        f_f, Jz_f, Ju_f, nc_f = fast.hybrid_rhs_jac(*args)
        f_p, Jz_p, Ju_p, nc_p = pyref.hybrid_rhs_jac(*args)
        assert np.allclose(f_f, f_p, rtol=1e-13, atol=1e-15)
        assert np.allclose(Jz_f, Jz_p, rtol=1e-13, atol=1e-14)
        assert np.allclose(Ju_f, Ju_p, rtol=1e-13, atol=1e-14)
        assert nc_f == nc_p
        # rhs-only call agrees with the jacobian call
        f2, _, _, _ = fast.hybrid_rhs_jac(*args[:-1], 0)
        assert np.array_equal(f2, f_f)


# Scalar stage loops: the reference formulas the vectorized pyref
# full-order kernels must reproduce bit for bit.

def _loop_full_rhs(x, L, V, F, x_F, alpha, holdup, feed_idx):
    n = x.shape[0]
    y = alpha * x / (1.0 + (alpha - 1.0) * x)
    f = np.empty(n)
    LF = L + F
    f[0] = (LF * (x[1] - x[0]) + V * (x[0] - y[0])) / holdup[0]
    for i in range(1, n - 1):
        if i == feed_idx:
            acc = L * (x[i + 1] - x[i]) + V * (y[i - 1] - y[i]) + F * (x_F - x[i])
        else:
            Ls = LF if i < feed_idx else L
            acc = Ls * (x[i + 1] - x[i]) + V * (y[i - 1] - y[i])
        f[i] = acc / holdup[i]
    f[n - 1] = V * (y[n - 2] - x[n - 1]) / holdup[n - 1]
    return f


def _loop_full_state_jac(x, L, V, F, alpha, holdup, feed_idx):
    n = x.shape[0]
    dy = alpha / (1.0 + (alpha - 1.0) * x) ** 2
    J = np.zeros((n, n))
    LF = L + F
    J[0, 0] = (-LF + V * (1.0 - dy[0])) / holdup[0]
    J[0, 1] = LF / holdup[0]
    for i in range(1, n - 1):
        Ls = L if i >= feed_idx else LF
        extra = F if i == feed_idx else 0.0
        J[i, i - 1] = V * dy[i - 1] / holdup[i]
        J[i, i] = (-Ls - V * dy[i] - extra) / holdup[i]
        J[i, i + 1] = Ls / holdup[i]
    J[n - 1, n - 2] = V * dy[n - 2] / holdup[n - 1]
    J[n - 1, n - 1] = -V / holdup[n - 1]
    return J


def _loop_full_input_jac(x, L, V, F, alpha, holdup, feed_idx):
    n = x.shape[0]
    y = alpha * x / (1.0 + (alpha - 1.0) * x)
    G = np.zeros((n, 2))
    G[0, 0] = (x[1] - x[0]) / holdup[0]
    G[0, 1] = (x[0] - y[0]) / holdup[0]
    for i in range(1, n - 1):
        G[i, 0] = (x[i + 1] - x[i]) / holdup[i]
        G[i, 1] = (y[i - 1] - y[i]) / holdup[i]
    G[n - 1, 1] = (y[n - 2] - x[n - 1]) / holdup[n - 1]
    return G


def test_full_model_kernels_bitwise_equal_scalar_loops(rng):
    n = 42
    for feed_idx in (1, 20, n - 2):
        for _ in range(100):
            x = rng.uniform(0, 1, n)
            holdup = rng.uniform(0.2, 12.0, n)
            L, V, F = rng.uniform(0.5, 5), rng.uniform(1, 6), rng.uniform(0.2, 2)
            x_F, alpha = rng.uniform(0, 1), rng.uniform(1, 4)
            args = (x, L, V, F, alpha, holdup, feed_idx)
            pairs = [(pyref.full_rhs(x, L, V, F, x_F, alpha, holdup, feed_idx),
                      _loop_full_rhs(x, L, V, F, x_F, alpha, holdup, feed_idx)),
                     (pyref.full_state_jac(*args), _loop_full_state_jac(*args)),
                     (pyref.full_input_jac(*args), _loop_full_input_jac(*args))]
            for got, want in pairs:
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def test_generated_c_matches_pyx():
    # Cython embeds each compiled source line in _fast.c, marked with
    # "# <<<<<<<<<<<<<<" under a '"colnmpc/kernels/_fast.pyx":N' header.
    # Editing _fast.pyx without regenerating _fast.c breaks this, with or
    # without Cython installed.
    kdir = pathlib.Path(kernels.__file__).parent
    pyx = (kdir / "_fast.pyx").read_text().splitlines()
    c_lines = (kdir / "_fast.c").read_text().splitlines()
    header = re.compile(r'\s*/\* "colnmpc/kernels/_fast\.pyx":(\d+)$')
    mark = "             # <<<<<<<<<<<<<<"
    checked = 0
    for i, line in enumerate(c_lines):
        m = header.match(line)
        if not m:
            continue
        n = int(m.group(1))
        j = i + 1
        while not c_lines[j].endswith(mark):
            assert not c_lines[j].startswith("*/"), f"no marked line for {n}"
            j += 1
        assert c_lines[j][len(" * "):-len(mark)] == pyx[n - 1], (
            f"_fast.c is stale at _fast.pyx line {n}")
        checked += 1
    assert checked > 0
