"""Parity between the compiled kernel core and the numpy reference, and
between the reference kernels and the plainer code they replace: the
full-order scalar stage loops and the per-section numpy hybrid kernel."""

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


# Per-section numpy hybrid kernel and array-based assembly: the reference
# the section-batched pyref.hybrid_rhs_jac and the list-based
# pyref.hybrid_assemble must reproduce bit for bit.

_REF_UP, _REF_LO = (4, 3, 2, 1), (3, 2, 1, 0)
_REF_STRIP = (False, False, True, True)


def _ref_logit(x, eps):
    c = min(max(x, eps), 1.0 - eps)
    return np.log(c / (1.0 - c))


def _ref_sigmoid(z):
    if z >= 0.0:
        return 1.0 / (1.0 + np.exp(-z))
    e = np.exp(z)
    return e / (1.0 + e)


def _ref_dlogit(x, eps):
    if x <= eps or x >= 1.0 - eps:
        return 0.0
    return 1.0 / (x * (1.0 - x))


def _ref_net_eval(net, off, h, s0, s1, s2):
    iw = net[off:off + 3 * h].reshape(h, 3)
    ib = net[off + 3 * h:off + 4 * h]
    ow = net[off + 4 * h:off + 5 * h]
    ob = net[off + 5 * h]
    a = np.tanh(iw[:, 0] * s0 + iw[:, 1] * s1 + iw[:, 2] * s2 + ib)
    zeta = ob + float(ow @ a)
    g = ow * (1.0 - a * a)
    return zeta, float(g @ iw[:, 0]), float(g @ iw[:, 1]), float(g @ iw[:, 2])


def _ref_hybrid_rhs_jac(z, L, V, F, x_F, alpha, m_hold, net, net_off, hidden,
                        r_lo, r_hi, eps, want_jac):
    z = np.asarray(z, dtype=float)
    n_clamped = 0
    xb = np.empty(4)
    yt = np.empty(4)
    dxb = np.zeros((4, 4))
    dyt = np.zeros((4, 4))
    for k in range(4):
        zu = z[_REF_UP[k]]
        zl = z[_REF_LO[k]]
        yl = alpha * zl / (1.0 + (alpha - 1.0) * zl)
        dyl = alpha / (1.0 + (alpha - 1.0) * zl) ** 2
        r = (L + F if _REF_STRIP[k] else L) / V
        s0 = _ref_logit(zu, eps)
        s1 = _ref_logit(yl, eps)
        s2 = 2.0 * (r - r_lo[k]) / (r_hi[k] - r_lo[k]) - 1.0
        zeta, g0, g1, g2 = _ref_net_eval(net, net_off[k], hidden[k],
                                         s0, s1, s2)
        xbk = _ref_sigmoid(zeta)
        clamped = xbk < eps or xbk > 1.0 - eps
        if clamped:
            xbk = min(max(xbk, eps), 1.0 - eps)
            n_clamped += 1
        xb[k] = xbk
        yt[k] = yl + r * (zu - xbk)
        if want_jac:
            if clamped:
                du = dl = dr = 0.0
            else:
                sig = xbk * (1.0 - xbk)
                du = sig * g0 * _ref_dlogit(zu, eps)
                dl = sig * g1 * _ref_dlogit(yl, eps) * dyl
                dr = sig * g2 * 2.0 / (r_hi[k] - r_lo[k])
            dxb[k, 0] = du
            dxb[k, 1] = dl
            dxb[k, 2] = dr / V
            dxb[k, 3] = -dr * r / V
            dyt[k, 0] = r * (1.0 - du)
            dyt[k, 1] = dyl - r * dl
            dyt[k, 2] = (zu - xbk) / V - r * dxb[k, 2]
            dyt[k, 3] = -r * (zu - xbk) / V - r * dxb[k, 3]
    f, Jz, Ju = _ref_hybrid_assemble(z, xb, yt, dxb, dyt, L, V, F, x_F, alpha,
                                     m_hold, _REF_STRIP, 2, want_jac)
    return f, Jz, Ju, n_clamped


def _ref_hybrid_assemble(z, xb, yt, dxb, dyt, L, V, F, x_F, alpha, m_hold,
                         strip, feed, want_jac):
    n = z.shape[0]
    L, V, F = float(L), float(V), float(F)
    LF = L + F
    y_z = (alpha * z / (1.0 + (alpha - 1.0) * z)).tolist()
    zl, xb, yt = z.tolist(), xb.tolist(), yt.tolist()
    f = [0.0] * n
    f[n - 1] = V * (yt[0] - zl[n - 1]) / m_hold[n - 1]
    for i in range(n - 1):
        ka, kb = n - 2 - i, n - 1 - i
        Ls = LF if strip[ka] else L
        vap = V * (zl[0] - y_z[0]) if i == 0 else V * (yt[kb] - y_z[i])
        acc = Ls * (xb[ka] - zl[i]) + vap
        if i == feed:
            acc = acc + F * (x_F - zl[i])
        f[i] = acc / m_hold[i]
    f = np.array(f)
    if not want_jac:
        return f, None, None
    dy_z = (alpha / (1.0 + (alpha - 1.0) * z) ** 2).tolist()
    dxb, dyt = dxb.tolist(), dyt.tolist()
    Jz = np.zeros((n, n))
    Ju = np.zeros((n, 2))
    m = m_hold[n - 1]
    Jz[n - 1, n - 1] = V * (dyt[0][0] - 1.0) / m
    Jz[n - 1, n - 2] = V * dyt[0][1] / m
    Ju[n - 1, 0] = V * dyt[0][2] / m
    Ju[n - 1, 1] = ((yt[0] - zl[n - 1]) + V * dyt[0][3]) / m
    for i in range(n - 1):
        ka, kb = n - 2 - i, n - 1 - i
        Ls = LF if strip[ka] else L
        m = m_hold[i]
        da = dxb[ka]
        Jz[i, i + 1] = Ls * da[0] / m
        if i == 0:
            Jz[0, 0] = (Ls * (da[1] - 1.0) + V * (1.0 - dy_z[0])) / m
            Ju[0, 0] = ((xb[ka] - zl[0]) + Ls * da[2]) / m
            Ju[0, 1] = (Ls * da[3] + (zl[0] - y_z[0])) / m
            continue
        db = dyt[kb]
        diag = Ls * (da[1] - 1.0) + V * (db[0] - dy_z[i])
        if i == feed:
            diag = diag - F
        Jz[i, i] = diag / m
        Jz[i, i - 1] = V * db[1] / m
        Ju[i, 0] = ((xb[ka] - zl[i]) + Ls * da[2] + V * db[2]) / m
        Ju[i, 1] = (Ls * da[3] + (yt[kb] - y_z[i]) + V * db[3]) / m
    return f, Jz, Ju


def _same_bits(got, want):
    for a, b in zip(got, want):
        if b is None:
            assert a is None
        else:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_hybrid_rhs_jac_bitwise_equal_per_section_reference(rng):
    # hidden counts 1..30 (length-1 dots included), saturated tanh units,
    # clamped sections, states inside and outside [0, 1], tight and loose
    # eps, with and without Jacobians
    clamped = outside = 0
    for _ in range(1000):
        nets, offs, hs = [], [0], []
        for _ in range(4):
            h = int(rng.integers(1, 31))
            w = rng.choice([0.4, 3.0]) * rng.standard_normal(5 * h + 1)
            if rng.random() < 0.2:
                w[-1] = rng.choice([-40.0, 40.0])
            hs.append(h)
            nets.append(w)
            offs.append(offs[-1] + w.size)
        net = np.concatenate(nets)
        off = np.array(offs[:-1], dtype=np.int64)
        hs = np.array(hs, dtype=np.int64)
        z = rng.uniform(0.0, 1.0, 5) if rng.random() < 0.5 \
            else rng.uniform(-0.3, 1.3, 5)
        outside += bool(np.any((z < 0.0) | (z > 1.0)))
        L, V = rng.uniform(1.0, 5.0), rng.uniform(2.0, 6.0)
        F, x_F = rng.uniform(0.5, 1.5), rng.uniform(0.2, 0.5)
        alpha = rng.uniform(1.2, 3.0)
        m_hold = rng.uniform(2.0, 15.0, 5)
        r_lo, r_hi = rng.uniform(0.2, 0.6, 4), rng.uniform(3.0, 5.0, 4)
        for eps in (1e-9, 1e-2):
            for want_jac in (0, 1):
                args = (z, L, V, F, x_F, alpha, m_hold, net, off, hs, r_lo,
                        r_hi, eps, want_jac)
                f, Jz, Ju, nc = pyref.hybrid_rhs_jac(*args)
                f_r, Jz_r, Ju_r, nc_r = _ref_hybrid_rhs_jac(*args)
                assert nc == nc_r
                _same_bits((f, Jz, Ju), (f_r, Jz_r, Ju_r))
                clamped += nc
    assert clamped > 0 and outside > 0


def test_hybrid_assemble_bitwise_equal_array_reference(rng):
    for _ in range(3000):
        n = int(rng.integers(3, 9))
        z = rng.uniform(-0.2, 1.2, n)
        xb, yt = rng.uniform(0.0, 1.0, n - 1), rng.uniform(0.0, 1.0, n - 1)
        dxb = rng.standard_normal((n - 1, 4))
        dyt = rng.standard_normal((n - 1, 4))
        L, V = rng.uniform(1.0, 5.0), rng.uniform(2.0, 6.0)
        F, x_F = rng.uniform(0.5, 1.5), rng.uniform(0.2, 0.5)
        alpha = rng.uniform(1.2, 3.0)
        m_hold = rng.uniform(2.0, 15.0, n)
        strip = tuple(bool(b) for b in rng.integers(0, 2, n - 1))
        feed = int(rng.integers(1, n - 1))
        for want_jac in (0, 1):
            rest = (L, V, F, x_F, alpha, m_hold, strip, feed, want_jac)
            want = _ref_hybrid_assemble(z, xb, yt, dxb, dyt, *rest)
            lists = (z.tolist(), xb.tolist(), yt.tolist(), dxb.tolist(),
                     dyt.tolist())
            _same_bits(pyref.hybrid_assemble(*lists, *rest), want)
            _same_bits(pyref.hybrid_assemble(z, xb, yt, dxb, dyt, *rest), want)


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
