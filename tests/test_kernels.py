"""The numpy kernels against the plainer code they replace, bit for bit:
the full-order scalar stage loops, and the per-section hybrid kernel and
array-based balance assembly, on random aggregation layouts."""

import numpy as np

from colnmpc import kernels


# Scalar stage loops: the reference formulas the vectorized full-order
# kernels must reproduce bit for bit.

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
            rhs_args = (x, L, V, F, x_F, alpha, holdup, feed_idx)
            pairs = [(kernels.full_rhs(*rhs_args), _loop_full_rhs(*rhs_args)),
                     (kernels.full_state_jac(*args),
                      _loop_full_state_jac(*args)),
                     (kernels.full_input_jac(*args),
                      _loop_full_input_jac(*args))]
            for got, want in pairs:
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


# Per-section numpy hybrid kernel and array-based assembly: the reference
# the section-batched kernels.hybrid_rhs_jac and the list-based
# kernels.hybrid_assemble must reproduce bit for bit.


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
                        r_lo, r_hi, eps, strip, feed, want_jac):
    z = np.asarray(z, dtype=float)
    n = z.shape[0]
    n_clamped = 0
    xb = np.empty(n - 1)
    yt = np.empty(n - 1)
    dxb = np.zeros((n - 1, 4))
    dyt = np.zeros((n - 1, 4))
    for k in range(n - 1):
        zu = z[n - 1 - k]
        zl = z[n - 2 - k]
        yl = alpha * zl / (1.0 + (alpha - 1.0) * zl)
        dyl = alpha / (1.0 + (alpha - 1.0) * zl) ** 2
        r = (L + F if strip[k] else L) / V
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
                                     m_hold, strip, feed, want_jac)
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
    # random layouts (2..7 sections, strip flags, feed stage), hidden
    # counts 1..30 (length-1 dots included), saturated tanh units, clamped
    # sections, states inside and outside [0, 1], tight and loose eps,
    # with and without Jacobians
    clamped = outside = 0
    for _ in range(1000):
        n = int(rng.integers(3, 9))
        strip = tuple(bool(b) for b in rng.integers(0, 2, n - 1))
        feed = int(rng.integers(1, n - 1))
        nets, offs, hs = [], [0], []
        for _ in range(n - 1):
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
        z = rng.uniform(0.0, 1.0, n) if rng.random() < 0.5 \
            else rng.uniform(-0.3, 1.3, n)
        outside += bool(np.any((z < 0.0) | (z > 1.0)))
        L, V = rng.uniform(1.0, 5.0), rng.uniform(2.0, 6.0)
        F, x_F = rng.uniform(0.5, 1.5), rng.uniform(0.2, 0.5)
        alpha = rng.uniform(1.2, 3.0)
        m_hold = rng.uniform(2.0, 15.0, n)
        r_lo = rng.uniform(0.2, 0.6, n - 1)
        r_hi = rng.uniform(3.0, 5.0, n - 1)
        for eps in (1e-9, 1e-2):
            for want_jac in (0, 1):
                args = (z, L, V, F, x_F, alpha, m_hold, net, off, hs, r_lo,
                        r_hi, eps, strip, feed, want_jac)
                f, Jz, Ju, nc = kernels.hybrid_rhs_jac(*args)
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
            arrays = (z, xb, yt, dxb, dyt)
            _same_bits(kernels.hybrid_assemble(*lists, *rest), want)
            _same_bits(kernels.hybrid_assemble(*arrays, *rest), want)

