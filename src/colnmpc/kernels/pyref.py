"""Reference numpy implementation of the hot kernels.

Semantics ground truth for the compiled core (``_fast.pyx``).  Every
kernel here has a bit-compatible signature in the Cython module; the
parity test suite asserts both backends agree to tight tolerances.  The
one exception is ``hybrid_assemble``, the layout-driven aggregation-stage
balance: it is python-only and shared by ``hybrid_rhs_jac`` and by the
per-section path of ``column.HybridModel``, whichever backend is active.

The full-order kernels (``full_rhs``, ``full_state_jac``,
``full_input_jac``) are vectorized over the trays with numpy slices.  Each
element is computed with the operations, in the order, of the scalar
stage loop it replaces, so results are bitwise equal to that loop (the
test suite keeps the loops as the reference).

Stage indexing convention (used everywhere in this package):
index 0 = reboiler, index n-1 = condenser, liquid flows toward index 0,
vapor toward index n-1.  The hybrid state is ordered bottom-up over the
aggregation stages, reboiler first and condenser last; in the default
layout these are [reboiler, lower mid stage, feed stage, upper mid stage,
condenser].
"""

import numpy as np

BACKEND_NAME = "python"

# Fixed topology of the packed kernel (the default layout), sections
# top-down.  up/lo are hybrid-state indices of the bounding aggregation
# stages; strip marks sections below the feed (liquid flow L+F instead of
# L); the feed enters at hybrid state 2.
_SEC_UP = (4, 3, 2, 1)
_SEC_LO = (3, 2, 1, 0)
_SEC_STRIP = (False, False, True, True)
_FEED_STATE = 2


def equilibrium(x, alpha):
    """Vapor mole fraction in equilibrium with liquid x, constant relative
    volatility alpha: y = alpha*x / (1 + (alpha-1)*x)."""
    x = np.asarray(x, dtype=float)
    y = alpha * x / (1.0 + (alpha - 1.0) * x)
    return y if y.ndim else float(y)


def equilibrium_deriv(x, alpha):
    """dy/dx of the equilibrium line: alpha / (1 + (alpha-1)*x)^2."""
    x = np.asarray(x, dtype=float)
    d = alpha / (1.0 + (alpha - 1.0) * x) ** 2
    return d if d.ndim else float(d)


def inverse_equilibrium(y, alpha):
    """Liquid mole fraction whose equilibrium vapor is y."""
    y = np.asarray(y, dtype=float)
    x = y / (alpha - (alpha - 1.0) * y)
    return x if x.ndim else float(x)


# ---------------------------------------------------------------------------
# Full-order stagewise model
# ---------------------------------------------------------------------------

def full_rhs(x, L, V, F, x_F, alpha, holdup, feed_idx):
    """Composition derivatives of the full-order column model.

    x        liquid mole fraction per stage, reboiler first [-]
    L, V     reflux and boilup flows [mol/s]
    F, x_F   feed flow [mol/s] and feed mole fraction [-]
    holdup   molar holdup per stage [mol]
    feed_idx 0-based feed stage index
    """
    x = np.asarray(x, dtype=float)
    holdup = np.asarray(holdup, dtype=float)
    n = x.shape[0]
    y = alpha * x / (1.0 + (alpha - 1.0) * x)
    f = np.empty(n)
    LF = L + F
    dx = x[1:] - x[:-1]
    # Reboiler: liquid in at L+F from tray 1, bottoms out at B, vapor out at V.
    f[0] = (LF * dx[0] + V * (x[0] - y[0])) / holdup[0]
    # Trays: liquid from above (L+F below the feed), vapor from below; the
    # feed term is added last, as in (liquid + vapor) + feed.
    acc = _tray_liquid(L, LF, n, feed_idx)[1:] * dx[1:] + V * (y[:-2] - y[1:-1])
    if 0 < feed_idx < n - 1:
        acc[feed_idx - 1] += F * (x_F - x[feed_idx])
    f[1:-1] = acc / holdup[1:-1]
    # Total condenser: vapor in, reflux + distillate out at x_D.
    f[n - 1] = V * (y[n - 2] - x[n - 1]) / holdup[n - 1]
    return f


def _tray_liquid(L, LF, n, feed_idx):
    """Liquid flow into stages 0..n-2 from the stage above: L+F below the
    feed stage (always into the reboiler), L from the feed stage up."""
    Ls = np.full(n - 1, L)
    Ls[:max(feed_idx, 1)] = LF
    return Ls


def full_state_jac(x, L, V, F, alpha, holdup, feed_idx):
    """Tridiagonal state Jacobian of full_rhs, returned dense (n, n)."""
    x = np.asarray(x, dtype=float)
    holdup = np.asarray(holdup, dtype=float)
    n = x.shape[0]
    dy = alpha / (1.0 + (alpha - 1.0) * x) ** 2
    J = np.zeros((n, n))
    flat = J.reshape(-1)
    LF = L + F
    Ls = _tray_liquid(L, LF, n, feed_idx)
    diag = np.empty(n)
    diag[0] = -LF + V * (1.0 - dy[0])
    diag[1:-1] = -Ls[1:] - V * dy[1:-1]
    if 0 < feed_idx < n - 1:
        diag[feed_idx] -= F
    diag[n - 1] = -V
    flat[::n + 1] = diag / holdup               # J[i, i]
    flat[n::n + 1] = V * dy[:-1] / holdup[1:]   # J[i, i-1]
    flat[1::n + 1] = Ls / holdup[:-1]           # J[i, i+1]
    return J


def full_input_jac(x, L, V, F, alpha, holdup, feed_idx):
    """d full_rhs / d(L, V), shape (n, 2)."""
    x = np.asarray(x, dtype=float)
    holdup = np.asarray(holdup, dtype=float)
    n = x.shape[0]
    y = alpha * x / (1.0 + (alpha - 1.0) * x)
    G = np.zeros((n, 2))
    G[:-1, 0] = (x[1:] - x[:-1]) / holdup[:-1]
    G[0, 1] = (x[0] - y[0]) / holdup[0]
    G[1:-1, 1] = (y[:-2] - y[1:-1]) / holdup[1:-1]
    G[n - 1, 1] = (y[n - 2] - x[n - 1]) / holdup[n - 1]
    return G


# ---------------------------------------------------------------------------
# Stationary column section (countercurrent tray chain)
# ---------------------------------------------------------------------------

def section_chain_solve(x_up, y_lo, r, m, alpha, tol=1e-12, max_iter=60):
    """Solve the m stationary tray balances of one column section.

    Boundary conditions: liquid x_up enters the top tray, vapor y_lo the
    bottom tray; r is the section liquid-to-vapor flow ratio.  Returns
    (xs, n_iter, resid_inf) where xs[0] is the top tray and xs[m-1] the
    bottom tray.  Damped Newton on the stacked residual, tridiagonal
    Jacobian solved by the Thomas algorithm.
    """
    if m == 0:
        return np.empty(0), 0, 0.0
    x_lo_guess = inverse_equilibrium(y_lo, alpha)
    xs = x_up + (np.arange(1, m + 1) / (m + 1.0)) * (x_lo_guess - x_up)
    xs = np.clip(xs, 0.0, 1.0)

    def residual(v):
        yv = alpha * v / (1.0 + (alpha - 1.0) * v)
        x_above = np.concatenate(([x_up], v[:-1]))
        y_below = np.concatenate((yv[1:], [y_lo]))
        return r * (x_above - v) + (y_below - yv)

    res = residual(xs)
    rnorm = np.max(np.abs(res))
    it = 0
    while rnorm > tol and it < max_iter:
        dyv = alpha / (1.0 + (alpha - 1.0) * xs) ** 2
        diag = -r - dyv
        lower = np.full(m - 1, r)          # dR_t/dxs[t-1]
        upper = dyv[1:]                    # dR_t/dxs[t+1]
        step = _thomas(lower, diag.copy(), upper, -res)
        # Damped update: backtrack until the residual norm decreases.
        lam = 1.0
        while True:
            trial = np.clip(xs + lam * step, 0.0, 1.0)
            res_t = residual(trial)
            rn_t = np.max(np.abs(res_t))
            if rn_t < rnorm or lam < 1e-8:
                break
            lam *= 0.5
        xs, res, rnorm = trial, res_t, rn_t
        it += 1
    return xs, it, rnorm


def _thomas(lower, diag, upper, rhs):
    """Tridiagonal solve; diag and rhs are modified copies."""
    m = diag.shape[0]
    b = rhs.copy()
    for i in range(1, m):
        w = lower[i - 1] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        b[i] -= w * b[i - 1]
    xv = np.empty(m)
    xv[m - 1] = b[m - 1] / diag[m - 1]
    for i in range(m - 2, -1, -1):
        xv[i] = (b[i] - upper[i] * xv[i + 1]) / diag[i]
    return xv


# ---------------------------------------------------------------------------
# Scaling helpers (logit on compositions, affine on the flow ratio)
# ---------------------------------------------------------------------------

def logit(x, eps):
    c = min(max(x, eps), 1.0 - eps)
    return np.log(c / (1.0 - c))


def sigmoid(z):
    if z >= 0.0:
        return 1.0 / (1.0 + np.exp(-z))
    e = np.exp(z)
    return e / (1.0 + e)


def _dlogit(x, eps):
    if x <= eps or x >= 1.0 - eps:
        return 0.0
    return 1.0 / (x * (1.0 - x))


# ---------------------------------------------------------------------------
# Hybrid stage-aggregation model with packed ANN surrogates
# ---------------------------------------------------------------------------

def _net_eval(net, off, h, s0, s1, s2):
    """Evaluate one packed single-hidden-layer net on scaled inputs.

    Packing per section: [iw row-major (h,3) | ib (h) | ow (h) | ob].
    Returns (zeta, dzeta_ds0, dzeta_ds1, dzeta_ds2) in scaled space.
    """
    iw = net[off:off + 3 * h].reshape(h, 3)
    ib = net[off + 3 * h:off + 4 * h]
    ow = net[off + 4 * h:off + 5 * h]
    ob = net[off + 5 * h]
    a = np.tanh(iw[:, 0] * s0 + iw[:, 1] * s1 + iw[:, 2] * s2 + ib)
    zeta = ob + float(ow @ a)
    g = ow * (1.0 - a * a)
    return zeta, float(g @ iw[:, 0]), float(g @ iw[:, 1]), float(g @ iw[:, 2])


def hybrid_rhs_jac(z, L, V, F, x_F, alpha, m_hold, net, net_off, hidden,
                   r_lo, r_hi, eps, want_jac):
    """Right-hand side of the hybrid model plus analytic partials.

    z        aggregation-stage compositions, bottom-up (5,)
    m_hold   effective holdups H_i * n_i per aggregation stage (5,)
    net...   packed surrogate weights (see _net_eval), one block per
             section in top-down order
    r_lo/hi  per-section affine scaling range of the flow ratio
    want_jac 0: rhs only; 1: also d/dz (5,5) and d/d(L,V) (5,2)

    Returns (f, Jz, Ju, n_clamped).  Jz/Ju are None when want_jac == 0.
    Surrogate outputs are clamped to [eps, 1-eps]; n_clamped counts how
    many sections hit the clamp (extrapolation indicator).
    """
    z = np.asarray(z, dtype=float)
    n_clamped = 0

    xb = np.empty(4)
    yt = np.empty(4)
    # Section partials: d xb and d y_top w.r.t. raw (z_up, z_lo, L, V).
    dxb = np.zeros((4, 4))
    dyt = np.zeros((4, 4))

    for k in range(4):
        zu = z[_SEC_UP[k]]
        zl = z[_SEC_LO[k]]
        yl = alpha * zl / (1.0 + (alpha - 1.0) * zl)
        dyl = alpha / (1.0 + (alpha - 1.0) * zl) ** 2
        Ls = L + F if _SEC_STRIP[k] else L
        r = Ls / V
        s0 = logit(zu, eps)
        s1 = logit(yl, eps)
        s2 = 2.0 * (r - r_lo[k]) / (r_hi[k] - r_lo[k]) - 1.0
        zeta, g0, g1, g2 = _net_eval(net, net_off[k], hidden[k], s0, s1, s2)
        xbk = sigmoid(zeta)
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
                du = sig * g0 * _dlogit(zu, eps)
                dl = sig * g1 * _dlogit(yl, eps) * dyl
                dr = sig * g2 * 2.0 / (r_hi[k] - r_lo[k])
            dxb[k, 0] = du
            dxb[k, 1] = dl
            dxb[k, 2] = dr / V               # d xb / dL via r
            dxb[k, 3] = -dr * r / V          # d xb / dV via r
            dyt[k, 0] = r * (1.0 - du)
            dyt[k, 1] = dyl - r * dl
            dyt[k, 2] = (zu - xbk) / V - r * dxb[k, 2]
            dyt[k, 3] = -r * (zu - xbk) / V - r * dxb[k, 3]

    f, Jz, Ju = hybrid_assemble(z, xb, yt, dxb, dyt, L, V, F, x_F, alpha,
                                m_hold, _SEC_STRIP, _FEED_STATE, want_jac)
    return f, Jz, Ju, n_clamped


def hybrid_assemble(z, xb, yt, dxb, dyt, L, V, F, x_F, alpha, m_hold, strip,
                    feed, want_jac):
    """Aggregation-stage balances of a hybrid model of any layout.

    z        aggregation-stage compositions, bottom-up (n,)
    xb, yt   per-section liquid leaving the bottom and vapor leaving the
             top, sections top-down (n-1,); section k joins the states
             up = n-1-k and lo = n-2-k
    dxb, dyt their partials w.r.t. (z_up, z_lo, L, V), shape (n-1, 4)
    m_hold   effective holdups per aggregation stage (n,)
    strip    per section: liquid flow is L+F (True) or L (False)
    feed     hybrid-state index of the feed stage
    want_jac 0: rhs only; 1: also d/dz (n,n) and d/d(L,V) (n,2)

    Returns (f, Jz, Ju); Jz/Ju are None when want_jac == 0.
    """
    n = z.shape[0]
    L, V, F = float(L), float(V), float(F)
    LF = L + F
    y_z = (alpha * z / (1.0 + (alpha - 1.0) * z)).tolist()
    zl, xb, yt = z.tolist(), xb.tolist(), yt.tolist()
    f = [0.0] * n
    # Total condenser: vapor from the top section in, x_D out.
    f[n - 1] = V * (yt[0] - zl[n - 1]) / m_hold[n - 1]
    # Every other stage: liquid from the section above, vapor from the
    # section below (the reboiler instead boils up V at its own y).
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
