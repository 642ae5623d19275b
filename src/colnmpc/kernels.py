"""The hot kernels of the column models, in numpy.

``hybrid_assemble`` is the layout-driven aggregation-stage balance: the
packed ANN kernel ``hybrid_rhs_jac`` and the per-section path of
``column.HybridModel`` both call it.

The full-order kernels (``full_rhs``, ``full_state_jac``,
``full_input_jac``) are vectorized over the trays with numpy slices.  Each
element is computed with the operations, in the order, of the scalar
stage loop it replaces, so results are bitwise equal to that loop (the
test suite keeps the loops as the reference).

The packed hybrid kernel (``hybrid_rhs_jac``) and ``hybrid_assemble`` do
their per-section and per-stage scalar math on Python floats and batch
the transcendentals; the test suite keeps the per-section numpy version
they replace as the reference, and results are bitwise equal to it.
Three numerics rules make that hold:

* Transcendentals: numpy's float64 ``log``/``exp``/``tanh`` give the same
  bits at any array length or stride, so one call may serve all sections.
  ``math.log``/``exp``/``tanh`` differ from them in the last bit for some
  inputs and are not used.
* Reductions: every dot product stays one BLAS ddot on the operands of
  the per-section code (contiguous ``ow``, activations and ``g`` slices,
  the stride-3 input-weight columns of the packed net).  Padded or
  batched alternatives (matmul, einsum, sum of products, reduceat, gemv,
  contiguous column copies) reorder the sums and change bits.
  ``x.dot(y)`` equals ``x @ y`` except that for length 1 it returns the
  bare product, so a -0.0 product is turned into ddot's +0.0 by adding
  0.0.
* Squares: a scalar ``** 2`` (Python or numpy float) calls libm ``pow``,
  an array ``** 2`` squares; they differ in the last bit for some inputs.
  Each keeps the form of the code it reproduces: ``pow`` for a section's
  equilibrium slope, ``d * d`` for the stage slopes in
  ``hybrid_assemble``.

Stage indexing convention (used everywhere in this package):
index 0 = reboiler, index n-1 = condenser, liquid flows toward index 0,
vapor toward index n-1.  The hybrid state is ordered bottom-up over the
aggregation stages, reboiler first and condenser last; in the default
layout these are [reboiler, lower mid stage, feed stage, upper mid stage,
condenser].  Sections are ordered top-down: with n hybrid states, section
k joins the states n-1-k (above it) and n-2-k (below it).
"""

import functools

import numpy as np


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

    ``column._section_profile`` runs this solve as one compiled call
    (``_native.section_chain_solve``) where the C core is built and
    bound; this numpy code is its reference, and the results are bitwise
    equal.
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
# Hybrid stage-aggregation model with packed ANN surrogates
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _net_index(net_off, hidden):
    """Gather indices of a packed net set, all sections' hidden units in
    one row each: input weights (3 rows), input biases, output weights,
    and each unit's section in the 3 * nsec scaled inputs [s0, s1 per
    section | s2 per section] (3 rows); plus where each section's units
    start and end.  Packing per section: [iw row-major (h, 3) | ib (h) |
    ow (h) | ob]."""
    nsec = len(hidden)
    rows = [[], [], [], [], []]
    sec = [[], [], []]
    bounds = [0]
    for k, (off, h) in enumerate(zip(net_off, hidden)):
        for j in range(h):
            rows[0].append(off + 3 * j)
            rows[1].append(off + 3 * j + 1)
            rows[2].append(off + 3 * j + 2)
            rows[3].append(off + 3 * h + j)
            rows[4].append(off + 4 * h + j)
            sec[0].append(2 * k)
            sec[1].append(2 * k + 1)
            sec[2].append(2 * nsec + k)
        bounds.append(bounds[-1] + h)
    return (np.array(rows, dtype=np.intp), np.array(sec, dtype=np.intp),
            tuple(bounds))


def hybrid_rhs_jac(z, L, V, F, x_F, alpha, m_hold, net, net_off, hidden,
                   r_lo, r_hi, eps, strip, feed, want_jac):
    """Right-hand side of a hybrid model of any layout whose sections are
    all packed ANN surrogates, plus analytic partials.

    z        aggregation-stage compositions, bottom-up (n,)
    m_hold   effective holdups H_i * n_i per aggregation stage (n,)
    net...   packed surrogate weights (see _net_index), one block per
             section in top-down order (n-1 sections)
    r_lo/hi  per-section affine scaling range of the flow ratio
    strip    per section: liquid flow is L+F (True) or L (False)
    feed     hybrid-state index of the feed stage
    want_jac 0: rhs only; 1: also d/dz (n,n) and d/d(L,V) (n,2)

    Returns (f, Jz, Ju, n_clamped).  Jz/Ju are None when want_jac == 0.
    Surrogate outputs are clamped to [eps, 1-eps]; n_clamped counts how
    many sections hit the clamp (extrapolation indicator).

    The sections' scalar math runs on Python floats; the logs, the tanh
    of every hidden unit and the sigmoid exps are one numpy call each,
    and each dot product is one ddot on the same operands as a
    per-section evaluation (see the module docstring for why each of
    these choices keeps the results bitwise fixed).
    """
    zs = np.asarray(z, dtype=float).tolist()
    L, V, F = float(L), float(V), float(F)
    LF = L + F
    lo, hi = r_lo.tolist(), r_hi.tolist()
    offs, hs = net_off.tolist(), hidden.tolist()
    nsec = len(hs)
    top = 1.0 - eps

    # Scaled inputs: logit arguments of (z_up, y_lo) per section, then the
    # affine flow ratios.
    yls, rs, args, s2 = [], [], [], []
    for k in range(nsec):
        zu, zl = zs[nsec - k], zs[nsec - 1 - k]
        yl = alpha * zl / (1.0 + (alpha - 1.0) * zl)
        r = (LF if strip[k] else L) / V
        for x in (zu, yl):
            c = min(max(x, eps), top)
            args.append(c / (1.0 - c))
        s2.append(2.0 * (r - lo[k]) / (hi[k] - lo[k]) - 1.0)
        yls.append(yl)
        rs.append(r)
    s = np.empty(3 * nsec)
    s[:2 * nsec] = np.log(args)
    s[2 * nsec:] = s2

    # Hidden layer of all nets at once.
    rows, sec, bounds = _net_index(tuple(offs), tuple(hs))
    W = net.take(rows)
    P = W[:3] * s.take(sec)
    A = np.tanh(P[0] + P[1] + P[2] + W[3])
    zeta = []
    for k in range(nsec):
        off, h = offs[k], hs[k]
        ow = net[off + 4 * h:off + 5 * h]
        zeta.append(net[off + 5 * h]
                    + (float(ow.dot(A[bounds[k]:bounds[k + 1]])) + 0.0))
    e = np.exp([-v if v >= 0.0 else v for v in zeta]).tolist()

    n_clamped = 0
    xb, yt, clamped = [], [], []
    for k in range(nsec):
        xbk = 1.0 / (1.0 + e[k]) if zeta[k] >= 0.0 else e[k] / (1.0 + e[k])
        cl = xbk < eps or xbk > top
        if cl:
            xbk = min(max(xbk, eps), top)
            n_clamped += 1
        clamped.append(cl)
        xb.append(xbk)
        yt.append(yls[k] + rs[k] * (zs[nsec - k] - xbk))
    # Section partials: d xb and d y_top w.r.t. raw (z_up, z_lo, L, V).
    dxb, dyt = [], []
    if want_jac:
        G = W[4] * (1.0 - A * A)
        for k in range(nsec):
            zu, zl, yl, r, xbk = (zs[nsec - k], zs[nsec - 1 - k], yls[k],
                                  rs[k], xb[k])
            dyl = alpha / (1.0 + (alpha - 1.0) * zl) ** 2
            if clamped[k]:
                du = dl = dr = 0.0
            else:
                off, h = offs[k], hs[k]
                g = G[bounds[k]:bounds[k + 1]]
                g0 = float(g.dot(net[off:off + 3 * h:3])) + 0.0
                g1 = float(g.dot(net[off + 1:off + 3 * h:3])) + 0.0
                g2 = float(g.dot(net[off + 2:off + 3 * h:3])) + 0.0
                # d logit / dx, zero where the logit input is clipped
                du_s = 0.0 if zu <= eps or zu >= top \
                    else 1.0 / (zu * (1.0 - zu))
                dl_s = 0.0 if yl <= eps or yl >= top \
                    else 1.0 / (yl * (1.0 - yl))
                sig = xbk * (1.0 - xbk)
                du = sig * g0 * du_s
                dl = sig * g1 * dl_s * dyl
                dr = sig * g2 * 2.0 / (hi[k] - lo[k])
            da = (du, dl, dr / V, -dr * r / V)
            dxb.append(da)
            dyt.append((r * (1.0 - du), dyl - r * dl,
                        (zu - xbk) / V - r * da[2],
                        -r * (zu - xbk) / V - r * da[3]))
    f, Jz, Ju = hybrid_assemble(zs, xb, yt, dxb, dyt, L, V, F, x_F, alpha,
                                m_hold, strip, feed, want_jac)
    return f, Jz, Ju, n_clamped


def hybrid_assemble(z, xb, yt, dxb, dyt, L, V, F, x_F, alpha, m_hold, strip,
                    feed, want_jac):
    """Aggregation-stage balances of a hybrid model of any layout.

    z        aggregation-stage compositions, bottom-up (n,)
    xb, yt   per-section liquid leaving the bottom and vapor leaving the
             top, sections top-down (n-1,); section k joins the states
             up = n-1-k and lo = n-2-k
    dxb, dyt their partials w.r.t. (z_up, z_lo, L, V), one 4-sequence
             per section (read only when want_jac)
    m_hold   effective holdups per aggregation stage (n,)
    strip    per section: liquid flow is L+F (True) or L (False)
    feed     hybrid-state index of the feed stage
    want_jac 0: rhs only; 1: also d/dz (n,n) and d/d(L,V) (n,2)

    Sequences may be lists of floats or arrays; lists are the fast path.
    Returns (f, Jz, Ju); Jz/Ju are None when want_jac == 0.
    """
    n = len(z)
    L, V, F = float(L), float(V), float(F)
    LF = L + F
    mh = np.asarray(m_hold, dtype=float).tolist()
    y_z = [alpha * v / (1.0 + (alpha - 1.0) * v) for v in z]
    f = [0.0] * n
    # Total condenser: vapor from the top section in, x_D out.
    f[n - 1] = V * (yt[0] - z[n - 1]) / mh[n - 1]
    # Every other stage: liquid from the section above, vapor from the
    # section below (the reboiler instead boils up V at its own y).
    for i in range(n - 1):
        ka, kb = n - 2 - i, n - 1 - i
        Ls = LF if strip[ka] else L
        vap = V * (z[0] - y_z[0]) if i == 0 else V * (yt[kb] - y_z[i])
        acc = Ls * (xb[ka] - z[i]) + vap
        if i == feed:
            acc = acc + F * (x_F - z[i])
        f[i] = acc / mh[i]
    f = np.array(f)
    if not want_jac:
        return f, None, None

    # d*d squares exactly as the array ** 2 it stands for (scalar ** 2
    # would call pow and can differ in the last bit).
    dy_z = []
    for v in z:
        d = 1.0 + (alpha - 1.0) * v
        dy_z.append(alpha / (d * d))
    Jz = [0.0] * (n * n)
    Ju = [0.0] * (2 * n)
    m = mh[n - 1]
    d0 = dyt[0]
    Jz[n * n - 1] = V * (d0[0] - 1.0) / m
    Jz[n * n - 2] = V * d0[1] / m
    Ju[2 * n - 2] = V * d0[2] / m
    Ju[2 * n - 1] = ((yt[0] - z[n - 1]) + V * d0[3]) / m
    for i in range(n - 1):
        ka, kb = n - 2 - i, n - 1 - i
        Ls = LF if strip[ka] else L
        m = mh[i]
        da = dxb[ka]
        row = i * n
        Jz[row + i + 1] = Ls * da[0] / m
        if i == 0:
            Jz[0] = (Ls * (da[1] - 1.0) + V * (1.0 - dy_z[0])) / m
            Ju[0] = ((xb[ka] - z[0]) + Ls * da[2]) / m
            Ju[1] = (Ls * da[3] + (z[0] - y_z[0])) / m
            continue
        db = dyt[kb]
        diag = Ls * (da[1] - 1.0) + V * (db[0] - dy_z[i])
        if i == feed:
            diag = diag - F
        Jz[row + i] = diag / m
        Jz[row + i - 1] = V * db[1] / m
        Ju[2 * i] = ((xb[ka] - z[i]) + Ls * da[2] + V * db[2]) / m
        Ju[2 * i + 1] = (Ls * da[3] + (yt[kb] - y_z[i]) + V * db[3]) / m
    return f, np.array(Jz).reshape(n, n), np.array(Ju).reshape(n, 2)
