"""The hot kernels of the column models, in numpy.

``hybrid_assemble`` is the layout-driven aggregation-stage balance, and
``section_partials`` the partials of one section it reads: the packed ANN
kernel ``hybrid_rhs_jac`` and the oracle path of ``column.HybridModel``
both call them.

The full-order kernels (``full_rhs``, ``full_state_jac``,
``full_input_jac``) are vectorized over the trays with numpy slices.  Each
element is computed with the operations, in the order, of the scalar
stage loop it replaces, so results are bitwise equal to that loop (the
test suite keeps the loops as the reference).

The packed hybrid kernel (``hybrid_rhs_jac``) is one plain loop over
the sections, and ``hybrid_assemble`` one over the stages, their scalar
math on Python floats.  The C core's hybrid kernel
(``colnmpc_hybrid_horizon``) reproduces them bit for bit; three numerics
rules, kept here as the contract it mirrors, make that hold:

* Transcendentals: numpy's float64 ``log``/``exp``/``tanh`` give the same
  bits at any array length or stride, so the core may batch them across
  sections.  ``math.log``/``exp``/``tanh`` differ from them in the last
  bit for some inputs and are not used.
* Reductions: every dot product is one BLAS ddot on the section's
  contiguous ``ow`` and activation or ``g`` vectors, and on the stride-3
  input-weight columns of the packed net.  Padded or batched
  alternatives (matmul, einsum, sum of products, reduceat, gemv,
  contiguous column copies) reorder the sums and change bits.
  ``x.dot(y)`` equals ``x @ y`` except that for length 1 it returns the
  bare product, so a -0.0 product is turned into ddot's +0.0 by adding
  0.0.
* Squares: a scalar ``** 2`` (Python or numpy float) calls libm ``pow``,
  an array ``** 2`` squares; they differ in the last bit for some inputs.
  A section's equilibrium slope is a scalar ``** 2``; the stage slopes in
  ``hybrid_assemble`` are ``d * d``, the bits of the array ``** 2`` of
  the test suite's per-stage reference.

Stage indexing convention (used everywhere in this package):
index 0 = reboiler, index n-1 = condenser, liquid flows toward index 0,
vapor toward index n-1.  The hybrid state is ordered bottom-up over the
aggregation stages, reboiler first and condenser last; in the default
layout these are [reboiler, lower mid stage, feed stage, upper mid stage,
condenser].  Sections are ordered top-down: with n hybrid states, section
k joins the states n-1-k (above it) and n-2-k (below it).
"""

import numpy as np


def equilibrium(x, alpha):
    """Vapor mole fraction in equilibrium with liquid x, constant relative
    volatility alpha: y = alpha*x / (1 + (alpha-1)*x).

    A Python or numpy float x and alpha are computed on Python floats,
    bitwise as on arrays (the same IEEE operations in the same order), but
    for a zero denominator, which takes the array path's inf or nan."""
    if isinstance(x, float) and isinstance(alpha, float):
        x, alpha = float(x), float(alpha)
        den = 1.0 + (alpha - 1.0) * x
        if den:
            return alpha * x / den
    x = np.asarray(x, dtype=float)
    y = alpha * x / (1.0 + (alpha - 1.0) * x)
    return y if y.ndim else float(y)


def equilibrium_deriv(x, alpha):
    """dy/dx of the equilibrium line: alpha / (1 + (alpha-1)*x)^2.

    The square is d * d, which is what an array's ** 2 computes, so a
    float x gives the bits of an array entry (a numpy scalar's ** 2
    would call pow, which differs in the last bit for some x)."""
    x = np.asarray(x, dtype=float)
    d = 1.0 + (alpha - 1.0) * x
    d = alpha / (d * d)
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

def hybrid_rhs_jac(z, L, V, F, x_F, alpha, m_hold, net, net_off, hidden,
                   r_lo, r_hi, eps, strip, feed, want_jac):
    """Right-hand side of a hybrid model of any layout whose sections are
    all packed ANN surrogates, plus analytic partials.

    z        aggregation-stage compositions, bottom-up (n,)
    m_hold   effective holdups H_i * n_i per aggregation stage (n,)
    net...   packed surrogate weights, one block per section in top-down
             order (n-1 sections) at net_off, each with hidden units:
             [iw row-major (h, 3) | ib (h) | ow (h) | ob]
    r_lo/hi  per-section affine scaling range of the flow ratio
    strip    per section: liquid flow is L+F (True) or L (False)
    feed     hybrid-state index of the feed stage
    want_jac 0: rhs only; 1: also d/dz (n,n) and d/d(L,V) (n,2)

    Returns (f, Jz, Ju, n_clamped).  Jz/Ju are None when want_jac == 0.
    Surrogate outputs are clamped to [eps, 1-eps]; n_clamped counts how
    many sections hit the clamp (extrapolation indicator).
    """
    zs = np.asarray(z, dtype=float).tolist()
    L, V, F = float(L), float(V), float(F)
    LF = L + F
    top = 1.0 - eps
    nsec = len(hidden)
    n_clamped = 0
    xb, yt, dxb, dyt = [], [], [], []
    for k, (off, h, lo, hi) in enumerate(zip(net_off.tolist(), hidden.tolist(),
                                            r_lo.tolist(), r_hi.tolist())):
        iw = net[off:off + 3 * h]
        ow = net[off + 4 * h:off + 5 * h]
        zu, zl = zs[nsec - k], zs[nsec - 1 - k]
        yl = alpha * zl / (1.0 + (alpha - 1.0) * zl)
        r = (LF if strip[k] else L) / V

        # Scaled inputs: the logits of z_up and y_lo, the affine flow ratio.
        cu, cl = min(max(zu, eps), top), min(max(yl, eps), top)
        s0, s1 = np.log([cu / (1.0 - cu), cl / (1.0 - cl)]).tolist()
        s2 = 2.0 * (r - lo) / (hi - lo) - 1.0
        a = np.tanh(iw[0::3] * s0 + iw[1::3] * s1 + iw[2::3] * s2
                    + net[off + 3 * h:off + 4 * h])
        zeta = float(net[off + 5 * h]) + (float(ow.dot(a)) + 0.0)

        # Sigmoid, from the exp of -|zeta|, clamped to [eps, 1 - eps].
        e = float(np.exp(-zeta if zeta >= 0.0 else zeta))
        xbk = 1.0 / (1.0 + e) if zeta >= 0.0 else e / (1.0 + e)
        clamped = xbk < eps or xbk > top
        if clamped:
            xbk = min(max(xbk, eps), top)
            n_clamped += 1
        xb.append(xbk)
        yt.append(yl + r * (zu - xbk))
        if not want_jac:
            continue

        dyl = alpha / (1.0 + (alpha - 1.0) * zl) ** 2
        if clamped:
            du = dl = dr = 0.0
        else:
            g = ow * (1.0 - a * a)
            g0 = float(g.dot(iw[0::3])) + 0.0
            g1 = float(g.dot(iw[1::3])) + 0.0
            g2 = float(g.dot(iw[2::3])) + 0.0
            # d logit / dx, zero where the logit input is clipped
            du_s = 0.0 if zu <= eps or zu >= top else 1.0 / (zu * (1.0 - zu))
            dl_s = 0.0 if yl <= eps or yl >= top else 1.0 / (yl * (1.0 - yl))
            sig = xbk * (1.0 - xbk)
            du = sig * g0 * du_s
            dl = sig * g1 * dl_s * dyl
            dr = sig * g2 * 2.0 / (hi - lo)
        da, dy = section_partials(du, dl, dr, dyl, zu, xbk, r, V)
        dxb.append(da)
        dyt.append(dy)
    f, Jz, Ju = hybrid_assemble(zs, xb, yt, dxb, dyt, L, V, F, x_F, alpha,
                                m_hold, strip, feed, want_jac)
    return f, Jz, Ju, n_clamped


def section_partials(du, dl, dr, dyl, zu, xb, r, V):
    """Partials (two 4-tuples) of one section's x_bot and y_top w.r.t. raw
    (z_up, z_lo, L, V), from d x_bot / d (z_up, z_lo, r) = (du, dl, dr)."""
    da = (du, dl, dr / V, -dr * r / V)
    return da, (r * (1.0 - du), dyl - r * dl, (zu - xb) / V - r * da[2],
                -r * (zu - xb) / V - r * da[3])


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
