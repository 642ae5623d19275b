"""Binary distillation column models.

Two model levels share one stage-indexing convention (0 = reboiler,
n-1 = condenser, feed in between):

* full-order stagewise model: one composition ODE per stage,
* hybrid stage-aggregation model: ODEs only at the aggregation stages
  (holdup inflated by a factor H so the column holdup is kept), with the
  stationary tray sections between them replaced by per-section
  predictors (ANN surrogates or the exact steady-section oracle).

Constant molar holdup and flows, ideal binary thermodynamics with
constant relative volatility, no pressure drop.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _native, kernels
from .integrate import IvpProblem, ModelDomainError, integrate

__all__ = [
    "ColumnParams", "AggregationLayout", "ColumnInputs", "Section",
    "SectionSolveError", "SteadyStateError", "SectionOracle", "HybridModel",
    "oracle_hybrid", "full_rhs", "full_state_jacobian",
    "section_steady_solve", "steady_state_solve", "hybrid_steady_state",
]


class SectionSolveError(ModelDomainError, RuntimeError):
    """A section's tray balances did not converge: the section has no
    value at these boundary conditions."""

    def __init__(self, iterations, residual):
        super().__init__(
            f"section solve did not converge: {iterations} iterations, "
            f"residual {residual:.3e}")
        self.iterations = iterations
        self.residual = residual


class SteadyStateError(RuntimeError):
    pass


@dataclass
class ColumnParams:
    """Physical and structural description of the column.

    Stage count includes condenser and reboiler.  Bounds are the hard
    actuator limits on reflux L and boilup V [mol/s]; inputs are
    admissible when additionally D = V - L > 0 and B = F + L - V > 0.
    """

    n_total: int = 42
    feed_stage: int = 21              # 1-based, 1 = reboiler
    alpha: float = 2.0
    tray_holdup: float = 0.5          # [mol]
    reboiler_holdup: float = 10.0     # [mol]
    condenser_holdup: float = 10.0    # [mol]
    feed_flow: float = 1.0            # [mol/s]
    feed_comp_nominal: float = 0.32
    bounds_L: tuple = (1.0, 5.0)      # [mol/s]
    bounds_V: tuple = (2.0, 6.0)      # [mol/s]

    def __post_init__(self):
        if not (1 <= self.feed_stage <= self.n_total):
            raise ValueError("feed stage outside the column")
        if self.feed_stage in (1, self.n_total):
            raise ValueError("feed stage cannot be reboiler or condenser")
        # alpha = 1 (no separation) is admitted as a degenerate test case.
        if self.alpha < 1.0:
            raise ValueError("relative volatility must be >= 1")
        if min(self.tray_holdup, self.reboiler_holdup,
               self.condenser_holdup) <= 0.0:
            raise ValueError("holdups must be positive")
        if self.feed_flow <= 0.0:
            raise ValueError("feed flow must be positive")
        if self.bounds_L[0] >= self.bounds_L[1] or self.bounds_V[0] >= self.bounds_V[1]:
            raise ValueError("degenerate flow bounds")
        # The admissible set box * {D > 0, B > 0} must be non-empty.
        ok = (self.bounds_V[1] > self.bounds_L[0]
              and self.bounds_V[0] < self.bounds_L[1] + self.feed_flow)
        if not ok:
            raise ValueError("bounds admit no inputs with D > 0 and B > 0")

    @property
    def feed_idx(self) -> int:
        return self.feed_stage - 1

    @property
    def holdups(self) -> np.ndarray:
        n = np.full(self.n_total, self.tray_holdup)
        n[0] = self.reboiler_holdup
        n[-1] = self.condenser_holdup
        return n

    def is_admissible(self, L, V, margin=0.0):
        inside = (self.bounds_L[0] - 1e-12 <= L <= self.bounds_L[1] + 1e-12
                  and self.bounds_V[0] - 1e-12 <= V <= self.bounds_V[1] + 1e-12)
        return inside and (V - L) > margin and (self.feed_flow + L - V) > margin


@dataclass
class ColumnInputs:
    L: float
    V: float
    F: float
    x_F: float

    def __post_init__(self):
        vals = (self.L, self.V, self.F, self.x_F)
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("non-finite column inputs")
        if not 0.0 <= self.x_F <= 1.0:
            raise ValueError("feed composition outside [0, 1]")


@dataclass(frozen=True)
class Section:
    """Stationary tray block between two consecutive aggregation stages."""

    upper_stage: int    # 1-based stage number of the upper aggregation stage
    lower_stage: int
    tray_count: int
    uses_stripping_flow: bool

    def flow_ratio(self, L, V, F):
        return ((L + F) if self.uses_stripping_flow else L) / V


@dataclass
class AggregationLayout:
    """Choice of aggregation stages and their holdup factors.

    agg_stages are 1-based stage numbers in ascending order (reboiler
    first).  Holdup factors inflate the aggregation-stage holdups so the
    total column holdup is preserved.
    """

    agg_stages: list
    holdup_factors: list
    sections: list = field(default_factory=list)

    @classmethod
    def from_params(cls, p: ColumnParams, agg_stages=None):
        """Default layout; spare-tray holdup goes to the nearest
        aggregation stage (ties to the stage above)."""
        if agg_stages is None:
            agg_stages = [1, 14, p.feed_stage, 28, p.n_total]
        agg_stages = sorted(set(int(s) for s in agg_stages))
        if any(not 1 <= s <= p.n_total for s in agg_stages):
            raise ValueError(f"aggregation stages must lie in 1..{p.n_total}")
        holdups = p.holdups
        extra = np.zeros(len(agg_stages))
        for stage in range(1, p.n_total + 1):
            if stage in agg_stages:
                continue
            dists = [abs(stage - a) for a in agg_stages]
            best = min(dists)
            cands = [i for i, d in enumerate(dists) if d == best]
            # tie: assign to the aggregation stage above
            pick = max(cands, key=lambda i: agg_stages[i])
            extra[pick] += holdups[stage - 1]
        factors = [1.0 + extra[i] / holdups[a - 1]
                   for i, a in enumerate(agg_stages)]
        layout = cls(agg_stages=agg_stages, holdup_factors=factors)
        layout.rebuild_sections(p)
        layout.validate(p)
        return layout

    def rebuild_sections(self, p: ColumnParams):
        self.sections = []
        for lower, upper in zip(self.agg_stages[:-1], self.agg_stages[1:]):
            self.sections.append(Section(
                upper_stage=upper,
                lower_stage=lower,
                tray_count=upper - lower - 1,
                uses_stripping_flow=upper <= p.feed_stage,
            ))
        # hybrid code orders sections top-down
        self.sections = self.sections[::-1]

    def validate(self, p: ColumnParams):
        req = {1, p.feed_stage, p.n_total}
        if not req.issubset(self.agg_stages):
            raise ValueError("condenser, reboiler and feed stage must be "
                             "aggregation stages")
        if len(self.holdup_factors) != len(self.agg_stages):
            raise ValueError("one holdup factor per aggregation stage")
        if any(h < 1.0 - 1e-12 for h in self.holdup_factors):
            raise ValueError("holdup factors must be >= 1")
        holdups = p.holdups
        total = sum(h * holdups[a - 1]
                    for h, a in zip(self.holdup_factors, self.agg_stages))
        if abs(total - holdups.sum()) > 1e-9 * holdups.sum():
            raise ValueError("aggregation does not conserve total holdup")
        for s in self.sections:
            if s.lower_stage < p.feed_stage < s.upper_stage:
                raise ValueError("section spans the feed stage")

    @property
    def agg_idx(self) -> np.ndarray:
        return np.array(self.agg_stages, dtype=int) - 1

    def effective_holdups(self, p: ColumnParams) -> np.ndarray:
        """H_i * n_i per aggregation stage, bottom-up [mol]."""
        return np.array(self.holdup_factors) * p.holdups[self.agg_idx]

    def state_from_plant(self, x_full) -> np.ndarray:
        return np.asarray(x_full, dtype=float)[self.agg_idx]


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------

def full_rhs(x, u: ColumnInputs, p: ColumnParams):
    """dx/dt of the full-order model (see module docstring for indexing)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (p.n_total,):
        raise ValueError("state length does not match the column")
    if not (np.all(np.isfinite(x))):
        raise ValueError("non-finite state")
    return kernels.full_rhs(x, u.L, u.V, u.F, u.x_F, p.alpha,
                            p.holdups, p.feed_idx)


def full_state_jacobian(x, u: ColumnInputs, p: ColumnParams):
    return kernels.full_state_jac(np.asarray(x, dtype=float), u.L, u.V, u.F,
                                  p.alpha, p.holdups, p.feed_idx)


def section_steady_solve(x_upper, y_lower, r, tray_count, alpha,
                         tol=1e-12, max_iter=60):
    """Exact stationary solution of one column section.

    Returns (x_bot, y_top): liquid leaving the bottom tray and vapor
    leaving the top tray.  This is the map the section surrogates learn.
    """
    xs = _section_profile(x_upper, y_lower, r, tray_count, alpha, tol,
                          max_iter)
    if tray_count == 0:
        return float(x_upper), float(y_lower)
    x_bot = float(xs[tray_count - 1])
    y_top = float(kernels.equilibrium(xs[0], alpha))
    return x_bot, y_top


def _section_profile(x_upper, y_lower, r, tray_count, alpha, tol, max_iter):
    """Converged tray compositions of one section, top tray first (None
    for an empty section).

    The chain solve is one compiled call where the C core is built and
    bound (``_native.section_chain_solve``); ``kernels.section_chain_solve``
    is its reference and runs otherwise, with the same bits.  A residual
    above ``tol``, or a NaN one, raises SectionSolveError.
    """
    if not (0.0 <= x_upper <= 1.0 and 0.0 <= y_lower <= 1.0):
        raise ModelDomainError("section boundary compositions outside [0, 1]")
    if not (math.isfinite(r) and math.isfinite(alpha)):
        raise ValueError("non-finite flow ratio or relative volatility")
    if r <= 0.0 or tray_count < 0:
        raise ValueError("need r > 0 and tray_count >= 0")
    if tray_count == 0:
        return None
    solve = _native.section_chain_solve if _native.ready() \
        else kernels.section_chain_solve
    xs, it, resid = solve(float(x_upper), float(y_lower), float(r),
                          int(tray_count), float(alpha), tol, max_iter)
    if not resid <= tol:
        raise SectionSolveError(it, resid)
    return xs


class SectionOracle:
    """Exact steady-section predictor (the map the ANNs approximate)."""

    def __init__(self, section: Section, alpha, tol=1e-12):
        self.section = section
        self.alpha = alpha
        self.tol = tol

    def predict(self, x_up, y_lo, r, want_grad):
        """(x_bot, False, d x_bot / d(x_up, y_lo, r) or None) from one
        section solve; the gradient (only if want_grad) by the implicit
        function theorem."""
        m = self.section.tray_count
        xs = _section_profile(x_up, y_lo, r, m, self.alpha, self.tol, 60)
        if m == 0:
            return (float(x_up), False,
                    np.array([1.0, 0.0, 0.0]) if want_grad else None)
        x_bot = float(xs[m - 1])
        if not want_grad:
            return x_bot, False, None
        dy = kernels.equilibrium_deriv(xs, self.alpha)
        # Residuals R_t = r (x_above - x_t) + y_below - y(x_t); solve
        # (dR/dxs) dxs = -dR/du for each boundary input u.
        J = np.zeros((m, m))
        for t in range(m):
            J[t, t] = -r - dy[t]
            if t > 0:
                J[t, t - 1] = r
            if t < m - 1:
                J[t, t + 1] = dy[t + 1]
        rhs = np.zeros((m, 3))
        rhs[0, 0] = -r                       # d/dx_up
        rhs[m - 1, 1] = -1.0                 # d/dy_lo
        x_above = np.concatenate(([x_up], xs[:-1]))
        rhs[:, 2] = -(x_above - xs)          # d/dr
        sens = np.linalg.solve(J, rhs)
        return x_bot, False, sens[m - 1]


class HybridModel:
    """Hybrid stage-aggregation model with pluggable section predictors.

    section_models are ordered top-down to match layout.sections; the
    aggregation-stage balances are assembled by kernels.hybrid_assemble
    from the layout.  When every section model has packed() (an ANN
    surrogate) and all share one eps, the model is evaluated by the
    packed kernel (kernels.hybrid_rhs_jac), on any layout.  Otherwise
    (oracle or mixed sections, mixed eps) it calls each section model's
    predict(x_up, y_lo, r, want_grad) -> (x_bot, clamped, gradient or
    None) once per section.
    """

    def __init__(self, params: ColumnParams, layout: AggregationLayout,
                 section_models):
        if len(section_models) != len(layout.sections):
            raise ValueError("one section model per layout section")
        self.params = params
        self.layout = layout
        self.section_models = list(section_models)
        self.m_hold = layout.effective_holdups(params)
        self._strip = tuple(s.uses_stripping_flow for s in layout.sections)
        self._feed = layout.agg_stages.index(params.feed_stage)
        self._packed = None
        packs = [s.packed() for s in self.section_models
                 if hasattr(s, "packed")]
        if (len(packs) == len(self.section_models)
                and len({eps for _, _, eps in packs}) == 1):
            nets, ranges, eps = zip(*packs)
            self._packed = (
                np.concatenate(nets),
                np.cumsum([0] + [w.size for w in nets[:-1]], dtype=np.int64),
                np.array([s.hidden_count for s in self.section_models],
                         dtype=np.int64),
                np.array([lo for lo, _ in ranges]),
                np.array([hi for _, hi in ranges]), eps[0])

    @property
    def n_states(self):
        return len(self.layout.agg_stages)

    @property
    def packed(self):
        """(net, offsets, hidden counts, r_lo, r_hi, eps) of the packed
        kernel, or None when the sections are evaluated one by one."""
        return self._packed

    def evaluate(self, z, L, V, F, x_F, want_jac):
        """(f, d f/d z, d f/d (L, V), n_clamped) at scalar inputs; the
        Jacobians are None unless want_jac."""
        if self._packed is not None:
            net, off, hs, rlo, rhi, eps = self._packed
            return kernels.hybrid_rhs_jac(
                z, L, V, F, x_F, self.params.alpha, self.m_hold,
                net, off, hs, rlo, rhi, eps, self._strip, self._feed,
                1 if want_jac else 0)
        zs = np.asarray(z, dtype=float).tolist()
        alpha = self.params.alpha
        nsec = len(self.section_models)
        xb, yt = [], []
        # Section partials: d xb and d y_top w.r.t. raw (z_up, z_lo, L, V).
        dxb, dyt = [], []
        n_clamped = 0
        for k, (sec, model) in enumerate(zip(self.layout.sections,
                                             self.section_models)):
            zu, zl = zs[nsec - k], zs[nsec - 1 - k]
            yl = kernels.equilibrium(zl, alpha)
            r = sec.flow_ratio(L, V, F)
            val, clamped, g = model.predict(zu, yl, r, want_jac)
            n_clamped += bool(clamped)
            xb.append(val)
            yt.append(yl + r * (zu - val))
            if want_jac:
                dyl = kernels.equilibrium_deriv(zl, alpha)
                du, dl_raw, dr = g[0], g[1] * dyl, g[2]
                da = (du, dl_raw, dr / V, -dr * r / V)
                dxb.append(da)
                dyt.append((r * (1.0 - du), dyl - r * dl_raw,
                            (zu - val) / V - r * da[2],
                            -r * (zu - val) / V - r * da[3]))
        f, Jz, Ju = kernels.hybrid_assemble(
            zs, xb, yt, dxb, dyt, L, V, F, x_F, alpha, self.m_hold,
            self._strip, self._feed, want_jac)
        return f, Jz, Ju, n_clamped


def oracle_hybrid(params: ColumnParams, layout: AggregationLayout,
                  tol=1e-12) -> HybridModel:
    """Hybrid model whose sections are solved exactly (oracle mode)."""
    models = [SectionOracle(s, params.alpha, tol) for s in layout.sections]
    return HybridModel(params, layout, models)


# ---------------------------------------------------------------------------
# Steady-state solvers
# ---------------------------------------------------------------------------

_PTC_DT0, _PTC_MAX_ITER = 10.0, 500


def _ptc_steady(fun, jac, x0, tol, dt0=_PTC_DT0, max_iter=_PTC_MAX_ITER):
    """Pseudo-transient continuation (switched evolution relaxation).

    Backward-Euler-like steps (I/dt - J) step = f with an exponential
    ramp of dt; robust for the near-singular slow modes of high-purity
    columns where plain damped Newton stalls.  Iterates are kept inside
    [0, 1] by fraction-to-boundary damping.
    """
    x = np.clip(np.asarray(x0, dtype=float), 0.0, 1.0)
    f = fun(x)
    fn = np.linalg.norm(f)
    dt = dt0
    I = np.eye(x.size)
    for it in range(max_iter):
        if np.max(np.abs(f)) <= tol:
            return x, True
        try:
            step = np.linalg.solve(I / dt - jac(x), f)
        except np.linalg.LinAlgError:
            dt *= 0.25
            continue
        lam = 1.0
        neg = step < 0.0
        pos = step > 0.0
        if np.any(neg):
            lam = min(lam, 0.99 * np.min(x[neg] / -step[neg]))
        if np.any(pos):
            lam = min(lam, 0.99 * np.min((1.0 - x[pos]) / step[pos]))
        xt = np.clip(x + lam * step, 0.0, 1.0)
        ft = fun(xt)
        fnt = np.linalg.norm(ft)
        if not np.isfinite(fnt) or fnt > 2.0 * fn:
            dt *= 0.5
            if dt < 1e-8:
                return x, False
            continue
        x, f, fn = xt, ft, fnt
        if lam == 1.0:
            dt = min(dt * 2.0, 1e16)
    return x, np.max(np.abs(f)) <= tol


def steady_state_solve(u: ColumnInputs, p: ColumnParams, init=None,
                       tol=1e-10):
    """Steady state of the full-order model: ||full_rhs||_inf <= tol.

    Pseudo-transient continuation from `init` (or a flat feed-composition
    profile), with long-horizon relaxation retries before giving up.

    Where the C core is built and bound, each continuation is one compiled
    call (`_native.full_steady`) and each relaxation hands `integrate` the
    compiled segment `_native.FullRelaxation`.  The numpy code
    (`_ptc_steady` on `full_rhs` and `full_state_jacobian`, and the
    integrator's loop) is their reference and runs otherwise; both give
    the same bits and raise the same errors.
    """
    fun = lambda x: full_rhs(x, u, p)
    jac = lambda x: full_state_jacobian(x, u, p)
    if _native.ready():
        ptc = lambda x: _native.full_steady(x, u, p, tol, _PTC_DT0,
                                            _PTC_MAX_ITER)
        relaxation = _native.FullRelaxation(u, p)
    else:
        ptc = lambda x: _ptc_steady(fun, jac, x, tol)
        relaxation = None
    x0 = np.full(p.n_total, u.x_F) if init is None else np.asarray(init, float)
    x, ok = ptc(x0)
    if ok:
        return x
    x_relax = np.clip(x0, 0.0, 1.0)
    for horizon in (1e5, 1e7):
        prob = IvpProblem(
            rhs=lambda t, y, q: fun(y),
            state_jacobian=lambda t, y, q: jac(y),
            initial_state=x_relax,
            time_grid=np.array([0.0, horizon]),
            rel_tol=1e-7, abs_tol=1e-12, compiled=relaxation)
        x_relax = integrate(prob).states[-1]
        x, ok = ptc(x_relax)
        if ok:
            return x
    raise SteadyStateError(
        f"no steady state found for L={u.L}, V={u.V}, x_F={u.x_F}; "
        f"residual {np.max(np.abs(fun(x))):.3e}")


def hybrid_steady_state(model: HybridModel, u: ColumnInputs, init=None,
                        tol=1e-11):
    """Steady state of a hybrid model (one state per aggregation stage).

    Stops at ||rhs||_inf <= tol.  The slow modes of a high-purity column
    make that a loose bound on the state: with the default tol, the
    oracle hybrid started from the default init (or any start away from
    the answer) lands up to about 1e-7 from the exact steady state.
    """
    fun = lambda z: model.evaluate(z, u.L, u.V, u.F, u.x_F, False)[0]
    jac = lambda z: model.evaluate(z, u.L, u.V, u.F, u.x_F, True)[1]
    if init is None:
        init = np.linspace(0.02, 0.98, model.n_states)
    z, ok = _ptc_steady(fun, jac, np.asarray(init, dtype=float), tol)
    if not ok:
        raise SteadyStateError(
            f"hybrid steady state did not converge; residual "
            f"{np.max(np.abs(fun(z))):.3e}")
    return z
