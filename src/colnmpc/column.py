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
import operator
from dataclasses import dataclass, field

import numpy as np

from . import _native, kernels
from .integrate import IvpProblem, ModelDomainError, integrate
from .surrogate import SurrogateModel

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


@dataclass(frozen=True)
class ColumnParams:
    """Physical and structural description of the column: a value, frozen
    as ``ocp.OcpSpec`` is, which compares and hashes by its fields.

    Stage count includes condenser and reboiler.  Bounds are the hard
    actuator limits on reflux L and boilup V [mol/s]; inputs are
    admissible when additionally D = V - L > 0 and B = F + L - V > 0.
    ``holdups`` is the molar holdup per stage (reboiler, trays,
    condenser) [mol], a read-only float64 array made once, when the
    params are made, and read as it is by the models and the C core.
    """

    n_total: int = 42
    feed_stage: int = 21              # 1-based, 1 = reboiler
    alpha: float = 2.0
    tray_holdup: float = 0.5          # [mol]
    reboiler_holdup: float = 10.0     # [mol]
    condenser_holdup: float = 10.0    # [mol]
    feed_flow: float = 1.0            # [mol/s]
    bounds_L: tuple = (1.0, 5.0)      # [mol/s]
    bounds_V: tuple = (2.0, 6.0)      # [mol/s]
    holdups: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("n_total", "feed_stage"):
            try:
                object.__setattr__(self, name,
                                   operator.index(getattr(self, name)))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
        # floats, so that integer holdups give a float holdup array
        for name in ("alpha", "tray_holdup", "reboiler_holdup",
                     "condenser_holdup", "feed_flow"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (1 <= self.feed_stage <= self.n_total):
            raise ValueError("feed stage outside the column")
        if self.feed_stage in (1, self.n_total):
            raise ValueError("feed stage cannot be reboiler or condenser")
        # alpha = 1 (no separation) is admitted as a degenerate test case.
        if not (1.0 <= self.alpha < math.inf):
            raise ValueError("relative volatility must be finite and >= 1")
        holdups = (self.tray_holdup, self.reboiler_holdup,
                   self.condenser_holdup)
        if not all(0.0 < h < math.inf for h in holdups):
            raise ValueError("holdups must be positive and finite")
        if not 0.0 < self.feed_flow < math.inf:
            raise ValueError("feed flow must be positive and finite")
        if not all(map(math.isfinite, (*self.bounds_L, *self.bounds_V))):
            raise ValueError("flow bounds must be finite")
        if self.bounds_L[0] >= self.bounds_L[1] or self.bounds_V[0] >= self.bounds_V[1]:
            raise ValueError("degenerate flow bounds")
        # The admissible set box * {D > 0, B > 0} must be non-empty.
        ok = (self.bounds_V[1] > self.bounds_L[0]
              and self.bounds_V[0] < self.bounds_L[1] + self.feed_flow)
        if not ok:
            raise ValueError("bounds admit no inputs with D > 0 and B > 0")
        n = np.full(self.n_total, self.tray_holdup)
        n[0] = self.reboiler_holdup
        n[-1] = self.condenser_holdup
        n.flags.writeable = False
        object.__setattr__(self, "holdups", n)

    @property
    def feed_idx(self) -> int:
        return self.feed_stage - 1

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
        if not all(map(math.isfinite, vals)):
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
        """Layout of the aggregation stages ``agg_stages`` (default
        [1, 14, feed, 28, n]): their holdup factors, and the sections
        between them, top-down.

        Each spare tray's holdup goes to the nearer end of its section,
        a tie to the upper end: of the trays between stages lower and
        upper, those below (lower + upper + 1) // 2 go to lower, the rest
        to upper.  Each stage's extra holdup is summed as Python floats
        from 0.0 in stage order (the trays of the section below it, then
        those of the section above it), and its factor is
        1 + extra / holdup.  That is the nearest-stage scan over all
        trays, bit for bit.  Stages outside the outermost aggregation
        stages are assigned to none; such a layout lacks the reboiler or
        the condenser, which ``validate`` rejects.
        """
        if agg_stages is None:
            agg_stages = [1, 14, p.feed_stage, 28, p.n_total]
        agg_stages = sorted(set(int(s) for s in agg_stages))
        if any(not 1 <= s <= p.n_total for s in agg_stages):
            raise ValueError(f"aggregation stages must lie in 1..{p.n_total}")
        holdups = p.holdups.tolist()
        extra = [0.0] * len(agg_stages)
        for i, (lower, upper) in enumerate(zip(agg_stages, agg_stages[1:])):
            split = (lower + upper + 1) // 2  # the first tray of the upper end
            for tray in range(lower, split - 1):
                extra[i] += holdups[tray]  # stage tray + 1
            for tray in range(split - 1, upper - 1):
                extra[i + 1] += holdups[tray]
        factors = [1.0 + e / holdups[a - 1]
                   for e, a in zip(extra, agg_stages)]
        sections = [Section(upper_stage=upper, lower_stage=lower,
                            tray_count=upper - lower - 1,
                            uses_stripping_flow=upper <= p.feed_stage)
                    for lower, upper in zip(agg_stages, agg_stages[1:])]
        # hybrid code orders sections top-down
        layout = cls(agg_stages=agg_stages, holdup_factors=factors,
                     sections=sections[::-1])
        layout.validate(p)
        return layout

    def validate(self, p: ColumnParams):
        """Raise ValueError unless the layout keeps the reboiler, feed and
        condenser stages, has one factor >= 1 per stage, conserves the
        column's holdup (summed as Python floats) and has no section
        across the feed stage."""
        req = {1, p.feed_stage, p.n_total}
        if not req.issubset(self.agg_stages):
            raise ValueError("condenser, reboiler and feed stage must be "
                             "aggregation stages")
        if len(self.holdup_factors) != len(self.agg_stages):
            raise ValueError("one holdup factor per aggregation stage")
        if any(h < 1.0 - 1e-12 for h in self.holdup_factors):
            raise ValueError("holdup factors must be >= 1")
        holdups = p.holdups.tolist()
        total = sum(h * holdups[a - 1]
                    for h, a in zip(self.holdup_factors, self.agg_stages))
        column = sum(holdups)
        if abs(total - column) > 1e-9 * column:
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
    solve = _native.section_chain_solve if _native.LIB is not None \
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
        """(x_bot, d x_bot / d(x_up, y_lo, r) or None) from one section
        solve; the gradient (only if want_grad) by the implicit function
        theorem."""
        m = self.section.tray_count
        xs = _section_profile(x_up, y_lo, r, m, self.alpha, self.tol, 60)
        if m == 0:
            return float(x_up), np.array([1.0, 0.0, 0.0]) if want_grad \
                else None
        x_bot = float(xs[m - 1])
        if not want_grad:
            return x_bot, None
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
        return x_bot, sens[m - 1]


class HybridModel:
    """Hybrid stage-aggregation model of any layout.

    section_models are ordered top-down to match layout.sections, and are
    either all SectionOracles (the exact sections) or all SurrogateModels
    with one eps (the ANN sections); any other list raises ValueError.
    The aggregation-stage balances are assembled by
    kernels.hybrid_assemble from the layout.  Sections are evaluated one
    at a time: ANN sections from their packed weights by
    kernels.hybrid_rhs_jac, oracle sections by SectionOracle.predict.

    The model makes, once, the arrays the C core reads, and the core's
    bindings (``_native.HybridHorizon``, ``_native.OracleSections``) take
    their addresses as they are: ``m_hold`` (float64, one effective
    holdup per state), the strip flags (``intc``, one per section) and,
    for ANN sections, the packed weights (float64), net offsets and
    hidden counts (``int64``) and ratio ranges (float64).
    """

    def __init__(self, params: ColumnParams, layout: AggregationLayout,
                 section_models):
        if len(section_models) != len(layout.sections):
            raise ValueError("one section model per layout section")
        self.params = params
        self.layout = layout
        self.section_models = list(section_models)
        self.m_hold = layout.effective_holdups(params)
        self._strip = np.array([s.uses_stripping_flow
                                for s in layout.sections], dtype=np.intc)
        self._feed = layout.agg_stages.index(params.feed_stage)
        self._packed = self._oracle = None
        if all(isinstance(s, SectionOracle) for s in self.section_models):
            self._oracle = _native.OracleSections(self)
            return
        if not all(isinstance(s, SurrogateModel)
                   for s in self.section_models):
            raise ValueError("section models must be all SectionOracles "
                             "or all SurrogateModels")
        nets, ranges, eps = zip(*(s.packed() for s in self.section_models))
        if len(set(eps)) != 1:
            raise ValueError("the section surrogates must share one eps")
        self._packed = (
            np.concatenate(nets),
            np.cumsum([0] + [w.size for w in nets[:-1]], dtype=np.int64),
            np.array([s.hidden_count for s in self.section_models],
                     dtype=np.int64),
            np.array([lo for lo, _ in ranges], dtype=float),
            np.array([hi for _, hi in ranges], dtype=float), eps[0])

    @property
    def n_states(self):
        return len(self.layout.agg_stages)

    @property
    def packed(self):
        """(net, offsets, hidden counts, r_lo, r_hi, eps) of the packed
        kernel, or None for oracle sections."""
        return self._packed

    def evaluate(self, z, L, V, F, x_F, want_jac):
        """(f, d f/d z, d f/d (L, V), n_clamped) at scalar inputs; the
        Jacobians are None unless want_jac.  An oracle never clamps."""
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
        dxb, dyt = [], []
        for k, (sec, oracle) in enumerate(zip(self.layout.sections,
                                              self.section_models)):
            zu, zl = zs[nsec - k], zs[nsec - 1 - k]
            yl = kernels.equilibrium(zl, alpha)
            r = sec.flow_ratio(L, V, F)
            val, g = oracle.predict(zu, yl, r, want_jac)
            xb.append(val)
            yt.append(yl + r * (zu - val))
            if want_jac:
                dyl = kernels.equilibrium_deriv(zl, alpha)
                da, dy = kernels.section_partials(g[0], g[1] * dyl, g[2],
                                                  dyl, zu, val, r, V)
                dxb.append(da)
                dyt.append(dy)
        f, Jz, Ju = kernels.hybrid_assemble(
            zs, xb, yt, dxb, dyt, L, V, F, x_F, alpha, self.m_hold,
            self._strip, self._feed, want_jac)
        return f, Jz, Ju, 0


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

    The loop stops early at a fixed point: an accepted iteration that
    leaves the iterate byte for byte and dt unchanged.  Each iteration is
    a function of (x, dt) alone (f and its norm follow from x), so every
    further one would repeat it, and (x, converged) are exactly those of
    all max_iter iterations.  A component on a bound with a step pushing
    out of [0, 1] gives lam = 0 and such a fixed point.

    A rejected trial or a singular solve changes only dt, so the next
    iteration reuses the Jacobian at the unchanged iterate; a Jacobian
    whose evaluation raised LinAlgError is evaluated again.
    """
    x = np.clip(np.asarray(x0, dtype=float), 0.0, 1.0)
    f = fun(x)
    fn = np.linalg.norm(f)
    dt = dt0
    I = np.eye(x.size)
    J = None  # the Jacobian at x, once evaluated
    for it in range(max_iter):
        if np.max(np.abs(f)) <= tol:
            return x, True
        try:
            if J is None:
                J = jac(x)
            step = np.linalg.solve(I / dt - J, f)
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
        dt_new = min(dt * 2.0, 1e16) if lam == 1.0 else dt
        if dt_new == dt and xt.tobytes() == x.tobytes():
            break  # a fixed point: every further iteration repeats this one
        x, f, fn, dt, J = xt, ft, fnt, dt_new, None
    return x, np.max(np.abs(f)) <= tol


def _relaxed_steady(ptc, fun, jac, x0, relaxation=lambda: None):
    """(x, converged) of the steady-state procedure of both models: the
    continuation ``ptc`` from ``x0``; where it does not converge, from
    ``x0`` clipped to [0, 1], a relaxation over 1e5 s (``integrate`` on
    ``fun`` and ``jac``, rtol 1e-7, atol 1e-12) and a continuation from
    its end; then one over 1e7 s and a continuation.  ``relaxation()`` is
    the relaxation's compiled segment, or None for the integrator's
    loop; it is called when the first relaxation starts."""
    x, ok = ptc(x0)
    if ok:
        return x, True
    compiled = relaxation()
    x_relax = np.clip(x0, 0.0, 1.0)
    for horizon in (1e5, 1e7):
        prob = IvpProblem(
            rhs=lambda t, y, q: fun(y),
            state_jacobian=lambda t, y, q: jac(y),
            initial_state=x_relax,
            time_grid=np.array([0.0, horizon]),
            rel_tol=1e-7, abs_tol=1e-12, compiled=compiled)
        x_relax = integrate(prob).states[-1]
        x, ok = ptc(x_relax)
        if ok:
            return x, True
    return x, False


def steady_state_solve(u: ColumnInputs, p: ColumnParams, init=None,
                       tol=1e-10):
    """Steady state of the full-order model: ||full_rhs||_inf <= tol.

    Pseudo-transient continuation from `init` (or a flat feed-composition
    profile), with long-horizon relaxation retries before giving up.  The
    continuation stops early once an iteration leaves its state unchanged
    (see `_ptc_steady`), with the result of all its iterations.  A `tol`
    that is NaN or not positive raises ValueError.

    Where the C core is built and bound, each continuation is one compiled
    call (`_native.full_steady`) and each relaxation hands `integrate` the
    compiled segment `_native.FullRelaxation`, built when the first
    relaxation starts.  The numpy code (`_ptc_steady` on `full_rhs` and
    `full_state_jacobian`, and the integrator's loop) is their reference
    and runs otherwise; both give the same bits and raise the same errors.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    fun = lambda x: full_rhs(x, u, p)
    jac = lambda x: full_state_jacobian(x, u, p)
    if _native.LIB is not None:
        ptc = lambda x: _native.full_steady(x, u, p, tol, _PTC_DT0,
                                            _PTC_MAX_ITER)
        relaxation = lambda: _native.FullRelaxation(u, p)
    else:
        ptc = lambda x: _ptc_steady(fun, jac, x, tol)
        relaxation = lambda: None
    x0 = np.full(p.n_total, u.x_F) if init is None else np.asarray(init, float)
    x, ok = _relaxed_steady(ptc, fun, jac, x0, relaxation)
    if ok:
        return x
    raise SteadyStateError(
        f"no steady state found for L={u.L}, V={u.V}, x_F={u.x_F}; "
        f"residual {np.max(np.abs(fun(x))):.3e}")


def hybrid_steady_state(model: HybridModel, u: ColumnInputs, init=None,
                        tol=1e-11):
    """Steady state of a hybrid model (one state per aggregation stage).

    Stops at ||rhs||_inf <= tol; a `tol` that is NaN or not positive
    raises ValueError.  The procedure is `steady_state_solve`'s
    (`_relaxed_steady`): a continuation from `init`, and where it stalls,
    relaxations of `HybridModel.evaluate` on the integrator's loop, each
    followed by a continuation.  The slow modes of a high-purity column
    make tol a loose bound on the state: with the default tol, the
    oracle hybrid started from the default init (or any start away from
    the answer) lands up to about 1e-7 from the exact steady state.

    Where the C core is built and bound and the sections are oracles (the
    model is not packed), each continuation is one compiled call
    (`_native.oracle_steady`).  `_ptc_steady` on `HybridModel.evaluate`
    is its reference and runs otherwise; both give the same bits and
    raise the same errors.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    fun = lambda z: model.evaluate(z, u.L, u.V, u.F, u.x_F, False)[0]
    jac = lambda z: model.evaluate(z, u.L, u.V, u.F, u.x_F, True)[1]
    if init is None:
        init = np.linspace(0.02, 0.98, model.n_states)
    init = np.asarray(init, dtype=float)
    if init.shape != (model.n_states,):
        raise ValueError("state length does not match the hybrid model")
    if _native.LIB is not None and model.packed is None:
        ptc = lambda z: _native.oracle_steady(z, model, u, tol, _PTC_DT0,
                                              _PTC_MAX_ITER)
    else:
        ptc = lambda z: _ptc_steady(fun, jac, z, tol)
    z, ok = _relaxed_steady(ptc, fun, jac, init)
    if not ok:
        raise SteadyStateError(
            f"hybrid steady state did not converge; residual "
            f"{np.max(np.abs(fun(z))):.3e}")
    return z
