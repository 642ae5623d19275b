"""Measurement-to-training-data reconstruction.

The aggregation-stage compositions are measured (perfectly, by
assumption) every sampling period.  Mass balances around the aggregation
stages are then inverted top-down: each balance has one unknown (the
vapor entering the stage from the section below), and each section
balance yields the liquid leaving the section.  The reboiler balance is
left over and recorded as a consistency residual.  The reconstruction is
exact at steady state; away from it the estimated derivatives absorb the
aggregated model's dynamic mismatch only approximately, so every data point
carries a steadiness weight that decays with the derivative norm.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .column import AggregationLayout, ColumnParams
from .learner import DataPoint

__all__ = ["Measurement", "DerivEstimate", "Reconstruction",
           "estimate_derivatives", "reconstruct_training_points",
           "estimate_feed_composition", "steadiness_weight"]

# w = 0.5 when the fastest aggregation state moves 1% of its range per
# 60 s sampling period: kappa = ln(2) * 60 / 0.01
DEFAULT_KAPPA = 4158.88308335967


@dataclass(frozen=True)
class Measurement:
    """Aggregation-stage compositions at time t plus the inputs that were
    applied over the sampling window ending at t."""

    t: float
    x_agg: np.ndarray      # bottom-up: reboiler ... condenser
    L: float               # [mol/s]
    V: float
    F: float

    def __post_init__(self):
        x = np.asarray(self.x_agg, dtype=float)
        if np.any(x < 0.0) or np.any(x > 1.0):
            raise ValueError("measured compositions outside [0, 1]")
        object.__setattr__(self, "x_agg", x)

    @property
    def x_D(self):
        return float(self.x_agg[-1])

    @property
    def x_B(self):
        return float(self.x_agg[0])

    @classmethod
    def from_plant(cls, t, x_full, layout: AggregationLayout, L, V, F,
                   noise_std=0.0, rng=None):
        x = layout.state_from_plant(x_full)
        if noise_std > 0.0:
            if rng is None:
                raise ValueError("measurement noise needs an rng")
            x = np.clip(x + rng.normal(0.0, noise_std, x.shape), 0.0, 1.0)
        return cls(t=t, x_agg=x, L=L, V=V, F=F)


@dataclass(frozen=True)
class DerivEstimate:
    dxdt: np.ndarray       # [1/s] per aggregation stage, bottom-up
    window: float          # [s]

    def __post_init__(self):
        d = np.asarray(self.dxdt, dtype=float)
        if not np.all(np.isfinite(d)):
            raise ValueError("non-finite derivative estimate")
        object.__setattr__(self, "dxdt", d)


@dataclass
class Reconstruction:
    points: list                  # one DataPoint or None per section, top-down
    reboiler_residual: float      # [mol/s]
    weight: float
    x_f_hat: float
    n_discarded: int = 0


def estimate_derivatives(history):
    """Two-point backward difference over the last two measurements.

    Returns None while the history is still warming up (fewer than two
    samples); the caller emits no training data for that step.
    """
    if len(history) < 2:
        return None
    a, b = history[-2], history[-1]
    dt = b.t - a.t
    if dt <= 0.0:
        raise ValueError("measurement history must move forward in time")
    return DerivEstimate(dxdt=(b.x_agg - a.x_agg) / dt, window=dt)


def steadiness_weight(d: DerivEstimate, kappa):
    """exp(-kappa * sum |dx/dt|): 1 at steady state, decaying as the
    column moves."""
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    return float(np.exp(-kappa * np.sum(np.abs(d.dxdt))))


def estimate_feed_composition(m: Measurement, d: DerivEstimate,
                              layout: AggregationLayout, params: ColumnParams):
    """Feed composition from the overall balance around the hybrid model,
    clamped to [0, 1]."""
    if m.F <= 0.0:
        raise ValueError("feed flow must be positive")
    D = m.V - m.L
    B = m.F + m.L - m.V
    m_hold = layout.effective_holdups(params)
    acc = float(np.dot(m_hold, d.dxdt))
    x_f = (D * m.x_D + B * m.x_B + acc) / m.F
    return float(np.clip(x_f, 0.0, 1.0))


def reconstruct_training_points(m: Measurement, d: DerivEstimate,
                                layout: AggregationLayout,
                                params: ColumnParams,
                                kappa=DEFAULT_KAPPA,
                                source="closed-loop") -> Reconstruction:
    """Invert the aggregation-stage balances into section training data.

    Cascades from the condenser downward; the reboiler balance has no
    unknowns left and its residual is returned as a mismatch indicator.
    Targets outside [0, 1] are discarded (and counted), not clamped.
    """
    alpha = params.alpha
    L, V, F = m.L, m.V, m.F
    x = m.x_agg
    dx = d.dxdt
    m_hold = layout.effective_holdups(params)
    x_f_hat = estimate_feed_composition(m, d, layout, params)
    w = steadiness_weight(d, kappa)

    y = kernels.equilibrium(x, alpha)
    n = x.shape[0]
    feed = layout.agg_stages.index(params.feed_stage)
    points = []
    n_discarded = 0
    for k, sec in enumerate(layout.sections):
        up, lo = n - 1 - k, n - 2 - k
        # balance at stage `up` -> vapor entering it from this section
        acc = m_hold[up] * dx[up]
        if k == 0:      # total condenser: the vapor leaves as liquid x_D
            y_top = x[up] + acc / V
        else:
            acc = acc - liquid_in
            if up == feed:
                acc = acc - F * (x_f_hat - x[up])
            y_top = y[up] + acc / V
        r = sec.flow_ratio(L, V, F)
        x_bot = x[up] - (y_top - y[lo]) / r
        # net liquid this section delivers to the stage below it
        L_sec = (L + F) if sec.uses_stripping_flow else L
        liquid_in = L_sec * (x_bot - x[lo])
        if 0.0 <= x_bot <= 1.0:
            points.append(DataPoint(t=m.t, x_upper=x[up], y_lower=y[lo], r=r,
                                    x_bot=x_bot, weight=w, source=source))
        else:
            points.append(None)
            n_discarded += 1
    # reboiler: zero unknowns; residual logged as consistency metric
    residual = m_hold[0] * dx[0] - (liquid_in + V * (x[0] - y[0]))
    return Reconstruction(points=points, reboiler_residual=float(residual),
                          weight=w, x_f_hat=x_f_hat, n_discarded=n_discarded)
