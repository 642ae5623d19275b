import numpy as np
import pytest

from colnmpc import _native
from colnmpc.column import (AggregationLayout, ColumnInputs, ColumnParams,
                            steady_state_solve)

# Nominal operating point: steady products sit at the default set-points
# (0.99995 / 0.00005, see ocp.OcpSpec) for the default column.
NOMINAL_L = 2.0346651819
NOMINAL_V = 2.3546471803
NOMINAL_XF = 0.32

# Aggregation layouts other than the default: feed at another hybrid
# state, fewer and more sections.
OTHER_LAYOUTS = [[1, 21, 30, 35, 42], [1, 7, 14, 21, 42], [1, 10, 21, 42],
                 [1, 10, 21, 30, 35, 42]]


@pytest.fixture(scope="session")
def params():
    return ColumnParams()


@pytest.fixture(scope="session")
def layout(params):
    return AggregationLayout.from_params(params)


@pytest.fixture(scope="session")
def nominal_u(params):
    return ColumnInputs(NOMINAL_L, NOMINAL_V, params.feed_flow, NOMINAL_XF)


@pytest.fixture(scope="session")
def nominal_steady(params, nominal_u):
    return steady_state_solve(nominal_u, params)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture()
def no_core(monkeypatch):
    """Everything runs on the numpy code, the reference of the C core, as
    it does when the core is not built, loaded and bound: predictions on
    the numpy integrator, steady states on column._ptc_steady and the
    learner's fits on learner._levenberg_marquardt."""
    monkeypatch.setattr(_native, "LIB", None)
