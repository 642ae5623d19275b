"""Hot-kernel backend selection.

The compiled Cython core is used when available; otherwise the numpy
reference implementation.  Set COLNMPC_PURE_PYTHON=1 to force the
fallback.  ``hybrid_assemble`` has no compiled counterpart and always
comes from the reference module.
"""

import os

if os.environ.get("COLNMPC_PURE_PYTHON"):
    from . import pyref as impl
else:
    try:
        from . import _fast as impl  # type: ignore[attr-defined]
    except ImportError:
        from . import pyref as impl

from . import pyref

BACKEND = impl.BACKEND_NAME

equilibrium = impl.equilibrium
equilibrium_deriv = impl.equilibrium_deriv
inverse_equilibrium = impl.inverse_equilibrium
full_rhs = impl.full_rhs
full_state_jac = impl.full_state_jac
full_input_jac = impl.full_input_jac
section_chain_solve = impl.section_chain_solve
hybrid_rhs_jac = impl.hybrid_rhs_jac
hybrid_assemble = pyref.hybrid_assemble

__all__ = [
    "BACKEND",
    "impl",
    "pyref",
    "equilibrium",
    "equilibrium_deriv",
    "inverse_equilibrium",
    "full_rhs",
    "full_state_jac",
    "full_input_jac",
    "section_chain_solve",
    "hybrid_rhs_jac",
    "hybrid_assemble",
]
