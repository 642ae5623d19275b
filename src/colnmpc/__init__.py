"""Adaptive hybrid-model NMPC of a binary distillation column.

``KERNEL_BACKEND`` says what runs: ``"c"`` when the C core (``_core.c``,
built at import; see ``colnmpc._native``) was built, loaded and bound, and
``"python"`` when it was not and every prediction, steady state and learner
fit runs on the numpy code; the fallback raises one RuntimeWarning.  The
benchmark records it in its stamp.
"""

from ._native import LIB as _LIB

KERNEL_BACKEND = "python" if _LIB is None else "c"

__version__ = "0.1.0"
__all__ = ["KERNEL_BACKEND", "__version__"]
