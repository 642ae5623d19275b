"""Adaptive hybrid-model NMPC of a binary distillation column.

``KERNEL_BACKEND`` is ``"c"`` when the compiled prediction segments,
steady-state solves and learner fits (``_core.c``, built at import; see
``colnmpc._native``) loaded, and ``"python"`` when they did not and all
of them run on the numpy code; the fallback raises one RuntimeWarning.  The
benchmark records it in its stamp.
"""

from ._native import LIB as _LIB

KERNEL_BACKEND = "python" if _LIB is None else "c"

__version__ = "0.1.0"
__all__ = ["KERNEL_BACKEND", "__version__"]
