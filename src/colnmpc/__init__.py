"""Adaptive hybrid-model NMPC of a binary distillation column.

``KERNEL_BACKEND`` is ``"c"`` when the compiled prediction segments and
learner fits (``_core.c``, built at import; see ``colnmpc._native``)
loaded, and ``"python"`` when they did not and every prediction and fit
runs on the numpy loops; the fallback raises one RuntimeWarning.  The
benchmark records it in its stamp.
"""

from ._native import LIB as _LIB

KERNEL_BACKEND = "python" if _LIB is None else "c"

__version__ = "0.1.0"
__all__ = ["KERNEL_BACKEND", "__version__"]
