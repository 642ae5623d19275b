"""Adaptive hybrid-model NMPC of a binary distillation column."""

# The kernels are numpy code; the benchmark records this in its stamp.
KERNEL_BACKEND = "python"

__version__ = "0.1.0"
__all__ = ["KERNEL_BACKEND", "__version__"]
