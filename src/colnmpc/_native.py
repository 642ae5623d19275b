"""Loader of the compiled full-order prediction segment (``_core.c``).

At import the C file is built, once per source and build line, with

    gcc -O2 -ffp-contract=off -shared -fPIC -o _core-<hash>.so _core.c -lm

next to this file; ``<hash>`` is taken from the source and that line, so a
changed source or line builds a new library, and an existing one is loaded
as it is.  The build writes a temporary file that ``os.replace`` moves into
place, so concurrent imports never load a half-written library.
``-ffp-contract=off`` keeps gcc from fusing a multiply and an add, which
would round differently from the numpy kernels; no ``-ffast-math`` and no
``-march=native`` for the same reason.

When gcc is missing or the build or load fails, ``LIB`` is None, one
RuntimeWarning says so, and every prediction runs on the numpy integrator
(``colnmpc.KERNEL_BACKEND`` is then ``"python"``).

``FullSegment`` is what ``ocp`` hands the integrator as
``IvpProblem.compiled`` for a full-order prediction segment.
"""

import ctypes
import hashlib
import os
import shutil
import subprocess
import warnings

import numpy as np

from .integrate import IntegrationError, Trajectory

__all__ = ["LIB", "FullSegment"]

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "_core.c")
_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_STATS = ("steps", "accepted", "rejected", "newton_failures", "nfev", "njev",
          "nlu")
_FAILURES = {1: "step limit {max_steps} exceeded",
             2: "step size underflow",
             3: "non-finite rhs at initial state"}


def _build():
    """Path of the built library, building it when it is not there."""
    gcc = shutil.which("gcc")
    if gcc is None:
        raise OSError("gcc not found")
    with open(_SOURCE, "rb") as fh:
        source = fh.read()
    digest = hashlib.sha256(source + " ".join(_FLAGS).encode())
    path = os.path.join(_HERE, f"_core-{digest.hexdigest()[:16]}.so")
    if os.path.exists(path):
        return path
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        subprocess.run([gcc, *_FLAGS, "-o", tmp, _SOURCE, "-lm"],
                       check=True, capture_output=True)
        os.replace(tmp, path)
    except subprocess.CalledProcessError as exc:
        raise OSError(exc.stderr.decode(errors="replace")) from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return path


def _load():
    try:
        lib = ctypes.CDLL(_build())
    except OSError as exc:
        warnings.warn(f"colnmpc: the C core is not available ({exc}); "
                      "full-order predictions run on the numpy integrator",
                      RuntimeWarning, stacklevel=2)
        return None
    fn = lib.colnmpc_full_segment
    ptr, dbl = ctypes.c_void_p, ctypes.c_double
    fn.argtypes = [ctypes.c_int, ctypes.c_int, ptr, ptr, dbl, dbl, dbl, dbl,
                   dbl, ctypes.c_longlong, ptr, ctypes.c_int, ptr, ptr, ptr]
    fn.restype = ctypes.c_int
    return lib


LIB = _load()


class FullSegment:
    """The compiled integration of ocp's augmented full-order system
    [tray compositions, tracking quadrature] for one model and spec.

    Called as ``segment(problem, with_sens)``, it integrates ``problem``
    as ``integrate._run`` would with ocp's callbacks for that system: L
    and V are the last two entries of its parameter vector, and its rhs
    and Jacobian callbacks are not called.  Results agree with the numpy loop
    to rounding; the counters, failures and ``h_last`` are the same.
    """

    def __init__(self, model, spec):
        params = model.params
        self._n = model.n
        self._feed = int(params.feed_idx)
        self._holdup = np.ascontiguousarray(params.holdups, dtype=float)
        if self._holdup.shape != (self._n,):
            raise ValueError(f"holdups must have shape ({self._n},)")
        # L, V, F, x_F, alpha, set-points of x_B and x_D
        self._model = np.array([0.0, 0.0, model.F, model.x_F, params.alpha,
                                spec.setpoint_x_B, spec.setpoint_x_D])

    def __call__(self, problem, with_sens):
        grid = problem.time_grid
        if grid.size != 2:
            raise ValueError("a compiled segment integrates one interval")
        N = self._n + 1
        p = problem.parameter_vector
        if p.size < 2:
            raise ValueError("the parameter vector must end with L and V")
        self._model[0] = p[-2]
        self._model[1] = p[-1]
        y = np.array(problem.initial_state, dtype=float)
        if y.shape != (N,):
            raise ValueError(f"initial_state must have shape ({N},)")
        n_p = p.size if with_sens else 0
        if with_sens:
            if problem.initial_sensitivities is not None:
                S = np.array(problem.initial_sensitivities, dtype=float)
                if S.shape != (N, n_p):
                    raise ValueError(
                        "initial_sensitivities must have shape (n, n_p)")
            else:
                S = np.zeros((N, n_p))
            sens = np.ascontiguousarray(S.T)   # one column per parameter
        else:
            S = sens = None
        stats = np.zeros(7, dtype=np.int64)
        times = np.zeros(2)
        status = LIB.colnmpc_full_segment(
            self._n, self._feed, self._holdup.ctypes.data,
            self._model.ctypes.data, grid[0], grid[1],
            problem.h_init if problem.h_init is not None else 0.0,
            problem.rel_tol, problem.abs_tol, problem.max_steps,
            y.ctypes.data, n_p, None if sens is None else sens.ctypes.data,
            stats.ctypes.data, times.ctypes.data)
        out = dict(zip(_STATS, stats.tolist()))
        out["h_last"] = float(times[1])
        if status:
            if status not in _FAILURES:
                raise MemoryError("compiled segment could not allocate")
            raise IntegrationError(
                _FAILURES[status].format(max_steps=problem.max_steps),
                float(times[0]), out)
        states = np.stack([problem.initial_state, y])
        sens_out = None if S is None else np.stack([S, sens.T])
        return Trajectory(grid.copy(), states, sens_out, out)
