"""Loader of the compiled prediction segments, steady-state solves and
learner fits (``_core.c``).

At import the C file is built, once per source and build line, with

    gcc -O2 -ffp-contract=off -fno-builtin-pow -shared -fPIC \\
        -o _core-<hash>.so _core.c -lm

next to this file; ``<hash>`` is taken from the source and that line, so a
changed source or line builds a new library, and an existing one is loaded
as it is.  The build writes a temporary file that ``os.replace`` moves into
place, so concurrent imports never load a half-written library, and then
deletes the other libraries (not temporary files: a concurrent build's).
``-ffp-contract=off`` keeps gcc from fusing a multiply and an add, which
would round differently from the numpy kernels; ``-fno-builtin-pow`` keeps
it from turning ``pow(x, 2.0)`` into ``x * x``, which differs from
Python's ``x ** 2`` (libm pow) in the last bit for some x; no
``-ffast-math`` and no ``-march=native`` for the same reason.

The entry points, and the foreign routines each one reaches:

* ``FullSegment`` and ``HybridSegment`` are what ``ocp`` hands the
  integrator as ``IvpProblem.compiled`` for a full-order and a packed-ANN
  hybrid prediction segment.  The full-order one reaches none; the hybrid
  one numpy's ``log``, ``exp`` and ``tanh`` loops, cblas ``ddot`` and
  ``dgemv`` (``a.dot(b)``, ``a @ X``) and scipy's ``dgetrf``/``dgetrs``.
* ``section_chain_solve`` is ``kernels.section_chain_solve`` (one
  stationary section) and reaches none.
* ``full_steady`` is the pseudo-transient continuation loop
  ``column._ptc_steady`` on the full-order column; it reaches numpy's
  cblas ``ddot`` (``np.linalg.norm``) and LAPACK ``dgesv``
  (``np.linalg.solve``).
* ``FullRelaxation`` is ``column.steady_state_solve``'s relaxation, an
  ``IvpProblem.compiled`` on the full-order column without sensitivities;
  it reaches cblas ``dgemv`` and scipy's ``dgetrf``/``dgetrs``, as the
  hybrid segment does.
* ``fit_net`` and ``fit_node`` are the learner's Levenberg-Marquardt loop
  (``learner._levenberg_marquardt``) for its two residual models, an
  ``lm_train`` cycle and one restart of a node fit, each in one call;
  they reach numpy's ``tanh`` loop, cblas ``ddot``, ``dgemv`` and
  ``dsyrk`` (matmul's ``J.T @ J``) and LAPACK ``dgesv``.

The foreign routines are those the numpy code reaches, bound into the
core once at load: numpy's own float64 inner loops (read from the ufunc
objects), numpy's cblas and LAPACK, all 64-bit-integer symbols of numpy's
own library, and scipy's LAPACK (``scipy.linalg.cython_lapack``).  So
every result but the full-order prediction segment's is bitwise that of
the numpy code.  The kernels' Python-float arithmetic is taken to be that
of Python floats (a Python-float ``alpha``, as ``ColumnParams`` has).

When gcc is missing or the build or load fails, ``LIB`` is None, one
RuntimeWarning says so, and everything runs on the numpy code
(``colnmpc.KERNEL_BACKEND`` is then ``"python"``).  When the core loaded
but one of the foreign routines cannot be found, ``BOUND`` is False, one
RuntimeWarning says so, and everything but the full-order prediction
segments runs on the numpy code; the numbers are the same either way.
``ready()`` says whether ``LIB`` is set and ``BOUND`` is true.
"""

import contextlib
import ctypes
import glob
import hashlib
import os
import shutil
import subprocess
import warnings

import numpy as np

from .integrate import IntegrationError, Trajectory

__all__ = ["LIB", "BOUND", "ready", "FullSegment", "HybridSegment",
           "FullRelaxation", "section_chain_solve", "full_steady", "fit_net",
           "fit_node"]

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "_core.c")
_FLAGS = ("-O2", "-ffp-contract=off", "-fno-builtin-pow", "-shared", "-fPIC")
_STATS = ("steps", "accepted", "rejected", "newton_failures", "nfev", "njev",
          "nlu")
_FAILURES = {1: "step limit {max_steps} exceeded",
             2: "step size underflow",
             3: "non-finite rhs at initial state"}
_NO_MEMORY, _ZERO_DIVISION, _OVERFLOW, _NONFINITE_STATE = 4, 5, 6, 7


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
    libraries = os.path.join(glob.escape(_HERE),
                             "_core-" + "[0-9a-f]" * 16 + ".so")
    for old in glob.glob(libraries):
        if old != path:
            with contextlib.suppress(OSError):  # e.g. deleted by another build
                os.remove(old)
    return path


def _load():
    try:
        lib = ctypes.CDLL(_build())
    except OSError as exc:
        warnings.warn(f"colnmpc: the C core is not available ({exc}); "
                      "every prediction runs on the numpy integrator, and "
                      "every steady state and learner fit on its numpy "
                      "code", RuntimeWarning, stacklevel=2)
        return None
    ptr, dbl, i32, i64 = (ctypes.c_void_p, ctypes.c_double, ctypes.c_int,
                          ctypes.c_longlong)
    loop = [dbl, dbl, dbl, dbl, dbl, i64, ptr, i32, ptr, ptr, ptr]
    net = [i32, i32, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr]
    lib.colnmpc_full_segment.argtypes = [i32, i32, ptr, ptr] + loop
    lib.colnmpc_full_relax.argtypes = [i32, i32, ptr, ptr] + loop
    lib.colnmpc_full_steady.argtypes = [i32, i32, ptr, ptr, dbl, dbl, i64,
                                        ptr, ptr]
    lib.colnmpc_chain_solve.argtypes = [dbl, dbl, dbl, i64, dbl, dbl, i64,
                                        ptr]
    lib.colnmpc_chain_solve.restype = i64
    lib.colnmpc_hybrid_segment.argtypes = net + loop + [ptr]
    lib.colnmpc_bind.argtypes = [ptr]
    lib.colnmpc_bind.restype = None
    fit = [i64, ptr, ptr, ptr, ptr, ptr, ptr, i64, dbl, ptr, ptr]
    lib.colnmpc_fit_net.argtypes = [i64] + fit
    lib.colnmpc_fit_node.argtypes = fit
    return lib


class _UfuncHead(ctypes.Structure):
    """The leading fields of numpy's PyUFuncObject."""
    _fields_ = [("ob_refcnt", ctypes.c_ssize_t), ("ob_type", ctypes.c_void_p),
                ("nin", ctypes.c_int), ("nout", ctypes.c_int),
                ("nargs", ctypes.c_int), ("identity", ctypes.c_int),
                ("functions", ctypes.POINTER(ctypes.c_void_p)),
                ("data", ctypes.POINTER(ctypes.c_void_p)),
                ("ntypes", ctypes.c_int), ("reserved1", ctypes.c_int),
                ("name", ctypes.c_char_p),
                ("types", ctypes.POINTER(ctypes.c_ubyte))]


def _ufunc_loop(ufunc):
    """(inner loop, data) that numpy runs for ``ufunc`` on float64: the
    first 'd->d' loop, the one numpy's type resolution picks."""
    head = _UfuncHead.from_address(id(ufunc))
    if (head.name != ufunc.__name__.encode() or head.nin != 1
            or head.nout != 1 or head.ntypes != len(ufunc.types)):
        raise OSError(f"unknown ufunc object layout ({ufunc.__name__})")
    i = ufunc.types.index("d->d")
    double = np.dtype(np.float64).num
    if head.types[2 * i] != double or head.types[2 * i + 1] != double:
        raise OSError(f"unknown ufunc type table ({ufunc.__name__})")
    return head.functions[i], head.data[i]


def _numpy_symbols(names):
    """Addresses of the first symbol found of each tuple of ``names`` in
    numpy's own library (its 64-bit-integer OpenBLAS)."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        from numpy.core import _multiarray_umath as umath
    lib = ctypes.CDLL(umath.__file__)
    found = []
    for symbols in names:
        for symbol in symbols:
            if hasattr(lib, symbol):
                found.append(ctypes.cast(getattr(lib, symbol),
                                         ctypes.c_void_p).value)
                break
        else:
            raise OSError(f"numpy's {symbols[-1]} not found")
    return found


def _numpy_cblas():
    """Addresses of cblas ddot and dgemv in numpy's own library."""
    return _numpy_symbols([(f"scipy_cblas_{name}64_", f"cblas_{name}64_")
                           for name in ("ddot", "dgemv")])


def _numpy_learner_routines():
    """Addresses of the cblas dsyrk that numpy's matmul runs for J.T @ J
    and the LAPACK dgesv that np.linalg.solve runs, in numpy's own
    library."""
    return _numpy_symbols([("scipy_cblas_dsyrk64_", "cblas_dsyrk64_"),
                           ("scipy_dgesv_64_", "dgesv_64_")])


def _scipy_lapack():
    """Addresses of scipy's LAPACK dgetrf and dgetrs."""
    from scipy.linalg import cython_lapack
    get_name = ctypes.pythonapi.PyCapsule_GetName
    get_name.restype = ctypes.c_char_p
    get_name.argtypes = [ctypes.py_object]
    get_pointer = ctypes.pythonapi.PyCapsule_GetPointer
    get_pointer.restype = ctypes.c_void_p
    get_pointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
    capsules = [cython_lapack.__pyx_capi__[name]
                for name in ("dgetrf", "dgetrs")]
    return [get_pointer(c, get_name(c)) for c in capsules]


def _bind(lib):
    """Bind numpy's loops, BLAS and LAPACK and scipy's LAPACK into the
    core; False (with one RuntimeWarning) when one of them cannot be
    found."""
    if lib is None:
        return False
    try:
        fns = []
        for ufunc in (np.log, np.exp, np.tanh):
            fns.extend(_ufunc_loop(ufunc))
        fns += _numpy_cblas() + _scipy_lapack() + _numpy_learner_routines()
        if not all(fns[i] for i in (0, 2, 4, 6, 7, 8, 9, 10, 11)):
            raise OSError("a routine has a null address")
    except (OSError, AttributeError, ImportError, KeyError,
            ValueError) as exc:
        warnings.warn(f"colnmpc: numpy's loops, BLAS or LAPACK cannot be "
                      f"bound into the C core ({exc}); hybrid predictions "
                      "run on the numpy integrator, and the steady states "
                      "and the learner's fits on their numpy code",
                      RuntimeWarning, stacklevel=2)
        return False
    lib.colnmpc_bind((ctypes.c_void_p * len(fns))(*fns))
    return True


LIB = _load()
BOUND = _bind(LIB)


def ready():
    """Whether the core is loaded and its foreign routines are bound; the
    steady-state solves and the learner's fits run compiled then."""
    return LIB is not None and BOUND


class _Segment:
    """Called as ``segment(problem, with_sens)``, integrates the one-interval
    ``problem`` as ``integrate._run`` would with ocp's callbacks for the
    augmented system [model states, tracking quadrature]: L and V are the
    last two entries of its parameter vector, and its rhs and Jacobian
    callbacks are not called.  The counters, failures and ``h_last`` are
    those of the numpy loop."""

    _n = 0             # model states
    _quadrature = 1    # states after the model's: the tracking quadrature
    _by_column = False  # the core takes d y / d p one column at a time

    def _run(self, problem, y, n_p, S, stats, times):
        raise NotImplementedError

    def _set_inputs(self, p):
        if p.size < 2:
            raise ValueError("the parameter vector must end with L and V")
        self._model[0] = p[-2]
        self._model[1] = p[-1]

    def __call__(self, problem, with_sens):
        grid = problem.time_grid
        if grid.size != 2:
            raise ValueError("a compiled segment integrates one interval")
        N = self._n + self._quadrature
        p = problem.parameter_vector
        self._set_inputs(p)
        y = np.array(problem.initial_state, dtype=float)
        if y.shape != (N,):
            raise ValueError(f"initial_state must have shape ({N},)")
        n_p = p.size if with_sens else 0
        S0 = S = None
        if with_sens:
            if problem.initial_sensitivities is not None:
                S0 = np.array(problem.initial_sensitivities, dtype=float)
                if S0.shape != (N, n_p):
                    raise ValueError(
                        "initial_sensitivities must have shape (n, n_p)")
            else:
                S0 = np.zeros((N, n_p))
            S = S0.T.copy() if self._by_column else S0.copy()
        stats = np.zeros(7, dtype=np.int64)
        times = np.zeros(2)
        status = self._run(problem, y, n_p, S, stats, times)
        out = dict(zip(_STATS, stats.tolist()))
        out["h_last"] = float(times[1])
        _raise_for(status, "segment")
        if status:
            raise IntegrationError(
                _FAILURES[status].format(max_steps=problem.max_steps),
                float(times[0]), out)
        states = np.stack([problem.initial_state, y])
        if S is not None and self._by_column:
            S = S.T
        sens_out = None if S is None else np.stack([S0, S])
        return Trajectory(grid.copy(), states, sens_out, out)

    @staticmethod
    def _loop_args(problem, y, n_p, S, stats, times):
        grid = problem.time_grid
        return (grid[0], grid[1],
                problem.h_init if problem.h_init is not None else 0.0,
                problem.rel_tol, problem.abs_tol, problem.max_steps,
                y.ctypes.data, n_p, None if S is None else S.ctypes.data,
                stats.ctypes.data, times.ctypes.data)


def _raise_for(status, what):
    """Raise the Python error a core status stands for, if any: a failed
    allocation, the errors Python raises for a zero divisor and an
    overflowing square, and ``column.full_rhs``'s for a non-finite
    state."""
    if status == _NO_MEMORY:
        raise MemoryError(f"compiled {what} could not allocate")
    if status == _ZERO_DIVISION:
        raise ZeroDivisionError("float division by zero")
    if status == _OVERFLOW:
        raise OverflowError(34, "Numerical result out of range")
    if status == _NONFINITE_STATE:
        raise ValueError("non-finite state")


def _column(params):
    """(n, feed stage index, holdups) of a ``ColumnParams`` as the core
    reads them."""
    n = int(params.n_total)
    holdup = np.ascontiguousarray(params.holdups, dtype=float)
    if holdup.shape != (n,):
        raise ValueError(f"holdups must have shape ({n},)")
    return n, int(params.feed_idx), holdup


class FullSegment(_Segment):
    """The compiled segment of a ``FullPrediction`` for one spec.  Results
    agree with the numpy loop to rounding (its stage LU is tridiagonal)."""

    _by_column = True

    def __init__(self, model, spec):
        params = model.params
        self._n, self._feed, self._holdup = _column(params)
        # L, V, F, x_F, alpha, set-points of x_B and x_D
        self._model = np.array([0.0, 0.0, model.F, model.x_F, params.alpha,
                                spec.setpoint_x_B, spec.setpoint_x_D])

    def _run(self, problem, y, n_p, S, stats, times):
        return LIB.colnmpc_full_segment(
            self._n, self._feed, self._holdup.ctypes.data,
            self._model.ctypes.data,
            *self._loop_args(problem, y, n_p, S, stats, times))


class FullRelaxation(_Segment):
    """The compiled relaxation of ``column.steady_state_solve`` at inputs
    ``u`` (L, V, F, x_F) of the column ``params``: ``integrate`` on
    ``column.full_rhs`` and ``full_state_jacobian`` without sensitivities,
    whose rhs and Jacobian callbacks are not called.  Results, counters,
    failures and the ValueError of a non-finite state are bitwise those of
    the numpy loop."""

    _quadrature = 0

    def __init__(self, u, params):
        self._n, self._feed, self._holdup = _column(params)
        self._model = np.array([u.L, u.V, u.F, u.x_F, params.alpha],
                               dtype=float)

    def _set_inputs(self, p):
        pass  # the inputs are fixed

    def _run(self, problem, y, n_p, S, stats, times):
        return LIB.colnmpc_full_relax(
            self._n, self._feed, self._holdup.ctypes.data,
            self._model.ctypes.data,
            *self._loop_args(problem, y, n_p, S, stats, times))


def full_steady(x0, u, params, tol, dt0, max_iter):
    """``column._ptc_steady`` on ``column.full_rhs`` and
    ``full_state_jacobian`` at inputs ``u`` of the column ``params``, in
    one call: (x, converged), bitwise those of the numpy loop.  A start
    of the wrong length or a non-finite iterate raises the ValueError the
    numpy loop raises."""
    n, feed, holdup = _column(params)
    x = np.array(x0, dtype=float)
    if x.shape != (n,):
        raise ValueError("state length does not match the column")
    model = np.array([u.L, u.V, u.F, u.x_F, params.alpha], dtype=float)
    converged = np.zeros(1, dtype=np.int64)
    _raise_for(LIB.colnmpc_full_steady(
        n, feed, holdup.ctypes.data, model.ctypes.data, tol, dt0, max_iter,
        x.ctypes.data, converged.ctypes.data), "steady state")
    return x, bool(converged[0])


def section_chain_solve(x_up, y_lo, r, m, alpha, tol, max_iter):
    """``kernels.section_chain_solve`` for m >= 1 trays in one call:
    (xs, n_iter, resid), bitwise those of the numpy code."""
    if m < 1:
        raise ValueError("a compiled chain solve needs m >= 1")
    out = np.empty(m + 1)  # the tray compositions, then the residual
    n_iter = LIB.colnmpc_chain_solve(x_up, y_lo, r, m, alpha, tol, max_iter,
                                     out.ctypes.data)
    if n_iter < 0:
        _raise_for(-n_iter, "chain solve")
    return out[:m], n_iter, out[m]


class HybridSegment(_Segment):
    """The compiled segment of a ``HybridPrediction`` whose ``HybridModel``
    is packed, for one spec.  Results are bitwise those of the numpy loop,
    and the clamp flags of its kernel calls are added to the prediction's
    ``clamp_count`` as the numpy path adds them."""

    def __init__(self, prediction, spec):
        hm = prediction.model
        net, off, hidden, r_lo, r_hi, eps = hm.packed
        self._n = n = hm.n_states
        self._prediction = prediction
        # kept referenced while the core reads them
        self._arrays = (
            np.array(hm._strip, dtype=np.intc),
            np.ascontiguousarray(off, dtype=np.int64),
            np.ascontiguousarray(hidden, dtype=np.int64),
            np.ascontiguousarray(net, dtype=float),
            np.ascontiguousarray(r_lo, dtype=float),
            np.ascontiguousarray(r_hi, dtype=float),
            np.ascontiguousarray(hm.m_hold, dtype=float))
        if self._arrays[0].shape != (n - 1,) \
                or self._arrays[-1].shape != (n,):
            raise ValueError("one strip flag per section and one holdup "
                             "per state")
        self._net = (n, int(hm._feed), *(a.ctypes.data for a in self._arrays))
        # L, V, F, x_F, alpha, eps, set-points of x_B and x_D
        self._model = np.array([0.0, 0.0, float(prediction.F),
                                float(prediction.x_F), float(hm.params.alpha),
                                float(eps), spec.setpoint_x_B,
                                spec.setpoint_x_D])
        self._clamps = np.zeros(1, dtype=np.int64)

    def _run(self, problem, y, n_p, S, stats, times):
        status = LIB.colnmpc_hybrid_segment(
            *self._net, self._model.ctypes.data,
            *self._loop_args(problem, y, n_p, S, stats, times),
            self._clamps.ctypes.data)
        self._prediction.clamp_count += int(self._clamps[0])
        return status


def _fit(entry, head, x, objective, Z, target, wn, sw, max_steps, goal,
         damping):
    """One compiled learner fit from ``x``; (x, objective, accepted)."""
    Z = np.ascontiguousarray(Z, dtype=float)
    n = Z.shape[0]
    if Z.shape != (n, 3) or n < 1:
        raise ValueError("Z must have shape (n, 3) with n >= 1")
    vectors = [np.ascontiguousarray(a, dtype=float)
               for a in (target, wn, sw)]
    if any(a.shape != (n,) for a in vectors):
        raise ValueError("one target and weight per point")
    x = np.array(x, dtype=float)
    out = np.array([objective], dtype=float)
    damping = np.array(damping, dtype=float)
    accepted = np.zeros(1, dtype=np.int64)
    if damping.shape != (2,):
        raise ValueError("damping is (initial, maximum)")
    status = entry(n, *head, Z.ctypes.data,
                   *(a.ctypes.data for a in vectors), x.ctypes.data,
                   out.ctypes.data, max_steps, goal, damping.ctypes.data,
                   accepted.ctypes.data)
    _raise_for(status, "fit")
    return x, float(out[0]), int(accepted[0])


def fit_net(w, objective, Z, zeta, wn, sw, max_steps, goal, damping):
    """``learner._levenberg_marquardt`` as ``lm_train`` runs it, in one
    call: from the weight vector ``w`` (``SurrogateModel.as_weight_vector``
    layout) with objective ``objective`` on scaled inputs ``Z``, scaled
    targets ``zeta``, normalized weights ``wn`` and ``sw = sqrt(wn)``;
    ``damping`` is (LM_LAMBDA0, LM_LAMBDA_MAX).  Returns (w, objective,
    accepted steps), bitwise those of the numpy loop."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size < 6 or (w.size - 1) % 5:
        raise ValueError("w must hold 5 weights per node and a bias")
    return _fit(LIB.colnmpc_fit_net, ((w.size - 1) // 5,), w, objective, Z,
                zeta, wn, sw, max_steps, goal, damping)


def fit_node(theta, objective, Z, res, wn, sw, max_steps, goal, damping):
    """``learner._levenberg_marquardt`` as ``_fit_residual_node`` runs it
    for one start ``theta`` = (w0, w1, w2, b, v) against the residual
    ``res``; otherwise as ``fit_net``."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (5,):
        raise ValueError("theta must have shape (5,)")
    return _fit(LIB.colnmpc_fit_node, (), theta, objective, Z, res, wn, sw,
                max_steps, goal, damping)
