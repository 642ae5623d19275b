"""Loader of the compiled prediction horizons, steady-state solves and
learner fits (``_core.c``).

At import the C file is built, once per source and build line, with

    gcc -O3 -ffp-contract=off -fno-builtin-pow -shared -fPIC \\
        -o _core-<hash>.so _core.c -lm

next to this file; ``<hash>`` is taken from the source and that line, so a
changed source or line builds a new library, and an existing one is loaded
as it is.  The build writes a temporary file that ``os.replace`` moves into
place, so concurrent imports never load a half-written library, and then
deletes the other libraries (not temporary files: a concurrent build's).
``-ffp-contract=off`` keeps gcc from fusing a multiply and an add, which
would round differently from the numpy kernels; ``-fno-builtin-pow`` keeps
it from turning ``pow(x, 2.0)`` into ``x * x``, which differs from
Python's ``x ** 2`` (libm pow) in the last bit for some x.  ``-O3`` adds
gcc's loop vectoriser with its full cost model, which turns the
elementwise loops (the kernels, the Newton updates, the stage
combinations, the row updates of the sensitivity solves) into SIMD code
(SSE2 on x86-64, the baseline the build line does not raise).
Without a flag that allows reassociation gcc vectorises only what keeps
every value: each lane does the operations of one scalar iteration, in
their order, with no sum reordered (``pw_sum``'s eight accumulators stay
eight) and no multiply and add fused, so every bitwise path stays
bitwise.  So no ``-ffast-math``, ``-Ofast``, ``-funsafe-math-optimizations``
or ``-fassociative-math``, which change values, and no ``-march=`` or
``-mtune=``, which would tie the library to the building host's CPU while
its name covers only the source and the line; ``tests/test_native.py``
keeps them out.

The entry points, and the foreign routines each one reaches:

* ``FullHorizon`` and ``HybridHorizon`` are what ``ocp`` hands the
  integrator as ``IvpProblem.compiled`` for a full-order and a packed-ANN
  hybrid prediction: one problem per evaluation, whose every interval
  (control interval or tail) the core runs as a segment of its own, in
  one call (``_Horizon``).  The full-order one reaches none: its stage
  matrix is factored by its own two-ended ("twisted") tridiagonal LU,
  whose top and bottom elimination chains meet at row n // 2 and which
  keeps the pivots' reciprocals; an accepted step's five
  sensitivity-stage factors run interleaved, and each sensitivity stage
  solves all its columns in one pass.  The hybrid one reaches numpy's
  ``log``, ``exp`` and ``tanh`` loops (one call each for all sections,
  the bits of ``kernels.hybrid_rhs_jac``'s per-section calls), cblas
  ``ddot`` and ``dgemv`` (``a.dot(b)``, ``a @ X``) and scipy's
  ``dgetrf``/``dgetrs``.
* ``section_chain_solve`` is ``kernels.section_chain_solve`` (one
  stationary section) and reaches none.
* ``full_steady`` is the pseudo-transient continuation loop
  ``column._ptc_steady`` on the full-order column; it reaches numpy's
  cblas ``ddot`` (``np.linalg.norm``) and LAPACK ``dgesv``
  (``np.linalg.solve``).
* ``oracle_steady`` is ``column.hybrid_steady_state`` of an oracle hybrid
  (every section model a ``column.SectionOracle``): the same continuation
  loop in the core, on ``HybridModel.evaluate``'s per-section path, with
  the section chain solve, each section's implicit-function gradient and
  the aggregation-stage balances of ``kernels.hybrid_assemble`` (one
  routine with the packed hybrid's); it reaches cblas ``ddot`` and LAPACK
  ``dgesv``, the gradients' with three right-hand sides.
* ``FullRelaxation`` is ``column.steady_state_solve``'s relaxation, an
  ``IvpProblem.compiled`` on the full-order column, the same protocol's
  case of one interval without sensitivities; it reaches cblas ``dgemv``
  and scipy's ``dgetrf``/``dgetrs``, as the hybrid horizon does.
* ``fit_net`` and ``grow_node`` are the learner's two operations on a
  net's weight vector, each one call on a ``FitProblem`` (the training
  problem's arrays, checked once): ``fit_net`` fits all weights
  (``learner._levenberg_marquardt`` on the net, an ``lm_train`` cycle);
  ``grow_node`` appends a zero node, fits it to the residual from every
  start of the multi-start node fit (``learner._fit_residual_node``,
  ``NODE_INIT_RESTARTS`` runs of the same loop on the one-node model)
  and refits all weights.  The core takes the objective at each start
  itself, and each linearization reuses the activations of the
  evaluation that gave its point's objective; they reach numpy's
  ``tanh`` loop, cblas ``ddot``, ``dgemv`` and ``dsyrk`` (matmul's
  ``J.T @ J``) and LAPACK ``dgesv``.

The foreign routines are those the numpy code reaches, bound into the
core once at load: numpy's own float64 inner loops (read from the ufunc
objects), numpy's cblas and LAPACK, all 64-bit-integer symbols of numpy's
own library, and scipy's LAPACK ``dgetrf``/``dgetrs``, the routines that
``integrate.dgetrf``/``dgetrs`` (the f2py wrappers of
``scipy.linalg._flapack``) call, at the addresses their ``_cpointer``
capsules hold.  The numpy loop and the core thus reach scipy's LAPACK
through one binding, and the core loads no scipy module of its own.  So
every result but the full-order prediction horizon's is bitwise that of
the numpy code.  The kernels' Python-float arithmetic is taken to be
that of Python floats (a Python-float ``alpha``, as ``ColumnParams``
has).

The core is Linux- and gcc-only: the build line is gcc's, and the
binding reads the ELF symbols of numpy's and scipy's Linux wheels.  gcc
is needed only to build: a library already built for this source and
line loads without it.  ``LIB`` is the core only when it was built,
loaded and bound.  When there is neither a built library nor gcc, or
the build, the load or the binding of a foreign routine fails, ``LIB``
is None, one RuntimeWarning says so, and everything runs on the numpy
code (``colnmpc.KERNEL_BACKEND`` is then ``"python"``); the numbers are
the same, but for the full-order predictions' rounding.
"""

import contextlib
import ctypes
import glob
import hashlib
import os
import shutil
import warnings

import numpy as np

from .integrate import (IntegrationError, ModelDomainError, Trajectory,
                        dgetrf, dgetrs)

__all__ = ["LIB", "FullHorizon", "HybridHorizon",
           "FullRelaxation", "section_chain_solve", "full_steady",
           "oracle_steady", "FitProblem", "fit_net", "grow_node"]

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "_core.c")
_FLAGS = ("-O3", "-ffp-contract=off", "-fno-builtin-pow", "-shared", "-fPIC")
_STATS = ("steps", "accepted", "rejected", "newton_failures", "nfev", "njev",
          "nlu")
_FAILURES = {1: "step limit {max_steps} exceeded",
             2: "step size underflow",
             3: "non-finite rhs at initial state"}
_NO_MEMORY, _ZERO_DIVISION, _OVERFLOW, _NONFINITE_STATE = 4, 5, 6, 7
_OUTSIDE_UNIT, _NONFINITE_SECTION, _BAD_SECTION, _SECTION_UNSOLVED = \
    8, 9, 10, 11


def _build():
    """Path of the built library, building it when it is not there (and
    only then needing gcc)."""
    with open(_SOURCE, "rb") as fh:
        source = fh.read()
    digest = hashlib.sha256(source + " ".join(_FLAGS).encode())
    path = os.path.join(_HERE, f"_core-{digest.hexdigest()[:16]}.so")
    if os.path.exists(path):
        return path
    gcc = shutil.which("gcc")
    if gcc is None:
        raise OSError("gcc not found")
    import subprocess  # only a build runs it: a loaded library needs none
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
    """The core, built, loaded and bound; None (with one RuntimeWarning)
    when one of these fails."""
    try:
        lib = ctypes.CDLL(_build())
        _bind(lib)
    except (OSError, AttributeError, ImportError, KeyError,
            ValueError) as exc:
        warnings.warn(f"colnmpc: the C core is not available ({exc}); "
                      "every prediction runs on the numpy integrator, and "
                      "every steady state and learner fit on its numpy "
                      "code", RuntimeWarning, stacklevel=2)
        return None
    ptr, dbl, i32, i64 = (ctypes.c_void_p, ctypes.c_double, ctypes.c_int,
                          ctypes.c_longlong)
    loop = [ptr, i32, ptr, i32, dbl, dbl, dbl, i64, ptr, i32, ptr, ptr, ptr]
    net = [i32, i32, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr]
    lib.colnmpc_full_horizon.argtypes = [i32, i32, ptr, ptr] + loop
    lib.colnmpc_full_relax.argtypes = [i32, i32, ptr, ptr] + loop
    lib.colnmpc_full_steady.argtypes = [i32, i32, ptr, ptr, dbl, dbl, i64,
                                        ptr, ptr]
    lib.colnmpc_chain_solve.argtypes = [dbl, dbl, dbl, i64, dbl, dbl, i64,
                                        ptr]
    lib.colnmpc_chain_solve.restype = i64
    lib.colnmpc_oracle_steady.argtypes = [i32, i32, ptr, ptr, ptr, ptr, ptr,
                                          dbl, dbl, i64, ptr, ptr]
    lib.colnmpc_hybrid_horizon.argtypes = net + loop + [ptr]
    problem = [i64, ptr, ptr, ptr, ptr, i64]
    lib.colnmpc_fit_net.argtypes = problem + [ptr, i64, dbl, dbl, dbl, ptr,
                                              ptr]
    lib.colnmpc_grow_node.argtypes = problem + [ptr, ptr, i64, i64, i64, dbl,
                                                dbl, dbl, ptr, ptr, ptr, ptr]
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
    """Addresses of scipy's LAPACK dgetrf and dgetrs: those that the f2py
    wrappers ``integrate.dgetrf``/``dgetrs`` call (their ``_cpointer``)."""
    get_pointer = ctypes.pythonapi.PyCapsule_GetPointer
    get_pointer.restype = ctypes.c_void_p
    get_pointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
    return [get_pointer(f._cpointer, None) for f in (dgetrf, dgetrs)]


def _bind(lib):
    """Bind numpy's loops, BLAS and LAPACK and scipy's LAPACK into the
    core; OSError when one of them cannot be found."""
    fns = []
    for ufunc in (np.log, np.exp, np.tanh):
        fns.extend(_ufunc_loop(ufunc))
    fns += _numpy_cblas() + _scipy_lapack() + _numpy_learner_routines()
    if not all(fns[i] for i in (0, 2, 4, 6, 7, 8, 9, 10, 11)):
        raise OSError("a routine has a null address")
    lib.colnmpc_bind.argtypes = [ctypes.c_void_p]
    lib.colnmpc_bind.restype = None
    lib.colnmpc_bind((ctypes.c_void_p * len(fns))(*fns))


LIB = _load()


class _Horizon:
    """Called as ``horizon(problem, with_sens)``, integrates ``problem`` in
    one core call, interval by interval over its time grid, as ``ocp``'s
    per-segment loop runs its segments on ``integrate._run`` with ``ocp``'s
    callbacks for the augmented system [model states, tracking
    quadrature]: each interval [t_i, t_i+1] is a segment of its own, which
    starts from the end of the one before with that one's ``h_last`` as
    its first step, and the problem's ``max_steps`` caps each interval.
    The parameter vector is the moves [L_0..L_M-1, V_0..V_M-1], and
    interval i holds move min(i, M - 1).  The rhs and Jacobian callbacks
    are not called, and may be None (``ocp`` gives none).

    The sensitivities start at zero (``initial_sensitivities`` must be
    None); the trajectory's are d y / d moves at every grid point, zero
    for moves not yet active.  Its stats are the intervals' counters
    summed and the last interval's ``h_last``.  The first interval that
    fails raises its error, the counters summed up to it and the time it
    stopped at.  Counters, failures and ``h_last`` are those of the numpy
    loop.

    Each call allocates the returned trajectory's arrays, states (G, N)
    and sensitivities (G, N, 2M), row 0 the start, which the core fills
    row by row; the caller owns them, and the problem's arrays are not
    written.  The buffers the horizon object owns (the model's inputs,
    the counters, the stop time and step size, a subclass's own) are
    allocated once, and their addresses taken once, in ``_bind``."""

    _n = 0           # model states
    _quadrature = 1  # states after the model's: the tracking quadrature

    def _bind(self, head, model, tail=()):
        """Keep the core's leading arguments ``head`` and the address of
        the model array, and the counters' and times' trailing ones (then
        ``tail``)."""
        self._model = model
        self._stats = np.zeros(7, dtype=np.int64)
        self._times = np.zeros(2)
        self._head = (*head, model.ctypes.data)
        self._tail = (self._stats.ctypes.data, self._times.ctypes.data,
                      *tail)

    def _run(self, loop):
        """The core's status for the loop arguments ``loop``."""
        raise NotImplementedError

    def _moves(self, p):
        """The number of moves in the parameter vector ``p``."""
        if p.size < 2 or p.size % 2:
            raise ValueError("the parameter vector must be the moves "
                             "[L_0..L_M-1, V_0..V_M-1]")
        return p.size // 2

    def __call__(self, problem, with_sens):
        grid = problem.time_grid
        G = grid.size
        if G < 2:
            raise ValueError("a compiled horizon needs an interval")
        N = self._n + self._quadrature
        p = problem.parameter_vector
        M = self._moves(p)
        y0 = problem.initial_state
        if np.shape(y0) != (N,):
            raise ValueError(f"initial_state must have shape ({N},)")
        if with_sens and problem.initial_sensitivities is not None:
            raise ValueError("a compiled horizon's sensitivities start at "
                             "zero: initial_sensitivities must be None")
        states = np.empty((G, N))
        states[0] = y0
        n_p = 2 * M if with_sens else 0
        sens = np.empty((G, N, n_p)) if with_sens else None
        inputs = np.concatenate((grid, p))  # the grid, then the moves
        at = _address(inputs)
        h_init = problem.h_init
        status = self._run((
            at, G, at + 8 * G if M else None, M,
            0.0 if h_init is None else h_init, problem.rel_tol,
            problem.abs_tol, problem.max_steps, _address(states), n_p,
            _address(sens) if with_sens else None) + self._tail)
        t, h_last = self._times.tolist()
        out = dict(zip(_STATS, self._stats.tolist()), h_last=h_last)
        _raise_for(status, "horizon")
        if status:
            raise IntegrationError(
                _FAILURES[status].format(max_steps=problem.max_steps), t, out)
        return Trajectory(grid.copy(), states, sens, out)


def _address(a):
    """The address of the data of ``a``, a writable C-contiguous array of
    at least one byte; a third of the cost of ``a.ctypes.data``."""
    return ctypes.addressof(ctypes.c_char.from_buffer(a))


def _raise_for(status, what):
    """Raise the Python error a core status stands for, if any: a failed
    allocation, the errors Python raises for a zero divisor and an
    overflowing square, ``column.full_rhs``'s for a non-finite state, and
    ``column._section_profile``'s for boundary compositions outside
    [0, 1], a non-finite flow ratio or relative volatility and a
    non-positive flow ratio (its SectionSolveError is raised by
    ``oracle_steady``, which holds the iterations and residual)."""
    if status == _NO_MEMORY:
        raise MemoryError(f"compiled {what} could not allocate")
    if status == _ZERO_DIVISION:
        raise ZeroDivisionError("float division by zero")
    if status == _OVERFLOW:
        raise OverflowError(34, "Numerical result out of range")
    if status == _NONFINITE_STATE:
        raise ValueError("non-finite state")
    if status == _OUTSIDE_UNIT:
        raise ModelDomainError("section boundary compositions outside [0, 1]")
    if status == _NONFINITE_SECTION:
        raise ValueError("non-finite flow ratio or relative volatility")
    if status == _BAD_SECTION:
        raise ValueError("need r > 0 and tray_count >= 0")


def _column(params):
    """(n, feed stage index, holdups) of a ``ColumnParams`` as the core
    reads them."""
    n = int(params.n_total)
    holdup = np.ascontiguousarray(params.holdups, dtype=float)
    if holdup.shape != (n,):
        raise ValueError(f"holdups must have shape ({n},)")
    return n, int(params.feed_idx), holdup


class FullHorizon(_Horizon):
    """The compiled horizon of a ``FullPrediction`` for one spec.  Its
    stage LU is tridiagonal and twisted: it eliminates from both ends of
    the column at once, the two chains meeting at row n // 2, so each
    factor and solve runs as two chains of half the length.  It keeps the
    pivots' reciprocals, so its solves multiply instead of divide.  The
    five sensitivity-stage factors of an accepted step are made together,
    in lock-step row by row, so that their chains of dependent divisions
    overlap, each with the operations of a factor of it alone.  A
    sensitivity stage solves all columns in one pass over the rows, each
    column as a solve of it alone would.  The sensitivities are (N, n_p)
    row-major, so each row update runs over n_p contiguous entries.
    Counters are the numpy loop's, and results agree with it to
    rounding."""

    def __init__(self, model, spec):
        params = model.params
        self._n, feed, self._holdup = _column(params)
        # (L, V: the moves'), F, x_F, alpha, set-points of x_B and x_D
        self._bind((self._n, feed, self._holdup.ctypes.data),
                   np.array([0.0, 0.0, model.F, model.x_F, params.alpha,
                             spec.setpoint_x_B, spec.setpoint_x_D]))

    def _run(self, loop):
        return LIB.colnmpc_full_horizon(*self._head, *loop)


class FullRelaxation(_Horizon):
    """The compiled relaxation of ``column.steady_state_solve`` at inputs
    ``u`` (L, V, F, x_F) of the column ``params``: ``integrate`` on
    ``column.full_rhs`` and ``full_state_jacobian`` over one interval
    (a grid of two points), without sensitivities, whose rhs and Jacobian
    callbacks are not called.  Results, counters, failures and the
    ValueError of a non-finite state are bitwise those of the numpy
    loop."""

    _quadrature = 0

    def __init__(self, u, params):
        self._n, feed, self._holdup = _column(params)
        self._bind((self._n, feed, self._holdup.ctypes.data),
                   np.array([u.L, u.V, u.F, u.x_F, params.alpha],
                            dtype=float))

    def _moves(self, p):
        return 0  # the inputs are fixed

    def __call__(self, problem, with_sens):
        if with_sens or problem.time_grid.size != 2:
            raise ValueError("a compiled relaxation integrates one interval "
                             "without sensitivities")
        return super().__call__(problem, False)

    def _run(self, loop):
        return LIB.colnmpc_full_relax(*self._head, *loop)


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


def oracle_steady(z0, model, u, tol, dt0, max_iter):
    """``column._ptc_steady`` on ``HybridModel.evaluate`` of ``model``, a
    hybrid whose section models are all ``column.SectionOracle``, at
    inputs ``u``, in one call: (z, converged), bitwise those of the numpy
    loop.  It raises what the numpy loop raises: the flow ratios' errors
    (``Section.flow_ratio``, as Python's ``/``), and a section's
    ModelDomainError, ValueError or SectionSolveError with the same
    arguments."""
    from .column import SectionSolveError  # column imports this module
    n = model.n_states
    z = np.array(z0, dtype=float)
    if z.shape != (n,):
        raise ValueError("state length does not match the hybrid model")
    oracles = model.section_models
    strip = np.array(model._strip, dtype=np.intc)
    hold = np.ascontiguousarray(model.m_hold, dtype=float)
    if strip.shape != (n - 1,) or len(oracles) != n - 1 \
            or hold.shape != (n,):
        raise ValueError("one strip flag and oracle per section and one "
                         "holdup per state")
    trays = np.array([s.section.tray_count for s in oracles], dtype=np.int64)
    sec = np.array([(s.alpha, s.tol, section.flow_ratio(u.L, u.V, u.F))
                    for s, section in zip(oracles, model.layout.sections)],
                   dtype=float)
    inputs = np.array([u.L, u.V, u.F, u.x_F, model.params.alpha],
                      dtype=float)
    report = np.zeros(3)
    status = LIB.colnmpc_oracle_steady(
        n, int(model._feed), strip.ctypes.data, hold.ctypes.data,
        trays.ctypes.data, sec.ctypes.data, inputs.ctypes.data, tol, dt0,
        max_iter, z.ctypes.data, report.ctypes.data)
    if status == _SECTION_UNSOLVED:
        raise SectionSolveError(int(report[1]), report[2])
    _raise_for(status, "steady state")
    return z, bool(report[0])


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


class HybridHorizon(_Horizon):
    """The compiled horizon of a ``HybridPrediction`` whose ``HybridModel``
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
        self._clamps = np.zeros(1, dtype=np.int64)
        # (L, V: the moves'), F, x_F, alpha, eps, set-points of x_B and x_D
        self._bind((n, int(hm._feed), *(a.ctypes.data for a in self._arrays)),
                   np.array([0.0, 0.0, float(prediction.F),
                             float(prediction.x_F), float(hm.params.alpha),
                             float(eps), spec.setpoint_x_B,
                             spec.setpoint_x_D]),
                   (self._clamps.ctypes.data,))

    def _run(self, loop):
        status = LIB.colnmpc_hybrid_horizon(*self._head, *loop)
        self._prediction.clamp_count += int(self._clamps[0])
        return status


class FitProblem:
    """A learner fit's weighted least-squares problem as the core reads
    it: scaled inputs ``Z`` (n, 3), targets ``zeta``, normalized weights
    ``wn`` and ``sw = sqrt(wn)`` (n,).  The arrays are checked, and their
    addresses taken, once, when it is made; every fit on it reads them
    there."""

    def __init__(self, Z, zeta, wn, sw):
        Z = np.ascontiguousarray(Z, dtype=float)
        n = Z.shape[0]
        if Z.shape != (n, 3) or n < 1:
            raise ValueError("Z must have shape (n, 3) with n >= 1")
        vectors = [np.ascontiguousarray(a, dtype=float)
                   for a in (zeta, wn, sw)]
        if any(a.shape != (n,) for a in vectors):
            raise ValueError("one target and weight per point")
        # kept referenced while the core reads them
        self._arrays = (Z, *vectors)
        # a fit's objectives; its accepted steps and LM runs
        self._objectives = np.zeros(2)
        self._counts = np.zeros(2, dtype=np.int64)
        self._head = (n, *(a.ctypes.data for a in self._arrays))
        self._objectives_at = self._objectives.ctypes.data
        self._counts_at = self._counts.ctypes.data


def _weight_vector(w):
    """``w`` as a float vector of 5 weights per node and a bias, and its
    node count."""
    w = np.ascontiguousarray(w, dtype=float)
    if w.ndim != 1 or w.size < 6 or (w.size - 1) % 5:
        raise ValueError("w must hold 5 weights per node and a bias")
    return w, (w.size - 1) // 5


def fit_net(problem, w, max_steps, goal, damping):
    """``learner._levenberg_marquardt`` as ``learner._fit_weights`` runs
    it, in one call, on the ``FitProblem`` ``problem`` from the weight
    vector ``w`` (``SurrogateModel.as_weight_vector`` layout); ``damping``
    is (LM_LAMBDA0, LM_LAMBDA_MAX).  The core takes the objective at ``w``
    itself, as ``_wmse`` takes it, and each linearization reuses the
    activations of the evaluation that gave its point's objective (the
    start's, or the accepted trial's).  Returns (w, objective at the
    start, objective, accepted steps), bitwise those of the numpy code."""
    w, hidden = _weight_vector(w)
    w = w.copy()
    _raise_for(LIB.colnmpc_fit_net(
        *problem._head, hidden, _address(w), max_steps, goal, *damping,
        problem._objectives_at, problem._counts_at), "fit")
    start, objective = problem._objectives.tolist()
    return w, start, objective, int(problem._counts[0])


def grow_node(problem, w, normals, node_steps, max_steps, goal, damping):
    """``learner._grow_node`` in one call: the net ``w`` grows by one
    node, which is fitted to the residual from the starts ``normals``
    (one row of 4 standard normals per start, ``node_steps`` steps each),
    and then all weights are fitted as ``fit_net`` fits them.  Returns
    (grown, fitted, objective, accepted steps, LM runs): the grown net
    before and after that fit, bitwise those of the numpy code."""
    w, hidden = _weight_vector(w)
    normals = np.ascontiguousarray(normals, dtype=float)
    if normals.ndim != 2 or normals.shape[1] != 4 or normals.shape[0] < 1:
        raise ValueError("normals must have shape (restarts, 4)")
    m = w.size + 5
    out = np.empty((2, m))
    _raise_for(LIB.colnmpc_grow_node(
        *problem._head, hidden + 1, w.ctypes.data, normals.ctypes.data,
        normals.shape[0], node_steps, max_steps, goal, *damping,
        _address(out), _address(out) + 8 * m, problem._objectives_at,
        problem._counts_at), "fit")
    accepted, runs = problem._counts.tolist()
    return out[0], out[1], float(problem._objectives[0]), accepted, runs
