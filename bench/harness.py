"""What the layer benches (``bench/*.py``) share: backends, rounds, the
host stamp and the command line.

A backend is a ``colnmpc`` package and the core its calls run on:

* ``c``: this checkout's ``colnmpc`` on its C core (``_native.LIB``);
* ``c_baseline``: with ``--baseline DIR``, the ``colnmpc`` of the source
  tree DIR (its ``src/colnmpc``, say another revision's), imported in this
  process as ``colnmpc_baseline``, which builds and loads its own core.
  Its own Python drives its own core, so a core whose calls take other
  arguments needs nothing here.  A tree whose core did not build
  (``KERNEL_BACKEND`` not ``"c"``) is refused;
* ``numpy``: this checkout's ``colnmpc`` with ``_native.LIB`` None, the
  numpy code the other backends are checked against.

A bench builds its points with each backend's own package (the same
values on each) and checks every backend against the numpy one before it
times anything; a failed check exits with an error, and no record is
printed.  The times are minima over rounds: in each round every backend
runs once in turn, the numpy one only every third round, with one BLAS
thread (``OPENBLAS_NUM_THREADS``, set here before numpy loads unless the
caller set it).  Each bench prints its record as JSON with a host stamp.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import contextlib
import importlib
import importlib.util
import json
import platform
import sys
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np

import colnmpc
from colnmpc import _native

BASELINE = "colnmpc_baseline"
MODULES = ("_native", "column", "learner", "ocp", "surrogate")


class Backend:
    """A colnmpc package, its MODULES as attributes, and the core its
    calls run on, ``lib`` (None: the numpy code)."""

    def __init__(self, package, lib):
        self.lib = lib
        for module in MODULES:
            setattr(self, module, importlib.import_module(
                f"{package.__name__}.{module}"))

    @contextlib.contextmanager
    def running(self, *timed):
        """Run the package on this backend's core within the block.  The
        value is a ``_Timer`` of the core's entry points ``timed``, or
        None on the numpy code or when nothing is timed."""
        own = self._native.LIB
        timer = _Timer(self.lib, timed) if self.lib is not None and timed \
            else None
        self._native.LIB = self.lib if timer is None else timer
        try:
            yield timer
        finally:
            self._native.LIB = own


class _Timer:
    """A core whose entry points ``names`` add their wall time to
    ``seconds`` and count their calls in ``calls``."""

    def __init__(self, lib, names):
        self._lib = lib
        self.seconds = 0.0
        self.calls = 0
        for name in names:
            setattr(self, name, self._timed(getattr(lib, name)))

    def __getattr__(self, name):
        return getattr(self._lib, name)

    def _timed(self, entry):
        def call(*args):
            start = time.perf_counter()
            try:
                return entry(*args)
            finally:
                self.seconds += time.perf_counter() - start
                self.calls += 1
        return call


def _baseline(tree):
    """The ``c_baseline`` backend of the source tree ``tree``; exits with
    an error that names the tree when its package or core is missing."""
    path = os.path.join(tree, "src", "colnmpc")
    # a tree loaded before is replaced, submodules and all
    for name in [n for n in sys.modules
                 if n == BASELINE or n.startswith(BASELINE + ".")]:
        del sys.modules[name]
    spec = importlib.util.spec_from_file_location(
        BASELINE, os.path.join(path, "__init__.py"),
        submodule_search_locations=[path])
    package = importlib.util.module_from_spec(spec)
    sys.modules[BASELINE] = package
    try:
        spec.loader.exec_module(package)
    except FileNotFoundError:
        sys.exit(f"error: the baseline tree {tree} has no src/colnmpc")
    if package.KERNEL_BACKEND != "c":
        sys.exit(f"error: the C core of the baseline tree {tree} did not "
                 "build")
    return Backend(package, package._native.LIB)


def backends(tree=None):
    """{name: Backend}: ``c``, ``c_baseline`` of the source tree ``tree``
    when it is given, and ``numpy``."""
    if _native.LIB is None:
        sys.exit("error: the C core of this checkout is not available")
    out = {"c": Backend(colnmpc, _native.LIB)}
    if tree is not None:
        out["c_baseline"] = _baseline(tree)
    out["numpy"] = Backend(colnmpc, None)
    return out


def best_times(backends, run, rounds):
    """(best, count) over ``rounds`` rounds: ``best[name]`` is the
    elementwise minimum of the tuples of seconds ``run(name)`` returns (a
    None entry stays None), ``count[name]`` the rounds it ran."""
    best, count = {}, dict.fromkeys(backends, 0)
    for r in range(rounds):
        for name, backend in backends.items():
            if backend.lib is None and r % 3:
                continue
            times = run(name)
            best[name] = [t if b is None else min(t, b) for t, b in
                          zip(times, best.get(name, [None] * len(times)))]
            count[name] += 1
    return best, count


def host():
    """The host stamp of a record."""
    return {"machine": platform.machine(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def main(doc, measure):
    """Print as JSON the record ``measure(backends)`` of the backends the
    command line names (``doc``: the bench's docstring)."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--baseline", metavar="DIR",
                    help="a source tree (say another revision's) whose "
                         "colnmpc runs as c_baseline")
    print(json.dumps(measure(backends(ap.parse_args().baseline)), indent=2))
