import ast
import ctypes
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import colnmpc
from colnmpc import integrate


def test_every_public_name_resolves():
    # a stale __all__ entry (a name deleted from its module) fails here
    sources = sorted(Path(colnmpc.__file__).parent.glob("*.py"))
    checked = 0
    for src in sources:
        name = "colnmpc" if src.stem == "__init__" else f"colnmpc.{src.stem}"
        module = importlib.import_module(name)
        public = getattr(module, "__all__", ())
        missing = [n for n in public if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ names missing attributes {missing}"
        assert len(set(public)) == len(public), f"{name}.__all__ repeats a name"
        checked += bool(public)
    assert checked >= 8


def _program_references(roots):
    """Names read as a Name or an Attribute in the non-test sources under
    roots, leaving out those inside a definition of the same name."""
    seen = set()

    class Visitor(ast.NodeVisitor):
        def __init__(self):
            self.enclosing = []

        def visit_definition(self, node):
            self.enclosing.append(node.name)
            self.generic_visit(node)
            self.enclosing.pop()

        visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = \
            visit_definition

        def visit_Name(self, node):
            if node.id not in self.enclosing:
                seen.add(node.id)

        def visit_Attribute(self, node):
            if node.attr not in self.enclosing:
                seen.add(node.attr)
            self.generic_visit(node)

    for root in roots:
        for src in sorted(root.glob("*.py")):
            if not src.name.startswith("test_"):
                Visitor().visit(ast.parse(src.read_text(), str(src)))
    return seen


def _public_members(cls):
    """Public functions, properties, classmethods and staticmethods
    defined in the body of cls."""
    kinds = (property, classmethod, staticmethod)
    return [n for n, v in vars(cls).items() if not n.startswith("_")
            and (inspect.isfunction(v) or isinstance(v, kinds))]


def test_every_public_name_has_a_program_caller():
    # a public name that only tests use is dead API: delete it or use it;
    # so is a public member of a public class
    package = Path(colnmpc.__file__).parent
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    assert (perfbench / "workloads.py").is_file()
    used = _program_references([package, perfbench])
    unused = []
    members = 0
    for src in sorted(package.glob("*.py")):
        name = "colnmpc" if src.stem == "__init__" else f"colnmpc.{src.stem}"
        module = importlib.import_module(name)
        for n in getattr(module, "__all__", ()):
            names = [n]
            obj = getattr(module, n)
            if inspect.isclass(obj) and obj.__module__ == name:
                public = _public_members(obj)
                members += len(public)
                names += [f"{n}.{m}" for m in public]
            unused += [f"{name}.{q}" for q in names
                       if q.rsplit(".", 1)[-1] not in used]
    assert members >= 20
    assert not unused, f"public names without a program caller: {unused}"


def test_blas_threads_follow_the_environment():
    # conftest sets OPENBLAS_NUM_THREADS (1 unless the caller set it)
    # before numpy is first imported; numpy's OpenBLAS and scipy's (the
    # dgetrs of the stage solves) read it when they load
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        from numpy.core import _multiarray_umath as umath
    counts = []
    for path, symbols in (
            (umath.__file__, ("scipy_openblas_get_num_threads64_",
                              "openblas_get_num_threads64_")),
            (integrate._flapack.__file__,
             ("scipy_openblas_get_num_threads", "openblas_get_num_threads"))):
        lib = ctypes.CDLL(path)
        counts += [getattr(lib, s)() for s in symbols if hasattr(lib, s)][:1]
    if not counts:
        pytest.skip("numpy and scipy do not link OpenBLAS")
    limit = int(os.environ["OPENBLAS_NUM_THREADS"])
    assert len(counts) == 2
    assert all(1 <= count <= limit for count in counts), counts


# Run in a fresh interpreter, so that no scipy module imported by another
# test counts.  It imports every colnmpc module and scipy's linalg and
# optimize packages in the order given, and prints what it finds as JSON.
_FOOTPRINT_PROBE = """
import ctypes, importlib, json, pathlib, sys
import numpy as np

def import_colnmpc():
    import colnmpc
    for src in pathlib.Path(colnmpc.__file__).parent.glob("*.py"):
        if src.stem != "__init__":
            importlib.import_module(f"colnmpc.{src.stem}")
    return [m for m in ("scipy", "scipy.optimize", "scipy.linalg",
                        "scipy.linalg.cython_lapack", "scipy.sparse",
                        "scipy.special") if m in sys.modules]

def import_scipy():
    import scipy.linalg, scipy.optimize

out = {}
if sys.argv[1] == "colnmpc_first":
    out["loaded"] = import_colnmpc()
    import_scipy()
else:
    import_scipy()
    import_colnmpc()

import scipy.linalg, scipy.optimize
from colnmpc import _native, _scipy, integrate, ocp
out["intact"] = [hasattr(scipy.linalg, "_flapack"),
                 hasattr(scipy.optimize, "_lbfgsb")]
out["same_routines"] = [integrate.dgetrf is scipy.linalg.lapack.dgetrf,
                        integrate.dgetrs is scipy.linalg.lapack.dgetrs,
                        ocp.setulb is scipy.optimize._lbfgsb.setulb]
out["same_modules"] = [
    integrate._flapack is scipy.linalg._flapack,
    _scipy.extension("scipy.optimize._lbfgsb") is scipy.optimize._lbfgsb]

# the addresses the core binds are the routines the f2py wrappers call
get_pointer = ctypes.pythonapi.PyCapsule_GetPointer
get_pointer.restype = ctypes.c_void_p
get_pointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
out["same_lapack"] = _native._scipy_lapack() == [
    get_pointer(f._cpointer, None)
    for f in (scipy.linalg.lapack.dgetrf, scipy.linalg.lapack.dgetrs)]

def bits(*arrays):
    return [(a.dtype.str, a.shape, a.tobytes().hex()) for a in arrays]

rng = np.random.default_rng(7)
out["lu_equal"] = []
for n in (1, 2, 5, 13, 44):
    M = rng.standard_normal((n, n))
    b = rng.standard_normal((n, 3))
    ours = integrate._lu_factor(M)
    theirs = scipy.linalg.lu_factor(M)
    x_ours = integrate._lu_solve(ours, b.copy())
    x_theirs = scipy.linalg.lu_solve(theirs, b)
    out["lu_equal"].append(bits(*ours, x_ours) == bits(*theirs, x_theirs))
print(json.dumps(out))
"""


def _footprint(order):
    src = str(Path(colnmpc.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, "-c", _FOOTPRINT_PROBE, order],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("order", ["colnmpc_first", "scipy_first"])
def test_colnmpc_loads_only_the_scipy_extensions_it_calls(order):
    # colnmpc loads scipy's _flapack and _lbfgsb from their files
    # (colnmpc._scipy): no scipy package is imported, not even top-level
    # scipy, a later import of one is intact and hands out the routines
    # colnmpc holds, an earlier one is reused, in either order with scipy's
    # own bits, and the core binds the LAPACK routines of _flapack's
    # wrappers
    found = _footprint(order)
    if order == "colnmpc_first":
        assert found["loaded"] == []
    assert found["intact"] == [True] * 2
    assert found["same_routines"] == [True] * 3
    if order == "scipy_first":
        assert found["same_modules"] == [True] * 2
    assert found["same_lapack"]
    assert found["lu_equal"] == [True] * 5
