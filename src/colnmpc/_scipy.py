"""The scipy extension modules colnmpc calls, loaded without their
subpackages.

colnmpc calls three compiled scipy routines and nothing else of scipy:
LAPACK's ``dgetrf``/``dgetrs`` of ``scipy.linalg._flapack`` (``integrate``),
L-BFGS-B's ``setulb`` of ``scipy.optimize._lbfgsb`` (``ocp``) and the
``dgetrf``/``dgetrs`` capsules of ``scipy.linalg.cython_lapack``
(``_native``).  Importing them the usual way runs the ``__init__`` of
``scipy.linalg`` and ``scipy.optimize``, which load some 550 modules that
colnmpc never uses and raise the process's peak RSS by 48 MB, of which the
three extension modules take 9 MB (scipy 1.17, x86-64 Linux): more than
half of a controller process's peak.  `extension` loads an extension
module from its file instead, which imports only top-level ``scipy``.
"""

import importlib
import importlib.machinery
import importlib.util
import sys

__all__ = ["extension"]


def extension(name):
    """The scipy extension module ``name`` (say ``scipy.linalg._flapack``),
    without running its subpackage's ``__init__``.

    When the subpackage is already imported this is its own module.
    Otherwise the module is made from its file and kept out of
    ``sys.modules``: a single-phase extension registers itself there while
    it is made, and an entry left behind would make a later import of the
    subpackage find it there and leave the subpackage's attribute unset.
    A later import of the subpackage then makes its module from the same
    initialised extension, so its routines are the objects returned here.
    """
    package = name.rpartition(".")[0]
    if package in sys.modules:
        return importlib.import_module(name)
    where = importlib.util.find_spec(package).submodule_search_locations
    spec = importlib.machinery.PathFinder.find_spec(name, where)
    if spec is None:
        raise ImportError(f"no module named {name!r}", name=name)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(name, None)
    return module
