"""The scipy extension modules colnmpc calls, loaded without any scipy
package.

colnmpc calls two compiled scipy modules and nothing else of scipy:
``scipy.linalg._flapack`` for LAPACK's ``dgetrf``/``dgetrs`` (``integrate``
calls its f2py wrappers, and ``_native`` binds the routines behind them
into the C core) and ``scipy.optimize._lbfgsb`` for L-BFGS-B's ``setulb``
(``ocp``).  Importing them the usual way runs the ``__init__`` of
``scipy.linalg`` and ``scipy.optimize``, which load some 550 modules that
colnmpc never uses and raise the process's peak RSS by 48 MB (scipy 1.17,
x86-64 Linux): more than half of a controller process's peak.  Even the
``__init__`` of top-level ``scipy`` loads 23 modules and 1.3 MB of RSS,
among them ``subprocess``, the Cython runtime and
``scipy._distributor_init``.  `extension` loads an extension module from
its file instead, and imports no scipy package.  As ``scipy/__init__``
does not run, neither does ``scipy._distributor_init``, the hook with
which a redistributor of scipy prepares the process (on Windows, by
adding the directory of its DLLs); on Linux the two modules need no
such preparation.
"""

import importlib
import importlib.machinery
import importlib.util
import os
import sys

__all__ = ["extension"]


def extension(name):
    """The scipy extension module ``name`` (say ``scipy.linalg._flapack``),
    without running the ``__init__`` of any scipy package.

    When its subpackage is already imported this is the subpackage's own
    module.  Otherwise the module is made from its file, found in the
    subpackage's directory under ``find_spec("scipy")``'s location (a
    spec of a top-level package imports nothing), and kept out of
    ``sys.modules``: a single-phase extension registers itself there while
    it is made, and an entry left behind would make a later import of the
    subpackage find it there and leave the subpackage's attribute unset.
    A later import of the subpackage then makes its module from the same
    initialised extension, so its routines are the objects returned here.
    """
    package = name.rpartition(".")[0]
    if package in sys.modules:
        return importlib.import_module(name)
    top, *subpackages = package.split(".")
    where = [os.path.join(root, *subpackages) for root in
             importlib.util.find_spec(top).submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec(name, where)
    if spec is None:
        raise ImportError(f"no module named {name!r}", name=name)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(name, None)
    return module
