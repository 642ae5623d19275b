import importlib
from pathlib import Path

import colnmpc


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
