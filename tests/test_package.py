import ast
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


def test_every_public_name_has_a_program_caller():
    # a public name that only tests use is dead API: delete it or use it
    package = Path(colnmpc.__file__).parent
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    assert (perfbench / "workloads.py").is_file()
    used = _program_references([package, perfbench])
    unused = []
    for src in sorted(package.glob("*.py")):
        name = "colnmpc" if src.stem == "__init__" else f"colnmpc.{src.stem}"
        module = importlib.import_module(name)
        unused += [f"{name}.{n}" for n in getattr(module, "__all__", ())
                   if n not in used]
    assert not unused, f"public names without a program caller: {unused}"
