"""Checks on the package source itself."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tvgsim"


def unused_imports(source: str):
    """Names a module imports and never reads, with the line of each import."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_detector():
    source = "import os\nimport a.b\nfrom x import y as z, w\nprint(w, a)\n"
    assert unused_imports(source) == [(1, "os"), (3, "z")]


# __init__.py imports names in order to re-export them.
@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_imports(path):
    assert unused_imports((SRC / path).read_text(encoding="utf-8")) == []


def defined_names(source: str):
    """Module-level functions, classes and constants, and the methods (and
    properties) of module-level classes, dunders excluded."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(
                item.name for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def referenced_names(source: str):
    """Names a module reads: bare names, attributes, and identifier strings
    (which getattr and setattr take)."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            refs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            refs.add(node.value)
    return refs


def dead_names(defining, readers, exempt=frozenset()):
    """``(module, name)`` for each name a module in ``defining`` defines that
    no source in ``readers`` reads.  Both map a file name to its source."""
    refs = set().union(*map(referenced_names, readers.values()))
    return sorted(
        (module, name)
        for module, source in defining.items()
        for name in defined_names(source) - refs - exempt
    )


def test_dead_names_detector():
    defining = {"m.py": "X = 1\nY: int = 2\n__all__ = []\ndef used(): pass\ndef dead(): used()\nclass C: pass\n"}
    readers = {**defining, "t.py": "import m\nm.X\nprint(getattr(m, 'C'))\nY = 3\n"}
    assert dead_names(defining, readers) == [("m.py", "Y"), ("m.py", "dead")]
    assert dead_names(defining, readers, exempt={"dead"}) == [("m.py", "Y")]


def test_dead_names_detector_sees_methods():
    defining = {"m.py": (
        "class C:\n"
        "    def __init__(self): self.go()\n"
        "    def go(self): pass\n"
        "    def idle(self): pass\n"
        "    @property\n"
        "    def size(self): return 0\n"
        "    def hook(self): pass\n"
        "C().size\n"
    )}
    readers = {**defining, "t.py": "getattr(obj, 'hook')\n"}
    assert dead_names(defining, readers) == [("m.py", "idle")]


def _package_and_readers(reader_dirs):
    """The package's modules other than ``__init__.py``, the names it exports,
    and every other ``*.py`` source under ``reader_dirs``."""
    root = SRC.parent.parent
    package = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    init = package.pop("__init__.py")
    public = {alias.asname or alias.name for node in ast.parse(init).body
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    readers = {
        str(p): p.read_text(encoding="utf-8")
        for d in reader_dirs
        for p in (root / d).rglob("*.py")
        if p.name != "__init__.py"
    }
    return package, public, readers


def test_no_dead_names():
    # __init__.py re-exports the public interface, which stays whether or not
    # this repository calls it; its imports do not count as uses.
    package, public, readers = _package_and_readers(("src", "tests", "bench"))
    assert dead_names(package, readers, exempt=public) == []


def test_no_test_only_names():
    # A name that only tests read belongs in tests/, unless it is exported.
    package, public, readers = _package_and_readers(("src", "bench"))
    assert dead_names(package, readers, exempt=public) == []
