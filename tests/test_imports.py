"""The package is standard-library only: every absolute import in
``src/coulomb_hs`` names a standard-library module or the package itself."""

import ast
import sys
from pathlib import Path

import coulomb_hs


def absolute_imports(path: Path) -> list:
    """(line, top-level module) for each absolute import in one file."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.extend((node.lineno, a.name.split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append((node.lineno, node.module.split(".")[0]))
    return out


def test_package_imports_only_the_standard_library():
    files = sorted(Path(coulomb_hs.__file__).parent.glob("*.py"))
    assert len(files) >= 8
    allowed = set(sys.stdlib_module_names) | {"coulomb_hs"}
    bad = [f"{p.name}:{line}: {mod}" for p in files
           for line, mod in absolute_imports(p) if mod not in allowed]
    assert not bad, bad


def unread_imports(path: Path) -> list:
    """(line, name) for each name a file imports and never reads.  A name
    counts as read where it appears as an expression anywhere in the file,
    annotations included; ``__future__`` imports bind no name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.extend((node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.extend((node.lineno, a.asname or a.name) for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_every_import_is_read():
    # The package's __init__.py imports to re-export, so it is left out.
    package = Path(coulomb_hs.__file__).parent
    files = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    files += sorted(Path(__file__).parent.glob("*.py"))
    assert len(files) >= 19
    bad = [f"{p.name}:{line}: {name}" for p in files for line, name in unread_imports(p)]
    assert not bad, bad
