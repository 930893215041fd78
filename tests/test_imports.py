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
