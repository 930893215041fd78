"""The package is standard-library only: every absolute import in
``src/coulomb_hs`` names a standard-library module or the package itself."""

import ast
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

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
    assert len(files) >= 9
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
    files = sorted(Path(coulomb_hs.__file__).parent.glob("*.py"))
    files += sorted(Path(__file__).parent.glob("*.py"))
    assert len(files) >= 21
    bad = [f"{p.name}:{line}: {name}" for p in files for line, name in unread_imports(p)]
    assert not bad, bad


# The names ``coulomb_hs`` exports, each resolved lazily.
EXPORTS = [
    "BalanceReport", "DecoupledU1UnresolvedError", "DualityReport",
    "DynkinComponent", "EngineError", "EngineStats", "Family", "GaleError",
    "GaugeGroup", "HSRequest", "HSResult", "Laurent", "NodeKind", "Quiver",
    "QuiverCharge", "QuiverError", "QuiverNode", "SO", "SymmetryPrediction",
    "ToricConfig",
    "TruncatedSeries", "U", "USp", "balance_report",
    "balanced_subquiver_classification", "bouquet_replace", "build_bouquet_quiver",
    "build_dn_implosion_quiver", "build_linear_nilpotent_quiver",
    "build_partial_implosion_quiver", "casimir_degrees", "compute_hilbert_series",
    "coulomb_hilbert_series", "decoupled_u1_count", "delta", "detect_decoupled_u1",
    "dominant_charges", "duality_report", "enumerate_charges",
    "expand_inverse", "expected_coulomb_dimension_real", "gale_dual",
    "gauge_group_rank", "is_gale_dual_pair",
    "kernel_lattice", "nilcone_reference_hs", "node_balance", "plethystic_exp",
    "plethystic_log", "predict_global_symmetry", "quiver_from_json",
    "quiver_to_json", "series_to_json", "symmetry_dimension",
    "ungauge", "weyl_vector",
]


def test_import_loads_no_submodule():
    src = str(Path(coulomb_hs.__file__).resolve().parents[1])
    # A submodule is still an attribute of the package, loaded when read.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import coulomb_hs; "
            "print(sorted(m for m in sys.modules if m.startswith('coulomb_hs.')), "
            "coulomb_hs.gale.__name__)")
    done = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout.strip(), done.stderr) == (
        0, "[] coulomb_hs.gale", "")


def test_five_exception_classes():
    # No caller tells finer failures apart: each raises its module's class,
    # and the message names the check.  No module keeps another name for one.
    bound = {}
    for path in Path(coulomb_hs.__file__).parent.glob("*.py"):
        if path.stem not in ("__init__", "__main__"):
            module = import_module(f"coulomb_hs.{path.stem}")
            bound.update((name, f"{obj.__module__}.{obj.__qualname__}")
                         for name, obj in vars(module).items()
                         if isinstance(obj, type) and issubclass(obj, Exception)
                         and obj.__module__.startswith("coulomb_hs."))
    assert bound == {
        "QuiverError": "coulomb_hs.quiver.QuiverError",
        "DecoupledU1UnresolvedError": "coulomb_hs.quiver.DecoupledU1UnresolvedError",
        "EngineError": "coulomb_hs.engine.EngineError",
        "SeriesError": "coulomb_hs.series.SeriesError",
        "GaleError": "coulomb_hs.gale.GaleError",
    }


def test_lazy_exports_resolve_to_their_defining_module():
    assert coulomb_hs.__all__ == EXPORTS
    assert set(dir(coulomb_hs)) >= set(EXPORTS)
    for name in EXPORTS:
        obj = getattr(coulomb_hs, name)
        module = sys.modules[obj.__module__]
        assert module.__name__.startswith("coulomb_hs."), name
        assert getattr(module, name) is obj, name
    assert set(EXPORTS) <= set(vars(coulomb_hs))  # resolved once, then cached
    with pytest.raises(AttributeError, match="no_such_name"):
        coulomb_hs.no_such_name

