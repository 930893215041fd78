"""Exact Coulomb-branch Hilbert series of quiver gauge theories via the
monopole formula, with quiver balance analysis, plethystic transforms and
hypertoric Gale duality.

``import coulomb_hs`` loads no submodule: each exported name is looked up
in ``_EXPORTS`` and its module is imported on first use (PEP 562), so a
run that never touches Gale duality or the balance report never loads
them.
"""

from importlib import import_module

__version__ = "0.1.0"

# Exported name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys([
        "BadTheoryError", "EngineError", "EngineStats", "HSRequest",
        "HSResult", "QuiverCharge", "compute_hilbert_series",
        "coulomb_hilbert_series", "delta", "enumerate_charges",
        "refined_implosion_integral", "symmetry_dimension"], "engine"),
    **dict.fromkeys([
        "DualityReport", "GaleError", "RankDeficientError", "ToricConfig",
        "duality_report", "gale_dual", "is_gale_dual_pair",
        "kernel_lattice"], "gale"),
    **dict.fromkeys([
        "ChamberViolationError", "casimir_degrees", "dominant_charges",
        "weyl_vector"], "liedata"),
    **dict.fromkeys([
        "DecoupledU1UnresolvedError", "Family", "GaugeGroup", "NodeKind",
        "Quiver", "QuiverError", "QuiverNode", "SO", "U", "USp",
        "bouquet_replace", "build_bouquet_quiver", "build_dn_implosion_quiver",
        "build_linear_nilpotent_quiver", "build_partial_implosion_quiver",
        "decoupled_u1_count", "detect_decoupled_u1", "quiver_from_json",
        "quiver_to_json", "ungauge"], "quiver"),
    **dict.fromkeys([
        "BalanceReport", "DynkinComponent", "SymmetryPrediction",
        "balance_report", "balanced_subquiver_classification",
        "expected_coulomb_dimension_real", "gauge_group_rank", "node_balance",
        "predict_global_symmetry"], "balance"),
    **dict.fromkeys([
        "Laurent", "TruncatedSeries", "expand_inverse", "nilcone_reference_hs",
        "plethystic_exp", "plethystic_log", "series_from_json",
        "series_to_json"], "series"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in set(_EXPORTS.values()):  # a submodule, as `import` would bind it
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
