"""Exact Coulomb-branch Hilbert series of quiver gauge theories via the
monopole formula, with quiver balance analysis, plethystic transforms and
hypertoric Gale duality."""

from .engine import (
    BadTheoryError,
    ContributionCheck,
    EngineError,
    EngineStats,
    HSRequest,
    HSResult,
    QuiverCharge,
    compute_hilbert_series,
    coulomb_hilbert_series,
    delta,
    dressing_factor,
    enumerate_charges,
    hs_contribution_check,
    nilcone_reference_hs,
    refined_implosion_integral,
    symmetry_dimension,
)
from .gale import (
    DualityReport,
    GaleError,
    RankDeficientError,
    ToricConfig,
    duality_report,
    gale_dual,
    is_gale_dual_pair,
    kernel_lattice,
)
from .liedata import (
    ChamberViolationError,
    casimir_degrees,
    dominant_charges,
    residual_stabilizer,
    weyl_vector,
)
from .quiver import (
    BalanceReport,
    DecoupledU1UnresolvedError,
    DynkinComponent,
    Family,
    GaugeGroup,
    NodeKind,
    Quiver,
    QuiverError,
    QuiverNode,
    SO,
    SymmetryPrediction,
    U,
    USp,
    balance_report,
    balanced_subquiver_classification,
    bouquet_replace,
    build_bouquet_quiver,
    build_dn_implosion_quiver,
    build_linear_nilpotent_quiver,
    build_partial_implosion_quiver,
    decoupled_u1_count,
    detect_decoupled_u1,
    expected_coulomb_dimension_real,
    gauge_group_rank,
    node_balance,
    predict_global_symmetry,
    quiver_from_json,
    quiver_to_json,
    ungauge,
)
from .series import (
    Laurent,
    TruncatedSeries,
    expand_inverse,
    plethystic_exp,
    plethystic_log,
    series_from_json,
    series_to_json,
)

__version__ = "0.1.0"
