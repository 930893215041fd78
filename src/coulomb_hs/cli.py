"""Command-line front end.

Subcommands: ``generate`` (quiver constructors), ``report`` (balance,
symmetry and dimension bookkeeping), ``hs`` (Coulomb-branch Hilbert
series), ``implosion-check`` (bouquet consistency checks),
``gale`` (hypertoric duality) and ``check-suite`` (every acceptance check
at once).

Exit codes: 0 success, 1 validation error, 2 computational error
(divergent theory, unresolved decoupling, ...), 3 check failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import asdict, dataclass

from . import __version__
from .engine import (
    DEFAULT_MAX_BOUND,
    EngineError,
    HSRequest,
    compute_hilbert_series,
    hs_contribution_check,
    nilcone_reference_hs,
    refined_implosion_integral,
)
from .gale import (
    GaleError,
    ToricConfig,
    config_to_json,
    duality_report,
    gale_dual,
    is_gale_dual_pair,
    load_config,
)
from .liedata import Conventions, DEFAULT_CONVENTIONS, HALF_PAIR_WEIGHT
from .quiver import (
    DecoupledU1UnresolvedError,
    NodeKind,
    QuiverError,
    balance_report,
    balanced_subquiver_classification,
    build_bouquet_quiver,
    build_dn_implosion_quiver,
    build_linear_nilpotent_quiver,
    build_partial_implosion_quiver,
    detect_decoupled_u1,
    expected_coulomb_dimension_real,
    gauge_group_rank,
    load_quiver,
    predict_global_symmetry,
    quiver_to_json,
    ungauge,
)
from .series import plethystic_log, series_to_json


EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_COMPUTE = 2
EXIT_CHECK_FAILED = 3


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility record emitted with every series computation."""

    command: str
    input_hash: str
    order: int
    charge_bound_reached: int
    charge_count: int
    wall_time_s: float
    tool_version: str


def _hash_payload(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _emit(obj, path: str | None):
    text = json.dumps(obj, indent=2) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _conventions(args) -> Conventions:
    conv = HALF_PAIR_WEIGHT if args.ortho_pair_weight == "1/2" else DEFAULT_CONVENTIONS
    if args.so2_as_o2:
        conv = Conventions(conv.orthosymplectic_pair_weight, True)
    return conv


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args) -> int:
    if args.kind == "nilpotent":
        q = build_linear_nilpotent_quiver(args.n)
    elif args.kind == "bouquet":
        q = build_bouquet_quiver(args.n)
    elif args.kind == "partial":
        if not args.partition:
            raise QuiverError("partial needs --partition, e.g. --partition 2,2")
        parts = [int(p) for p in args.partition.split(",")]
        q = build_partial_implosion_quiver(args.n, parts)
    else:
        q = build_dn_implosion_quiver(args.n, with_flavor=args.flavor)
    _emit(quiver_to_json(q), args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# report


def cmd_report(args) -> int:
    q = load_quiver(args.quiver)
    rep = balance_report(q)
    components = balanced_subquiver_classification(q)
    pred = predict_global_symmetry(q)
    decoupled = detect_decoupled_u1(q)
    rank = gauge_group_rank(q)
    if decoupled:
        expected_dim = 4 * (rank - 1)
        dim_note = "after removing the decoupled diagonal U(1)"
    else:
        expected_dim = expected_coulomb_dimension_real(q)
        dim_note = None
    data = {
        "nodes": len(q.nodes),
        "gauge_nodes": len(q.gauge_nodes),
        "flavor_nodes": len(q.flavor_nodes),
        "fixed_nodes": len(q.fixed_nodes),
        "edges": len(q.edges),
        "balances": rep.balances,
        "all_balanced": rep.all_balanced,
        "minimally_unbalanced": rep.minimally_unbalanced,
        "positively_balanced": rep.positively_balanced,
        "balanced_components": [
            {"label": c.label, "nodes": sorted(c.node_ids)} for c in components],
        "predicted_symmetry": {
            "factors": [c.label for c in pred.factors],
            "unrecognized": [c.label for c in pred.unrecognized],
            "abelian_rank": pred.abelian_rank,
            "total_dimension": pred.total_dimension,
        },
        "gauge_rank": rank,
        "expected_coulomb_dimension_real": expected_dim,
        "decoupled_diagonal_u1": decoupled,
    }
    if dim_note:
        data["expected_coulomb_dimension_note"] = dim_note
    if args.json:
        _emit(data, args.output)
        return EXIT_OK
    lines = [
        f"nodes: {data['nodes']} ({data['gauge_nodes']} gauge, "
        f"{data['flavor_nodes']} flavor, {data['fixed_nodes']} fixed); "
        f"edges: {data['edges']}",
        "balances: " + (", ".join(f"{i}={b}" for i, b in rep.balances.items()) or "none"),
        f"flags: all_balanced={rep.all_balanced} "
        f"minimally_unbalanced={rep.minimally_unbalanced} "
        f"positively_balanced={rep.positively_balanced}",
        "balanced components: " + (
            "; ".join(f"{c.label}: {' '.join(sorted(c.node_ids))}" for c in components)
            or "none"),
        f"predicted symmetry: {' + '.join(c.label for c in pred.factors) or 'none'}"
        f" + abelian rank {pred.abelian_rank} (total dim {pred.total_dimension})"
        + (f"; unrecognized: {', '.join(c.label for c in pred.unrecognized)}"
           if pred.unrecognized else ""),
        f"gauge rank: {rank}",
        f"expected Coulomb dimension (real): {expected_dim}"
        + (f" ({dim_note})" if dim_note else ""),
        f"decoupled diagonal U(1): {'yes' if decoupled else 'no'}",
    ]
    print("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# hs


def cmd_hs(args) -> int:
    q = load_quiver(args.quiver)
    refined = frozenset(s for s in (args.refine or "").split(",") if s)
    req = HSRequest(q, args.order, refined=refined, ungauge=args.ungauge,
                    max_bound=args.max_bound, conventions=_conventions(args))
    result = compute_hilbert_series(req)
    series = result.series
    manifest = RunManifest(
        command="hs",
        input_hash=_hash_payload({
            "quiver": quiver_to_json(q),
            "order": args.order,
            "refined": sorted(refined),
            "ungauge": args.ungauge,
            "conventions": [str(req.conventions.orthosymplectic_pair_weight),
                            req.conventions.so2_as_o2],
        }),
        order=args.order,
        charge_bound_reached=result.stats.bound_reached,
        charge_count=result.stats.charge_count,
        wall_time_s=round(result.stats.wall_time_s, 6),
        tool_version=__version__,
    )
    payload = {"series": series_to_json(series), "manifest": asdict(manifest)}
    if args.pl:
        payload["plethystic_log"] = series_to_json(plethystic_log(series))
    if args.json:
        _emit(payload, args.output)
        return EXIT_OK
    print(series.text())
    if args.pl:
        print("PL:", plethystic_log(series).text())
    print("manifest:", json.dumps(asdict(manifest), sort_keys=True))
    if args.output:
        _emit(payload, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# implosion-check


def cmd_implosion_check(args) -> int:
    n, order = args.n, args.order
    conv = _conventions(args)
    rows = []
    integral = refined_implosion_integral(
        n, order, prefactor_exponent=args.prefactor_exponent, conventions=conv)
    reference = nilcone_reference_hs(n, order)
    rows.append(("refined integral equals nilpotent-cone closed form",
                 reference.text(), integral.text(), integral == reference))
    check = hs_contribution_check(n, conventions=conv)
    if check.enhanced_dimension is not None:
        rows.append((f"t^2 coefficient (enhanced symmetry for n={n})",
                     str(check.enhanced_dimension), str(check.t2_coefficient),
                     check.t2_coefficient == check.enhanced_dimension))
    else:
        rows.append(("t^2 coefficient equals n^2+n-2",
                     str(check.t2_generic_expected), str(check.t2_coefficient),
                     check.t2_matches_generic))
    rows.append((f"2n bouquet monopoles at order t^{check.t_power}",
                 str(check.bouquet_monopole_expected),
                 str(check.bouquet_monopole_count),
                 check.bouquet_monopole_count == check.bouquet_monopole_expected))
    ok = _print_check_table(rows)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _print_check_table(rows) -> bool:
    ok = True
    for name, expected, computed, passed in rows:
        ok &= passed
        status = "PASS" if passed else "FAIL"
        print(f"{status}  {name}\n      expected: {expected}\n      computed: {computed}")
    return ok


# ---------------------------------------------------------------------------
# gale


def cmd_gale(args) -> int:
    c = load_config(args.matrix)
    dual = gale_dual(c)
    rep = duality_report(c)
    data = {"dual": config_to_json(dual), "report": asdict(rep)}
    if args.json:
        _emit(data, args.output)
        return EXIT_OK
    print("dual columns:", " ".join(str(list(col)) for col in dual.columns) or "(empty)")
    for k, v in asdict(rep).items():
        print(f"  {k}: {v}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# check-suite


def _suite_rows(full: bool):
    from .series import expand_inverse, one_minus_power, plethystic_exp

    rows = []

    def add(name, expected, computed):
        rows.append((name, str(expected), str(computed), str(expected) == str(computed)))

    # U(1) with d flavors vs closed form
    from .quiver import Quiver, QuiverNode, U

    for d in range(1, 6):
        q = Quiver([QuiverNode("g", NodeKind.GAUGE, U(1)),
                    QuiverNode("f", NodeKind.FLAVOR, U(d))], [("g", "f")])
        s = compute_hilbert_series(HSRequest(q, 20)).series
        ref = one_minus_power(2 * d, 20) * expand_inverse(2, 20) \
            * expand_inverse(d, 20) * expand_inverse(d, 20)
        add(f"U(1) with {d} flavors matches closed form to t^20",
            ref.text(), s.text())

    # nilpotent cone
    for n in (2, 3):
        q = build_linear_nilpotent_quiver(n)
        s = compute_hilbert_series(HSRequest(q, 10)).series
        add(f"nilpotent-cone quiver n={n} matches closed form to t^10",
            nilcone_reference_hs(n, 10).text(), s.text())

    # bouquet coefficients
    s = compute_hilbert_series(
        HSRequest(build_bouquet_quiver(2), 2, ungauge="b1")).series
    add("ungauged bouquet(2): t coefficient", 4, s.coefficient(1))
    add("ungauged bouquet(2): t^2 coefficient", 10, s.coefficient(2))
    s = compute_hilbert_series(
        HSRequest(build_bouquet_quiver(3), 4, ungauge="b1")).series
    add("ungauged bouquet(3): t^2 coefficient", 28, s.coefficient(2))
    add("ungauged bouquet(4): t^2 coefficient", 18,
        hs_contribution_check(4).t2_coefficient)
    if full:
        add("ungauged bouquet(5): t^2 coefficient", 28,
            hs_contribution_check(5).t2_coefficient)

    # refined integrals
    for n in (2, 3):
        add(f"refined bouquet({n}) integral equals nilpotent cone to t^8",
            nilcone_reference_hs(n, 8).text(),
            refined_implosion_integral(n, 8).text())

    # orthosymplectic
    s = compute_hilbert_series(HSRequest(build_dn_implosion_quiver(3), 2)).series
    add("D-type bouquet n=3: t^2 coefficient", 18, s.coefficient(2))
    if full:
        s = compute_hilbert_series(HSRequest(build_dn_implosion_quiver(4), 2)).series
        add("D-type bouquet n=4: t^2 coefficient", 32, s.coefficient(2))

    # dimension bookkeeping
    ok = all(
        expected_coulomb_dimension_real(ungauge(build_bouquet_quiver(n), "b1"))
        == 2 * (n * n + n - 2) for n in range(2, 11))
    add("4*rank = 2(n^2+n-2) for ungauged bouquet, n=2..10", True, ok)
    ok = all(4 * gauge_group_rank(build_dn_implosion_quiver(n)) == 4 * n * n
             for n in range(2, 9))
    add("4*rank = 4n^2 for D-type bouquet, n=2..8", True, ok)

    # balance suite
    ok = all(balance_report(build_linear_nilpotent_quiver(n)).all_balanced
             for n in range(2, 13))
    add("nilpotent-cone chains all balanced, n=2..12", True, ok)
    from .quiver import node_balance

    ok = all(node_balance(build_bouquet_quiver(n), "b1") == n - 3
             for n in range(2, 11))
    add("bouquet U(1) balance = n-3", True, ok)
    ok = all(balance_report(build_dn_implosion_quiver(n, with_flavor=True)).all_balanced
             for n in range(2, 9))
    add("D-type chains (flavor variant) all balanced, n=2..8", True, ok)
    ok = all(predict_global_symmetry(build_bouquet_quiver(n)).total_dimension
             == n * n + n - 2 for n in range(4, 9))
    add("predicted symmetry dimension = n^2+n-2 for bouquet, n=4..8", True, ok)

    # plethystic round trip on a golden series
    s = compute_hilbert_series(HSRequest(build_linear_nilpotent_quiver(3), 10)).series
    add("PE[PL[...]] round trip on the n=3 nilpotent cone series",
        s.text(), plethystic_exp(plethystic_log(s)).text())

    # Gale sample
    from .gale import hnf_rows

    c = ToricConfig([[1, 0, 1, 2, 3], [0, 1, 1, 1, 1]])
    add("Gale involution on a 2x5 configuration",
        hnf_rows(c.rows, c.d), gale_dual(gale_dual(c)).rows)
    add("Gale pair check", True, is_gale_dual_pair(c, gale_dual(c)))
    return rows


def cmd_check_suite(args) -> int:
    rows = _suite_rows(args.full)
    ok = _print_check_table(rows)
    digest = _hash_payload([[r[0], r[1], r[2], r[3]] for r in rows])
    print(f"suite: {sum(1 for r in rows if r[3])}/{len(rows)} passed; "
          f"manifest hash {digest}")
    if args.json:
        _emit({"rows": [list(r) for r in rows], "hash": digest}, args.output)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser


def _add_conv_flags(p):
    p.add_argument("--ortho-pair-weight", choices=["1", "1/2"], default="1",
                   help="weight per sign-reduced orthosymplectic weight pair "
                        "(default 1; 1/2 is a documented alternative that "
                        "makes balanced orthosymplectic chains divergent)")
    p.add_argument("--so2-as-o2", action="store_true",
                   help="treat SO(2) nodes as O(2): chamber m >= 0 and a "
                        "degree-2 invariant at the origin")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_VALIDATION, not argparse's 2 (which
    here means a computational error); subparsers inherit this."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="coulomb-hs",
        description="Exact Coulomb-branch Hilbert series via the monopole formula")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a quiver JSON file")
    g.add_argument("kind", choices=["nilpotent", "bouquet", "partial", "dn"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--partition", help="comma-separated parts (partial only)")
    var = g.add_mutually_exclusive_group()
    var.add_argument("--bouquet", dest="flavor", action="store_false",
                     help="dn: bouquet of SO(2) leaves (default)")
    var.add_argument("--flavor", dest="flavor", action="store_true",
                     help="dn: SO(2n) flavor node instead of the bouquet")
    g.set_defaults(flavor=False)
    g.add_argument("-o", "--output")
    g.set_defaults(func=cmd_generate)

    r = sub.add_parser("report", help="balance / symmetry / dimension report")
    r.add_argument("quiver")
    r.add_argument("--json", action="store_true")
    r.add_argument("-o", "--output")
    r.set_defaults(func=cmd_report)

    h = sub.add_parser("hs", help="compute the Coulomb-branch Hilbert series")
    h.add_argument("quiver")
    h.add_argument("--order", type=int, default=8)
    h.add_argument("--ungauge", help="U(1) gauge node to pin at charge 0")
    h.add_argument("--refine", help="comma-separated node ids to refine "
                                    "with one fugacity each")
    h.add_argument("--pl", action="store_true",
                   help="also print the plethystic logarithm")
    h.add_argument("--max-bound", type=int, default=DEFAULT_MAX_BOUND)
    h.add_argument("--json", action="store_true")
    h.add_argument("-o", "--output")
    _add_conv_flags(h)
    h.set_defaults(func=cmd_hs)

    ic = sub.add_parser("implosion-check",
                        help="bouquet quiver consistency checks")
    ic.add_argument("--n", type=int, required=True)
    ic.add_argument("--order", type=int, default=8)
    ic.add_argument("--prefactor-exponent", type=int, default=None,
                    help="override the (1-t^2) prefactor exponent "
                         "(negative-control testing; default n-1)")
    _add_conv_flags(ic)
    ic.set_defaults(func=cmd_implosion_check)

    ga = sub.add_parser("gale", help="Gale-dual configuration and report")
    ga.add_argument("matrix")
    ga.add_argument("--json", action="store_true")
    ga.add_argument("-o", "--output")
    ga.set_defaults(func=cmd_gale)

    cs = sub.add_parser("check-suite", help="run every built-in check")
    cs.add_argument("--full", action="store_true",
                    help="include the slower bouquet(5) and D_4 checks")
    cs.add_argument("--json", action="store_true")
    cs.add_argument("-o", "--output")
    cs.set_defaults(func=cmd_check_suite)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (DecoupledU1UnresolvedError, EngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except (QuiverError, GaleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
