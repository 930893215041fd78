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
import os
import sys

from . import __version__
from .engine import (
    EngineError,
    HSRequest,
    compute_hilbert_series,
    coulomb_hilbert_series,
    implosion_series,
    nilcone_reference_hs,
)
from .quiver import (
    DecoupledU1UnresolvedError,
    NodeKind,
    Quiver,
    QuiverError,
    QuiverNode,
    U,
    build_bouquet_quiver,
    build_dn_implosion_quiver,
    build_linear_nilpotent_quiver,
    build_partial_implosion_quiver,
    decoupled_u1_count,
    load_quiver,
    quiver_to_json,
    ungauge,
)
from .series import (
    SeriesError,
    expand_inverse,
    one_minus_power,
    plethystic_exp,
    plethystic_log,
    series_to_json,
)


EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_COMPUTE = 2
EXIT_CHECK_FAILED = 3


def _hash_payload(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _output(args, payload, text: str | None = None) -> None:
    """Write a command's output by the CLI's one rule: stdout gets ``text``
    unless --json is given; the JSON ``payload`` goes to -o when that is
    given, and otherwise to stdout under --json.  ``generate`` has no text,
    so its payload always goes out."""
    if text is not None and not args.json:
        print(text)
        if not args.output:
            return
    blob = json.dumps(payload, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(blob)
    else:
        sys.stdout.write(blob)


# ---------------------------------------------------------------------------
# generate


def cmd_generate(args) -> int:
    if args.partition is not None and args.kind != "partial":
        raise QuiverError("--partition is for partial only")
    if args.flavor is not None and args.kind != "dn":
        raise QuiverError(f"--{'flavor' if args.flavor else 'bouquet'} is for dn only")
    if args.kind == "nilpotent":
        q = build_linear_nilpotent_quiver(args.n)
    elif args.kind == "bouquet":
        q = build_bouquet_quiver(args.n)
    elif args.kind == "partial":
        if not args.partition:
            raise QuiverError("partial needs --partition, e.g. --partition 2,2")
        try:
            parts = [int(p) for p in args.partition.split(",")]
        except ValueError:
            raise QuiverError("--partition: parts must be comma-separated integers, "
                              f"got {args.partition!r}") from None
        q = build_partial_implosion_quiver(args.n, parts)
    else:
        q = build_dn_implosion_quiver(args.n, with_flavor=bool(args.flavor))
    _output(args, quiver_to_json(q))
    return EXIT_OK


# ---------------------------------------------------------------------------
# report


def cmd_report(args) -> int:
    from .balance import (balance_report, balanced_subquiver_classification,
                          gauge_group_rank, predict_global_symmetry)

    q = load_quiver(args.quiver)
    rep = balance_report(q)
    components = balanced_subquiver_classification(q)
    pred = predict_global_symmetry(q)
    decoupled = decoupled_u1_count(q)
    rank = gauge_group_rank(q)
    expected_dim = 4 * (rank - decoupled)
    dim_note = None
    if decoupled:
        dim_note = ("after removing the decoupled diagonal U(1)" if decoupled == 1
                    else f"after removing {decoupled} decoupled diagonal U(1)s, "
                    "one per flavorless all-unitary component")
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
        "decoupled_diagonal_u1": decoupled > 0,
    }
    if dim_note:
        data["expected_coulomb_dimension_note"] = dim_note
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
    _output(args, data, "\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# hs


def cmd_hs(args) -> int:
    q = load_quiver(args.quiver)
    refined = frozenset(s for s in (args.refine or "").split(",") if s)
    if args.pl and refined:  # known before the solve, so fail before it
        raise SeriesError("plethystic logarithm of refined series is unsupported")
    req = HSRequest(q, args.order, refined=refined, ungauge=args.ungauge)
    result = compute_hilbert_series(req)
    series = result.series
    # The reproducibility record emitted with every series computation.
    manifest = {
        "command": "hs",
        "input_hash": _hash_payload({
            "quiver": quiver_to_json(q),
            "order": args.order,
            "refined": sorted(refined),
            "ungauge": args.ungauge,
            # The one orthosymplectic convention (pair weight 1, SO(2) not
            # O(2)), hashed as before it was fixed so input hashes hold.
            "conventions": ["1", False],
        }),
        "order": args.order,
        "charge_bound_reached": result.stats.bound_reached,
        "charge_count": result.stats.charge_count,
        "wall_time_s": round(result.stats.wall_time_s, 6),
        "tool_version": __version__,
    }
    payload = {"series": series_to_json(series), "manifest": manifest}
    lines = [series.text()]
    if args.pl:
        pl = plethystic_log(series)
        payload["plethystic_log"] = series_to_json(pl)
        lines.append(f"PL: {pl.text()}")
    lines.append(f"manifest: {json.dumps(manifest, sort_keys=True)}")
    _output(args, payload, "\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# implosion-check


def _row(name, expected, computed) -> tuple:
    """A check row ``(name, expected, computed, passed)``, compared as text;
    a series is compared by its text, which is canonical at a fixed order."""
    expected, computed = str(expected), str(computed)
    return name, expected, computed, expected == computed


def _check_table(rows) -> str:
    return "\n".join(
        f"{'PASS' if passed else 'FAIL'}  {name}\n"
        f"      expected: {expected}\n      computed: {computed}"
        for name, expected, computed, passed in rows)


_ENHANCED_T2 = {2: 10, 3: 28}  # Sp(2) and SO(8) enhancements


def cmd_implosion_check(args) -> int:
    n, order = args.n, args.order
    integral, bouquet = implosion_series(n, order)
    enhanced = _ENHANCED_T2.get(n)
    rows = [
        _row("refined integral equals nilpotent-cone closed form",
             nilcone_reference_hs(n, order).text(), integral.text()),
        _row(f"t^2 coefficient (enhanced symmetry for n={n})" if enhanced
             else "t^2 coefficient equals n^2+n-2",
             enhanced or n * n + n - 2, bouquet.coefficient(2)),
    ]
    print(_check_table(rows))
    return EXIT_OK if all(r[3] for r in rows) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# gale


def cmd_gale(args) -> int:
    from .gale import config_to_json, duality_report, gale_dual, load_config

    c = load_config(args.matrix)
    dual = gale_dual(c)
    rep = duality_report(c)
    data = {"dual": config_to_json(dual), "report": rep._asdict()}
    lines = ["dual columns: "
             + (" ".join(str(list(col)) for col in dual.columns) or "(empty)")]
    lines += [f"  {k}: {v}" for k, v in data["report"].items()]
    _output(args, data, "\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# check-suite


def _suite_rows(full: bool):
    # Loaded here, not at start-up: hs and implosion-check use neither.
    from .balance import (balance_report, expected_coulomb_dimension_real,
                          gauge_group_rank, node_balance, predict_global_symmetry)
    from .gale import ToricConfig, gale_dual, hnf_rows, is_gale_dual_pair

    # U(1) with d flavors vs closed form
    for d in range(1, 6):
        q = Quiver([QuiverNode("g", NodeKind.GAUGE, U(1)),
                    QuiverNode("f", NodeKind.FLAVOR, U(d))], [("g", "f")])
        s = coulomb_hilbert_series(HSRequest(q, 20))
        ref = one_minus_power(2 * d, 20) * expand_inverse(2, 20) \
            * expand_inverse(d, 20) * expand_inverse(d, 20)
        yield _row(f"U(1) with {d} flavors matches closed form to t^20",
                   ref.text(), s.text())

    # nilpotent cone
    for n in (2, 3):
        q = build_linear_nilpotent_quiver(n)
        s = coulomb_hilbert_series(HSRequest(q, 10))
        yield _row(f"nilpotent-cone quiver n={n} matches closed form to t^10",
                   nilcone_reference_hs(n, 10).text(), s.text())

    # bouquet coefficients and refined integrals: one sum per bouquet
    solved = {n: implosion_series(n, 8 if n <= 3 else 2)
              for n in range(2, 6 if full else 5)}
    s = solved[2][1]
    yield _row("ungauged bouquet(2): t coefficient", 4, s.coefficient(1))
    yield _row("ungauged bouquet(2): t^2 coefficient", 10, s.coefficient(2))
    for n, t2 in (3, 28), (4, 18), (5, 28):
        if n in solved:
            yield _row(f"ungauged bouquet({n}): t^2 coefficient", t2,
                       solved[n][1].coefficient(2))
    for n in (2, 3):
        yield _row(f"refined bouquet({n}) integral equals nilpotent cone to t^8",
                   nilcone_reference_hs(n, 8).text(), solved[n][0].text())

    # orthosymplectic
    s = coulomb_hilbert_series(HSRequest(build_dn_implosion_quiver(3), 2))
    yield _row("D-type bouquet n=3: t^2 coefficient", 18, s.coefficient(2))
    if full:
        s = coulomb_hilbert_series(HSRequest(build_dn_implosion_quiver(4), 2))
        yield _row("D-type bouquet n=4: t^2 coefficient", 32, s.coefficient(2))

    # dimension bookkeeping
    ok = all(
        expected_coulomb_dimension_real(ungauge(build_bouquet_quiver(n), "b1"))
        == 2 * (n * n + n - 2) for n in range(2, 11))
    yield _row("4*rank = 2(n^2+n-2) for ungauged bouquet, n=2..10", True, ok)
    ok = all(4 * gauge_group_rank(build_dn_implosion_quiver(n)) == 4 * n * n
             for n in range(2, 9))
    yield _row("4*rank = 4n^2 for D-type bouquet, n=2..8", True, ok)

    # balance suite
    ok = all(balance_report(build_linear_nilpotent_quiver(n)).all_balanced
             for n in range(2, 13))
    yield _row("nilpotent-cone chains all balanced, n=2..12", True, ok)
    ok = all(node_balance(build_bouquet_quiver(n), "b1") == n - 3
             for n in range(2, 11))
    yield _row("bouquet U(1) balance = n-3", True, ok)
    ok = all(balance_report(build_dn_implosion_quiver(n, with_flavor=True)).all_balanced
             for n in range(2, 9))
    yield _row("D-type chains (flavor variant) all balanced, n=2..8", True, ok)
    ok = all(predict_global_symmetry(build_bouquet_quiver(n)).total_dimension
             == n * n + n - 2 for n in range(4, 9))
    yield _row("predicted symmetry dimension = n^2+n-2 for bouquet, n=4..8", True, ok)

    # plethystic round trip on a golden series
    s = coulomb_hilbert_series(HSRequest(build_linear_nilpotent_quiver(3), 10))
    yield _row("PE[PL[...]] round trip on the n=3 nilpotent cone series",
               s.text(), plethystic_exp(plethystic_log(s)).text())

    # Gale sample
    c = ToricConfig([[1, 0, 1, 2, 3], [0, 1, 1, 1, 1]])
    yield _row("Gale involution on a 2x5 configuration",
               hnf_rows(c.rows, c.d), gale_dual(gale_dual(c)).rows)
    yield _row("Gale pair check", True, is_gale_dual_pair(c, gale_dual(c)))


def cmd_check_suite(args) -> int:
    rows = list(_suite_rows(args.full))
    digest = _hash_payload(rows)
    _output(args, {"rows": rows, "hash": digest},
            f"{_check_table(rows)}\nsuite: {sum(r[3] for r in rows)}/{len(rows)} "
            f"passed; manifest hash {digest}")
    return EXIT_OK if all(r[3] for r in rows) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's formatter at the width argparse would choose.  Given no
    width, argparse imports shutil, which loads bz2, lzma and zlib, for
    ``shutil.get_terminal_size().columns - 2``, and ``add_argument`` builds
    a formatter per argument.  The same width is read here the way shutil
    reads it: COLUMNS when that is a positive integer, else the width of
    the terminal on ``sys.__stdout__``, else 80."""

    def __init__(self, prog, indent_increment=2, max_help_position=24,
                 width=None, **kwargs):
        if width is None:
            try:
                columns = int(os.environ["COLUMNS"])
            except (KeyError, ValueError):
                columns = 0
            if columns <= 0:
                try:
                    columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
                except (AttributeError, ValueError, OSError):
                    columns = 0
            width = (columns or 80) - 2
        super().__init__(prog, indent_increment=indent_increment,
                         max_help_position=max_help_position, width=width,
                         **kwargs)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_VALIDATION, not argparse's 2 (which
    here means a computational error); help is laid out by _HelpFormatter.
    Subparsers inherit both."""

    def __init__(self, *args, formatter_class=_HelpFormatter, **kwargs):
        super().__init__(*args, formatter_class=formatter_class, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _int_at_least(lo: int):
    """An argparse type: an integer no smaller than ``lo``."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {n}")
        return n

    return parse


def _add_output(p):
    """The --json / -o pair of report, hs, gale and check-suite (see _output)."""
    p.add_argument("--json", action="store_true")
    p.add_argument("-o", "--output")


def _add_generate(g):
    g.add_argument("kind", choices=["nilpotent", "bouquet", "partial", "dn"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--partition", help="comma-separated parts (partial only)")
    var = g.add_mutually_exclusive_group()
    var.add_argument("--bouquet", dest="flavor", action="store_false",
                     help="dn: bouquet of SO(2) leaves (default)")
    var.add_argument("--flavor", dest="flavor", action="store_true",
                     help="dn: SO(2n) flavor node instead of the bouquet")
    g.set_defaults(flavor=None)  # None: neither flag given
    g.add_argument("-o", "--output")
    g.set_defaults(func=cmd_generate)


def _add_report(r):
    r.add_argument("quiver")
    _add_output(r)
    r.set_defaults(func=cmd_report)


def _add_hs(h):
    h.add_argument("quiver")
    h.add_argument("--order", type=int, default=8)
    h.add_argument("--ungauge", help="U(1) gauge node to pin at charge 0")
    h.add_argument("--refine", help="comma-separated node ids to refine "
                                    "with one fugacity each")
    h.add_argument("--pl", action="store_true",
                   help="also print the plethystic logarithm "
                        "(not with --refine)")
    _add_output(h)
    h.set_defaults(func=cmd_hs)


def _add_implosion_check(ic):
    ic.add_argument("--n", type=_int_at_least(2), required=True,
                    help="number of bouquet leaves (at least 2)")
    ic.add_argument("--order", type=int, default=8)
    ic.set_defaults(func=cmd_implosion_check)


def _add_gale(ga):
    ga.add_argument("matrix")
    _add_output(ga)
    ga.set_defaults(func=cmd_gale)


def _add_check_suite(cs):
    cs.add_argument("--full", action="store_true",
                    help="include the slower bouquet(5) and D_4 checks")
    _add_output(cs)
    cs.set_defaults(func=cmd_check_suite)


# Subcommand -> (help line, function adding its arguments), in help order.
_COMMANDS = {
    "generate": ("write a quiver JSON file", _add_generate),
    "report": ("balance / symmetry / dimension report", _add_report),
    "hs": ("compute the Coulomb-branch Hilbert series", _add_hs),
    "implosion-check": ("bouquet quiver consistency checks", _add_implosion_check),
    "gale": ("Gale-dual configuration and report", _add_gale),
    "check-suite": ("run every built-in check", _add_check_suite),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser; given a subcommand, only its parser is
    built, which parses that subcommand exactly as the full parser does."""
    ap = _Parser(
        prog="coulomb-hs",
        description="Exact Coulomb-branch Hilbert series via the monopole formula")
    ap.add_argument("--version", action="version", version=__version__)
    # With one subcommand built, the metavar keeps every name in the
    # top-level usage that errors such as unrecognized arguments print.
    sub = ap.add_subparsers(
        dest="command", required=True,
        metavar="{" + ",".join(_COMMANDS) + "}" if command else None)
    for name in [command] if command else _COMMANDS:
        help_text, add_arguments = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text))
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Build one subcommand's parser when argv names it; --help, --version
    # and unknown commands need them all.
    ap = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (DecoupledU1UnresolvedError, EngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except (QuiverError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
