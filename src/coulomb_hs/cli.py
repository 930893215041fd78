"""Command-line front end.

Subcommands: ``generate`` (quiver constructors), ``report`` (balance,
symmetry and dimension bookkeeping), ``hs`` (Coulomb-branch Hilbert
series), ``implosion-check`` (bouquet consistency checks),
``gale`` (hypertoric duality) and ``check-suite`` (every acceptance check
at once).

Exit codes: 0 success, 1 validation error, 2 computational error
(divergent theory, unresolved decoupling, ...), 3 check failure.

A well-formed command line is read without argparse, from the same
declarations that build the argparse parser (``_parse``).  Help,
--version, every usage error and any form the fast reading does not take
(abbreviations, ``--opt=value``, ``--``, a value starting with "-") go
through argparse, which alone prints messages.

A command runs with the cyclic garbage collector paused (``main``): the
engine builds no reference cycles, which a test checks, so a collection
during a solve would find nothing.  Library calls leave the collector
alone.
"""

from __future__ import annotations

import gc
import json
import sys
from functools import partial
from types import SimpleNamespace

from . import __version__
from .engine import (
    EngineError,
    HSRequest,
    compute_hilbert_series,
    coulomb_hilbert_series,
    implosion_series,
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
    nilcone_reference_hs,
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
    import hashlib  # OpenSSL's start-up is paid only by commands that hash

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
#
# Each subcommand's arguments are declared once, by its ``_add_*`` function,
# through argparse's calls.  ``build_parser`` passes it an argparse subparser;
# ``_parse`` passes it a ``_Declared``, which records the same calls.


def _int_at_least(lo: int):
    """An argparse type: an integer no smaller than ``lo``."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = None
        if n is not None and n >= lo:
            return n
        import argparse  # for the error alone: a good value loads nothing

        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}" if n is None else f"must be at least {lo}, got {n}")

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

# The value an argument of each action takes when it is not given.
_ACTION_DEFAULTS = {"store": None, "store_true": False, "store_false": True}
_UNSET = object()


class _Declared:
    """The arguments of one subcommand, recorded from the argparse calls its
    ``_add_*`` function makes, with argparse's rules for dest and defaults.
    It takes positionals, options with the actions of _ACTION_DEFAULTS,
    mutually exclusive groups and ``set_defaults``; any other declaration
    raises here rather than be misread."""

    def __init__(self):
        self.arguments = []    # in declaration order
        self.positionals = []
        self.options = {}      # option string -> its argument
        self.defaults = {}     # from set_defaults

    def add_argument(self, *names, dest=None, action="store", type=None, choices=None,
                     required=False, default=_UNSET, help=None, group=None):
        positional = not names[0].startswith("-")
        if dest is None:
            dest = names[0] if positional else next(
                (s for s in names if s.startswith("--")), names[0]
            ).lstrip("-").replace("-", "_")
        implied = _ACTION_DEFAULTS[action]  # a KeyError for any other action
        if default is _UNSET:
            default = self.defaults.get(dest, implied)
        arg = SimpleNamespace(dest=dest, action=action, type=type, choices=choices,
                              required=required or positional, default=default,
                              group=group)
        self.arguments.append(arg)
        if positional:
            self.positionals.append(arg)
        else:
            self.options.update(dict.fromkeys(names, arg))

    def add_mutually_exclusive_group(self):
        return SimpleNamespace(add_argument=partial(self.add_argument, group=object()))

    def set_defaults(self, **defaults):
        self.defaults.update(defaults)
        for arg in self.arguments:
            arg.default = defaults.get(arg.dest, arg.default)


def _parse(argv):
    """The namespace argparse gives for ``argv``, read from the declarations
    without argparse; or None for any argv not in the plainest well-formed
    shape: a subcommand, then its positionals and exact option strings, each
    value a token of its own that does not start with "-".  Help, --version,
    abbreviations, ``--opt=value``, ``--`` and every usage error are among
    the None cases, and argparse parses them."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    declared = _Declared()
    _COMMANDS[argv[0]][1](declared)
    tokens, positionals = iter(argv[1:]), iter(declared.positionals)
    values, chosen = {}, {}  # chosen: group -> the argument given from it
    for token in tokens:
        if token.startswith("-"):
            arg = declared.options.get(token)
            if arg is None:
                return None
            if arg.group is not None and chosen.setdefault(arg.group, arg) is not arg:
                return None  # two arguments of one mutually exclusive group
            if arg.action == "store":
                token = next(tokens, "-")
                if token.startswith("-"):  # none, or one argparse may not take
                    return None
        else:
            arg = next(positionals, None)
            if arg is None:
                return None
        if arg.action == "store":
            try:
                value = token if arg.type is None else arg.type(token)
            except Exception:  # argparse reports it, or raises it again
                return None
            if arg.choices is not None and value not in arg.choices:
                return None
        else:
            value = arg.action == "store_true"
        values[arg.dest] = value  # a repeated option: the last one wins
    if any(arg.required and arg.dest not in values for arg in declared.arguments):
        return None
    # As argparse: the first argument of a dest sets its default, which
    # set_defaults has already updated, so set_defaults adds only new keys.
    defaults = {arg.dest: arg.default for arg in reversed(declared.arguments)}
    return SimpleNamespace(**{"command": argv[0], **declared.defaults, **defaults, **values})


def build_parser():
    """The argparse parser, which ``main`` builds only for an argv that
    ``_parse`` does not read."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """Usage errors exit with EXIT_VALIDATION, not argparse's 2 (which
        here means a computational error).  Subparsers inherit this."""

        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")

    ap = Parser(
        prog="coulomb-hs",
        description="Exact Coulomb-branch Hilbert series via the monopole formula")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv) or build_parser().parse_args(argv)
    # The collector is paused for the command alone (see the module
    # docstring); the caller's state comes back on every exit path.
    paused = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (DecoupledU1UnresolvedError, EngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except (QuiverError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    finally:
        if paused:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
