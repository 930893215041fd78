import copy
import gc
import random
from fractions import Fraction
from itertools import chain, product
from operator import mul

import pytest

from coulomb_hs.engine import (
    BadTheoryError,
    EngineError,
    HSRequest,
    QuiverCharge,
    bouquet_leaf_ids,
    compute_hilbert_series,
    coulomb_hilbert_series,
    delta,
    enumerate_charges,
    implosion_series,
    refined_implosion_integral,
    symmetry_dimension,
    MAX_TABLE_CELLS,
    _Problem,
    _box_charges,
    _box_tables,
    _box_work,
    _candidates,
    _cell_sum,
    _cutset_assignments,
    _edge_table,
    _min_tables,
    _proven_box,
    _totals,
    _tree_pass,
    _tree_sum,
)
from coulomb_hs.liedata import _dressing_coeffs, dominant_charges, dressing_degrees
from coulomb_hs.quiver import (
    DecoupledU1UnresolvedError,
    NodeKind,
    Quiver,
    QuiverError,
    QuiverNode,
    SO,
    U,
    USp,
    build_bouquet_quiver,
    build_dn_implosion_quiver,
    build_linear_nilpotent_quiver,
    build_partial_implosion_quiver,
    ungauge,
)
from coulomb_hs.series import (SeriesError, TruncatedSeries, expand_inverse, nilcone_reference_hs,
                               one_minus_power)

from brute import (HALF_PAIR_WEIGHT, cell_sum_ref, delta_ref, hs_ref, kostant_nilcone_series,
                   matter_term, quarter_units, shell_min_ref, topological_counts)


def u1_with_flavors(d):
    return Quiver([QuiverNode("g", NodeKind.GAUGE, U(1)),
                   QuiverNode("f", NodeKind.FLAVOR, U(d))], [("g", "f")])


def u2_doubled_to_fixed_u1():
    """U(2) with a doubled edge to a fixed U(1) and a U(2) flavor."""
    return ungauge(Quiver(
        [QuiverNode("a", NodeKind.GAUGE, U(1)), QuiverNode("g", NodeKind.GAUGE, U(2)),
         QuiverNode("f", NodeKind.FLAVOR, U(2))],
        [("a", "g"), ("a", "g"), ("g", "f")]), "a")


def solve_on_tree(request, counted=True):
    """An unrefined request solved on the tree pass, whatever route
    ``coulomb_hilbert_series`` would take: the series, the proven box and
    the charge counts (None unless ``counted``)."""
    q = request.quiver
    if request.ungauge is not None:
        q = ungauge(q, request.ungauge)
    prob = _Problem(q)
    bound = _proven_box(prob, 2 * request.order)
    coeffs, counts = _tree_sum(prob, request.order, bound, [], counted)
    return TruncatedSeries(request.order, coeffs), bound, counts


def abelian_closed_form(d, order):
    """(1 - t^(2d)) / ((1 - t^2)(1 - t^d)^2) expanded."""
    return one_minus_power(2 * d, order) * expand_inverse(2, order) \
        * expand_inverse(d, order) * expand_inverse(d, order)


# ---------------------------------------------------------------------------
# delta


def test_delta_examples():
    assert delta(u1_with_flavors(4), {"g": (1,)}) == 2
    assert delta(u1_with_flavors(4), {"g": (0,)}) == 0
    q = Quiver([QuiverNode("g", NodeKind.GAUGE, U(2)),
                QuiverNode("f", NodeKind.FLAVOR, U(4))], [("g", "f")])
    assert delta(q, {"g": (1, 0)}) == 1
    assert delta(q, {"g": (1, 1)}) == 4  # no root term, matter (1/2)*4*2
    assert delta(q, {"g": (0, 0)}) == 0
    # A sequence gives one charge per gauge or fixed node, in quiver order.
    q = ungauge(build_bouquet_quiver(3), "b1")
    assert delta(q, [(1,), (1, 0), (0,), (0,), (0,)]) == 1
    with pytest.raises(QuiverError, match="wrong number of components"):
        delta(q, [(1,), (1, 0), (0,), (0,)])


def test_delta_is_half_integral_for_unitary():
    assert delta(u1_with_flavors(1), {"g": (1,)}) == Fraction(1, 2)


def test_delta_orthosymplectic_balanced_current():
    # basic monopole on a balanced USp node has Delta = 1
    q = build_dn_implosion_quiver(3, with_flavor=True)
    charge = {"c1": (0,), "c2": (0,), "c3": (0, 0), "c4": (1, 0)}
    assert delta(q, charge) == 1
    assert delta_ref(q, charge) == 1
    # the rejected half pair weight makes it negative (divergent theory)
    assert delta_ref(q, charge, HALF_PAIR_WEIGHT) == Fraction(-3, 2)


def test_delta_rejects_unknown_charge_keys():
    q = u1_with_flavors(2)
    with pytest.raises(QuiverError, match="'typo'"):
        delta(q, {"g": (1,), "typo": (5,)})
    with pytest.raises(QuiverError, match="'f'"):  # a flavor node has no charge
        delta(q, {"g": (1,), "f": (5,)})
    q = ungauge(build_bouquet_quiver(3), "b1")
    with pytest.raises(QuiverError, match="charge missing for node 'g2'"):
        delta(q, {"g1": (1,)})
    with pytest.raises(QuiverError, match="fixed node 'b1' must carry charge 0"):
        delta(q, {"g1": (0,), "g2": (0, 0), "b1": (1,), "b2": (0,), "b3": (0,)})


def test_delta_rejects_bool_entries():
    q = build_linear_nilpotent_quiver(3)
    assert delta(q, {"g1": (1,), "g2": (0, 0)}) == 1
    with pytest.raises(QuiverError, match="must be integers"):
        delta(q, {"g1": (True,), "g2": (0, 0)})


def test_delta_fixed_nodes_keep_matter():
    q = ungauge(build_bouquet_quiver(2), "b1")
    # chain U(1) at 1, leaf b2 at 0: edge to the fixed b1 still costs 1/2
    assert delta(q, {"g1": (1,), "b2": (0,)}) == 1
    assert delta(q, {"g1": (1,), "b2": (1,)}) == Fraction(1, 2)


# ---------------------------------------------------------------------------
# dressing


def test_dressing_examples():
    # P(m, t), the product over the residual Casimir degrees d of
    # 1/(1 - t^(2d)), as the tree pass expands it: U(2) at (1, 1) keeps
    # U(2), at (1, 0) it breaks to U(1)^2, and the empty product is 1.
    def dressing(g, m, order):
        coeffs = _dressing_coeffs(tuple(dressing_degrees(g, m)), order)
        return TruncatedSeries(order, {e: c for e, c in enumerate(coeffs) if c})
    assert dressing(U(2), (1, 1), 8) == expand_inverse(2, 8) * expand_inverse(4, 8)
    assert dressing(U(2), (1, 0), 8) == expand_inverse(2, 8) * expand_inverse(2, 8)
    assert dressing(SO(1), (), 6) == TruncatedSeries.one(6)
    assert dressing(U(1), (0,), 0) == TruncatedSeries.one(0)


@pytest.mark.parametrize("order", [True, 2.0, 2.5])
def test_non_integer_orders_are_rejected(order):
    builders = [lambda: TruncatedSeries(order, {0: 1}),
                lambda: nilcone_reference_hs(3, order),
                lambda: expand_inverse(1, order),
                lambda: one_minus_power(1, order)]
    for build in builders:
        with pytest.raises(ValueError, match="truncation order must be an integer"):
            build()


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_charges_examples():
    got = enumerate_charges(u1_with_flavors(2), 1)
    assert [c.charges for c in got] == [((0,),), ((-1,),), ((1,),)]
    assert enumerate_charges(u1_with_flavors(2), Fraction(5, 4)) == got
    got = enumerate_charges(u1_with_flavors(2), 0)
    assert [c.charges for c in got] == [((0,),)]
    with pytest.raises(BadTheoryError):
        enumerate_charges(build_bouquet_quiver(3), 1)
    # With no gauge node the one charge is the empty one.
    lone_flavor = Quiver([QuiverNode("f", NodeKind.FLAVOR, U(3))], [])
    for q in (Quiver([], []), lone_flavor):
        assert enumerate_charges(q, 0) == enumerate_charges(q, 2) == [QuiverCharge((), ())]


def test_enumerate_charge_api():
    got = enumerate_charges(u1_with_flavors(2), 2)
    c = got[0]
    assert isinstance(c, QuiverCharge)
    assert c.charge_of("g") == (0,)
    assert c.as_dict() == {"g": (0,)}


def test_enumerate_convergence_guard():
    # Delta >= |m| here, so Delta <= 9 needs the box 9.
    assert len(enumerate_charges(u1_with_flavors(2), 9)) == 19


def test_enumerate_box_is_not_capped():
    # Delta = |m| on U(1) with a U(2) flavor, so Delta <= 70 needs the box 70.
    assert len(enumerate_charges(build_linear_nilpotent_quiver(2), 70)) == 141


@pytest.mark.parametrize("delta_max", [True, "1", 1.0, -1, Fraction(-1, 2),
                                       Fraction(1, 3)],
                         ids=["bool", "str", "float", "negative", "negative-fraction",
                              "third"])
def test_enumerate_rejects_bad_delta_max(delta_max):
    with pytest.raises(ValueError, match="delta_max"):
        enumerate_charges(u1_with_flavors(2), delta_max)


def test_enumerate_deterministic():
    a = enumerate_charges(build_linear_nilpotent_quiver(3), 2)
    b = enumerate_charges(build_linear_nilpotent_quiver(3), 2)
    assert a == b
    deltas = [delta(build_linear_nilpotent_quiver(3), c) for c in a]
    assert all(0 <= d <= 2 for d in deltas)
    assert any(d == 2 for d in deltas)


def u1_chain(n):
    """n U(1) gauge nodes in a line, with a U(1) flavor at each end: the
    mirror of U(1) with n+1 flavors, whose Coulomb branch (the minimal
    nilpotent orbit of sl(n+1)) has (n+1)^2 - 1 moment maps."""
    nodes = [QuiverNode(f"g{i}", NodeKind.GAUGE, U(1)) for i in range(n)]
    nodes += [QuiverNode("fa", NodeKind.FLAVOR, U(1)),
              QuiverNode("fb", NodeKind.FLAVOR, U(1))]
    edges = [("fa", "g0"), (f"g{n - 1}", "fb")]
    edges += [(f"g{i}", f"g{i + 1}") for i in range(n - 1)]
    return Quiver(nodes, edges)


def test_long_chain_does_not_recurse():
    # 1500 nodes is past Python's default recursion limit of 1000: the
    # spanning-tree search and the charge scan must not recurse per node.
    q = u1_chain(1500)
    prob = _Problem(q)
    assert prob.preorder == list(range(1500))
    assert prob.parent == [-1] + list(range(1499))
    assert [c.charges for c in enumerate_charges(q, Fraction(1, 2))] == [
        ((0,),) * 1500]
    s = coulomb_hilbert_series(HSRequest(q, 2))
    assert s.text() == f"1 + {1501 ** 2 - 1}*t^2"


# ---------------------------------------------------------------------------
# Hilbert series


def test_hs_abelian_closed_forms():
    for d in range(1, 6):
        s = coulomb_hilbert_series(HSRequest(u1_with_flavors(d), 20))
        assert s == abelian_closed_form(d, 20)


def test_hs_box_grows_with_the_order():
    # The proven box is at most the order; here it is half of it.
    result = compute_hilbert_series(HSRequest(build_linear_nilpotent_quiver(2), 200))
    assert result.series == abelian_closed_form(2, 200)
    assert result.stats.bound_reached == 100


def test_hs_no_gauge_nodes():
    lone_flavor = Quiver([QuiverNode("f", NodeKind.FLAVOR, U(3))], [])
    assert coulomb_hilbert_series(HSRequest(lone_flavor, 5)) == TruncatedSeries.one(5)
    assert coulomb_hilbert_series(HSRequest(Quiver([], []), 3)) == TruncatedSeries.one(3)


def test_hs_bouquet2():
    s = coulomb_hilbert_series(HSRequest(build_bouquet_quiver(2), 1, ungauge="b1"))
    assert s.coefficient(1) == 4
    # the full series is that of flat quaternionic 2-space, 1/(1-t)^4
    s = coulomb_hilbert_series(HSRequest(build_bouquet_quiver(2), 8, ungauge="b1"))
    flat = expand_inverse(1, 8) ** 4
    assert s == flat


@pytest.mark.parametrize("field, value", [
    ("order", True), ("order", 2.0), ("order", "2"),
])
def test_hs_rejects_non_integer_order_and_max_bound(field, value):
    req = HSRequest(u1_with_flavors(2), 2)._replace(**{field: value})
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
        compute_hilbert_series(req)


def test_hs_requires_ungauge():
    with pytest.raises(DecoupledU1UnresolvedError, match="ungauge"):
        coulomb_hilbert_series(HSRequest(build_bouquet_quiver(3), 2))


def test_hs_nilcone_match():
    for n in (2, 3):
        s = coulomb_hilbert_series(HSRequest(build_linear_nilpotent_quiver(n), 10))
        assert s == nilcone_reference_hs(n, 10)


def test_nilcone_reference_examples():
    assert nilcone_reference_hs(1, 6) == TruncatedSeries.one(6)
    assert nilcone_reference_hs(2, 4) == TruncatedSeries(4, {0: 1, 2: 3, 4: 5})
    assert nilcone_reference_hs(3, 4).coefficient(2) == 8


def test_symmetry_dimension_examples():
    s = coulomb_hilbert_series(HSRequest(build_bouquet_quiver(3), 2, ungauge="b1"))
    assert symmetry_dimension(s) == 28
    s = coulomb_hilbert_series(HSRequest(build_dn_implosion_quiver(3), 2))
    assert symmetry_dimension(s) == 18
    s = coulomb_hilbert_series(HSRequest(u1_with_flavors(2), 2))
    assert symmetry_dimension(s) == 3
    s = coulomb_hilbert_series(HSRequest(build_bouquet_quiver(3), 2, frozenset({"b2"}), "b1"))
    with pytest.raises(EngineError, match="unrefined"):
        symmetry_dimension(s)


def test_hs_ungauging_choice_independent():
    for n, order in ((2, 8), (3, 4)):
        q = build_bouquet_quiver(n)
        picks = ["b1", f"b{n}", "g1"]
        series = [coulomb_hilbert_series(HSRequest(q, order, ungauge=p))
                  for p in picks]
        assert series[0] == series[1] == series[2]


def boxes_past_bound(req):
    """The charges of the box two past the proven bound of ``req`` and of
    the proven box itself, under the same dimension cutoff.  They are
    equal exactly when the larger box would change no coefficient."""
    q = ungauge(req.quiver, req.ungauge) if req.ungauge else req.quiver
    prob = _Problem(q)
    b = compute_hilbert_series(req).stats.bound_reached
    thr4 = 2 * req.order
    return _box_charges(prob, b + 2, thr4), _box_charges(prob, b, thr4)


def test_hs_stability_under_larger_bound():
    for req in (HSRequest(build_linear_nilpotent_quiver(3), 8),
                HSRequest(build_bouquet_quiver(3), 4, ungauge="b1"),
                HSRequest(build_dn_implosion_quiver(3), 4)):
        wider, proven = boxes_past_bound(req)
        assert wider == proven


def test_hs_refined_to_one_matches_unrefined():
    q = build_bouquet_quiver(3)
    refined = coulomb_hilbert_series(
        HSRequest(q, 4, refined=frozenset({"b2", "b3"}), ungauge="b1"))
    plain = coulomb_hilbert_series(HSRequest(q, 4, ungauge="b1"))
    assert refined.substitute_ones() == plain
    assert refined.fugacities == frozenset({"b2", "b3"})
    # The implosion check's two series: the unrefined bouquet to t^2, at
    # any order, and the integral to the order asked.
    for n, order in (2, 8), (3, 6), (4, 4), (3, 1), (3, 0):
        integral, bouquet = implosion_series(n, order)
        assert bouquet == coulomb_hilbert_series(HSRequest(
            build_bouquet_quiver(n), 2, ungauge="b1")), (n, order)
        assert integral == nilcone_reference_hs(n, order), (n, order)
    for bad in -1, True:
        with pytest.raises(SeriesError):
            implosion_series(3, bad)


def test_hs_refined_validation():
    q = build_bouquet_quiver(3)
    with pytest.raises(Exception, match="refine"):
        coulomb_hilbert_series(
            HSRequest(q, 2, refined=frozenset({"b1"}), ungauge="b1"))
    qd = build_dn_implosion_quiver(3)
    with pytest.raises(Exception, match="refine"):
        coulomb_hilbert_series(HSRequest(qd, 2, refined=frozenset({"c1"})))


def test_hs_coefficients_nonnegative_integers():
    for req in (HSRequest(build_linear_nilpotent_quiver(3), 10),
                HSRequest(build_bouquet_quiver(3), 6, ungauge="b1"),
                HSRequest(build_dn_implosion_quiver(3), 6)):
        s = coulomb_hilbert_series(req)
        assert s.coefficient(0) == 1
        assert all(isinstance(c, int) and c >= 0 for c in s.coeffs.values())


def test_half_weight_makes_dn_chain_divergent():
    # The rejected half pair weight, through the brute-force Delta: shell 1
    # of the D3 bouquet and of the D3 flavor chain holds a nonzero charge
    # with Delta <= 0, so the monopole sum would diverge.
    for q in (build_dn_implosion_quiver(3),
              build_dn_implosion_quiver(3, with_flavor=True)):
        assert shell_min_ref(q, 1, HALF_PAIR_WEIGHT) <= 0
        assert shell_min_ref(q, 1) > 0


def test_odd_so_flavor_grading_is_integral():
    # USp(2) with an SO(9) flavor: the zero weight of the odd vector adds
    # |m| per USp entry, and the grading stays integral.
    q = Quiver([QuiverNode("g", NodeKind.GAUGE, USp(2)),
                QuiverNode("f", NodeKind.FLAVOR, SO(9))], [("g", "f")])
    assert delta(q, {"g": (1,)}) == Fraction(5, 2)
    s = coulomb_hilbert_series(HSRequest(q, 4))
    assert s.coefficient(0) == 1


# ---------------------------------------------------------------------------
# orthosymplectic series


def test_dn_bouquet_t2_series():
    expected = {3: 18, 4: 32, 5: 50}
    for n, val in expected.items():
        s = coulomb_hilbert_series(HSRequest(build_dn_implosion_quiver(n), 2))
        assert symmetry_dimension(s) == val == 2 * n * n


def test_dn_chain_flavor_t2_is_so_dimension():
    for n in (2, 3, 4):
        q = build_dn_implosion_quiver(n, with_flavor=True)
        s = coulomb_hilbert_series(HSRequest(q, 2))
        assert symmetry_dimension(s) == n * (2 * n - 1)


def so_nilpotent_cone(n, order):
    """prod_d (1 - t^(2d)) / (1 - t^2)^(n(2n-1)), d = 2, 4, ..., 2n-2, n:
    the Hilbert series of the nilpotent cone of so(2n)."""
    s = TruncatedSeries.one(order)
    for d in list(range(2, 2 * n - 1, 2)) + [n]:
        s = s * one_minus_power(2 * d, order)
    return s * expand_inverse(2, order) ** (n * (2 * n - 1))


def test_dn_flavor_chain_gives_so2n_nilpotent_cone():
    # The D-type chain with its SO(2n) flavor node: the whole series, not
    # only its t^2 coefficient, pins the orthosymplectic matter weights.
    for n, order in ((2, 8), (3, 8), (4, 6), (5, 4)):
        q = build_dn_implosion_quiver(n, with_flavor=True)
        assert coulomb_hilbert_series(HSRequest(q, order)) == \
            so_nilpotent_cone(n, order), n


# ---------------------------------------------------------------------------
# refined integral and the ungauged bouquet's low orders


def test_refined_integral_matches_nilcone():
    for n in (2, 3):
        got = refined_implosion_integral(n, 8)
        assert got == nilcone_reference_hs(n, 8)
    assert refined_implosion_integral(1, 6) == TruncatedSeries.one(6)


@pytest.mark.parametrize("n, order", [(2, 16), (3, 12), (4, 8), (5, 6)])
def test_refined_nilpotent_cone_matches_kostant(n, order):
    # Every gauge node refined: the topological fugacities are the Cartan
    # torus of sl(n), and the series is the adjoint character at t^2 cut
    # by the n - 1 Casimir relations, term by Laurent term.
    q = build_linear_nilpotent_quiver(n)
    got = coulomb_hilbert_series(HSRequest(
        q, order, refined=frozenset(node.id for node in q.gauge_nodes)))
    assert got == kostant_nilcone_series(n, order)
    assert got.fugacities == frozenset(node.id for node in q.gauge_nodes)


def test_constant_terms_of_refined_u1s_ungauge_them():
    # Refining r U(1) nodes, multiplying by (1 - t^2)^r and taking the
    # constant terms is ungauging them: on a partial implosion's leg ends,
    # and on the bouquet, where it makes the integral the chain check.
    q = build_partial_implosion_quiver(4, [2, 1, 1])
    ends = ["l1_1", "l2_1", "l3_1"]
    s = coulomb_hilbert_series(HSRequest(q, 6, refined=frozenset(ends[1:]), ungauge=ends[0]))
    s = s * one_minus_power(2, 6) ** 2
    for name in ends[1:]:
        s = s.constant_term(name)
    pinned = q
    for name in ends[1:]:
        pinned = ungauge(pinned, name)
    assert s == coulomb_hilbert_series(HSRequest(pinned, 6, ungauge=ends[0]))
    for n in (3, 4):
        assert refined_implosion_integral(n, 6) == coulomb_hilbert_series(
            HSRequest(build_linear_nilpotent_quiver(n), 6))


def bouquet_constant_terms(n, order, e):
    """The constant terms of the refined bouquet(n) series, leaf b1
    ungauged, times (1 - t^2)^e."""
    leaves = bouquet_leaf_ids(n)
    s = coulomb_hilbert_series(HSRequest(
        build_bouquet_quiver(n), order, refined=frozenset(leaves[1:]),
        ungauge=leaves[0])) * one_minus_power(2, order) ** e
    for name in leaves[1:]:
        s = s.constant_term(name)
    return s


def test_refined_integral_takes_constant_terms_before_the_prefactor():
    # (1 - t^2)^(n-1) carries no fugacity, so the constant terms of the
    # refined series times it are the constant terms times it, at one
    # truncation.
    # The integral is computed as the chain's series, so this pins the
    # refined bouquet's constant terms to it, at the implosion check's
    # sizes too.
    for n, order in ((2, 8), (3, 8), (3, 12), (4, 8)):
        assert refined_implosion_integral(n, order) == \
            bouquet_constant_terms(n, order, n - 1), (n, order)


def test_refined_integral_negative_control():
    assert bouquet_constant_terms(3, 6, 4) != nilcone_reference_hs(3, 6)


def test_refined_integral_of_one_leaf_solves_nothing(monkeypatch):
    import coulomb_hs.engine as engine

    def solve(req, counted):
        raise AssertionError("solved")
    monkeypatch.setattr(engine, "_hilbert_series", solve)
    with pytest.raises(ValueError, match="need n >= 1"):
        refined_implosion_integral(0, 4)
    assert refined_implosion_integral(1, 4) == TruncatedSeries.one(4)


def test_ungauged_bouquet_t2_and_basic_monopoles():
    # t^2 is the dimension of the implosion's symmetry: n^2+n-2, enhanced to
    # Sp(2) and SO(8) at n = 2, 3.  The 2n basic monopoles (leaf b_i at +-1
    # for i >= 2, every gauge node at +-(1, ..., 1)) have Delta = (n-1)/2.
    for n, t2 in (2, 10), (3, 28), (4, 18), (5, 28), (6, 40):
        s = coulomb_hilbert_series(HSRequest(build_bouquet_quiver(n), 2, ungauge="b1"))
        assert s.coefficient(2) == t2, n
        if n == 2:
            assert s.coefficient(1) == 4
        q = ungauge(build_bouquet_quiver(n), "b1")
        ranks = {node.id: node.group.rank for node in q.gauge_nodes}
        zero = {nid: (0,) * r for nid, r in ranks.items()}
        basic = [{**zero, leaf: (sign,)} for leaf in bouquet_leaf_ids(n)[1:]
                 for sign in (1, -1)]
        basic += [{nid: (sign,) * r for nid, r in ranks.items()} for sign in (1, -1)]
        assert len(basic) == 2 * n
        assert all(delta(q, m) == Fraction(n - 1, 2) for m in basic), n


def test_unitary_edge_multiplicity():
    double = Quiver([QuiverNode("a", NodeKind.GAUGE, U(1)),
                     QuiverNode("b", NodeKind.GAUGE, U(2))],
                    [("a", "b"), ("a", "b")])
    assert delta(double, {"a": (1,), "b": (0, 0)}) == 2
    from coulomb_hs.quiver import node_balance

    assert node_balance(double, "a") == -2 + 2 * 2


def test_ortho_edge_multiplicity_rejected():
    from coulomb_hs.engine import UnsupportedEdgeError

    q = Quiver([QuiverNode("a", NodeKind.GAUGE, SO(2)),
                QuiverNode("b", NodeKind.GAUGE, USp(2))],
               [("a", "b"), ("a", "b")])
    with pytest.raises(UnsupportedEdgeError):
        delta(q, {"a": (0,), "b": (0,)})


# ---------------------------------------------------------------------------
# independent brute-force oracles (no engine code paths shared)


def test_oracle_u2_with_flavors():
    # U(2) with F flavors: dominant (m1 >= m2), 2*Delta = -2|m1-m2| +
    # F(|m1|+|m2|), residual U(2) on the diagonal else U(1)^2.
    def brute(F, K):
        acc = [0] * (K + 1)
        B = K + 2
        for m1 in range(-B, B + 1):
            for m2 in range(-B, m1 + 1):
                d2 = -2 * abs(m1 - m2) + F * (abs(m1) + abs(m2))
                if d2 > K:
                    continue
                degrees = (1, 2) if m1 == m2 else (1, 1)
                dress = [0] * (K + 1)
                dress[0] = 1
                for d in degrees:
                    for e in range(2 * d, K + 1):
                        dress[e] += dress[e - 2 * d]
                for e in range(0, K + 1 - d2):
                    acc[d2 + e] += dress[e]
        return acc

    for F in (4, 5):
        q = Quiver([QuiverNode("g", NodeKind.GAUGE, U(2)),
                    QuiverNode("f", NodeKind.FLAVOR, U(F))], [("g", "f")])
        s = coulomb_hilbert_series(HSRequest(q, 6))
        expected = brute(F, 6)
        assert [s.coefficient(k) for k in range(7)] == expected


def test_oracle_so2_usp2_chain():
    # SO(2)-USp(2) chain with an SO(4) flavor on the USp node.  By the
    # identity (|x+y|+|x-y|)/2 = max(|x|,|y|), Delta = max(|a|, s).
    K = 6
    acc = [0] * (K + 1)
    B = K + 2
    for a in range(-B, B + 1):
        for s in range(0, B + 1):
            d2 = 2 * max(abs(a), s)
            if d2 > K:
                continue
            degrees = [1]  # SO(2) torus
            degrees.append(2 if s == 0 else 1)
            dress = [0] * (K + 1)
            dress[0] = 1
            for d in degrees:
                for e in range(2 * d, K + 1):
                    dress[e] += dress[e - 2 * d]
            for e in range(0, K + 1 - d2):
                acc[d2 + e] += dress[e]
    q = build_dn_implosion_quiver(2, with_flavor=True)
    s = coulomb_hilbert_series(HSRequest(q, K))
    assert [s.coefficient(k) for k in range(K + 1)] == acc
    assert s.coefficient(2) == 6  # dim SO(4)


def affine_a2_triangle():
    """Three U(1) nodes in a cycle, with "a" ungauged."""
    nodes = [QuiverNode(i, NodeKind.GAUGE, U(1)) for i in "abc"]
    return ungauge(Quiver(nodes, [("a", "b"), ("b", "c"), ("c", "a")]), "a")


def test_cycle_gives_sl3_minimal_orbit():
    # The triangle is a non-tree graph, though the engine sees the pinned a
    # as a flavor of b and c; its Coulomb branch is the sl3 minimal
    # nilpotent orbit, HS = sum_k dim V(k theta) t^(2k) = sum (k+1)^3 t^(2k).
    s = coulomb_hilbert_series(HSRequest(affine_a2_triangle(), 8))
    assert [s.coefficient(k) for k in range(9)] == [1, 0, 8, 0, 27, 0, 64, 0, 125]


def weyl_dimension(positive_roots, rho, highest) -> int:
    """Weyl: dim V(highest) = prod over positive a of (highest + rho, a) / (rho, a)."""
    num = den = 1
    for a in positive_roots:
        num *= sum((h + r) * x for h, r, x in zip(highest, rho, a))
        den *= sum(r * x for r, x in zip(rho, a))
    assert num % den == 0
    return num // den


def minimal_orbit_series(positive_roots, rho, theta, order) -> list:
    """Coefficients of sum_k dim V(k theta) t^(2k) up to t^order."""
    return [weyl_dimension(positive_roots, rho, [k // 2 * x for x in theta])
            if k % 2 == 0 else 0 for k in range(order + 1)]


def type_a(n):
    """sl(n) in R^n: roots e_i - e_j, rho, theta = e_1 - e_n."""
    roots = [[(k == i) - (k == j) for k in range(n)]
             for i in range(n) for j in range(i + 1, n)]
    theta = [(k == 0) - (k == n - 1) for k in range(n)]
    return roots, list(range(n - 1, -1, -1)), theta


def type_d(n):
    """so(2n) in R^n: roots e_i +- e_j, rho, theta = e_1 + e_2."""
    roots = [[(k == i) + s * (k == j) for k in range(n)]
             for i in range(n) for j in range(i + 1, n) for s in (1, -1)]
    theta = [int(k < 2) for k in range(n)]
    return roots, list(range(n - 1, -1, -1)), theta


def positive_roots_of(cartan):
    """Positive roots of a Cartan matrix, as simple-root coefficients, built
    height by height from the root strings: beta + alpha_i is a root
    exactly when p - <beta, alpha_i> > 0, where beta - p alpha_i starts the
    alpha_i-string through beta."""
    r = len(cartan)
    simple = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    roots, layer = set(simple), simple
    while layer:
        nxt = set()
        for beta in layer:
            for i in range(r):
                p = 0
                while tuple(b - (p + 1) * (j == i) for j, b in enumerate(beta)) in roots:
                    p += 1
                pairing = sum(beta[j] * cartan[j][i] for j in range(r))
                if p - pairing > 0:
                    nxt.add(tuple(b + (j == i) for j, b in enumerate(beta)))
        roots |= nxt
        layer = sorted(nxt)
    return sorted(roots, key=lambda a: (sum(a), a))


def type_e(n):
    """E_n (n = 6, 7, 8) in the simple-root basis.  A simply-laced algebra
    pairs a weight given by Dynkin labels with a root given by simple-root
    coefficients as the plain dot product, so rho is all ones and theta is
    the Cartan matrix applied to the highest root."""
    # Bourbaki: the chain 1-3-4-...-n with node 2 on node 4.
    links = {(0, 2), (1, 3)} | {(i, i + 1) for i in range(2, n - 1)}
    cartan = [[2 if i == j else -int((i, j) in links or (j, i) in links)
               for j in range(n)] for i in range(n)]
    roots = positive_roots_of(cartan)
    highest = roots[-1]
    theta = [sum(a * c for a, c in zip(row, highest)) for row in cartan]
    return roots, [1] * n, theta


def affine_a_cycle(n, pin=0):
    """n U(1) nodes u0..u(n-1) in a cycle, with node ``pin`` ungauged."""
    ids = [f"u{i}" for i in range(n)]
    nodes = [QuiverNode(i, NodeKind.GAUGE, U(1)) for i in ids]
    edges = [(ids[i], ids[(i + 1) % n]) for i in range(n)]
    return ungauge(Quiver(nodes, edges), ids[pin])


def flavored_ring(n):
    """n U(1) nodes in a cycle with a U(1) flavor on u0 and nothing pinned,
    so the cycle stays closed.  Its mirror is U(1) with n hypers of charge
    1 and one of charge 0, so its Coulomb branch is the sl(n) minimal
    orbit times C^2: HS = minimal orbit series / (1 - t)^2."""
    ids = [f"u{i}" for i in range(n)]
    nodes = [QuiverNode(i, NodeKind.GAUGE, U(1)) for i in ids]
    nodes.append(QuiverNode("f", NodeKind.FLAVOR, U(1)))
    return Quiver(nodes, [(ids[i], ids[(i + 1) % n]) for i in range(n)] + [("u0", "f")])


def flavored_ring_series(n, order) -> list:
    """The coefficients of ``flavored_ring(n)``'s series up to t^order."""
    orbit = minimal_orbit_series(*type_a(n), order)
    return [sum(orbit[j] * (k - j + 1) for j in range(k + 1)) for k in range(order + 1)]


def affine_d4():
    """U(2) with four U(1) nodes, one of them ungauged."""
    nodes = [QuiverNode("c", NodeKind.GAUGE, U(2))]
    nodes += [QuiverNode(f"l{i}", NodeKind.GAUGE, U(1)) for i in range(4)]
    return ungauge(Quiver(nodes, [("c", f"l{i}") for i in range(4)]), "l0")


def affine_dynkin_quiver(ranks, links):
    """Unitary quiver on an affine Dynkin diagram: node i is U(ranks[i]),
    and node 0, the affine node, is a U(1) and is ungauged."""
    ids = [f"n{i}" for i in range(len(ranks))]
    nodes = [QuiverNode(i, NodeKind.GAUGE, U(r)) for i, r in zip(ids, ranks)]
    return ungauge(Quiver(nodes, [(ids[a], ids[b]) for a, b in links]), ids[0])


def affine_d(n):
    """Affine D_n: the U(2) chain n2..n(n-2) with U(1) pairs at both ends."""
    chain = [(i, i + 1) for i in range(2, n - 2)]
    return affine_dynkin_quiver([1, 1] + [2] * (n - 3) + [1, 1],
                                [(0, 2), (1, 2)] + chain + [(n - 2, n - 1), (n - 2, n)])


def affine_e7():
    """Affine E7: the chain 1-2-3-4-3-2-1 with a U(2) on the U(4)."""
    return affine_dynkin_quiver([1, 2, 3, 4, 3, 2, 1, 2],
                                [(i, i + 1) for i in range(6)] + [(3, 7)])


def affine_e8():
    """Affine E8: the chain 1-2-3-4-5-6-4-2 with a U(3) on the U(6)."""
    return affine_dynkin_quiver([1, 2, 3, 4, 5, 6, 4, 2, 3],
                                [(i, i + 1) for i in range(7)] + [(5, 8)])


def test_affine_quivers_give_minimal_orbits():
    # Affine ADE quivers have the minimal nilpotent orbit of the finite
    # algebra as Coulomb branch: HS = sum_k dim V(k theta) t^(2k)
    # (Benvenuti-Hanany-Mekareeya, arXiv:1005.3026).
    assert minimal_orbit_series(*type_a(3), 8) == [1, 0, 8, 0, 27, 0, 64, 0, 125]
    for n, roots, theta in ((6, 36, [0, 1, 0, 0, 0, 0]),
                            (7, 63, [1, 0, 0, 0, 0, 0, 0]),
                            (8, 120, [0, 0, 0, 0, 0, 0, 0, 1])):
        e_roots, _, e_theta = type_e(n)
        assert (len(e_roots), e_theta) == (roots, theta)
    e6 = ungauge(build_partial_implosion_quiver(4, [2, 2]), "l1_1")
    for q, algebra, order, head in (
            (affine_a_cycle(4), type_a(4), 8, [1, 15, 84, 300, 825]),
            (affine_a_cycle(5), type_a(5), 6, [1, 24, 200, 1000]),
            (affine_d4(), type_d(4), 8, [1, 28, 300, 1925, 8918]),
            (affine_d(5), type_d(5), 6, [1, 45, 770, 7644]),
            (affine_d(6), type_d(6), 6, [1, 66, 1638, 23100]),
            (e6, type_e(6), 6, [1, 78, 2430, 43758]),
            (e6, type_e(6), 10, [1, 78, 2430, 43758, 537966, 4969107]),
            (affine_e7(), type_e(7), 4, [1, 133, 7371]),
            (affine_e8(), type_e(8), 4, [1, 248, 27000])):
        want = minimal_orbit_series(*algebra, order)
        assert want[::2] == head
        s = coulomb_hilbert_series(HSRequest(q, order))
        assert [s.coefficient(k) for k in range(order + 1)] == want


def test_shell_minimum_is_linear_in_the_shell():
    # The proven box rests on min over shell b of Delta being b times the
    # shell-1 minimum c; the search box is then 2K // (4c), and c <= 0
    # marks a bad theory.
    fixed_u1 = u2_doubled_to_fixed_u1()
    bad_u2 = Quiver([QuiverNode("g", NodeKind.GAUGE, U(2)),
                     QuiverNode("f", NodeKind.FLAVOR, U(1))], [("g", "f")])
    order = 6
    negative = 0
    for q in (affine_a2_triangle(), ungauge(build_bouquet_quiver(3), "b1"),
              build_linear_nilpotent_quiver(3),
              build_dn_implosion_quiver(2, with_flavor=True), fixed_u1, bad_u2):
        c = shell_min_ref(q, 1)
        assert shell_min_ref(q, 2) == 2 * c
        req = HSRequest(q, order)
        if c <= 0:
            negative += 1
            with pytest.raises(BadTheoryError):
                compute_hilbert_series(req)
        else:
            stats = compute_hilbert_series(req).stats
            assert stats.bound_reached == 2 * order // int(4 * c)
    assert negative == 1  # U(2) with one flavor


def test_delta_matches_reference():
    # Every matter family, a fixed node, a doubled edge and a cycle in each
    # family, against Delta rebuilt from liedata alone.
    unitary = ungauge(Quiver(
        [QuiverNode("a", NodeKind.GAUGE, U(1)), QuiverNode("b", NodeKind.GAUGE, U(2)),
         QuiverNode("c", NodeKind.GAUGE, U(1)), QuiverNode("f", NodeKind.FLAVOR, U(3))],
        [("a", "b"), ("a", "b"), ("b", "c"), ("c", "a"), ("b", "f")]), "c")
    ortho = Quiver(
        [QuiverNode("s2", NodeKind.GAUGE, SO(2)), QuiverNode("p4", NodeKind.GAUGE, USp(4)),
         QuiverNode("s5", NodeKind.GAUGE, SO(5)), QuiverNode("p2", NodeKind.GAUGE, USp(2)),
         QuiverNode("s4", NodeKind.GAUGE, SO(4)),
         QuiverNode("fo", NodeKind.FLAVOR, SO(7)), QuiverNode("fe", NodeKind.FLAVOR, SO(6)),
         QuiverNode("fp", NodeKind.FLAVOR, USp(2))],
        [("s2", "p4"), ("p4", "s5"), ("s5", "p2"), ("p2", "s2"), ("p2", "s4"),
         ("p4", "fo"), ("p2", "fe"), ("s5", "fp"), ("s4", "fp")])
    rng = random.Random(7)
    for q in (unitary, ortho):
        for _ in range(160):
            charge = {n.id: rng.choice(dominant_charges(n.group, 3))
                      for n in q.gauge_nodes}
            assert delta(q, charge) == delta_ref(q, charge), charge


def test_hs_matches_unpruned_box_sum():
    # The pruned shell search against a plain sum over every dominant
    # charge in the box two shells past the bound it stopped at.
    fixed_u1 = u2_doubled_to_fixed_u1()
    for q, order in ((affine_a2_triangle(), 8),
                     (ungauge(build_bouquet_quiver(2), "b1"), 6),
                     (build_linear_nilpotent_quiver(3), 6),
                     (build_dn_implosion_quiver(2, with_flavor=True), 6),
                     (fixed_u1, 6)):
        result = compute_hilbert_series(HSRequest(q, order))
        want = hs_ref(q, order, result.stats.bound_reached + 2)
        assert [result.series.coefficient(k) for k in range(order + 1)] == want


def test_refined_hs_matches_unpruned_box_sum():
    # The topological grading, term by term: U(1) leaves, a U(2) node whose
    # charges such as (1, -1) have topological charge 0, and a fixed node.
    # The box is one past the proven one: bouquet(3) has 9604 charges there.
    for q, order, refined in ((ungauge(build_bouquet_quiver(3), "b1"), 4, ("b2", "b3")),
                              (build_linear_nilpotent_quiver(3), 8, ("g2",)),
                              (u2_doubled_to_fixed_u1(), 6, ("g",))):
        result = compute_hilbert_series(HSRequest(q, order, refined=frozenset(refined)))
        want = hs_ref(q, order, result.stats.bound_reached + 1, refined=refined)
        got = [topological_counts(result.series.coefficient(k), refined)
               for k in range(order + 1)]
        assert got == want, q


def affine_a3_square():
    """Four U(1) nodes in a cycle, with "a0" ungauged."""
    nodes = [QuiverNode(f"a{i}", NodeKind.GAUGE, U(1)) for i in range(4)]
    return ungauge(Quiver(nodes, [(f"a{i}", f"a{(i + 1) % 4}") for i in range(4)]), "a0")


def test_tree_is_rooted_at_its_first_preferred_node():
    # bouquet(3) beside a ring with a flavor and nothing pinned: the tree
    # component is rooted at the first preferred node it holds, the pinned
    # b1 is a root of its own, and the ring, whose cycle stays closed, at
    # its first node with the same spanning tree and cutset as without a
    # preference.
    bouquet, ring = ungauge(build_bouquet_quiver(3), "b1"), flavored_ring(3)
    q = Quiver(bouquet.nodes + ring.nodes, bouquet.edges + ring.edges)
    plain, prob = _Problem(q), _Problem(q, ["u2", "b3", "b2"])
    assert [plain.nodes[r].id for r in plain.roots] == ["g1", "b1", "u0"]
    assert [prob.nodes[r].id for r in prob.roots] == ["b3", "b1", "u0"]
    b3, g2 = prob.index["b3"], prob.index["g2"]
    assert prob.parent[g2] == b3 and prob.children[b3] == [g2]
    assert sorted(prob.preorder) == list(range(len(prob.nodes)))
    cycle = [prob.index[f"u{i}"] for i in range(3)]
    assert any(prob.nontree[v] for v in cycle)
    for attr in ("parent", "parent_edge", "children", "nontree"):
        mine, theirs = getattr(prob, attr), getattr(plain, attr)
        assert [mine[v] for v in cycle] == [theirs[v] for v in cycle], attr


def test_refined_sum_prefers_the_widest_refined_node(monkeypatch):
    # Largest rank first, since a digit's width grows with the rank; ties
    # keep sorted order.  An unrefined sum has no preference.
    import coulomb_hs.engine as engine
    seen = []

    class Recorded(_Problem):
        def __init__(self, quiver, preferred=()):
            seen.append(list(preferred))
            super().__init__(quiver, preferred)
    monkeypatch.setattr(engine, "_Problem", Recorded)
    for q, refined, want in ((build_linear_nilpotent_quiver(3), {"g1", "g2"}, ["g2", "g1"]),
                             (ungauge(build_bouquet_quiver(3), "b1"), {"b3", "b2"},
                              ["b2", "b3"]),
                             (build_linear_nilpotent_quiver(3), set(), [])):
        seen.clear()
        compute_hilbert_series(HSRequest(q, 2, refined=frozenset(refined)))
        assert seen == [want]


def test_refined_series_is_independent_of_node_order():
    q = build_bouquet_quiver(3)
    refined = frozenset({"b2", "b3"})
    want = compute_hilbert_series(HSRequest(q, 8, refined=refined, ungauge="b1"))
    nodes = list(q.nodes)
    for k in range(1, len(nodes)):
        rotated = Quiver(nodes[k:] + nodes[:k], q.edges)
        got = compute_hilbert_series(HSRequest(rotated, 8, refined=refined, ungauge="b1"))
        assert got.series == want.series, k
        assert got.stats.charge_count == want.stats.charge_count, k


def test_refined_cycle_matches_unpruned_box_sum():
    # A refined node on a cycle: the component keeps its first node as the
    # root, which heads the cutset, so the refined digits pass through the
    # messages.  On the square pinned at a0 the pinned node opens the
    # cycle, so the same refinements run on a path.  The box is one past
    # the proven one.
    ring = flavored_ring(4)
    assert any(_Problem(ring).nontree)
    for q, order, ids in ((ring, 6, ("u2",)), (ring, 6, ("u1",)), (ring, 6, ("u1", "u3")),
                          (affine_a3_square(), 8, ("a2",)), (affine_a3_square(), 8, ("a1",)),
                          (affine_a3_square(), 8, ("a1", "a3"))):
        result = compute_hilbert_series(HSRequest(q, order, refined=frozenset(ids)))
        want = hs_ref(q, order, result.stats.bound_reached + 1, refined=ids)
        got = [topological_counts(result.series.coefficient(k), ids)
               for k in range(order + 1)]
        assert got == want, ids


def k4_two_node_cutset():
    """K4 of U(1) nodes with a U(2) flavor on "a" and nothing pinned: the
    spanning tree is the path a-b-c-d, and the three other edges close
    cycles at a, a and b, so the sum conditions on the charges of two
    nodes.  A pinned node would be a flavor and open the cycles through
    it."""
    ids = "abcd"
    nodes = [QuiverNode(i, NodeKind.GAUGE, U(1)) for i in ids]
    nodes.append(QuiverNode("f", NodeKind.FLAVOR, U(2)))
    edges = [(x, y) for k, x in enumerate(ids) for y in ids[k + 1:]] + [("a", "f")]
    return Quiver(nodes, edges)


def test_two_node_cutset_matches_unpruned_box_sum():
    q = k4_two_node_cutset()
    prob = _Problem(q)
    cutset = {prob.nodes[u].id for late in prob.nontree for u, _ in late}
    assert cutset == {"a", "b"}
    order = 8
    for refined in ((), ("b",), ("a", "c")):
        result = compute_hilbert_series(HSRequest(q, order, refined=frozenset(refined)))
        want = hs_ref(q, order, result.stats.bound_reached + 1,
                      refined=refined or None)
        got = [result.series.coefficient(k) for k in range(order + 1)]
        if refined:
            got = [topological_counts(c, refined) for c in got]
        assert got == want, refined


def test_cyclic_enumeration_matches_brute_force():
    # The charge search runs once per cutset assignment: on a ring with a
    # flavor, on the two-node cutset and on a triangle opened by its pinned
    # node, its charges are exactly the dominant charges with Delta <= 3 in
    # the box two past the proven one, shell by shell.
    for q, count in ((flavored_ring(3), 145), (k4_two_node_cutset(), 69),
                     (affine_a2_triangle(), 37)):
        got = enumerate_charges(q, 3)
        bound = compute_hilbert_series(HSRequest(q, 6)).stats.bound_reached
        ids = [n.id for n in q.gauge_nodes]
        want = {combo for combo in product(*(dominant_charges(q.node(i).group, bound + 2)
                                             for i in ids))
                if delta_ref(q, dict(zip(ids, combo))) <= 3}
        assert {tuple(c.charge_of(i) for i in ids) for c in got} == want
        assert len(got) == count

        def shell(c):
            return max(abs(x) for x in chain.from_iterable(c.charges))
        assert got == sorted(got, key=lambda c: (shell(c), c.charges))


def test_edge_table_matches_reference():
    # The prefix-trie kernel against the matter term rebuilt from liedata
    # alone, cell by cell, with either endpoint as the parent: unitary
    # edges of multiplicity 1 and 2, SO(2)-, SO(even)- and SO(odd)-USp
    # edges, the edges of a cycle, including the one its cutset conditions
    # on, and the flavor edges that make up the node terms: an edge to a
    # fixed node, which is a flavor, a doubled U(1) flavor and an SO(3)
    # flavor on a USp node.
    unitary = ungauge(Quiver(
        [QuiverNode("a", NodeKind.GAUGE, U(1)), QuiverNode("b", NodeKind.GAUGE, U(2)),
         QuiverNode("c", NodeKind.GAUGE, U(3)), QuiverNode("d", NodeKind.GAUGE, U(1)),
         QuiverNode("f", NodeKind.FLAVOR, U(1))],
        [("a", "b"), ("b", "c"), ("b", "c"), ("c", "d"), ("d", "b"),
         ("c", "f"), ("c", "f")]), "a")
    ortho = Quiver(
        [QuiverNode("s2", NodeKind.GAUGE, SO(2)), QuiverNode("p2", NodeKind.GAUGE, USp(2)),
         QuiverNode("s4", NodeKind.GAUGE, SO(4)), QuiverNode("p4", NodeKind.GAUGE, USp(4)),
         QuiverNode("s5", NodeKind.GAUGE, SO(5)), QuiverNode("s3", NodeKind.GAUGE, SO(3)),
         QuiverNode("f3", NodeKind.FLAVOR, SO(3))],
        [("s2", "p2"), ("p2", "s4"), ("s4", "p4"), ("p4", "s5"), ("s3", "p2"),
         ("p4", "f3")])
    families = set()
    for q in (unitary, ortho):
        prob = _Problem(q)
        groups = [nd.group for nd in prob.nodes]
        flavor = {prob.index[g]: q.node(f).group for edge in q.edges
                  for g, f in (edge, edge[::-1]) if q.node(f).kind is not NodeKind.GAUGE}
        assert not any(prob.nodes[v].fixed for e in prob.edges for v in (e.a, e.b))
        edges = [(e, groups[e.b]) for e in prob.edges]
        edges += [(f, flavor[v]) for v, nd in enumerate(prob.nodes) for f in nd.flavor]
        for e, gb in edges:
            ga = groups[e.a]
            families.add((e.ortho, e.mult, e.b < 0,
                           e.ortho and (ga if e.so_first else gb).n))
        for b in range(4):
            cands = [[(0,) * nd.rank] if nd.fixed else dominant_charges(nd.group, b)
                     for nd in prob.nodes]
            for e, gb in edges:
                ends = [(e.a, e.b)] if e.b < 0 else [(e.a, e.b), (e.b, e.a)]
                for p, v in ends:
                    cv = [e.zero] if v < 0 else cands[v]
                    want = [[e.mult * quarter_units(matter_term(
                        *((ga, x, gb, y) if p == e.a else (ga, y, gb, x))))
                        for y in cv] for x in cands[p]]
                    assert _edge_table(prob, e, p, cands[p], cv) == want, (b, p, v)
    assert families == {(False, 1, True, False), (False, 2, False, False),
                        (False, 1, False, False), (True, 1, False, 2),
                        (True, 1, False, 4), (True, 1, False, 5), (True, 1, False, 3),
                        (False, 2, True, False), (True, 1, True, 3)}
    prob = _Problem(unitary)
    assert [(prob.nodes[u].id, prob.nodes[v].id)
            for v, late in enumerate(prob.nontree) for u, _ in late] == [("b", "d")]
    assert [f.mult for f in prob.nodes[prob.index["b"]].flavor] == [1]  # the fixed a


def test_box_b_keeps_only_candidates_within_their_floors():
    # Box B's lists keep the candidates whose floor is within the cutoff,
    # so the tree edges' tables shrink: wide-bouquet (bouquet(5), b1
    # ungauged, K = 4) 1794 -> 340 cells, ortho-d5 (dn(5) with its flavor,
    # K = 6) 3902 -> 284 and nilcone(7) at K = 8 398 734 -> 3 978, while
    # affine E6 at K = 6, whose floors are all c4, keeps its 3608.  The
    # series are unchanged: ortho-d5 has 10630 charges, and nilcone(7),
    # here on the tree pass, is Kostant's series.
    cases = ((ungauge(build_bouquet_quiver(5), "b1"), 4, 340),
             (build_dn_implosion_quiver(5, with_flavor=True), 6, 284),
             (build_linear_nilpotent_quiver(7), 8, 3978),
             (ungauge(build_partial_implosion_quiver(4, [2, 2]), "l1_1"), 6, 3608))
    for q, order, cells in cases:
        prob = _Problem(q)
        cands = _candidates(prob, _proven_box(prob, 2 * order), 2 * order)
        _, etab, _ = _box_tables(prob, cands)
        assert sum(len(tab) * len(tab[0]) for tab in etab if tab) == cells, q
    _, _, counts = solve_on_tree(HSRequest(cases[1][0], 6))
    assert sum(counts.values()) == 10630
    series, _, _ = solve_on_tree(HSRequest(cases[2][0], 8), counted=False)
    assert series == nilcone_reference_hs(7, 8)


def test_equal_kept_lists_are_one_object():
    # U(1) a with one flavor and U(1) b with two, joined: floors [0, 4] and
    # [0, 6], so c4 = 4.  At K = 3 (box 1) neither floor test can drop a
    # charge, and the two equal lists are one object, as the table memo
    # and the conjugation maps need; at K = 2 b keeps only its charge 0.
    q = Quiver([QuiverNode("a", NodeKind.GAUGE, U(1)), QuiverNode("b", NodeKind.GAUGE, U(1)),
                QuiverNode("fa", NodeKind.FLAVOR, U(1)), QuiverNode("fb", NodeKind.FLAVOR, U(2))],
               [("a", "b"), ("a", "fa"), ("b", "fb")])
    prob = _Problem(q)
    assert prob.floors == [[0, 4], [0, 6]]
    a, b = _candidates(prob, _proven_box(prob, 6), 6)
    assert a == [(1,), (0,), (-1,)] and a is b
    a, b = _candidates(prob, _proven_box(prob, 4), 4)
    assert a == [(1,), (0,), (-1,)] and b == [(0,)]


def test_edge_tables_are_shared_per_edge_type():
    # The four U(1) leaves of the bouquet hang off one U(4) node and share
    # one candidate list, so their tree edges share one table; sharing
    # does not change a cell.
    prob = _Problem(ungauge(build_bouquet_quiver(5), "b1"))
    cands = _candidates(prob, _proven_box(prob, 8))
    _, etab, _ = _box_tables(prob, cands)
    leaves = [prob.index[f"b{i}"] for i in range(2, 6)]
    assert len({id(cands[v]) for v in leaves}) == 1
    assert len({id(etab[v]) for v in leaves}) == 1
    for v in leaves:
        p = prob.parent[v]
        fresh = _edge_table(prob, prob.edges[prob.parent_edge[v]], p,
                            list(cands[p]), list(cands[v]))
        assert etab[v] == fresh and etab[v] is not fresh


def test_reversed_edge_type_reuses_its_table_transposed(monkeypatch):
    # An edge type met from its other end takes the transpose of the table
    # already built: SO(3)-USp(2)-SO(3) rooted at an end, and bouquet(3)
    # rooted at the leaf b2, whose U(2) node is the parent of two U(1)s.
    import coulomb_hs.engine as engine
    built = []

    def counted(*args):
        built.append(args)
        return _edge_table(*args)
    monkeypatch.setattr(engine, "_edge_table", counted)
    chain_q = Quiver([QuiverNode("s", NodeKind.GAUGE, SO(3)),
                      QuiverNode("p", NodeKind.GAUGE, USp(2)),
                      QuiverNode("t", NodeKind.GAUGE, SO(3))], [("s", "p"), ("p", "t")])
    for prob, tables in ((_Problem(chain_q), 1),
                         (_Problem(ungauge(build_bouquet_quiver(3), "b1"), ["b2"]), 2)):
        cands = _candidates(prob, 2)
        built.clear()
        _, etab, _ = _box_tables(prob, cands)
        assert len(built) == tables
        for v, p in enumerate(prob.parent):
            if p >= 0:
                assert etab[v] == _edge_table(prob, prob.edges[prob.parent_edge[v]], p,
                                              cands[p], cands[v])


def test_cycle_edges_reuse_the_tree_tables(monkeypatch):
    # One memo per box serves the tree edges and the edge that closes the
    # cycle: on a ring of four U(1)s with a flavor, the U(1)-U(1) table of
    # each box is built once, after the flavor's column.  On affine A3 the
    # pinned node is a flavor of its two neighbours, which share its column.
    # Box 1 is the 0/1 charges (0,) and (1,); box B keeps every U(1)
    # candidate, since a U(1) charge has spread 0.
    import coulomb_hs.engine as engine
    built = []

    def counted(prob, e, p, cands_p, cands_v):
        built.append((len(cands_p), len(cands_v)))
        return _edge_table(prob, e, p, cands_p, cands_v)
    monkeypatch.setattr(engine, "_edge_table", counted)
    assert any(_Problem(flavored_ring(4)).nontree)
    s, _, _ = solve_on_tree(HSRequest(flavored_ring(4), 10), counted=False)
    assert built == [(2, 1), (2, 2), (21, 1), (21, 21)]
    assert [s.coefficient(k) for k in range(11)] == flavored_ring_series(4, 10)
    built.clear()
    s, _, _ = solve_on_tree(HSRequest(affine_a_cycle(4), 10), counted=False)
    assert built == [(2, 1), (2, 2), (11, 1), (11, 11)]
    assert [s.coefficient(k) for k in range(11)] == minimal_orbit_series(*type_a(4), 10)


def test_pinned_node_opens_the_cycle_through_it(monkeypatch):
    # A ring of six U(1)s pinned at u3: u3 is a flavor of u2 and u4, so the
    # ring opens into a path with no cutset, and u3 is a root of its own
    # with one candidate.  So one tree pass runs at K = 16, where the
    # closed cycle ran one per candidate of its cutset node, 17, and the
    # series is still the sl(6) minimal orbit's.
    import coulomb_hs.engine as engine
    q = affine_a_cycle(6, 3)
    prob = _Problem(q)
    u3 = prob.index["u3"]
    assert not any(prob.nontree)
    assert u3 in prob.roots and prob.children[u3] == [] and _candidates(prob, 2)[u3] == [(0,)]
    passes = []
    tree_pass = engine._tree_pass

    def counted(*args):
        passes.append(None)
        return tree_pass(*args)
    monkeypatch.setattr(engine, "_tree_pass", counted)
    s, _, _ = solve_on_tree(HSRequest(q, 16), counted=False)
    assert len(passes) == 1
    assert [s.coefficient(k) for k in range(17)] == minimal_orbit_series(*type_a(6), 16)
    assert coulomb_hilbert_series(HSRequest(affine_a_cycle(6), 16)) == s


def test_pinned_leaf_sends_no_message(monkeypatch):
    # Refined bouquet(3) at K = 12 pins b1, which is then a flavor of the
    # U(2) node rather than a child sending it one message per live
    # candidate: 155 calls of _message in all, against 224 with b1 in the
    # forest.
    import coulomb_hs.engine as engine
    calls = []
    message = engine._message

    def counted(*args):
        calls.append(None)
        return message(*args)
    monkeypatch.setattr(engine, "_message", counted)
    s = coulomb_hilbert_series(HSRequest(
        build_bouquet_quiver(3), 12, refined=frozenset({"b2", "b3"}), ungauge="b1"))
    assert len(calls) == 155
    s = s * one_minus_power(2, 12) ** 2
    assert s.constant_term("b2").constant_term("b3") == nilcone_reference_hs(3, 12)


def test_interchangeable_leaves_send_one_message(monkeypatch):
    # At K = 4 the four gauged U(1) leaves of bouquet(5), b1 ungauged, each
    # send their own messages, and each pair of conjugate candidates sends
    # one, so 40 calls of _message in all, against 65 with no conjugation
    # map; dn(4), whose SO(2) nodes get no map, 34 either way.  A refined
    # leaf carries a digit, which tells conjugates apart: 63 calls with b2
    # refined, and 63 with all four.  The charges and the series do not
    # change without the maps.
    import coulomb_hs.engine as engine
    calls = []
    message = engine._message

    def counted(*args):
        calls.append(None)
        return message(*args)
    monkeypatch.setattr(engine, "_message", counted)
    b5 = build_bouquet_quiver(5)
    cases = ((HSRequest(b5, 4, ungauge="b1"), 40, 65, 245),
             (HSRequest(build_dn_implosion_quiver(4), 4), 34, 34, 318),
             (HSRequest(b5, 4, frozenset({"b2"}), "b1"), 63, 63, 245),
             (HSRequest(b5, 4, frozenset(bouquet_leaf_ids(5)[1:]), "b1"), 63, 63, 245))
    mapped = []
    for req, want, _, count in cases:
        calls.clear()
        mapped.append(compute_hilbert_series(req))
        assert (len(calls), mapped[-1].stats.charge_count) == (want, count), req
    monkeypatch.setattr(engine, "negation", lambda g, cands: None)
    for (req, _, want, count), result in zip(cases, mapped):
        calls.clear()
        unmapped = compute_hilbert_series(req)
        assert (len(calls), unmapped.series, unmapped.stats.charge_count) == (
            want, result.series, count), req


def test_conjugate_candidates_send_one_message(monkeypatch):
    # The benchmark's affine E6 at K = 6, l1_1 ungauged, on the tree pass:
    # each pair of conjugate candidates, c and -c reversed, is priced once,
    # so 82 calls of _message in all, against 153 with no conjugation map,
    # over the same 25436 charges and the E6 minimal orbit's dim V(k theta).
    import coulomb_hs.engine as engine
    calls = []
    message = engine._message

    def counted(*args):
        calls.append(None)
        return message(*args)
    monkeypatch.setattr(engine, "_message", counted)
    req = HSRequest(build_partial_implosion_quiver(4, [2, 2]), 6, ungauge="l1_1")
    result = compute_hilbert_series(req)
    assert len(calls) == 82 and result.stats.charge_count == 25436
    assert [result.series.coefficient(k) for k in (0, 2, 4, 6)] == [1, 78, 2430, 43758]
    calls.clear()
    monkeypatch.setattr(engine, "negation", lambda g, cands: None)
    unmapped = compute_hilbert_series(req)
    assert (len(calls), unmapped.series, unmapped.stats.charge_count) == (
        153, result.series, 25436)


def test_conjugation_maps_only_a_digit_free_unitary_forest(monkeypatch):
    # The tree pass gets one map per node on an unrefined unitary forest,
    # shared by nodes with one candidate list, and none for a refined
    # request, a charge list (a digit per node), a cycle cutset or an
    # orthosymplectic node.
    import coulomb_hs.engine as engine
    maps = []
    tree_pass = engine._tree_pass

    def recorded(*args):
        maps.append(args[-1])
        return tree_pass(*args)
    monkeypatch.setattr(engine, "_tree_pass", recorded)
    bouquet = build_bouquet_quiver(3)
    solve_on_tree(HSRequest(bouquet, 4, ungauge="b1"))
    (conj,) = maps
    index = _Problem(ungauge(bouquet, "b1")).index
    assert None not in conj and conj[index["b2"]] is conj[index["b3"]]
    for run in (lambda: coulomb_hilbert_series(HSRequest(bouquet, 4, frozenset({"b2"}), "b1")),
                lambda: enumerate_charges(ungauge(bouquet, "b1"), 2),
                lambda: solve_on_tree(HSRequest(flavored_ring(3), 4)),
                lambda: solve_on_tree(HSRequest(k4_two_node_cutset(), 4)),
                lambda: coulomb_hilbert_series(HSRequest(build_dn_implosion_quiver(4), 4))):
        maps.clear()
        run()
        assert maps and all(conj == [None] * len(conj) for conj in maps)


def test_solve_validates_no_candidate(monkeypatch):
    # Every candidate comes from dominant_charges, so the sum reads its
    # dressing degrees unvalidated; the public dressing_degrees validates.
    import coulomb_hs.engine as engine
    import coulomb_hs.liedata as liedata
    calls = []
    validate = liedata.validate_charge

    def counted(g, m):
        calls.append(m)
        return validate(g, m)
    monkeypatch.setattr(liedata, "validate_charge", counted)
    monkeypatch.setattr(engine, "validate_charge", counted)
    result = compute_hilbert_series(HSRequest(build_bouquet_quiver(5), 4, ungauge="b1"))
    assert result.series.coefficient(2) == 28 and calls == []
    assert liedata.dressing_degrees(U(2), (1, 1)) == [1, 2] and calls == [(1, 1)]


def test_table_cells_are_counted_before_any_list_is_built(monkeypatch):
    # The guard counts one cell per candidate and one per pair of
    # candidates of each edge between gauge nodes, from closed forms, and
    # refuses a box past MAX_TABLE_CELLS before building a list.  The
    # largest run on record, nilcone(5) at K = 30 (box 15), stays under it.
    import coulomb_hs.engine as engine
    from coulomb_hs.liedata import dominant_charge_count
    prob = _Problem(ungauge(build_bouquet_quiver(4), "b1"))
    cands = _candidates(prob, 2)
    cells = sum(map(len, cands)) + sum(len(cands[e.a]) * len(cands[e.b]) for e in prob.edges)
    monkeypatch.setattr(engine, "MAX_TABLE_CELLS", cells)
    assert _candidates(prob, 2) == cands
    monkeypatch.setattr(engine, "MAX_TABLE_CELLS", cells - 1)
    monkeypatch.setattr(engine, "dominant_charges", None)  # no list is built
    with pytest.raises(EngineError, match=f"box 2 needs {cells} table cells"):
        _candidates(prob, 2)
    monkeypatch.undo()
    sizes = [dominant_charge_count(U(r), 15) for r in range(1, 5)]
    assert sum(sizes) + sum(map(mul, sizes, sizes[1:])) < engine.MAX_TABLE_CELLS


def test_live_parent_totals_are_exact_up_to_the_cutoff():
    # Read over live parents only, the totals equal the exact ones wherever
    # those are at most the cutoff and exceed the cutoff elsewhere: on
    # trees, including rings opened by their pinned node, and under every
    # cutset assignment of three cyclic quivers.
    quivers = (ungauge(build_bouquet_quiver(4), "b1"), build_linear_nilpotent_quiver(4),
               build_dn_implosion_quiver(3), affine_a2_triangle(), affine_a_cycle(4),
               flavored_ring(3), flavored_ring(4), k4_two_node_cutset())
    pruned = 0
    for q in quivers:
        prob = _Problem(q)
        cands = _candidates(prob, 2)
        for loc, tab, _ in _cutset_assignments(prob, *_box_tables(prob, cands), cands):
            mins = _min_tables(prob, loc, tab)
            exact = _totals(prob, tab, *mins)
            s0 = sum(mins[2].values())
            for thr4 in (s0, s0 + 2, s0 + 4, s0 + 8, max(map(max, exact))):
                got = _totals(prob, tab, *mins, thr4)
                for want_v, got_v in zip(exact, got):
                    for want, t in zip(want_v, got_v):
                        assert t == want if want <= thr4 else t > thr4, (q, thr4)
                        pruned += t != want
    assert pruned


def test_shared_tables_are_never_mutated():
    # Repeated U(1) groups share candidate lists and edge tables, so no
    # consumer may change them in place: every stage of the sum and of
    # the search leaves box 2's lists and tables exactly as built.
    for q in (affine_a2_triangle(), flavored_ring(3), k4_two_node_cutset()):
        prob = _Problem(q)
        cands = _candidates(prob, 2)
        local4, etab, cuts = _box_tables(prob, cands)
        before = copy.deepcopy((cands, local4, etab, cuts))

        def dress(v, c):
            nd = prob.nodes[v]
            return () if nd.fixed else tuple(dressing_degrees(nd.group, c)), 0
        for loc, tab, lab in _cutset_assignments(prob, local4, etab, cuts, cands):
            sub_cost, best, root_min = _min_tables(prob, loc, tab)
            _totals(prob, tab, sub_cost, best, root_min)
            _totals(prob, tab, sub_cost, best, root_min, 12)
            _tree_pass(prob, 12, loc, lab, tab, 1, dress, prob.children, True,
                       [None] * len(prob.nodes))
        _box_charges(prob, 2, 12)
        assert (cands, local4, etab, cuts) == before, q


def test_dressing_is_priced_on_demand(monkeypatch):
    # The sum prices the dressing of a candidate only when some charge
    # through it is within the cutoff, and each (group, charge) once.
    import coulomb_hs.engine as engine
    calls = []

    def counted(g, m):
        calls.append((g, m))
        return dressing_degrees(g, m)
    monkeypatch.setattr(engine, "_dressing_degrees", counted)
    q = build_bouquet_quiver(5)
    series, bound, _ = solve_on_tree(HSRequest(q, 4, ungauge="b1"))
    assert series.coefficient(2) == 28

    thr4 = 8
    prob = _Problem(ungauge(q, "b1"))
    cands = _candidates(prob, bound)
    (loc, tab, lab), = _cutset_assignments(prob, *_box_tables(prob, cands), cands)
    tot = _totals(prob, tab, *_min_tables(prob, loc, tab))
    live = {(nd.group, c) for nd, cl, tv in zip(prob.nodes, lab, tot)
            for c, t in zip(cl, tv) if t <= thr4}
    assert calls and set(calls) <= live
    assert len(calls) == len(set(calls))
    assert len(calls) < sum(map(len, cands))


def test_count_lane_runs_only_where_the_count_is_read(monkeypatch):
    # Only compute_hilbert_series reads the charge count, so the series
    # alone and the charge list build no count-lane message term.
    import coulomb_hs.engine as engine
    terms = []
    message = engine._message

    def recorded(*args):
        out, outc = message(*args)
        terms.append(len(outc))
        return out, outc
    monkeypatch.setattr(engine, "_message", recorded)
    q = build_bouquet_quiver(3)
    req = HSRequest(q, 12, refined=frozenset({"b2", "b3"}), ungauge="b1")
    series = coulomb_hilbert_series(req)
    listed = enumerate_charges(ungauge(q, "b1"), 6)
    assert terms and not any(terms)
    result = compute_hilbert_series(req)
    assert result.series == series
    assert result.stats.charge_count == len(listed) == 17668
    assert any(terms)


def test_digit_free_messages_are_multiplied_first(monkeypatch):
    # Refined bouquet(3) at K = 12: the U(2) node multiplies its refined
    # child's message last, which costs 8274 term pairs against 11886 in
    # forest order, and the forest's own child lists are left as built.
    import coulomb_hs.engine as engine
    pairs, built = [0], []
    poly_mul = engine._poly_mul

    def counted(a, b, top):
        pairs[0] += len(a) * len(b)
        return poly_mul(a, b, top)

    class Recorded(_Problem):
        def __init__(self, quiver, preferred=()):
            super().__init__(quiver, preferred)
            built.append((self, copy.deepcopy(self.children)))
    monkeypatch.setattr(engine, "_poly_mul", counted)
    monkeypatch.setattr(engine, "_Problem", Recorded)
    result = compute_hilbert_series(HSRequest(
        build_bouquet_quiver(3), 12, refined=frozenset({"b2", "b3"}), ungauge="b1"))
    assert result.stats.charge_count == 17668
    assert pairs[0] < 11886
    assert built and all(prob.children == before for prob, before in built)


def test_centers_are_dressed_outside_the_tree_pass(monkeypatch):
    # Refined bouquet(3) at K = 12: every U(1) candidate is priced with no
    # dressing degree, as its center's 1/(1 - t^2) multiplies the sum once,
    # and the tree pass costs 2964 term pairs against the 7029 of dressing
    # each center at every charge.
    import coulomb_hs.engine as engine
    pairs, priced = [0], []
    poly_mul, tree_pass = engine._poly_mul, engine._tree_pass

    def counted(a, b, top):
        pairs[0] += len(a) * len(b)
        return poly_mul(a, b, top)

    def recorded(prob, thr4, local4, cands, etab, width, dress, *rest):
        def dress_recorded(v, c):
            out = dress(v, c)
            priced.append((prob.nodes[v].group, out[0]))
            return out
        return tree_pass(prob, thr4, local4, cands, etab, width, dress_recorded, *rest)
    monkeypatch.setattr(engine, "_poly_mul", counted)
    monkeypatch.setattr(engine, "_tree_pass", recorded)
    s = coulomb_hilbert_series(HSRequest(
        build_bouquet_quiver(3), 12, refined=frozenset({"b2", "b3"}), ungauge="b1"))
    leaves = [degrees for g, degrees in priced if g == U(1)]
    assert leaves and not any(leaves)
    assert pairs[0] < 7029
    s = s * one_minus_power(2, 12) ** 2
    assert s.constant_term("b2").constant_term("b3") == nilcone_reference_hs(3, 12)


def test_implosion_leaf_count_must_be_an_int():
    for bad in True, 2.0:
        for f in refined_implosion_integral, implosion_series:
            with pytest.raises(ValueError, match=r"^n must be an int, got "):
                f(bad, 4)


def test_bad_theory_message_names_the_charge():
    # The nonzero charge of box 1 with the least 2*Delta, ties going to the
    # first in the order of enumerate_charges: on a tree, and on a
    # triangle whose third edge the cutset conditions on.
    tree = Quiver([QuiverNode("g", NodeKind.GAUGE, U(2)),
                   QuiverNode("f", NodeKind.FLAVOR, U(1))], [("g", "f")])
    cycle = Quiver([QuiverNode("a", NodeKind.GAUGE, U(1)),
                    QuiverNode("b", NodeKind.GAUGE, U(2)),
                    QuiverNode("c", NodeKind.GAUGE, U(1)),
                    QuiverNode("f", NodeKind.FLAVOR, U(1))],
                   [("a", "b"), ("b", "c"), ("c", "a"), ("a", "f")])
    for q, charge, two_delta in ((tree, "((1, -1),)", -2),
                                 (cycle, "((0,), (0, -1), (0,))", 0)):
        message = (f"nonzero magnetic charge {charge} has 2*Delta = {two_delta} "
                   "<= 0; the monopole sum diverges")
        for order in (0, 4):
            with pytest.raises(BadTheoryError) as exc:
                compute_hilbert_series(HSRequest(q, order))
            assert str(exc.value) == message
            with pytest.raises(BadTheoryError) as exc:
                enumerate_charges(q, order)
            assert str(exc.value) == message


def test_two_decoupled_components_need_two_ungauged_nodes():
    # U(1)=U(1) beside U(1)=U(1): two diagonal U(1)s act trivially, and
    # pinning one node leaves the other component divergent.
    q = Quiver([QuiverNode(i, NodeKind.GAUGE, U(1)) for i in "abcd"],
               [("a", "b"), ("a", "b"), ("c", "d"), ("c", "d")])
    with pytest.raises(DecoupledU1UnresolvedError, match="^2 .* one U\\(1\\) per"):
        coulomb_hilbert_series(HSRequest(q, 4))
    with pytest.raises(DecoupledU1UnresolvedError, match="^1 flavorless"):
        coulomb_hilbert_series(HSRequest(q, 4, ungauge="a"))
    # each pinned component is U(1) with two flavors, C^2/Z_2
    s = coulomb_hilbert_series(HSRequest(ungauge(q, "a"), 4, ungauge="c"))
    assert s == abelian_closed_form(2, 4) * abelian_closed_form(2, 4)


# ---------------------------------------------------------------------------
# determinism of the full pipeline


def test_compute_stats_reproducible():
    req = HSRequest(build_bouquet_quiver(3), 4, ungauge="b1")
    a = compute_hilbert_series(req)
    b = compute_hilbert_series(req)
    assert a.series == b.series
    assert a.stats.charge_count == b.stats.charge_count
    assert a.stats.bound_reached == b.stats.bound_reached


# ---------------------------------------------------------------------------
# reference cycles


def test_monopole_sums_leave_no_cyclic_garbage():
    # The CLI pauses the cyclic collector while a command runs, which is
    # safe while the engine builds no reference cycles: with the collector
    # off, no path below leaves anything for it to find.
    e6 = ungauge(build_partial_implosion_quiver(4, [2, 2]), "l1_1")
    diverging = Quiver([QuiverNode("g", NodeKind.GAUGE, U(2)),
                        QuiverNode("f", NodeKind.FLAVOR, U(1))], [("g", "f")])

    def bad_theory():
        with pytest.raises(BadTheoryError):
            compute_hilbert_series(HSRequest(diverging, 4))
    paths = {
        "dn(5) with its flavor": lambda: compute_hilbert_series(
            HSRequest(build_dn_implosion_quiver(5, with_flavor=True), 4)),
        "flavored 4-ring, the cutset path": lambda: compute_hilbert_series(
            HSRequest(flavored_ring(4), 4)),
        "ring pinned at u0": lambda: compute_hilbert_series(
            HSRequest(affine_a_cycle(4), 4)),
        "nilcone(5) refined at g1, g2": lambda: compute_hilbert_series(
            HSRequest(build_linear_nilpotent_quiver(5), 4, refined=frozenset({"g1", "g2"}))),
        "implosion_series(3, 8)": lambda: implosion_series(3, 8),
        "nilcone(4) at K = 12, on the cells": lambda: compute_hilbert_series(
            HSRequest(build_linear_nilpotent_quiver(4), 12)),
        "enumerate_charges on pinned affine E6": lambda: enumerate_charges(e6, 2),
        "BadTheoryError": bad_theory,
        "coulomb_hilbert_series on bouquet(3)": lambda: coulomb_hilbert_series(
            HSRequest(build_bouquet_quiver(3), 4, ungauge="b1")),
    }
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for name, path in paths.items():
            path()
            assert gc.collect() == 0, name
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# the cell sum


def recorded_routes(monkeypatch):
    """Wrap both routes of ``_hilbert_series``; the returned list names
    each route as it runs."""
    import coulomb_hs.engine as engine
    routes = []
    for name in ("_tree_sum", "_cell_sum"):
        def wrapped(*args, _route=getattr(engine, name), _name=name):
            routes.append(_name)
            return _route(*args)
        monkeypatch.setattr(engine, name, wrapped)
    return routes


def test_router_takes_the_cheaper_route(monkeypatch):
    # The cells take the T[SU(n)] chain and the small rings, where they
    # cost a fraction of the tables; the wide bouquets and affine E6 stay
    # on the tree pass, and so does every refined request and every
    # quiver with an orthosymplectic node.
    import coulomb_hs.engine as engine
    routes = recorded_routes(monkeypatch)
    e6 = build_partial_implosion_quiver(4, [2, 2])
    cases = (
        (HSRequest(build_linear_nilpotent_quiver(3), 12), "_cell_sum"),
        (HSRequest(build_linear_nilpotent_quiver(8), 2), "_tree_sum"),
        (HSRequest(build_bouquet_quiver(3), 8, ungauge="b1"), "_cell_sum"),
        (HSRequest(flavored_ring(4), 10), "_cell_sum"),
        (HSRequest(build_bouquet_quiver(4), 2, ungauge="b1"), "_tree_sum"),
        (HSRequest(build_bouquet_quiver(5), 4, ungauge="b1"), "_tree_sum"),
        (HSRequest(e6, 6, ungauge="l1_1"), "_tree_sum"),
        (HSRequest(build_linear_nilpotent_quiver(3), 12, frozenset({"g1"})), "_tree_sum"),
        (HSRequest(build_bouquet_quiver(3), 12, frozenset({"b2", "b3"}), "b1"), "_tree_sum"),
        (HSRequest(build_dn_implosion_quiver(5, with_flavor=True), 6), "_tree_sum"),
    )
    for req, route in cases:
        routes.clear()
        compute_hilbert_series(req)
        assert routes == [route], req
    # Every count is in closed form, one per gauge node: box 1's for the
    # proven box's guard, and box B's for the router and again for the
    # tree pass's guard.
    calls = []
    count = engine.dominant_charge_count

    def counted(g, b):
        calls.append(b)
        return count(g, b)
    monkeypatch.setattr(engine, "dominant_charge_count", counted)
    routes.clear()
    compute_hilbert_series(HSRequest(build_bouquet_quiver(5), 4, ungauge="b1"))
    assert routes == ["_tree_sum"] and sorted(calls) == [1] * 8 + [2] * 16


def test_cell_route_builds_one_table_set_over_the_0_1_charges(monkeypatch):
    # The proven box and the cell sum share one _box_tables call over the
    # 0/1 charges 1^c 0^(r - c) of each node, the pinned b1 at 0 alone, and
    # neither builds a list of dominant charges; nor does the proven box of
    # a solve that then runs on the tree pass.
    import coulomb_hs.engine as engine
    routes = recorded_routes(monkeypatch)
    built = []
    box_tables = engine._box_tables

    def counted(prob, cands):
        built.append(cands)
        return box_tables(prob, cands)

    def refused(*args):
        raise AssertionError("a list of dominant charges was built")
    monkeypatch.setattr(engine, "_box_tables", counted)
    monkeypatch.setattr(engine, "dominant_charges", refused)
    s = coulomb_hilbert_series(HSRequest(build_bouquet_quiver(3), 8, ungauge="b1"))
    assert routes == ["_cell_sum"] and s.coefficient(2) == 28
    u1, u2 = [(0,), (1,)], [(0, 0), (1, 0), (1, 1)]
    assert built == [[u1, u2, [(0,)], u1, u1]]
    built.clear()
    prob = _Problem(ungauge(build_bouquet_quiver(5), "b1"))
    assert _proven_box(prob, 8) == 2 and len(built) == 1


def test_routes_agree_on_the_engine_quivers():
    # Same series and same charge counts from both routes, on trees,
    # cycles, pinned rings and a forest of two components.
    forest = Quiver(
        [QuiverNode("a", NodeKind.GAUGE, U(2)), QuiverNode("b", NodeKind.GAUGE, U(1)),
         QuiverNode("c", NodeKind.GAUGE, U(1)), QuiverNode("f", NodeKind.FLAVOR, U(3)),
         QuiverNode("h", NodeKind.FLAVOR, U(2))],
        [("a", "b"), ("a", "f"), ("c", "h")])
    cases = ((build_linear_nilpotent_quiver(4), 12), (ungauge(build_bouquet_quiver(4), "b1"), 8),
             (flavored_ring(4), 8), (affine_a_cycle(5, 2), 10), (k4_two_node_cutset(), 8),
             (affine_d4(), 8), (u2_doubled_to_fixed_u1(), 10), (forest, 8),
             (ungauge(build_partial_implosion_quiver(4, [2, 2]), "l1_1"), 6))
    for q, order in cases:
        prob = _Problem(q)
        bound = _proven_box(prob, 2 * order)
        assert _cell_sum(prob, order, True) == _tree_sum(prob, order, bound, [], True), q
        assert _cell_sum(prob, order, False)[1] is None


@pytest.mark.parametrize("n, order", [(4, 40), (5, 30), (6, 16)])
def test_cells_reach_the_nilpotent_cone_past_the_tables(n, order):
    # Orders where the tree pass would need 1e8 table cells or more.
    q = build_linear_nilpotent_quiver(n)
    assert coulomb_hilbert_series(HSRequest(q, order)) == nilcone_reference_hs(n, order)


def test_cell_sum_oracle_reaches_the_nilpotent_cone():
    # At an order no box sum reaches, the brute-force cell sum, the
    # engine's cell sum and the closed form agree on nilcone(4) to t^40.
    q = build_linear_nilpotent_quiver(4)
    want = [nilcone_reference_hs(4, 40).coefficient(k) for k in range(41)]
    assert cell_sum_ref(q, 40) == want
    coeffs, counts = _cell_sum(_Problem(q), 40, True)
    assert [coeffs.get(k, 0) for k in range(41)] == want
    assert [counts.get(2 * k, 0) for k in range(41)] == cell_sum_ref(q, 40, dressed=False)


def test_refined_cell_sum_oracle_matches_the_engine():
    # The cell sum refined by topological charges, T+-(c) = t^w(c) z^(+-c)
    # / (1 - t^w(c) z^(+-c)), term for term against the tree pass's refined
    # series: bouquet(3) refined at two leaves, and nilcone(4) at every node.
    for q, order, ids in ((ungauge(build_bouquet_quiver(3), "b1"), 12, ("b2", "b3")),
                          (build_linear_nilpotent_quiver(4), 8, ("g1", "g2", "g3"))):
        series = coulomb_hilbert_series(HSRequest(q, order, refined=frozenset(ids)))
        got = [topological_counts(series.coefficient(k), ids) for k in range(order + 1)]
        assert got == cell_sum_ref(q, order, refined=ids), ids


def test_a_box_past_the_cell_limit_runs_on_the_cells():
    # nilcone(5) at K = 40 would need 1.7e9 table cells, past
    # MAX_TABLE_CELLS, so the tree pass would refuse it; the cell sum gives
    # Kostant's series, prod_(i=2..5) (1 - t^(2i)) / (1 - t^2)^24.
    q = build_linear_nilpotent_quiver(5)
    prob = _Problem(q)
    cells, passes = _box_work(prob, _proven_box(prob, 80))
    assert cells > MAX_TABLE_CELLS and passes == 1
    s = coulomb_hilbert_series(HSRequest(q, 40))
    assert s == nilcone_reference_hs(5, 40)


def test_a_cell_sum_past_the_cell_limit_falls_back_to_the_tree_guard(monkeypatch):
    # The cell sum keeps about prod(r + 1) * sum(r + 1) * (K + 1) series
    # coefficients, 68 880 for nilcone(5) at K = 40.  Past MAX_TABLE_CELLS
    # the solve goes to the tree pass, whose guard ends it before any list
    # is built, as before the cell sum existed.
    import coulomb_hs.engine as engine
    routes = recorded_routes(monkeypatch)
    q = build_linear_nilpotent_quiver(5)
    monkeypatch.setattr(engine, "MAX_TABLE_CELLS", 68_880)
    assert coulomb_hilbert_series(HSRequest(q, 40)) == nilcone_reference_hs(5, 40)
    assert routes == ["_cell_sum"]
    routes.clear()
    monkeypatch.setattr(engine, "MAX_TABLE_CELLS", 68_879)
    with pytest.raises(EngineError, match="box 20 needs 1686112987 table cells"):
        coulomb_hilbert_series(HSRequest(q, 40))
    assert routes == ["_tree_sum"]


def test_cell_route_keeps_the_error_messages(monkeypatch):
    # A unitary quiver at an order the cells would take still fails with
    # the tree route's messages, before either route runs: a bad theory
    # named by its charge, and a decoupled U(1).
    routes = recorded_routes(monkeypatch)
    bad = Quiver([QuiverNode("g", NodeKind.GAUGE, U(2)),
                  QuiverNode("f", NodeKind.FLAVOR, U(2))], [("g", "f")])
    good = Quiver([QuiverNode("g", NodeKind.GAUGE, U(2)),
                   QuiverNode("f", NodeKind.FLAVOR, U(4))], [("g", "f")])
    compute_hilbert_series(HSRequest(good, 12))
    assert routes == ["_cell_sum"]
    routes.clear()
    for solve in (compute_hilbert_series, coulomb_hilbert_series):
        with pytest.raises(BadTheoryError) as err:
            solve(HSRequest(bad, 12))
        assert str(err.value) == ("nonzero magnetic charge ((0, -1),) has 2*Delta = 0 "
                                  "<= 0; the monopole sum diverges")
    chain = build_linear_nilpotent_quiver(3)
    flavorless = Quiver([nd for nd in chain.nodes if nd.kind is NodeKind.GAUGE],
                        [("g1", "g2")])
    with pytest.raises(DecoupledU1UnresolvedError) as err:
        coulomb_hilbert_series(HSRequest(flavorless, 12))
    assert str(err.value) == (
        "1 flavorless all-unitary component(s) each carry a diagonal U(1) that "
        "acts trivially, and the monopole sum diverges; one U(1) per such "
        "component must be ungauged (--ungauge <U(1) node id> pins one node)")
    assert routes == []


def test_unrefined_series_build_no_laurent(monkeypatch):
    # Only a refined series has Laurent coefficients, on either route.
    import coulomb_hs.engine as engine

    def refused(*args):
        raise AssertionError("a Laurent coefficient was built")
    monkeypatch.setattr(engine, "Laurent", refused)
    for req in (HSRequest(build_linear_nilpotent_quiver(3), 12),
                HSRequest(build_bouquet_quiver(5), 4, ungauge="b1")):
        assert compute_hilbert_series(req).series.coefficient(2) in (8, 28)
    monkeypatch.undo()
    refined = coulomb_hilbert_series(HSRequest(build_bouquet_quiver(3), 2, frozenset({"b2"}), "b1"))
    assert refined.fugacities == {"b2"}
