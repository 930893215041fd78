import random
from fractions import Fraction

import pytest

from coulomb_hs.engine import (
    BadTheoryError,
    ConvergenceNotReachedError,
    HalfOddGradingError,
    HSRequest,
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
    _Problem,
    _scan_shell,
)
from coulomb_hs.liedata import Conventions, HALF_PAIR_WEIGHT, dominant_charges
from coulomb_hs.quiver import (
    DecoupledU1UnresolvedError,
    NodeKind,
    Quiver,
    QuiverNode,
    SO,
    U,
    USp,
    build_bouquet_quiver,
    build_dn_implosion_quiver,
    build_linear_nilpotent_quiver,
    ungauge,
)
from coulomb_hs.series import TruncatedSeries, expand_inverse, one_minus_power

from brute import delta_ref, hs_ref


def u1_with_flavors(d):
    return Quiver([QuiverNode("g", NodeKind.GAUGE, U(1)),
                   QuiverNode("f", NodeKind.FLAVOR, U(d))], [("g", "f")])


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


def test_delta_is_half_integral_for_unitary():
    assert delta(u1_with_flavors(1), {"g": (1,)}) == Fraction(1, 2)


def test_delta_orthosymplectic_balanced_current():
    # basic monopole on a balanced USp node has Delta = 1
    q = build_dn_implosion_quiver(3, with_flavor=True)
    charge = {"c1": (0,), "c2": (0,), "c3": (0, 0), "c4": (1, 0)}
    assert delta(q, charge) == 1
    # the alternative half weight makes it negative (divergent theory)
    assert delta(q, charge, HALF_PAIR_WEIGHT) == Fraction(-3, 2)


def test_delta_fixed_nodes_keep_matter():
    q = ungauge(build_bouquet_quiver(2), "b1")
    # chain U(1) at 1, leaf b2 at 0: edge to the fixed b1 still costs 1/2
    assert delta(q, {"g1": (1,), "b2": (0,)}) == 1
    assert delta(q, {"g1": (1,), "b2": (1,)}) == Fraction(1, 2)


# ---------------------------------------------------------------------------
# dressing


def test_dressing_examples():
    q = Quiver([QuiverNode("g", NodeKind.GAUGE, U(2)),
                QuiverNode("f", NodeKind.FLAVOR, U(4))], [("g", "f")])
    full = dressing_factor(q, {"g": (1, 1)}, 8)
    assert full == expand_inverse(2, 8) * expand_inverse(4, 8)
    broken = dressing_factor(q, {"g": (1, 0)}, 8)
    assert broken == expand_inverse(2, 8) * expand_inverse(2, 8)
    lone_fixed = ungauge(Quiver([QuiverNode("g", NodeKind.GAUGE, U(1))], []), "g")
    assert dressing_factor(lone_fixed, {"g": (0,)}, 6) == TruncatedSeries.one(6)


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_charges_examples():
    got = enumerate_charges(u1_with_flavors(2), 1)
    assert [c.charges for c in got] == [((0,),), ((-1,),), ((1,),)]
    got = enumerate_charges(u1_with_flavors(2), 0)
    assert [c.charges for c in got] == [((0,),)]
    with pytest.raises(BadTheoryError):
        enumerate_charges(build_bouquet_quiver(3), 1)


def test_enumerate_charge_api():
    got = enumerate_charges(u1_with_flavors(2), 2)
    c = got[0]
    assert isinstance(c, QuiverCharge)
    assert c.charge_of("g") == (0,)
    assert c.as_dict() == {"g": (0,)}


def test_enumerate_convergence_guard():
    with pytest.raises(ConvergenceNotReachedError):
        enumerate_charges(u1_with_flavors(2), 9, max_bound=3)
    with pytest.raises(ValueError, match="max_bound"):
        enumerate_charges(u1_with_flavors(2), 1, max_bound=-1)


def test_enumerate_deterministic():
    a = enumerate_charges(build_linear_nilpotent_quiver(3), 2)
    b = enumerate_charges(build_linear_nilpotent_quiver(3), 2)
    assert a == b
    deltas = [delta(build_linear_nilpotent_quiver(3), c) for c in a]
    assert all(0 <= d <= 2 for d in deltas)
    assert any(d == 2 for d in deltas)


# ---------------------------------------------------------------------------
# Hilbert series


def test_hs_abelian_closed_forms():
    for d in range(1, 6):
        s = coulomb_hilbert_series(HSRequest(u1_with_flavors(d), 20))
        assert s == abelian_closed_form(d, 20)


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


def test_hs_ungauging_choice_independent():
    for n, order in ((2, 8), (3, 4)):
        q = build_bouquet_quiver(n)
        picks = ["b1", f"b{n}", "g1"]
        series = [coulomb_hilbert_series(HSRequest(q, order, ungauge=p))
                  for p in picks]
        assert series[0] == series[1] == series[2]


def shells_past_bound(req):
    """The charges in the two shells just past the bound ``req`` stopped
    at, under the same dimension cutoff.  Both are empty exactly when
    scanning two more shells would change no coefficient."""
    q = ungauge(req.quiver, req.ungauge) if req.ungauge else req.quiver
    prob = _Problem(q, req.conventions)
    b = compute_hilbert_series(req).stats.bound_reached
    return [_scan_shell(prob, b + k, 2 * req.order) for k in (1, 2)]


def test_hs_stability_under_larger_bound():
    for req in (HSRequest(build_linear_nilpotent_quiver(3), 8),
                HSRequest(build_bouquet_quiver(3), 4, ungauge="b1"),
                HSRequest(build_dn_implosion_quiver(3), 4)):
        assert shells_past_bound(req) == [[], []]


def test_hs_refined_to_one_matches_unrefined():
    q = build_bouquet_quiver(3)
    refined = coulomb_hilbert_series(
        HSRequest(q, 4, refined=frozenset({"b2", "b3"}), ungauge="b1"))
    plain = coulomb_hilbert_series(HSRequest(q, 4, ungauge="b1"))
    assert refined.substitute_ones() == plain
    assert refined.fugacities == frozenset({"b2", "b3"})


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


def test_half_odd_grading_detected():
    # Under the alternative half weight, USp(2) with an SO(9) flavor has
    # 2*Delta = 1/2 at the basic monopole.
    q = Quiver([QuiverNode("g", NodeKind.GAUGE, USp(2)),
                QuiverNode("f", NodeKind.FLAVOR, SO(9))], [("g", "f")])
    with pytest.raises(HalfOddGradingError):
        coulomb_hilbert_series(HSRequest(q, 2, conventions=HALF_PAIR_WEIGHT))
    # with the default weight the theory is fine
    s = coulomb_hilbert_series(HSRequest(q, 4))
    assert s.coefficient(0) == 1


def test_half_weight_makes_dn_chain_divergent():
    q = build_dn_implosion_quiver(3, with_flavor=True)
    with pytest.raises(BadTheoryError):
        coulomb_hilbert_series(HSRequest(q, 2, conventions=HALF_PAIR_WEIGHT))


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


def test_o2_convention_changes_dn_answer():
    o2 = Conventions(so2_as_o2=True)
    s = coulomb_hilbert_series(HSRequest(build_dn_implosion_quiver(3), 2,
                                         conventions=o2))
    assert symmetry_dimension(s) != 18


# ---------------------------------------------------------------------------
# refined integral and contribution checks


def test_refined_integral_matches_nilcone():
    for n in (2, 3):
        got = refined_implosion_integral(n, 8)
        assert got == nilcone_reference_hs(n, 8)
    assert refined_implosion_integral(1, 6) == TruncatedSeries.one(6)


def test_refined_integral_negative_control():
    wrong = refined_implosion_integral(3, 6, prefactor_exponent=5)
    assert wrong != nilcone_reference_hs(3, 6)


def test_contribution_check():
    c2 = hs_contribution_check(2)
    assert c2.t2_coefficient == 10 == c2.enhanced_dimension
    assert c2.t_power == 1 and c2.t_power_coefficient == 4
    assert c2.bouquet_monopole_count == 4 == c2.bouquet_monopole_expected

    c3 = hs_contribution_check(3)
    assert c3.t2_coefficient == 28 == c3.enhanced_dimension
    assert c3.bouquet_monopole_count == 6

    c4 = hs_contribution_check(4)
    assert c4.t2_matches_generic and c4.t2_coefficient == 18
    assert c4.enhanced_dimension is None
    assert c4.bouquet_monopole_count == 8


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
    # The triangle is a non-tree graph; its Coulomb branch is the sl3
    # minimal nilpotent orbit, HS = sum_k dim V(k theta) t^(2k) = sum (k+1)^3 t^(2k).
    s = coulomb_hilbert_series(HSRequest(affine_a2_triangle(), 8))
    assert [s.coefficient(k) for k in range(9)] == [1, 0, 8, 0, 27, 0, 64, 0, 125]


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
    for conv in (Conventions(), HALF_PAIR_WEIGHT, Conventions(so2_as_o2=True),
                 Conventions(Fraction(1, 2), True)):
        for q in (unitary, ortho):
            for _ in range(40):
                charge = {n.id: rng.choice(dominant_charges(n.group, 3, conv))
                          for n in q.gauge_nodes}
                assert delta(q, charge, conv) == delta_ref(q, charge, conv), charge


def test_hs_matches_unpruned_box_sum():
    # The pruned shell search against a plain sum over every dominant
    # charge in the box two shells past the bound it stopped at.
    fixed_u1 = ungauge(Quiver(
        [QuiverNode("a", NodeKind.GAUGE, U(1)), QuiverNode("g", NodeKind.GAUGE, U(2)),
         QuiverNode("f", NodeKind.FLAVOR, U(2))],
        [("a", "g"), ("a", "g"), ("g", "f")]), "a")
    for q, order in ((affine_a2_triangle(), 8),
                     (ungauge(build_bouquet_quiver(2), "b1"), 6),
                     (build_linear_nilpotent_quiver(3), 6),
                     (build_dn_implosion_quiver(2, with_flavor=True), 6),
                     (fixed_u1, 6)):
        result = compute_hilbert_series(HSRequest(q, order))
        want = hs_ref(q, order, result.stats.bound_reached + 2)
        assert [result.series.coefficient(k) for k in range(order + 1)] == want


# ---------------------------------------------------------------------------
# determinism of the full pipeline


def test_compute_stats_reproducible():
    req = HSRequest(build_bouquet_quiver(3), 4, ungauge="b1")
    a = compute_hilbert_series(req)
    b = compute_hilbert_series(req)
    assert a.series == b.series
    assert a.stats.charge_count == b.stats.charge_count
    assert a.stats.bound_reached == b.stats.bound_reached
