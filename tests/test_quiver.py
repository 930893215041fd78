import json

import pytest

from coulomb_hs.balance import (
    balance_report,
    balanced_subquiver_classification,
    expected_coulomb_dimension_real,
    gauge_group_rank,
    node_balance,
    predict_global_symmetry,
)
from coulomb_hs.engine import HSRequest, coulomb_hilbert_series
from coulomb_hs.quiver import (
    DecoupledU1UnresolvedError,
    NodeKind,
    Quiver,
    QuiverError,
    QuiverNode,
    SO,
    U,
    USp,
    bouquet_replace,
    build_bouquet_quiver,
    build_dn_implosion_quiver,
    build_linear_nilpotent_quiver,
    build_partial_implosion_quiver,
    decoupled_u1_count,
    detect_decoupled_u1,
    quiver_from_json,
    quiver_to_json,
    ungauge,
)


def u1_with_flavors(d):
    return Quiver([QuiverNode("g", NodeKind.GAUGE, U(1)),
                   QuiverNode("f", NodeKind.FLAVOR, U(d))], [("g", "f")])


# ---------------------------------------------------------------------------
# groups and validation


def test_gauge_group_ranks():
    assert U(5).rank == 5
    assert SO(7).rank == 3
    assert SO(6).rank == 3
    assert USp(6).rank == 3
    with pytest.raises(QuiverError, match=r"^USp\(3\) needs even n$"):
        USp(3)
    with pytest.raises(QuiverError, match="^group dimension must be >= 1, got 0$"):
        U(0)


def test_quiver_validation():
    with pytest.raises(QuiverError, match="duplicate"):
        Quiver([QuiverNode("a", NodeKind.GAUGE, U(1)),
                QuiverNode("a", NodeKind.GAUGE, U(2))], [])
    with pytest.raises(QuiverError, match="edges\\[0\\]"):
        Quiver([QuiverNode("a", NodeKind.GAUGE, U(1))], [("a", "zzz")])
    with pytest.raises(QuiverError, match="two flavor"):
        Quiver([QuiverNode("a", NodeKind.FLAVOR, U(1)),
                QuiverNode("b", NodeKind.FLAVOR, U(1))], [("a", "b")])
    with pytest.raises(QuiverError, match="mixes"):
        Quiver([QuiverNode("a", NodeKind.GAUGE, U(1)),
                QuiverNode("b", NodeKind.GAUGE, SO(2))], [("a", "b")])
    with pytest.raises(QuiverError, match="mixes"):
        Quiver([QuiverNode("a", NodeKind.GAUGE, SO(4)),
                QuiverNode("b", NodeKind.GAUGE, SO(2))], [("a", "b")])


# ---------------------------------------------------------------------------
# balance


def test_node_balance_examples():
    fig1 = build_linear_nilpotent_quiver(6)
    assert node_balance(fig1, "g5") == 0
    bouquet6 = build_bouquet_quiver(6)
    assert node_balance(bouquet6, "b1") == 3
    for n in (1, 2, 5):
        lone = Quiver([QuiverNode("g", NodeKind.GAUGE, U(n))], [])
        assert node_balance(lone, "g") == -2 * n


def test_node_balance_errors():
    fig1 = build_linear_nilpotent_quiver(6)
    with pytest.raises(QuiverError, match="^no node 'nope'$"):
        node_balance(fig1, "nope")
    with pytest.raises(QuiverError, match="^flavor node 'f' has no balance$"):
        node_balance(fig1, "f")
    odd = Quiver([QuiverNode("g", NodeKind.GAUGE, USp(2)),
                  QuiverNode("f", NodeKind.FLAVOR, SO(3))], [("g", "f")])
    with pytest.raises(QuiverError, match="^node 'g': adjacent dimension sum 3 "
                       "violates USp parity$"):
        node_balance(odd, "g")


def test_balance_report_examples():
    rep = balance_report(build_linear_nilpotent_quiver(6))
    assert rep.all_balanced and len(rep.balances) == 5
    rep = balance_report(u1_with_flavors(2))
    assert rep.balances == {"g": 0} and rep.all_balanced
    rep = balance_report(u1_with_flavors(4))
    assert rep.balances == {"g": 2} and rep.positively_balanced
    assert not rep.all_balanced
    rep = balance_report(build_bouquet_quiver(2))
    assert rep.minimally_unbalanced and not rep.has_negative_below_minus_one
    rep = balance_report(Quiver([QuiverNode("f", NodeKind.FLAVOR, U(2))], []))
    assert rep == ({}, frozenset(), True, False, False, False)


def test_orthosymplectic_balance():
    for n in range(2, 9):
        assert balance_report(build_dn_implosion_quiver(n, with_flavor=True)).all_balanced
    bq = build_dn_implosion_quiver(3)
    assert node_balance(bq, f"c{4}") == 0      # USp(2n-2) stays balanced
    assert node_balance(bq, "b1") == 3 - 2     # SO(2) leaves: n - 2


# ---------------------------------------------------------------------------
# classification and prediction


def test_classification_examples():
    comps = balanced_subquiver_classification(build_linear_nilpotent_quiver(6))
    assert [c.label for c in comps] == ["A5"]
    comps = balanced_subquiver_classification(build_bouquet_quiver(3))
    assert len(comps) == 1 and not comps[0].recognized
    assert comps[0].shape == "star(1,1,1,1)"
    lone = Quiver([QuiverNode("g", NodeKind.GAUGE, U(3))], [])
    assert balanced_subquiver_classification(lone) == []


def star_quiver(center_dim, legs, flavor_on=None, flavor_dim=1):
    """Star-shaped quiver: a center plus descending legs given as dimension
    lists walking outward; optionally one flavor node attached somewhere."""
    nodes = [QuiverNode("c", NodeKind.GAUGE, U(center_dim))]
    edges = []
    for li, dims in enumerate(legs):
        prev = "c"
        for j, dim in enumerate(dims):
            nid = f"n{li}_{j}"
            nodes.append(QuiverNode(nid, NodeKind.GAUGE, U(dim)))
            edges.append((prev, nid))
            prev = nid
    if flavor_on is not None:
        nodes.append(QuiverNode("fl", NodeKind.FLAVOR, U(flavor_dim)))
        edges.append((flavor_on, "fl"))
    return Quiver(nodes, edges)


def test_classification_d_and_e_shapes():
    # Balanced dimension vectors: affine marks with a unit flavor standing
    # in for the deleted affine node.  The Coulomb branch is the minimal
    # nilpotent orbit of the symmetry g, whose t^2 coefficient is dim g
    # (arXiv:1005.3026).
    for q, label, dim in (
            (star_quiver(2, [[1], [1], [1]], flavor_on="c"), "D4", 28),
            (star_quiver(2, [[1], [1], [2, 1]], flavor_on="n2_0"), "D5", 45),
            (star_quiver(3, [[2, 1], [2, 1], [2]], flavor_on="n2_0"), "E6", 78),
            (star_quiver(4, [[3, 2, 1], [3, 2], [2]], flavor_on="n1_1"), "E7", 133),
            (star_quiver(6, [[5, 4, 3, 2], [4, 2], [3]], flavor_on="n0_3"), "E8", 248)):
        assert balance_report(q).all_balanced
        assert [c.label for c in balanced_subquiver_classification(q)] == [label]
        assert predict_global_symmetry(q).total_dimension == dim
        assert coulomb_hilbert_series(HSRequest(q, 2)).coefficient(2) == dim


def test_classification_unrecognized_shapes():
    # balanced cycle of U(1) nodes: affine A_3, reported not classified
    cyc = Quiver([QuiverNode(f"a{i}", NodeKind.GAUGE, U(1)) for i in range(4)],
                 [("a0", "a1"), ("a1", "a2"), ("a2", "a3"), ("a3", "a0")])
    comps = balanced_subquiver_classification(cyc)
    assert len(comps) == 1 and not comps[0].recognized
    assert comps[0].shape == "cycle(4)"
    # star with legs (1,2,5) is no E diagram
    bad = star_quiver(2, [[1], [1, 1], [1, 1, 1, 1, 1]])
    labels = balanced_subquiver_classification(bad)
    star = [c for c in labels if c.shape.startswith("star")]
    assert all(not c.recognized for c in star)
    # affine D5, two U(2) nodes with two U(1) leaves each: two branch points
    ids = ["c1", "c2", "a", "b", "d", "e"]
    d5 = Quiver([QuiverNode(i, NodeKind.GAUGE, U(2 if i[0] == "c" else 1)) for i in ids],
                [("c1", "c2"), ("c1", "a"), ("c1", "b"), ("c2", "d"), ("c2", "e")])
    comps = balanced_subquiver_classification(d5)
    assert [(c.shape, c.recognized) for c in comps] == [("tree(multiple branch points)", False)]


def test_predict_global_symmetry_examples():
    pred = predict_global_symmetry(build_linear_nilpotent_quiver(6))
    assert [c.label for c in pred.factors] == ["A5"]
    assert pred.abelian_rank == 0
    assert pred.total_dimension == 35

    pred = predict_global_symmetry(build_bouquet_quiver(6))
    assert [c.label for c in pred.factors] == ["A5"]
    assert pred.abelian_rank == 5
    assert pred.total_dimension == 40  # = 6^2 + 6 - 2

    pred = predict_global_symmetry(u1_with_flavors(4))
    assert pred.factors == () and pred.abelian_rank == 1

    # n=3: every node balanced, affine star flagged, nothing predicted
    pred = predict_global_symmetry(build_bouquet_quiver(3))
    assert pred.factors == () and len(pred.unrecognized) == 1
    assert pred.abelian_rank == 0


def test_predict_symmetry_dimension_rule():
    for n in range(4, 10):
        pred = predict_global_symmetry(build_bouquet_quiver(n))
        assert [c.label for c in pred.factors] == [f"A{n-1}"]
        assert pred.abelian_rank == n - 1
        assert pred.total_dimension == n * n + n - 2


def test_detect_decoupled_u1():
    assert detect_decoupled_u1(build_bouquet_quiver(2))
    assert detect_decoupled_u1(build_bouquet_quiver(5))
    assert not detect_decoupled_u1(u1_with_flavors(3))
    assert not detect_decoupled_u1(build_dn_implosion_quiver(3))
    assert not detect_decoupled_u1(Quiver([], []))
    assert not detect_decoupled_u1(ungauge(build_bouquet_quiver(3), "b1"))
    # judged per connected component: a flavorless U(1) pair beside a
    # flavored node decouples, a fixed node in its component does not
    split = Quiver([QuiverNode(i, NodeKind.GAUGE, U(1)) for i in "abc"]
                   + [QuiverNode("f", NodeKind.FLAVOR, U(2))],
                   [("a", "b"), ("c", "f")])
    assert detect_decoupled_u1(split)
    assert not detect_decoupled_u1(ungauge(split, "a"))
    lone_u2 = Quiver([QuiverNode("h", NodeKind.GAUGE, U(2))]
                     + list(u1_with_flavors(3).nodes), [("g", "f")])
    assert detect_decoupled_u1(lone_u2)
    assert decoupled_u1_count(lone_u2) == 1


def test_one_abelian_factor_less_per_decoupled_component():
    # Two U(1) - U(1) pairs, no flavor: four unbalanced U(1) nodes and two
    # decoupled diagonal U(1)s; each pair is U(1) with one flavor once its
    # diagonal is removed, so the abelian rank is 2.
    pairs = Quiver([QuiverNode(i, NodeKind.GAUGE, U(1)) for i in "abcd"],
                   [("a", "b"), ("c", "d")])
    assert decoupled_u1_count(pairs) == 2
    assert decoupled_u1_count(ungauge(pairs, "a")) == 1
    assert predict_global_symmetry(pairs).abelian_rank == 2
    assert predict_global_symmetry(ungauge(pairs, "a")).abelian_rank == 2


# ---------------------------------------------------------------------------
# ungauging, ranks, dimensions


def test_ungauge():
    q = build_bouquet_quiver(3)
    uq = ungauge(q, "b1")
    assert len(uq.nodes) == 5
    assert uq.node("b1").kind is NodeKind.FIXED
    assert len(uq.fixed_nodes) == 1
    with pytest.raises(QuiverError, match=r"^node 'g2' is not a U\(1\) gauge node$"):
        ungauge(q, "g2")
    with pytest.raises(QuiverError, match=r"^node 'f' is not a U\(1\) gauge node$"):
        ungauge(build_linear_nilpotent_quiver(3), "f")
    with pytest.raises(QuiverError, match="^no node 'zz'$"):
        ungauge(q, "zz")


def test_ungauge_choices_isomorphic():
    q = build_bouquet_quiver(3)
    a, b = ungauge(q, "b1"), ungauge(q, "b2")
    # graph automorphism b1 <-> b2 maps one onto the other
    rename = {"b1": "b2", "b2": "b1"}
    mapped_nodes = {rename.get(n.id, n.id): (n.kind, n.group) for n in a.nodes}
    b_nodes = {n.id: (n.kind, n.group) for n in b.nodes}
    assert mapped_nodes == b_nodes
    mapped_edges = sorted(tuple(sorted((rename.get(x, x), rename.get(y, y))))
                          for x, y in a.edges)
    assert mapped_edges == sorted(b.edges)


def test_gauge_group_rank_examples():
    assert gauge_group_rank(ungauge(build_bouquet_quiver(3), "b1")) == 5
    assert gauge_group_rank(build_dn_implosion_quiver(3)) == 9
    assert gauge_group_rank(Quiver([], [])) == 0


def test_expected_coulomb_dimension():
    assert expected_coulomb_dimension_real(ungauge(build_bouquet_quiver(3), "b1")) == 20
    assert expected_coulomb_dimension_real(build_dn_implosion_quiver(3)) == 36
    assert expected_coulomb_dimension_real(Quiver([], [])) == 0
    with pytest.raises(DecoupledU1UnresolvedError):
        expected_coulomb_dimension_real(build_bouquet_quiver(3))


def test_dimension_bookkeeping_families():
    for n in range(2, 11):
        uq = ungauge(build_bouquet_quiver(n), "b1")
        assert expected_coulomb_dimension_real(uq) == 2 * (n * n + n - 2)
    for n in range(2, 9):
        assert 4 * gauge_group_rank(build_dn_implosion_quiver(n)) == 4 * n * n


# ---------------------------------------------------------------------------
# constructors


def test_build_linear_nilpotent():
    q = build_linear_nilpotent_quiver(6)
    assert [n.group.n for n in q.gauge_nodes] == [1, 2, 3, 4, 5]
    assert q.node("f").group.n == 6 and q.node("f").kind is NodeKind.FLAVOR
    assert len(q.edges) == 5
    q2 = build_linear_nilpotent_quiver(2)
    assert len(q2.gauge_nodes) == 1 and q2.node("f").group.n == 2
    q3 = build_linear_nilpotent_quiver(3)
    assert sorted(n.id for n in q3.nodes) == ["f", "g1", "g2"]
    with pytest.raises(QuiverError, match="^need n >= 2$"):
        build_linear_nilpotent_quiver(1)


def test_linear_quiver_all_balanced():
    for n in range(2, 13):
        assert balance_report(build_linear_nilpotent_quiver(n)).all_balanced


def test_bouquet_replace():
    q = build_linear_nilpotent_quiver(6)
    b = bouquet_replace(q, "f", 6)
    leaves = [n for n in b.nodes if n.id.startswith("b")]
    assert len(leaves) == 6 and all(n.group == U(1) for n in leaves)
    assert all(("b%d" % i, "g5") in [tuple(sorted(e)) for e in b.edges] or
               ("g5", "b%d" % i) in b.edges for i in range(1, 7))
    # n=2: three U(1) nodes in a row
    b2 = build_bouquet_quiver(2)
    assert sorted(n.id for n in b2.nodes) == ["b1", "b2", "g1"]
    assert all(n.group == U(1) for n in b2.nodes)
    # n=3: star with U(2) center and four U(1) legs
    b3 = build_bouquet_quiver(3)
    assert len(b3.neighbors("g2")) == 4
    assert b3.node("g2").group == U(2)
    # b1 is taken, so the leaves are named after the flavor node
    taken = Quiver([QuiverNode("g", NodeKind.GAUGE, U(2)), QuiverNode("b1", NodeKind.GAUGE, U(1)),
                    QuiverNode("f", NodeKind.FLAVOR, U(2))], [("g", "b1"), ("g", "f")])
    assert [n.id for n in bouquet_replace(taken, "f", 2).nodes] == ["g", "b1", "f_b1", "f_b2"]


def test_bouquet_replace_preserves_balance():
    for n in range(2, 9):
        q = build_linear_nilpotent_quiver(n)
        before = balance_report(q).balances
        after = balance_report(bouquet_replace(q, "f", n)).balances
        assert all(after[i] == before[i] for i in before)


def test_bouquet_replace_errors():
    q = build_linear_nilpotent_quiver(4)
    with pytest.raises(QuiverError, match="^node 'g2' is not a flavor node$"):
        bouquet_replace(q, "g2", 2)
    with pytest.raises(QuiverError, match="^flavor node 'f' has dimension 4, not 3$"):
        bouquet_replace(q, "f", 3)
    doubly = Quiver(
        [QuiverNode("g1", NodeKind.GAUGE, U(2)), QuiverNode("g2", NodeKind.GAUGE, U(2)),
         QuiverNode("f", NodeKind.FLAVOR, U(2))],
        [("g1", "f"), ("g2", "f")])
    with pytest.raises(QuiverError, match="^flavor node 'f' must have exactly one "
                       "incident edge, found 2$"):
        bouquet_replace(doubly, "f", 2)


def test_partial_implosion():
    q = build_partial_implosion_quiver(3, (1, 1, 1))
    b = build_bouquet_quiver(3)
    # graph-isomorphic to the bouquet: same degree/dimension profile
    def profile(quiver):
        return sorted((n.group.n, sorted(quiver.node(o).group.n
                                         for o in quiver.neighbors(n.id)))
                      for n in quiver.nodes)
    assert profile(q) == profile(b)

    q22 = build_partial_implosion_quiver(4, (2, 2))
    assert gauge_group_rank(q22) == 12
    assert gauge_group_rank(ungauge(q22, "l1_1")) == (16 - 2 + 8) // 2

    q2 = build_partial_implosion_quiver(2, (2,))
    assert sorted((n.id, n.group.n) for n in q2.nodes) == \
        [("g1", 1), ("l1_1", 1), ("l1_2", 2)]
    assert ("g1", "l1_2") in q2.edges

    with pytest.raises(QuiverError, match=r"^partition \[2, 3\] does not sum to 4 "
                       "with positive parts$"):
        build_partial_implosion_quiver(4, (2, 3))
    with pytest.raises(QuiverError, match=r"^partition \[5, -1\] does not sum to 4 "
                       "with positive parts$"):
        build_partial_implosion_quiver(4, (5, -1))


def test_partial_implosion_rank_formula():
    # rank after ungauging one U(1) leg end = (n^2 - 2 + sum n_i^2)/2
    cases = [(4, (2, 2)), (5, (3, 2)), (5, (2, 2, 1)), (6, (3, 2, 1))]
    for n, parts in cases:
        q = build_partial_implosion_quiver(n, parts)
        leaf = next(nid for nid in (f"l{i}_1" for i in range(1, len(parts) + 1)))
        got = gauge_group_rank(ungauge(q, leaf))
        assert got == (n * n - 2 + sum(p * p for p in parts)) // 2


def test_build_dn_quiver():
    q = build_dn_implosion_quiver(3)
    chain = [q.node(f"c{k}").group for k in range(1, 5)]
    assert chain == [SO(2), USp(2), SO(4), USp(4)]
    assert sum(1 for n in q.nodes if n.id.startswith("b")) == 3
    assert all(q.node(f"b{i}").group == SO(2) for i in (1, 2, 3))
    qf = build_dn_implosion_quiver(3, with_flavor=True)
    assert qf.node("f").group == SO(6)
    assert balance_report(qf).all_balanced


# ---------------------------------------------------------------------------
# JSON


def test_quiver_json_round_trip():
    for q in (build_linear_nilpotent_quiver(4),
              ungauge(build_bouquet_quiver(3), "b1"),
              build_dn_implosion_quiver(3)):
        blob = json.dumps(quiver_to_json(q), sort_keys=True)
        back = quiver_from_json(json.loads(blob))
        assert back == q
        assert json.dumps(quiver_to_json(back), sort_keys=True) == blob


def test_quiver_json_diagnostics():
    with pytest.raises(QuiverError, match="nodes\\[0\\]"):
        quiver_from_json({"nodes": [{"id": "a", "kind": "gauge",
                                     "group": {"family": "USp", "n": 3}}],
                          "edges": []})
    with pytest.raises(QuiverError, match="edges\\[1\\]"):
        quiver_from_json({"nodes": [{"id": "a", "kind": "gauge",
                                     "group": {"family": "U", "n": 1}},
                                    {"id": "b", "kind": "flavor",
                                     "group": {"family": "U", "n": 2}}],
                          "edges": [["a", "b"], ["a"]]})
    with pytest.raises(QuiverError, match="self-loop"):
        quiver_from_json({"nodes": [{"id": "a", "kind": "gauge",
                                     "group": {"family": "U", "n": 1}}],
                          "edges": [["a", "a"]]})
