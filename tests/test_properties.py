"""Property test: the engine (box-1 search, tree sum over a cycle cutset,
refined monomials) against the brute-force box sum on small random
quivers."""

from fractions import Fraction
from itertools import chain, product
from math import prod
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st

import coulomb_hs.engine as engine
from coulomb_hs.engine import (
    BadTheoryError,
    HSRequest,
    compute_hilbert_series,
    coulomb_hilbert_series,
    enumerate_charges,
    _Problem,
    _box_charges,
    _candidates,
    _cell_sum,
    _proven_box,
    _tree_sum,
)
from coulomb_hs.liedata import dominant_charges
from coulomb_hs.quiver import (
    Family,
    NodeKind,
    Quiver,
    QuiverNode,
    SO,
    U,
    USp,
    build_bouquet_quiver,
    build_partial_implosion_quiver,
    detect_decoupled_u1,
    ungauge,
)

from brute import (cell_sum_ref, cell_weight, charges_ref, series_ref, shell_min_ref,
                   topological_counts)


@st.composite
def unitary_quivers(draw, cycles=0, forest=False):
    """A tree of U(1)/U(2) nodes with ``cycles`` extra edges closing cycles,
    up to four nodes in all; with ``forest``, a tree of one or two nodes
    next to a second component of U(1) nodes with its own flavor.  A tree
    edge may be doubled, nodes get flavors and one U(1) may be ungauged.
    Paired with a drawn set of gauge nodes to refine."""
    n = draw(st.integers((1, 3, 4)[cycles], 2 if forest else 4))
    ranks = [draw(st.integers(1, 2)) if i == 0 else 1 for i in range(n)]
    ids = [f"u{i}" for i in range(n)]
    nodes = [QuiverNode(i, NodeKind.GAUGE, U(r)) for i, r in zip(ids, ranks)]
    edges = [(ids[draw(st.integers(0, i - 1))], ids[i]) for i in range(1, n)]
    if edges and draw(st.booleans()):
        edges.append(draw(st.sampled_from(edges)))
    chords = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)
              if (ids[i], ids[j]) not in edges]
    for _ in range(cycles):
        chord = draw(st.sampled_from(chords))
        chords.remove(chord)
        edges.append(chord)
    for i in ids:
        f = draw(st.integers(0, 3))
        if f:
            nodes.append(QuiverNode(f"f{i}", NodeKind.FLAVOR, U(f)))
            edges.append((i, f"f{i}"))
    q = Quiver(nodes, edges)
    abelian = [i for i, r in zip(ids, ranks) if r == 1]
    if abelian and (detect_decoupled_u1(q) or draw(st.booleans())):
        q = ungauge(q, draw(st.sampled_from(abelian)))
    if detect_decoupled_u1(q):  # a lone U(2) with no flavor
        q = Quiver(q.nodes + (QuiverNode("f", NodeKind.FLAVOR, U(4)),),
                   q.edges + (("u0", "f"),))
    if forest:  # three nodes at most keep the brute-force box fast
        k = draw(st.integers(1, 3 - n))
        q = Quiver(q.nodes + tuple(QuiverNode(f"w{i}", NodeKind.GAUGE, U(1))
                                   for i in range(k))
                   + (QuiverNode("fw", NodeKind.FLAVOR, U(draw(st.integers(1, 2)))),),
                   q.edges + (("w0", "fw"),) + (("w0", "w1"),) * (k - 1))
    gauge = sorted(nd.id for nd in q.gauge_nodes)
    return q, frozenset(draw(st.sets(st.sampled_from(gauge)) if gauge else st.just(set())))


@st.composite
def orthosymplectic_chains(draw):
    """An alternating SO/USp chain of one to three nodes of rank <= 2, with
    a flavor of the opposite family at either end."""
    n = draw(st.integers(1, 3))
    so_first = draw(st.booleans())
    nodes = []
    for k in range(n):
        if (k % 2 == 0) == so_first:
            group = SO(draw(st.integers(2, 4 if n < 3 else 3)))
        else:
            group = USp(2 * draw(st.integers(1, 2 if n < 3 else 1)))
        nodes.append(QuiverNode(f"c{k}", NodeKind.GAUGE, group))
    edges = [(f"c{k}", f"c{k + 1}") for k in range(n - 1)]
    for end in sorted({0, n - 1}):
        if nodes[end].group.family is Family.ORTHOGONAL:
            f = 2 * draw(st.integers(0, 3))
            group = USp(f) if f else None
        else:
            f = draw(st.integers(0, 10))
            group = SO(f) if f else None
        if group is not None:
            nodes.append(QuiverNode(f"f{end}", NodeKind.FLAVOR, group))
            edges.append((f"c{end}", f"f{end}"))
    return Quiver(nodes, edges), frozenset()


def unitary_case(ranks, edges, flavors=(), pin=None, refined=()):
    """One case of ``unitary_quivers``' shape, written out: U(r) nodes u0,
    u1, ... joined by the index pairs of ``edges``, a U(f) flavor on u<i>
    for each (i, f) in ``flavors``, u<pin> ungauged and the ``refined``
    ids.  Hypothesis draws its cases from a digest of the test's source,
    so a case that must be covered is an ``@example``."""
    ids = [f"u{i}" for i in range(len(ranks))]
    nodes = [QuiverNode(i, NodeKind.GAUGE, U(r)) for i, r in zip(ids, ranks)]
    edges = [(ids[a], ids[b]) for a, b in edges]
    for i, f in flavors:
        nodes.append(QuiverNode(f"f{ids[i]}", NodeKind.FLAVOR, U(f)))
        edges.append((ids[i], f"f{ids[i]}"))
    q = Quiver(nodes, edges)
    return (q if pin is None else ungauge(q, ids[pin])), frozenset(refined)


# A U(2) on a 4-cycle with a flavor, which the cutset conditions on.
FLAVORED_SQUARE = unitary_case([2, 1, 1, 1], [(0, 1), (1, 2), (2, 3), (3, 0)], [(0, 2)])
# A 4-cycle with two chords, so two edges close cycles.
TWO_CHORDS = unitary_case([1, 1, 1, 1], [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)], [(0, 1)])
# U(2) and U(1) joined by a doubled edge.
DOUBLED_EDGE = unitary_case([2, 1], [(0, 1), (0, 1)], [(0, 1), (1, 1)])
# A U(2) star with two refined nodes.
REFINED_STAR = unitary_case([2, 1, 1], [(0, 1), (0, 2)], [(0, 1), (1, 1)],
                            refined={"u0", "u1"})
# u0 with a pinned u1, beside u2 with a flavor of its own.
PINNED_FOREST = unitary_case([1, 1, 1], [(0, 1)], [(0, 1), (2, 2)], pin=1)
# U(1) with three flavors.
SQED = unitary_case([1], [], [(0, 3)])
# SO(3)-USp(2) with an odd SO flavor on the USp end.
ODD_SO_CHAIN = (Quiver(
    [QuiverNode("c0", NodeKind.GAUGE, SO(3)), QuiverNode("c1", NodeKind.GAUGE, USp(2)),
     QuiverNode("f0", NodeKind.FLAVOR, USp(2)), QuiverNode("f1", NodeKind.FLAVOR, SO(5))],
    [("c0", "c1"), ("c0", "f0"), ("c1", "f1")]), frozenset())


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=st.one_of(unitary_quivers(), unitary_quivers(cycles=1),
                     unitary_quivers(cycles=2), unitary_quivers(forest=True),
                     orthosymplectic_chains()),
       order=st.integers(0, 4))
@example(case=FLAVORED_SQUARE, order=4)
@example(case=TWO_CHORDS, order=4)
@example(case=PINNED_FOREST, order=4)
@example(case=ODD_SO_CHAIN, order=4)
@example(case=REFINED_STAR, order=4)
def test_engine_matches_brute_force(case, order):
    q, refined = case
    req = HSRequest(q, order, refined=refined)
    c = shell_min_ref(q, 1)
    if c is not None and c <= 0:
        with pytest.raises(BadTheoryError):
            compute_hilbert_series(req)
        return
    result = compute_hilbert_series(req)
    assert coulomb_hilbert_series(req) == result.series
    bound = result.stats.bound_reached
    assert bound == (0 if c is None else 2 * order // int(4 * c))
    assert bound <= order  # a positive 4*Delta is at least 2
    ids = sorted(refined)
    charges = charges_ref(q, order, bound + 1)
    want = series_ref(q, order, charges, refined=ids or None)
    got = [result.series.coefficient(k) for k in range(order + 1)]
    if ids:
        got = [topological_counts(x, ids) for x in got]
    assert got == want
    # The charges and their 4*Delta, as the tree pass lists them, against
    # the unpruned box one past the proven one.
    prob = _Problem(q)
    found = _box_charges(prob, bound, 2 * order)
    slots = [prob.index[nd.id] for nd in q.gauge_nodes]
    assert {tuple(vec[v] for v in slots): d4 for vec, d4 in found.items()} == charges
    listed = enumerate_charges(q, Fraction(order, 2))
    assert sorted(c.charges for c in listed) == sorted(found)
    assert result.stats.charge_count == len(listed)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=st.one_of(unitary_quivers(), unitary_quivers(cycles=1),
                     unitary_quivers(cycles=2), unitary_quivers(forest=True)),
       order=st.integers(0, 10))
@example(case=FLAVORED_SQUARE, order=10)
@example(case=DOUBLED_EDGE, order=10)
@example(case=PINNED_FOREST, order=10)
@example(case=SQED, order=10)
def test_cell_sum_matches_the_tree_pass(case, order):
    # Both routes of an unrefined solve, called directly, give one series
    # and one charge count on trees, cycles, forests and pinned nodes; at
    # low order the brute-force box sum over the proven box agrees.
    q, _ = case
    prob = _Problem(q)
    c = shell_min_ref(q, 1)
    if c is not None and c <= 0:
        with pytest.raises(BadTheoryError):
            _proven_box(prob, 2 * order)
        return
    bound = _proven_box(prob, 2 * order)
    coeffs, counts = _cell_sum(prob, order, True)
    assert (coeffs, counts) == _tree_sum(prob, order, bound, [], True)
    assert _cell_sum(prob, order, False) == (coeffs, None)
    if order <= 4:
        charges = charges_ref(q, order, bound)
        assert [coeffs.get(k, 0) for k in range(order + 1)] == series_ref(q, order, charges)
        assert sum(counts.values()) == len(charges)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=st.one_of(unitary_quivers(), unitary_quivers(cycles=1),
                     unitary_quivers(cycles=2), unitary_quivers(forest=True)))
@example(case=FLAVORED_SQUARE)
@example(case=DOUBLED_EDGE)
def test_shell_one_minimum_is_twice_the_least_cell_weight(case):
    # The proven box from a second side: on a unitary quiver, 4*Delta is
    # linear on the cells of weak orderings of the entries around 0, so
    # its least value c4 over shell 1 is at a 0/1 charge, c4 = 2 min w(c)
    # over the nonzero count vectors c <= r.  A pinned node enters w as a
    # flavor.  A bad theory has both sides <= 0.
    q, _ = case
    ids = [nd.id for nd in q.gauge_nodes]
    least = min((cell_weight(q, dict(zip(ids, c)))
                 for c in product(*(range(nd.group.n + 1) for nd in q.gauge_nodes))
                 if any(c)), default=None)
    c = shell_min_ref(q, 1)
    if c is None:
        assert least is None
    elif c > 0:
        assert 4 * c == 2 * least
    else:
        assert least <= 0


def least_cell_weight(q):
    """The least ``cell_weight`` over the nonzero count vectors: half the
    c4 of the proven box, by the test above."""
    ids = [nd.id for nd in q.gauge_nodes]
    return min(cell_weight(q, dict(zip(ids, c)))
               for c in product(*(range(nd.group.n + 1) for nd in q.gauge_nodes))
               if any(c))


@st.composite
def twin_leaf_quivers(draw, cycle=False):
    """A core path of one to three gauge nodes (u0 of rank 1 or 2, the rest
    U(1)) with a flavor on u0, or with ``cycle`` a triangle of three, whose
    cycle cutset u0 heads; hanging off a drawn core node, k = 2 or 3
    copies of one U(1) leaf, each with the same edge multiplicity and the
    same flavor.  On the triangle they hang off u0, or off u1 as copies of
    its leaf u2, which closes the cycle.  Paired with a refined set that
    may hold one copy, which then carries a digit."""
    n = 3 if cycle else draw(st.integers(1, 3))
    ids = [f"u{i}" for i in range(n)]
    nodes = [QuiverNode(i, NodeKind.GAUGE, U(draw(st.integers(1, 2)) if i == "u0" else 1))
             for i in ids]
    nodes.append(QuiverNode("f", NodeKind.FLAVOR, U(draw(st.integers(1, 2)))))
    edges = [(ids[i - 1], ids[i]) for i in range(1, n)] + [("u0", "f")]
    if cycle:
        edges.append(("u0", "u2"))
    parent = draw(st.sampled_from(ids[:2] if cycle else ids))
    if cycle and parent == "u1":  # copies of u2, which closes the cycle
        mult, f = 1, 0
    else:
        mult, f = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    copies = [f"t{j}" for j in range(draw(st.integers(2, 3)))]
    for t in copies:
        nodes.append(QuiverNode(t, NodeKind.GAUGE, U(1)))
        edges += [(parent, t)] * mult
        if f:
            nodes.append(QuiverNode(f"f{t}", NodeKind.FLAVOR, U(f)))
            edges.append((t, f"f{t}"))
    return Quiver(nodes, edges), frozenset(copies[:draw(st.integers(0, 1))])


def copies_beside_a_leaf(cycle: bool) -> tuple:
    """The path u0-u1-u2 of U(1)s, closed into a triangle with ``cycle``,
    with a U(1) flavor on u0 and two U(1) copies t0, t1 on u1.  On the
    triangle they copy the leaf u2, which closes the cycle; on the path
    they differ from it by a U(1) flavor each."""
    nodes = [QuiverNode(i, NodeKind.GAUGE, U(1)) for i in ("u0", "u1", "u2", "t0", "t1")]
    nodes.append(QuiverNode("f", NodeKind.FLAVOR, U(1)))
    edges = [("u0", "u1"), ("u1", "u2"), ("u1", "t0"), ("u1", "t1"), ("u0", "f")]
    if cycle:
        edges.append(("u0", "u2"))
    else:
        nodes += [QuiverNode(f"f{t}", NodeKind.FLAVOR, U(1)) for t in ("t0", "t1")]
        edges += [("t0", "ft0"), ("t1", "ft1")]
    return Quiver(nodes, edges), frozenset()


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=st.one_of(twin_leaf_quivers(), twin_leaf_quivers(cycle=True)),
       order=st.integers(0, 3))
@example(case=copies_beside_a_leaf(cycle=True), order=3)
@example(case=copies_beside_a_leaf(cycle=False), order=3)
def test_copied_leaves_match_the_box_sum(case, order):
    # Copies of a leaf, also under a cutset node and with one copy
    # refined: the box is the closed form's, and the series and the charge
    # count are the brute-force box sum's.
    q, refined = case
    req = HSRequest(q, order, refined=refined)
    least = least_cell_weight(q)
    if least <= 0:
        with pytest.raises(BadTheoryError):
            compute_hilbert_series(req)
        return
    result = compute_hilbert_series(req)
    assert result.stats.bound_reached == order // least
    ids = sorted(refined)
    charges = charges_ref(q, order, result.stats.bound_reached)
    want = series_ref(q, order, charges, refined=ids or None)
    got = [result.series.coefficient(k) for k in range(order + 1)]
    if ids:
        got = [topological_counts(x, ids) for x in got]
    assert got == want
    assert result.stats.charge_count == len(charges)


def split_charge(combo: tuple, sign: int) -> tuple:
    """m+ (``sign`` 1) or m- (``sign`` -1) of a unitary charge, a tuple of
    node charges: max(sign * m, 0) entrywise, sorted back into each
    node's dominant chamber."""
    return tuple(tuple(sorted((max(sign * x, 0) for x in c), reverse=True)) for c in combo)


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=st.one_of(unitary_quivers(), unitary_quivers(cycles=1),
                     unitary_quivers(cycles=2), unitary_quivers(forest=True)),
       order=st.integers(0, 4))
@example(case=DOUBLED_EDGE, order=4)
@example(case=PINNED_FOREST, order=4)
@example(case=FLAVORED_SQUARE, order=4)
def test_unitary_charges_split_into_positive_and_negative_parts(case, order):
    # Every unitary term |a - b| is |a+ - b+| + |a- - b-|, so Delta(m) =
    # Delta(m+) + Delta(m-) on box 2, with Delta as in delta_ref.  Hence
    # every charge with 2*Delta <= K has max m+ + max m- <= B, the proven
    # box: checked on the unpruned box one past it.
    q, _ = case
    box = charges_ref(q, 10 ** 6, 2)  # every charge of box 2, with its 4*Delta
    assert len(box) == prod(len(dominant_charges(nd.group, 2)) for nd in q.gauge_nodes)
    for combo, d4 in box.items():
        assert d4 == box[split_charge(combo, 1)] + box[split_charge(combo, -1)], combo
    c = shell_min_ref(q, 1)
    if c is not None and c <= 0:
        return
    bound = 0 if c is None else 2 * order // int(4 * c)
    for combo in charges_ref(q, order, bound + 1):
        entries = [x for ch in combo for x in ch]
        assert max([0] + entries) + max([0] + [-x for x in entries]) <= bound, combo


# SO(4)-USp(2) with a USp(4) flavor on the SO(4) end and an SO(2) flavor on
# the USp(2) end: SO(4)'s box 1 holds (1, -1), which no 0/1 list has.
SO4_CHAIN = (Quiver(
    [QuiverNode("c0", NodeKind.GAUGE, SO(4)), QuiverNode("c1", NodeKind.GAUGE, USp(2)),
     QuiverNode("f0", NodeKind.FLAVOR, USp(4)), QuiverNode("f1", NodeKind.FLAVOR, SO(2))],
    [("c0", "c1"), ("c0", "f0"), ("c1", "f1")]), frozenset())
# SO(2), the torus U(1), with a USp(2) flavor: (-1,) ties with (1,) on shell 1.
SO2_NODE = (Quiver(
    [QuiverNode("c0", NodeKind.GAUGE, SO(2)), QuiverNode("f0", NodeKind.FLAVOR, USp(2))],
    [("c0", "f0")]), frozenset())
# SQED beside SO(2) with a USp(4) flavor: one unitary and one orthosymplectic
# component, whose least charges split differently.
MIXED_FOREST = (Quiver(
    [QuiverNode("u0", NodeKind.GAUGE, U(1)), QuiverNode("fu", NodeKind.FLAVOR, U(3)),
     QuiverNode("c0", NodeKind.GAUGE, SO(2)), QuiverNode("fc", NodeKind.FLAVOR, USp(4))],
    [("u0", "fu"), ("c0", "fc")]), frozenset())


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=st.one_of(unitary_quivers(), unitary_quivers(cycles=1),
                     unitary_quivers(cycles=2), unitary_quivers(forest=True),
                     orthosymplectic_chains()))
@example(case=SO4_CHAIN)
@example(case=SO2_NODE)
@example(case=MIXED_FOREST)
@example(case=ODD_SO_CHAIN)
def test_proven_box_reads_c4_off_the_0_1_charges(case):
    # The proven box takes c4 from the 0/1 charges 1^c 0^(r - c) alone, and
    # B = thr4 // c4 with c4 = 4 times the least Delta over all of shell 1,
    # negative entries included, for every cutoff up to 80; a bad theory
    # raises.
    q, _ = case
    prob = _Problem(q)
    c = shell_min_ref(q, 1)
    if c is not None and c <= 0:
        with pytest.raises(BadTheoryError):
            _proven_box(prob, 0)
        return
    for thr4 in range(81):
        assert _proven_box(prob, thr4) == (0 if c is None else thr4 // int(4 * c)), thr4


def level_floor(floor: list, x: tuple, unitary: bool) -> int:
    """F(x) from its definition: floor[#{i : x+_i >= k}] summed over the
    levels k >= 1, plus the same for x-, with x+ = max(x, 0) and x- =
    max(-x, 0) on a unitary node and x+ = |x|, x- = 0 on the others."""
    parts = ([[max(e, 0) for e in x], [max(-e, 0) for e in x]] if unitary
             else [[abs(e) for e in x]])
    return sum(floor[sum(e >= k for e in part)]
               for part in parts for k in range(1, max(part, default=0) + 1))


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=st.one_of(unitary_quivers(), unitary_quivers(cycles=1),
                     unitary_quivers(cycles=2), unitary_quivers(forest=True),
                     orthosymplectic_chains()),
       order=st.integers(0, 4))
@example(case=FLAVORED_SQUARE, order=4)
@example(case=DOUBLED_EDGE, order=4)
@example(case=PINNED_FOREST, order=4)
@example(case=SO4_CHAIN, order=4)
@example(case=ODD_SO_CHAIN, order=4)
@example(case=MIXED_FOREST, order=3)
def test_node_floors_bound_every_charge_through_a_candidate(case, order):
    # floor[v][c] is the least 4*Delta of a 0/1 charge with node v at
    # 1^c 0^(r - c).  A charge m is the sum of its level sets, 0/1 charges
    # on which 4*Delta adds up, so F_v(m_v) <= 4*Delta(m) at every node:
    # checked on every charge of box 2.  Box B keeps exactly the
    # candidates x with F_v(x) <= thr4, and so every node's charge of
    # every charge within the cutoff, on the unpruned box one past B.
    q, _ = case
    c = shell_min_ref(q, 1)
    if c is not None and c <= 0:
        return
    gauge = q.gauge_nodes
    unitary = [nd.group.family is Family.UNITARY for nd in gauge]
    box1 = charges_ref(q, 10 ** 6, 1)
    floors = [[min(d4 for combo, d4 in box1.items()
                   if set(chain(*combo)) <= {0, 1} and sum(combo[k]) == n)
               for n in range(nd.group.rank + 1)] for k, nd in enumerate(gauge)]
    prob = _Problem(q)
    assert [prob.floors[prob.index[nd.id]] for nd in gauge] == floors
    for combo, d4 in charges_ref(q, 10 ** 6, 2).items():
        for fl, x, u in zip(floors, combo, unitary):
            assert level_floor(fl, x, u) <= d4, (combo, x)
    thr4 = 2 * order
    bound = _proven_box(prob, thr4)
    full, kept = _candidates(prob, bound), _candidates(prob, bound, thr4)
    slots = [prob.index[nd.id] for nd in gauge]
    for v, fl, u in zip(slots, floors, unitary):
        assert kept[v] == [x for x in full[v] if level_floor(fl, x, u) <= thr4]
    for combo in charges_ref(q, order, bound + 1):
        for v, x in zip(slots, combo):
            assert x in kept[v], (combo, x)


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=st.one_of(unitary_quivers(), unitary_quivers(cycles=1),
                     unitary_quivers(cycles=2), unitary_quivers(forest=True)),
       order=st.integers(0, 10))
@example(case=FLAVORED_SQUARE, order=10)
@example(case=TWO_CHORDS, order=10)
@example(case=PINNED_FOREST, order=10)
@example(case=DOUBLED_EDGE, order=10)
def test_cell_sum_matches_its_oracle(case, order):
    # The engine's cell sum reads w(c) off the tables of the 0/1 charges,
    # which the proven box shares; the oracle reads it off the counts
    # alone and sums naively over count vectors.  Series and charge counts.
    q, _ = case
    prob = _Problem(q)
    c = shell_min_ref(q, 1)
    if c is not None and c <= 0:
        with pytest.raises(BadTheoryError):
            _proven_box(prob, 2 * order)
        return
    coeffs, counts = _cell_sum(prob, order, True)
    assert [coeffs.get(k, 0) for k in range(order + 1)] == cell_sum_ref(q, order)
    assert ([counts.get(2 * k, 0) for k in range(order + 1)]
            == cell_sum_ref(q, order, dressed=False))


@st.composite
def unitary_forests(draw):
    """A forest of one or two trees: a core of one to three gauge nodes, u0
    of rank r = 1 to 3 and the rest U(1), each joining a drawn earlier node
    by a single or doubled edge or starting a tree of its own, with a
    flavor on each tree's first node (2r - 2 to 2r of them on u0) and
    maybe on the others; then, on a drawn
    core node, none or two U(1) twin leaves with one flavor; and maybe one
    pinned U(1), unless it is the only gauge node."""
    n = draw(st.integers(1, 3))
    ids = [f"u{i}" for i in range(n)]
    r = draw(st.integers(1, 3))
    nodes = [QuiverNode("u0", NodeKind.GAUGE, U(r))]
    nodes += [QuiverNode(i, NodeKind.GAUGE, U(1)) for i in ids[1:]]
    edges, firsts = [], ["u0"]
    for i in range(1, n):
        p = draw(st.integers(-1, i - 1))
        if p < 0:
            firsts.append(ids[i])
        else:
            edges += [(ids[p], ids[i])] * draw(st.integers(1, 2))
    for i in ids:
        # u0 of rank r gets 2r - 2 to 2r flavors, so that U(2) and U(3)
        # are mostly good theories.
        low, high = (max(2 * r - 2, 1), 2 * r) if i == "u0" else (int(i in firsts), 3)
        f = draw(st.integers(low, high))
        if f:
            nodes.append(QuiverNode(f"f{i}", NodeKind.FLAVOR, U(f)))
            edges.append((i, f"f{i}"))
    if n < 3 and draw(st.booleans()):
        at, f = draw(st.sampled_from(ids)), draw(st.integers(0, 1))
        for t in ("t0", "t1"):
            nodes.append(QuiverNode(t, NodeKind.GAUGE, U(1)))
            edges.append((at, t))
            if f:
                nodes.append(QuiverNode(f"f{t}", NodeKind.FLAVOR, U(f)))
                edges.append((t, f"f{t}"))
    q = Quiver(nodes, edges)
    abelian = [nd.id for nd in q.gauge_nodes if nd.group == U(1)]
    if abelian and len(q.gauge_nodes) > 1 and draw(st.booleans()):
        q = ungauge(q, draw(st.sampled_from(abelian)))
    return q


# The benchmark's affine E6 (partial implosion of SU(4) at (2, 2)) and
# bouquet(5), each with its first leaf pinned.
AFFINE_E6 = ungauge(build_partial_implosion_quiver(4, [2, 2]), "l1_1")
BOUQUET_5 = ungauge(build_bouquet_quiver(5), "b1")


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(q=unitary_forests(), order=st.integers(0, 3))
@example(q=AFFINE_E6, order=6)
@example(q=BOUQUET_5, order=4)
def test_conjugate_candidates_share_their_work(q, order):
    # The unrefined tree pass over a unitary forest prices each pair of
    # conjugate candidates c and -c reversed once.  Its series and charge
    # counts equal the pass with no conjugation map, which sends at least
    # as many messages, and the cell sum's; on a box of at most 40000
    # charges, also the brute-force box sum's.
    prob = _Problem(q)
    if least_cell_weight(q) <= 0:
        with pytest.raises(BadTheoryError):
            _proven_box(prob, 2 * order)
        return
    bound = _proven_box(prob, 2 * order)
    sent = []
    message = engine._message

    def counted(*args):
        sent[-1] += 1
        return message(*args)
    with mock.patch.object(engine, "_message", counted):
        sent.append(0)
        got = _tree_sum(prob, order, bound, [], True)
        sent.append(0)
        with mock.patch.object(engine, "negation", lambda g, cands: None):
            assert _tree_sum(prob, order, bound, [], True) == got
    assert sent[0] <= sent[1]
    coeffs, counts = got
    assert got == _cell_sum(prob, order, True)
    if prod(len(dominant_charges(nd.group, bound)) for nd in q.gauge_nodes) <= 40000:
        charges = charges_ref(q, order, bound)
        assert [coeffs.get(k, 0) for k in range(order + 1)] == series_ref(q, order, charges)
        assert sum(counts.values()) == len(charges)
